"""The detailed, cycle-accurate out-of-order pipeline simulator.

Models a MIPS R10000-like core (paper Figure 1 / Table 1): 4-wide fetch,
decode, and retire; 16-entry integer, floating-point, and address
queues; 2 integer ALUs, 2 FPUs, and one load/store address adder;
64 + 64 physical registers; speculation through up to 4 conditional
branches; and non-blocking caches reached through the issue/poll
interface of :class:`repro.cache.MemorySystem`.

Two properties are load-bearing for memoization (paper §4.1):

1. **The iQ is the only state carried between cycles.** Register
   renaming, issue-queue occupancy, functional-unit availability, the
   speculative-branch count, and the fetch PC are all *recomputed every
   cycle* from the iQ (the fetch PC is cached in an attribute but is a
   pure function of the youngest iQ entry and is rebuilt on restore).
2. **All interaction with the outside goes through yielded
   requests** (:mod:`repro.uarch.interactions`): the simulator is a
   generator that yields requests and receives outcomes, so its
   behaviour is a deterministic function of (iQ state, outcome
   sequence). That is what the p-action cache records and replays.

Model simplifications (documented in DESIGN.md): in-order dispatch
stalls at the first blocked instruction; multiply/divide share one
non-pipelined slot (as do FP divide/sqrt); loads may not issue to the
cache before every older store has issued, and stores do not issue
speculatively under an unresolved branch — an address-blind ordering
policy, keeping data addresses out of the μ-architecture exactly as
FastSim does.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.emulator.queues import ControlKind, ControlRecord
from repro.errors import SimulationError
from repro.isa.program import Executable
from repro.uarch.interactions import (
    CYCLE_BOUNDARY,
    Finished,
    GetControl,
    IssueLoad,
    IssueStore,
    PollLoad,
    Request,
    Retire,
    Rollback,
)
from repro.uarch.iq import IQEntry, InstructionQueue, Stage, unresolved_branches
from repro.uarch.params import ProcessorParams
from repro.uarch.scans import issue_and_dispatch, retirable

_EXEC = Stage.EXEC
_CACHE = Stage.CACHE
_STWAIT = Stage.STWAIT
_DONE = Stage.DONE


class DetailedSimulator:
    """Cycle-by-cycle out-of-order pipeline model (a generator)."""

    def __init__(self, executable: Executable,
                 params: Optional[ProcessorParams] = None):
        self.executable = executable
        self.params = params if params is not None else ProcessorParams.r10k()
        self.iq = InstructionQueue(self.params.iq_capacity)
        self.fetch_pc: Optional[int] = executable.entry
        self.fetch_stalled = False  #: waiting for an indirect jump
        self.fetch_halted = False  #: a halt instruction was fetched

    @property
    def occupancy(self) -> int:
        """In-flight instruction count — the sampled iQ-occupancy
        series' source (read-only; observers must never mutate)."""
        return len(self.iq.entries)

    # ------------------------------------------------------------------
    # Restore (used when fast-forwarding falls back to detailed mode)
    # ------------------------------------------------------------------

    def restore(self, iq_entries, fetch_pc, fetch_stalled,
                fetch_halted) -> None:
        """Adopt a decoded configuration as the current pipeline state."""
        self.iq = InstructionQueue(self.params.iq_capacity)
        self.iq.extend(iq_entries)
        self.fetch_pc = fetch_pc
        self.fetch_stalled = fetch_stalled
        self.fetch_halted = fetch_halted

    # ------------------------------------------------------------------
    # Main loop: one iteration per simulated cycle
    # ------------------------------------------------------------------

    def run(self) -> Generator[Request, object, None]:
        """Simulate cycles until the program's halt retires.

        Yields :class:`Request` objects; the driver must ``send()`` the
        outcome (or None for outcome-less requests). Each cycle runs
        retire, execution progress, issue, dispatch and fetch, then
        yields the cycle boundary.
        """
        params = self.params
        while True:
            iq = self.iq
            entries = iq.entries

            # -- phase 1: retire ----------------------------------------
            count = retirable(entries, params.retire_width)
            if count:
                request, halted = self._retire(count)
                yield request
                if halted:
                    if entries:
                        raise SimulationError(
                            "halt retired with younger instructions in "
                            "flight"
                        )
                    yield CYCLE_BOUNDARY
                    yield Finished()
                    return

            # -- phase 2: execution progress ----------------------------
            # (A squash shortens *entries*; the iterator stops there.)
            for index, entry in enumerate(entries):
                stage = entry.stage
                if stage is _EXEC:
                    entry.timer -= 1
                    if entry.timer <= 0:
                        yield from self._complete_execution(index, entry)
                elif stage is _CACHE:
                    entry.timer -= 1
                    if entry.timer <= 0:
                        reply = yield PollLoad(iq.load_ordinal(index))
                        if reply == 0:
                            entry.stage = _DONE
                        else:
                            entry.timer = reply
                elif stage is _STWAIT:
                    entry.timer -= 1
                    if entry.timer <= 0:
                        entry.stage = _DONE

            # -- phases 3 and 4: issue, dispatch ------------------------
            issue_and_dispatch(entries, params)

            # -- phase 5: fetch -----------------------------------------
            if not (self.fetch_halted or self.fetch_stalled
                    or self.fetch_pc is None):
                yield from self._fetch()
            yield CYCLE_BOUNDARY

    def _retire(self, count: int):
        """Remove the *count* oldest (DONE) entries; returns the Retire
        request and whether the halt was among them."""
        loads = stores = controls = branches = 0
        halted = False
        for entry in self.iq.retire_head(count):
            uop = entry.instr.uop
            loads += uop.is_load
            stores += uop.is_store
            controls += uop.consumes_control
            branches += uop.is_cond_branch
            halted = halted or uop.is_halt
        return Retire(count, loads, stores, controls, branches), halted

    def _complete_execution(self, index: int, entry: IQEntry):
        iq = self.iq
        uop = entry.instr.uop
        if uop.is_load:
            interval = yield IssueLoad(iq.load_ordinal(index))
            entry.stage = Stage.CACHE
            entry.timer = interval
            return
        if uop.is_store:
            interval = yield IssueStore(iq.store_ordinal(index))
            entry.stage = Stage.STWAIT
            entry.timer = interval
            return
        if uop.is_cond_branch and entry.mispredicted:
            yield from self._resolve_misprediction(index, entry)
            return
        entry.stage = Stage.DONE
        if uop.is_indirect and self.fetch_stalled and index == len(iq) - 1:
            # Fetch was waiting on this jump's target.
            self.fetch_stalled = False
            self.fetch_pc = entry.jump_target

    def _resolve_misprediction(self, index: int, entry: IQEntry):
        iq = self.iq
        entry.stage = Stage.DONE
        actual_taken = not entry.pred_taken
        # From now on the stored bit describes the (corrected) fetch path.
        entry.pred_taken = actual_taken
        entry.mispredicted = False
        control_ordinal = iq.control_ordinal(index)
        squashed = [e.instr.uop for e in iq.squash_after(index)]
        yield Rollback(
            control_ordinal,
            squashed_loads=sum(u.is_load for u in squashed),
            squashed_stores=sum(u.is_store for u in squashed),
            squashed_controls=sum(u.consumes_control for u in squashed),
        )
        instr = entry.instr
        self.fetch_pc = instr.target if actual_taken else instr.fall_through
        self.fetch_stalled = False
        self.fetch_halted = False

    def _fetch(self):
        params = self.params
        iq = self.iq
        entries = iq.entries
        instruction_at = self.executable.instruction_at
        fetched = 0
        unresolved = None  # counted on the group's first branch
        while fetched < params.fetch_width and len(entries) < iq.capacity:
            instr = instruction_at(self.fetch_pc)
            uop = instr.uop
            if uop.is_cond_branch:
                if unresolved is None:
                    unresolved = unresolved_branches(entries)
                if unresolved >= params.max_spec_branches:
                    break  # speculation limit: stall until one resolves
                unresolved += 1
            entry = IQEntry(instr)
            if uop.consumes_control:
                record = yield GetControl()
                self._apply_control_record(entry, record)
            entries.append(entry)
            fetched += 1
            if uop.is_halt:
                self.fetch_halted = True
                self.fetch_pc = None
                break
            next_pc = entry.next_fetch_address()
            if next_pc is None:
                self.fetch_stalled = True  # unresolved indirect jump
                self.fetch_pc = None
                break
            self.fetch_pc = next_pc
            if next_pc != instr.fall_through:
                break  # one fetch group does not follow a taken branch

    def _apply_control_record(self, entry: IQEntry,
                              record: ControlRecord) -> None:
        instr = entry.instr
        uop = instr.uop
        if uop.is_cond_branch:
            if record.kind is not ControlKind.COND or record.pc != instr.address:
                raise SimulationError(
                    f"control record mismatch at 0x{instr.address:x}: {record}"
                )
            entry.pred_taken = record.predicted_taken
            entry.mispredicted = record.mispredicted
        elif uop.is_indirect:
            if record.kind is not ControlKind.INDIRECT or record.pc != instr.address:
                raise SimulationError(
                    f"control record mismatch at 0x{instr.address:x}: {record}"
                )
            entry.jump_target = record.target
        else:  # halt
            if record.kind is not ControlKind.HALT:
                raise SimulationError(
                    f"expected HALT record at 0x{instr.address:x}, got {record}"
                )
