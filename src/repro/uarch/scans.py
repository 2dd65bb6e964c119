"""The per-cycle pipeline scans shared by both out-of-order simulators.

Issue and dispatch recompute everything they need — operand
readiness, queue occupancy, rename-register use, unit availability —
from the in-flight entries every cycle (paper §4.1), reading only each
entry's ``stage``/``timer`` and its instruction's precomputed
:class:`~repro.isa.uop.Uop`. :class:`~repro.uarch.detailed.DetailedSimulator`
(SlowSim/FastSim) and :class:`~repro.sim.baseline.IntegratedSimulator`
run the very same scans over their entry lists, so the two differ
only in how functional execution is done — the comparison Table 3
makes.

*entries* is any oldest-first list of objects with ``instr``,
``stage`` and ``timer`` attributes.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.uop import QUEUE_ADDR, QUEUE_FP
from repro.uarch.iq import Stage
from repro.uarch.params import ProcessorParams

_FETCHED = Stage.FETCHED
_QUEUE = Stage.QUEUE
_EXEC = Stage.EXEC
_DONE = Stage.DONE


def retirable(entries, width: int) -> int:
    """Length of the DONE prefix of *entries*, capped at *width*."""
    count = 0
    for entry in entries:
        if count >= width or entry.stage is not _DONE:
            break
        count += 1
    return count


def issue_and_dispatch(entries, params: ProcessorParams) -> None:
    """Phases 3 and 4 of a cycle (issue, then dispatch) in one pass.

    **Issue** moves ready QUEUE entries to EXEC, oldest first. An entry
    issues when no older in-flight entry writes a register or
    condition code it reads, a unit of its queue's kind is free this
    cycle, its shared long-latency slot (mul/div, FP div/sqrt) is
    idle, and the address-blind memory ordering allows: loads wait for
    every older store to issue, and stores never issue under an
    unresolved conditional branch.

    **Dispatch** then decodes up to ``decode_width`` FETCHED entries
    into their queues, in order, stopping at the first entry whose
    issue queue or rename-register pool is full. Occupancy counts
    every entry's stage after issue, which is final once the scan has
    passed it, so the issue pass counts it on the way.

    FETCHED entries are always the youngest ones: fetch appends them,
    dispatch drains them oldest first, and retire and squash remove
    only older or younger runs. So the scan stops at the first FETCHED
    entry (nothing younger can issue) and dispatch drains from there.
    """
    muldiv_busy = fdiv_busy = False
    for entry in entries:
        if entry.stage is _EXEC:
            uop = entry.instr.uop
            if uop.muldiv:
                muldiv_busy = True
            elif uop.fdivsqrt:
                fdiv_busy = True
    int_slots = params.int_alus
    fp_slots = params.fp_units
    agen_slots = params.agen_units
    undone = 0  #: dependence mask written by older in-flight entries
    stores_unissued = 0
    branch_unresolved = False
    int_q = fp_q = addr_q = 0
    int_renames = fp_renames = 0
    first = 0  #: index of the oldest FETCHED entry

    for entry in entries:
        stage = entry.stage
        if stage is _FETCHED:
            break
        first += 1
        uop = entry.instr.uop
        if uop.int_dest is not None:
            int_renames += 1
        if uop.fp_dest is not None:
            fp_renames += 1
        if stage is _DONE:
            continue
        queue = uop.queue
        if stage is _QUEUE:
            if not uop.reads & undone:
                if queue == QUEUE_ADDR:
                    if (agen_slots > 0
                            and not (uop.is_load and stores_unissued)
                            and not (uop.is_store and branch_unresolved)):
                        stage = entry.stage = _EXEC
                        entry.timer = uop.latency
                        agen_slots -= 1
                elif queue == QUEUE_FP:
                    if fp_slots > 0 and not (uop.fdivsqrt and fdiv_busy):
                        stage = entry.stage = _EXEC
                        entry.timer = uop.latency
                        fp_slots -= 1
                        if uop.fdivsqrt:
                            fdiv_busy = True
                elif int_slots > 0 and not (uop.muldiv and muldiv_busy):
                    stage = entry.stage = _EXEC
                    entry.timer = uop.latency
                    int_slots -= 1
                    if uop.muldiv:
                        muldiv_busy = True
            if stage is _QUEUE:
                if queue == QUEUE_ADDR:
                    addr_q += 1
                elif queue == QUEUE_FP:
                    fp_q += 1
                else:
                    int_q += 1
            elif queue == QUEUE_ADDR:
                addr_q += 1  # address-queue entries are held until done
        elif queue == QUEUE_ADDR:
            addr_q += 1
        # Scan state for younger entries: this one is still in flight,
        # and a store counts as unissued to the cache until it leaves
        # EXEC.
        undone |= uop.writes
        if uop.is_cond_branch:
            branch_unresolved = True
        elif uop.is_store and (stage is _QUEUE or stage is _EXEC):
            stores_unissued += 1

    for index in range(first, min(len(entries), first + params.decode_width)):
        entry = entries[index]
        if entry.stage is not _FETCHED:
            raise SimulationError(
                f"iQ entry {index} ({entry.stage.name}) is younger than a "
                "FETCHED entry: FETCHED entries must form the iQ's suffix"
            )
        uop = entry.instr.uop
        queue = uop.queue
        if queue == QUEUE_ADDR:
            if addr_q >= params.addr_queue:
                return
            addr_q += 1
        elif queue == QUEUE_FP:
            if fp_q >= params.fp_queue:
                return
            fp_q += 1
        else:
            if int_q >= params.int_queue:
                return
            int_q += 1
        if uop.int_dest is not None:
            if int_renames >= params.int_renames:
                return
            int_renames += 1
        if uop.fp_dest is not None:
            if fp_renames >= params.fp_renames:
                return
            fp_renames += 1
        entry.stage = _QUEUE
