"""The ``iQ`` — the single central data structure of the μ-architecture.

Paper §4.1: *"FastSim's µ-architecture simulator is built around one
central data structure, the iQ, which contains one entry for every
instruction currently in the out-of-order pipeline. Between simulated
cycles, the iQ contains the entire configuration of the µ-architecture
simulator."*

Everything else the pipeline needs — register renaming, issue-queue
occupancy, functional-unit availability, the count of speculative
branches — is **recomputed every cycle** from the iQ so that the iQ
alone is the memoization key. An entry records only:

* which instruction it is (the decoded :class:`Instruction`, which is
  recoverable from its address);
* which stage it occupies and a small timer (the paper's "minimum
  number of cycles before this stage might change");
* for conditional branches: the predicted direction and whether the
  prediction was wrong (updated to the actual direction at
  resolution, since from then on it describes the fetch path);
* for indirect jumps: the recorded target.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass


class Stage(enum.IntEnum):
    """Pipeline stage of one iQ entry (3 bits in the encoded form)."""

    FETCHED = 0  #: fetched this cycle; decodes/dispatches next cycle
    QUEUE = 1  #: waiting in an issue queue for operands + a unit
    EXEC = 2  #: executing (timer = remaining cycles)
    CACHE = 3  #: load waiting on the cache simulator (timer = interval)
    STWAIT = 4  #: store waiting for store-buffer acceptance
    DONE = 5  #: complete; waiting to retire in order


#: Largest timer value the 11-bit encoded form can hold.
MAX_TIMER = (1 << 11) - 1


class IQEntry:
    """One in-flight instruction."""

    __slots__ = ("instr", "stage", "timer", "pred_taken", "mispredicted",
                 "jump_target")

    def __init__(
        self,
        instr: Instruction,
        stage: Stage = Stage.FETCHED,
        timer: int = 0,
        pred_taken: bool = False,
        mispredicted: bool = False,
        jump_target: Optional[int] = None,
    ):
        self.instr = instr
        self.stage = stage
        self.timer = timer
        self.pred_taken = pred_taken
        self.mispredicted = mispredicted
        self.jump_target = jump_target

    # -- classification helpers (read from the instruction's Uop) ---------

    @property
    def iclass(self) -> InstrClass:
        return self.instr.iclass

    @property
    def is_cond_branch(self) -> bool:
        return self.instr.uop.is_cond_branch

    @property
    def is_indirect(self) -> bool:
        return self.instr.uop.is_indirect

    @property
    def is_halt(self) -> bool:
        return self.instr.uop.is_halt

    @property
    def consumes_control(self) -> bool:
        """True if fetch consumed a control record for this instruction."""
        return self.instr.uop.consumes_control

    @property
    def is_load(self) -> bool:
        return self.instr.uop.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.uop.is_store

    @property
    def resolved(self) -> bool:
        """A conditional branch counts as speculative until DONE."""
        return self.stage is Stage.DONE

    def next_fetch_address(self) -> Optional[int]:
        """Where fetch continues after this instruction.

        Returns None when fetch must stall (unresolved indirect jump)
        or stop (halt).
        """
        instr = self.instr
        uop = instr.uop
        if uop.is_halt:
            return None
        if uop.is_cond_branch:
            return instr.target if self.pred_taken else instr.fall_through
        if uop.is_indirect:
            if self.stage is Stage.DONE:
                return self.jump_target
            return None  # fetch stalls until the jump executes
        if instr.target is not None:  # ba / call: single static target
            return instr.target
        return instr.fall_through

    def __eq__(self, other) -> bool:
        if not isinstance(other, IQEntry):
            return NotImplemented
        return (
            self.instr.address == other.instr.address
            and self.stage == other.stage
            and self.timer == other.timer
            and self.pred_taken == other.pred_taken
            and self.mispredicted == other.mispredicted
            and self.jump_target == other.jump_target
        )

    def __repr__(self) -> str:
        extra = ""
        if self.is_cond_branch:
            extra = (f" pred={'T' if self.pred_taken else 'N'}"
                     f"{' MISP' if self.mispredicted else ''}")
        elif self.is_indirect:
            extra = (f" ->0x{self.jump_target:x}"
                     if self.jump_target is not None else "")
        return (
            f"<0x{self.instr.address:08x} {self.instr.info.mnemonic}"
            f" {self.stage.name} t={self.timer}{extra}>"
        )


class InstructionQueue:
    """Ordered list of in-flight instructions (oldest first)."""

    __slots__ = ("entries", "capacity")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[IQEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> IQEntry:
        return self.entries[index]

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def append(self, entry: IQEntry) -> None:
        self.entries.append(entry)

    def retire_head(self, count: int) -> List[IQEntry]:
        """Remove and return the *count* oldest entries."""
        retired = self.entries[:count]
        del self.entries[:count]
        return retired

    def squash_after(self, index: int) -> List[IQEntry]:
        """Drop every entry younger than position *index*."""
        squashed = self.entries[index + 1:]
        del self.entries[index + 1:]
        return squashed

    def extend(self, entries: Iterable[IQEntry]) -> None:
        for entry in entries:
            self.append(entry)

    def load_ordinal(self, index: int) -> int:
        """Number of loads at positions strictly before *index*."""
        return sum(e.instr.uop.is_load for e in self.entries[:index])

    def store_ordinal(self, index: int) -> int:
        """Number of stores at positions strictly before *index*."""
        return sum(e.instr.uop.is_store for e in self.entries[:index])

    def control_ordinal(self, index: int) -> int:
        """Number of control-consuming entries strictly before *index*."""
        return sum(e.instr.uop.consumes_control
                   for e in self.entries[:index])

    def unresolved_branches(self) -> int:
        """Conditional branches still speculative (not DONE)."""
        return unresolved_branches(self.entries)


def unresolved_branches(entries) -> int:
    """Conditional branches in *entries* still speculative (not DONE)."""
    done = Stage.DONE
    count = 0
    for entry in entries:
        if entry.instr.uop.is_cond_branch and entry.stage is not done:
            count += 1
    return count
