"""The per-instruction timing record, built once per decoded instruction.

The out-of-order model keeps the iQ as its only state and recomputes
renaming, queue occupancy and functional-unit use from it every cycle
(paper §4.1). Each recomputation needs the same static facts about
every in-flight instruction: which issue queue it uses, which registers
and condition codes it reads and writes, whether it is a load, store or
control instruction, and how long it executes. A :class:`Uop` holds
those facts as plain attributes, computed once from the
:class:`~repro.isa.instruction.Instruction` (``Instruction.uop``), the
way the paper's ``fs`` tool decodes each instruction once.

The record is derived entirely from the instruction, so it is not
pipeline state: it never enters the configuration key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    INDIRECT_JUMPS,
    LAT_AGEN,
    Format,
    InstrClass,
)
from repro.isa.registers import ZERO_REG

if TYPE_CHECKING:
    from repro.isa.instruction import Instruction

#: Issue queue kinds (the ``Uop.queue`` values).
QUEUE_INT = 0
QUEUE_FP = 1
QUEUE_ADDR = 2

#: Instruction classes dispatched to the integer queue.
INT_QUEUE_CLASSES = frozenset({
    InstrClass.IALU, InstrClass.IMUL, InstrClass.IDIV,
    InstrClass.BRANCH, InstrClass.JUMP, InstrClass.NOP, InstrClass.HALT,
})

#: Instruction classes dispatched to the floating-point queue.
FP_QUEUE_CLASSES = frozenset({
    InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV, InstrClass.FSQRT,
})

#: Instruction classes dispatched to the address queue.
ADDR_QUEUE_CLASSES = frozenset({InstrClass.LOAD, InstrClass.STORE})

#: Instruction classes that share the single multiply/divide slot.
MULDIV_CLASSES = frozenset({InstrClass.IMUL, InstrClass.IDIV})

#: Instruction classes that share the single FP divide/sqrt slot.
FDIVSQRT_CLASSES = frozenset({InstrClass.FDIV, InstrClass.FSQRT})

#: Dependence-mask layout: integer registers at bits 0-31, the integer
#: and FP condition codes at bits 32 and 33, FP registers from bit 34.
ICC_BIT = 1 << 32
FCC_BIT = 1 << 33
FP_SHIFT = 34

#: Formats whose ``rd`` is an integer destination.
_INT_DEST_FORMATS = frozenset({Format.ALU, Format.SETHI, Format.LOAD,
                               Format.JMPL, Format.F2I})
#: Formats whose ``fd`` is an FP destination.
_FP_DEST_FORMATS = frozenset({Format.FPOP1, Format.FPOP2, Format.FLOAD,
                              Format.I2F})


def _queue_of(iclass: InstrClass) -> int:
    if iclass in ADDR_QUEUE_CLASSES:
        return QUEUE_ADDR
    if iclass in FP_QUEUE_CLASSES:
        return QUEUE_FP
    return QUEUE_INT


class Uop:
    """Immutable static timing facts of one decoded instruction."""

    __slots__ = (
        "queue", "muldiv", "fdivsqrt", "latency",
        "int_sources", "fp_sources", "int_dest", "fp_dest",
        "reads_icc", "reads_fcc", "sets_icc", "sets_fcc",
        "reads", "writes",
        "is_load", "is_store", "is_cond_branch", "is_indirect", "is_halt",
        "consumes_control",
    )

    queue: int  #: QUEUE_INT, QUEUE_FP or QUEUE_ADDR
    muldiv: bool  #: uses the shared multiply/divide slot
    fdivsqrt: bool  #: uses the shared FP divide/sqrt slot
    latency: int  #: cycles in EXEC (address generation for memory ops)
    int_sources: Tuple[int, ...]  #: integer registers read (no %g0)
    fp_sources: Tuple[int, ...]  #: FP registers read
    int_dest: Optional[int]  #: integer register written (None for %g0)
    fp_dest: Optional[int]  #: FP register written
    reads_icc: bool
    reads_fcc: bool
    sets_icc: bool
    sets_fcc: bool
    reads: int  #: dependence mask of everything read
    writes: int  #: dependence mask of everything written
    is_load: bool
    is_store: bool
    is_cond_branch: bool
    is_indirect: bool
    is_halt: bool
    consumes_control: bool  #: fetch consumes a control-flow record

    def __init__(self, instr: "Instruction"):
        info = instr.info
        fmt = info.fmt
        iclass = info.iclass
        rs1, rs2, rd, fd = instr.rs1, instr.rs2, instr.rd, instr.fd

        int_sources = [reg for reg in (rs1, rs2)
                       if reg is not None and reg != ZERO_REG]
        # Integer stores read the data register from the integer file.
        if fmt is Format.STORE and rd is not None and rd != ZERO_REG:
            int_sources.append(rd)
        fp_sources = [reg for reg in (instr.fs1, instr.fs2) if reg is not None]
        if fmt is Format.FSTORE and fd is not None:
            fp_sources.append(fd)
        if fmt in _INT_DEST_FORMATS:
            int_dest = rd if rd != ZERO_REG else None
        elif fmt is Format.CALL:
            int_dest = rd  # link register, set by the decoder
        else:
            int_dest = None
        fp_dest = fd if fmt in _FP_DEST_FORMATS else None

        reads = 0
        for reg in int_sources:
            reads |= 1 << reg
        for reg in fp_sources:
            reads |= 1 << (FP_SHIFT + reg)
        if info.reads_icc:
            reads |= ICC_BIT
        if info.reads_fcc:
            reads |= FCC_BIT
        writes = 0
        if int_dest is not None:
            writes |= 1 << int_dest
        if fp_dest is not None:
            writes |= 1 << (FP_SHIFT + fp_dest)
        if info.sets_icc:
            writes |= ICC_BIT
        if info.sets_fcc:
            writes |= FCC_BIT

        is_cond_branch = instr.opcode in CONDITIONAL_BRANCHES
        is_indirect = instr.opcode in INDIRECT_JUMPS
        is_halt = iclass is InstrClass.HALT
        queue = _queue_of(iclass)
        init = object.__setattr__
        init(self, "queue", queue)
        init(self, "muldiv", iclass in MULDIV_CLASSES)
        init(self, "fdivsqrt", iclass in FDIVSQRT_CLASSES)
        init(self, "latency",
             LAT_AGEN if queue == QUEUE_ADDR else info.latency)
        init(self, "int_sources", tuple(int_sources))
        init(self, "fp_sources", tuple(fp_sources))
        init(self, "int_dest", int_dest)
        init(self, "fp_dest", fp_dest)
        init(self, "reads_icc", info.reads_icc)
        init(self, "reads_fcc", info.reads_fcc)
        init(self, "sets_icc", info.sets_icc)
        init(self, "sets_fcc", info.sets_fcc)
        init(self, "reads", reads)
        init(self, "writes", writes)
        init(self, "is_load", iclass is InstrClass.LOAD)
        init(self, "is_store", iclass is InstrClass.STORE)
        init(self, "is_cond_branch", is_cond_branch)
        init(self, "is_indirect", is_indirect)
        init(self, "is_halt", is_halt)
        init(self, "consumes_control",
             is_cond_branch or is_indirect or is_halt)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Uop is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Uop is immutable (cannot delete {name!r})")
