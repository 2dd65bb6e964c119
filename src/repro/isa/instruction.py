"""Decoded instruction representation.

An :class:`Instruction` is the fully-decoded, immutable form used by every
consumer in the package: the functional emulator pre-decodes the text
segment into a list of these; the out-of-order model reads the register
fields to recompute renaming each cycle; the configuration codec walks
them to rebuild pipeline contents from a compressed snapshot.

Register operands live in two namespaces (integer file and FP file); the
fields ``rs1``/``rs2``/``rd`` are integer-file indices and ``fs1``/
``fs2``/``fd`` are FP-file indices, with ``None`` meaning "not used".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.isa.opcodes import (
    ACCESS_WIDTH,
    CONDITIONAL_BRANCHES,
    InstrClass,
    Opcode,
    OpInfo,
    opcode_info,
)
from repro.isa.uop import Uop


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction at a fixed text address.

    Derived facts (class, sources, destinations, …) are cached on first
    access: instructions are decoded once per text address and consulted
    millions of times by the timing models, so these lookups are on the
    simulators' hottest path. The facts the pipeline scans read every
    cycle (operands, queue, unit, latency) are gathered in one
    :class:`~repro.isa.uop.Uop` record, ``uop``; the register-operand
    accessors below read it. (``functools.cached_property`` stores into
    the instance ``__dict__`` directly, which coexists with the frozen
    dataclass.)
    """

    address: int
    opcode: Opcode
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    rd: Optional[int] = None
    fs1: Optional[int] = None
    fs2: Optional[int] = None
    fd: Optional[int] = None
    imm: Optional[int] = None  #: sign-extended immediate, if the i-bit is set
    target: Optional[int] = None  #: absolute branch/call target address

    @cached_property
    def info(self) -> OpInfo:
        """Static opcode properties (format, class, latency, cc usage)."""
        return opcode_info(self.opcode)

    @cached_property
    def iclass(self) -> InstrClass:
        return self.info.iclass

    @cached_property
    def latency(self) -> int:
        return self.info.latency

    @cached_property
    def is_conditional_branch(self) -> bool:
        """True for multi-target conditional branches (icc or fcc)."""
        return self.opcode in CONDITIONAL_BRANCHES

    @cached_property
    def is_indirect_jump(self) -> bool:
        """True for jumps whose target is unknown statically (``jmpl``)."""
        return self.opcode is Opcode.JMPL

    @cached_property
    def is_load(self) -> bool:
        return self.info.iclass is InstrClass.LOAD

    @cached_property
    def is_store(self) -> bool:
        return self.info.iclass is InstrClass.STORE

    @cached_property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    @cached_property
    def access_width(self) -> int:
        """Memory access width in bytes (loads/stores only)."""
        return ACCESS_WIDTH[self.opcode]

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction."""
        return self.address + 4

    @cached_property
    def uop(self) -> Uop:
        """The static timing record the pipeline scans read each cycle."""
        return Uop(self)

    def int_sources(self) -> Tuple[int, ...]:
        """Integer registers read, excluding the hardwired zero register."""
        return self.uop.int_sources

    def int_dest(self) -> Optional[int]:
        """Integer register written, or None. Writes to %g0 are discarded."""
        return self.uop.int_dest

    def fp_sources(self) -> Tuple[int, ...]:
        """FP registers read."""
        return self.uop.fp_sources

    def fp_dest(self) -> Optional[int]:
        """FP register written, or None."""
        return self.uop.fp_dest

    def __str__(self) -> str:
        from repro.isa.disasm import format_instruction

        return format_instruction(self)
