"""The per-instruction timing record against an independent derivation.

Every opcode is decoded (register and immediate forms, and with %g0
as the destination) and each :class:`Uop` field is compared with the
fact derived here from the instruction's fields and its
:class:`OpInfo` alone. The test fails if an opcode, a queue kind or a
record field is never covered.
"""

import pytest

from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    LAT_AGEN,
    OPCODE_INFO,
    Format,
    InstrClass,
    Opcode,
)
from repro.isa.uop import (
    FCC_BIT,
    FP_SHIFT,
    ICC_BIT,
    QUEUE_ADDR,
    QUEUE_FP,
    QUEUE_INT,
    Uop,
)
from repro.uarch.iq import IQEntry, Stage

ADDRESS = 0x0001_0000

#: Operand fields each format reads or writes, in source order.
INT_READS = {
    Format.ALU: ("rs1", "rs2"), Format.LOAD: ("rs1", "rs2"),
    Format.STORE: ("rs1", "rs2", "rd"), Format.FLOAD: ("rs1", "rs2"),
    Format.FSTORE: ("rs1", "rs2"), Format.JMPL: ("rs1", "rs2"),
    Format.I2F: ("rs1",), Format.OUT: ("rs1",),
}
FP_READS = {
    Format.FSTORE: ("fd",), Format.FPOP2: ("fs1", "fs2"),
    Format.FPOP1: ("fs1",), Format.FCMP: ("fs1", "fs2"),
    Format.F2I: ("fs1",),
}
INT_WRITE_FORMATS = {Format.ALU, Format.SETHI, Format.LOAD, Format.JMPL,
                     Format.F2I, Format.CALL}
FP_WRITE_FORMATS = {Format.FLOAD, Format.FPOP2, Format.FPOP1, Format.I2F}

QUEUE_OF_CLASS = {
    InstrClass.LOAD: QUEUE_ADDR, InstrClass.STORE: QUEUE_ADDR,
    InstrClass.FALU: QUEUE_FP, InstrClass.FMUL: QUEUE_FP,
    InstrClass.FDIV: QUEUE_FP, InstrClass.FSQRT: QUEUE_FP,
}


def variants(opcode):
    """Decoded forms of *opcode*: register operands, immediate operand,
    and %g0 in the destination field."""
    base = opcode << 24
    words = (
        base | (5 << 19) | (6 << 14) | 7,
        base | (5 << 19) | (6 << 14) | (1 << 13) | 12,
        base | (0 << 19) | (6 << 14) | 7,
    )
    return [decode(word, ADDRESS) for word in words]


def expected_facts(instr: Instruction):
    info = OPCODE_INFO[instr.opcode]
    fmt = info.fmt
    iclass = info.iclass
    int_sources = tuple(
        value for value in (getattr(instr, f) for f in INT_READS.get(fmt, ()))
        if value is not None and value != 0)
    fp_sources = tuple(
        value for value in (getattr(instr, f) for f in FP_READS.get(fmt, ()))
        if value is not None)
    int_dest = None
    if fmt in INT_WRITE_FORMATS and instr.rd:
        int_dest = instr.rd
    fp_dest = instr.fd if fmt in FP_WRITE_FORMATS else None
    reads = sum({1 << reg for reg in int_sources}
                | {1 << (FP_SHIFT + reg) for reg in fp_sources})
    reads |= (ICC_BIT if info.reads_icc else 0)
    reads |= (FCC_BIT if info.reads_fcc else 0)
    writes = (1 << int_dest) if int_dest is not None else 0
    writes |= (1 << (FP_SHIFT + fp_dest)) if fp_dest is not None else 0
    writes |= (ICC_BIT if info.sets_icc else 0)
    writes |= (FCC_BIT if info.sets_fcc else 0)
    is_cond_branch = iclass is InstrClass.BRANCH
    is_indirect = instr.opcode is Opcode.JMPL
    is_halt = iclass is InstrClass.HALT
    queue = QUEUE_OF_CLASS.get(iclass, QUEUE_INT)
    return {
        "queue": queue,
        "muldiv": iclass in (InstrClass.IMUL, InstrClass.IDIV),
        "fdivsqrt": iclass in (InstrClass.FDIV, InstrClass.FSQRT),
        "latency": LAT_AGEN if queue == QUEUE_ADDR else info.latency,
        "int_sources": int_sources,
        "fp_sources": fp_sources,
        "int_dest": int_dest,
        "fp_dest": fp_dest,
        "reads_icc": info.reads_icc,
        "reads_fcc": info.reads_fcc,
        "sets_icc": info.sets_icc,
        "sets_fcc": info.sets_fcc,
        "reads": reads,
        "writes": writes,
        "is_load": iclass is InstrClass.LOAD,
        "is_store": iclass is InstrClass.STORE,
        "is_cond_branch": is_cond_branch,
        "is_indirect": is_indirect,
        "is_halt": is_halt,
        "consumes_control": is_cond_branch or is_indirect or is_halt,
    }


def test_expected_facts_cover_every_record_field():
    assert set(expected_facts(variants(Opcode.ADD)[0])) == set(Uop.__slots__)


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
def test_record_matches_derivation(opcode):
    for instr in variants(opcode):
        uop = instr.uop
        for field, value in expected_facts(instr).items():
            assert getattr(uop, field) == value, (instr, field)
        # The Instruction's own accessors read the same record.
        assert instr.int_sources() == uop.int_sources
        assert instr.fp_sources() == uop.fp_sources
        assert instr.int_dest() == uop.int_dest
        assert instr.fp_dest() == uop.fp_dest
        assert uop.is_cond_branch == instr.is_conditional_branch
        assert uop.is_indirect == instr.is_indirect_jump


def test_every_opcode_and_queue_kind_covered():
    covered = set()
    queues = set()
    for opcode in Opcode:
        for instr in variants(opcode):
            covered.add(instr.opcode)
            queues.add(instr.uop.queue)
    assert covered == set(Opcode) == set(OPCODE_INFO)
    assert queues == {QUEUE_INT, QUEUE_FP, QUEUE_ADDR}


def test_record_is_cached_and_immutable():
    instr = variants(Opcode.ADDCC)[0]
    assert instr.uop is instr.uop
    with pytest.raises(AttributeError):
        instr.uop.latency = 99
    with pytest.raises(AttributeError):
        del instr.uop.queue


def test_g0_destination_is_not_a_dependence():
    add_to_g0 = variants(Opcode.ADD)[2]
    assert add_to_g0.rd == 0
    assert add_to_g0.uop.int_dest is None
    assert add_to_g0.uop.writes == 0


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
def test_iq_entry_classification_reads_the_record(opcode):
    entry = IQEntry(variants(opcode)[0])
    uop = entry.instr.uop
    assert entry.is_load == uop.is_load
    assert entry.is_store == uop.is_store
    assert entry.is_cond_branch == uop.is_cond_branch
    assert entry.is_indirect == uop.is_indirect
    assert entry.is_halt == uop.is_halt
    assert entry.consumes_control == uop.consumes_control


def test_iq_entry_repr_shows_jump_target_zero():
    jmpl = IQEntry(variants(Opcode.JMPL)[0], stage=Stage.DONE,
                   jump_target=0)
    assert "->0x0" in repr(jmpl)
    unresolved = IQEntry(variants(Opcode.JMPL)[0])
    assert "->" not in repr(unresolved)
