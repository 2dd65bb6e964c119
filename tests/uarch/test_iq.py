"""Unit tests for the iQ data structures."""

import pytest

from repro.isa import Opcode, assemble
from repro.isa.uop import (
    ADDR_QUEUE_CLASSES,
    FP_QUEUE_CLASSES,
    INT_QUEUE_CLASSES,
)
from repro.uarch.iq import IQEntry, InstructionQueue, Stage

PROGRAM = """
main:
    ld [%g1], %l0
    add %l0, 1, %l1
    st %l1, [%g1 + 4]
    fadd %f0, %f1, %f2
    be main
    jmpl [%l1], %g0
    call main
    halt
"""


@pytest.fixture()
def entries():
    exe = assemble(PROGRAM)
    return [IQEntry(i) for i in exe.instructions()]


class TestIQEntry:
    def test_classification(self, entries):
        load, add, store, fadd, branch, jmpl, call, halt = entries
        assert load.is_load and not load.is_store
        assert store.is_store
        assert branch.is_cond_branch
        assert jmpl.is_indirect
        assert halt.is_halt

    def test_consumes_control(self, entries):
        load, add, store, fadd, branch, jmpl, call, halt = entries
        assert branch.consumes_control
        assert jmpl.consumes_control
        assert halt.consumes_control
        assert not call.consumes_control  # direct target, no record
        assert not load.consumes_control

    def test_next_fetch_address_sequential(self, entries):
        add = entries[1]
        assert add.next_fetch_address() == add.instr.address + 4

    def test_next_fetch_address_branch_bits(self, entries):
        branch = entries[4]
        branch.pred_taken = True
        assert branch.next_fetch_address() == branch.instr.target
        branch.pred_taken = False
        assert branch.next_fetch_address() == branch.instr.address + 4

    def test_next_fetch_address_unresolved_jump(self, entries):
        jmpl = entries[5]
        jmpl.jump_target = 0x12340
        assert jmpl.next_fetch_address() is None  # stalls until DONE
        jmpl.stage = Stage.DONE
        assert jmpl.next_fetch_address() == 0x12340

    def test_next_fetch_address_call(self, entries):
        call = entries[6]
        assert call.next_fetch_address() == call.instr.target

    def test_next_fetch_address_halt(self, entries):
        assert entries[7].next_fetch_address() is None

    def test_equality(self, entries):
        exe = assemble(PROGRAM)
        other = IQEntry(exe.instructions()[0])
        assert entries[0] == other
        other.timer = 5
        assert entries[0] != other

    def test_repr_readable(self, entries):
        branch = entries[4]
        branch.mispredicted = True
        text = repr(branch)
        assert "be" in text and "MISP" in text


class TestInstructionQueue:
    def test_capacity(self, entries):
        iq = InstructionQueue(4)
        for entry in entries[:4]:
            iq.append(entry)
        assert iq.full
        assert len(iq) == 4

    def test_retire_head(self, entries):
        iq = InstructionQueue(8)
        iq.extend(entries[:5])
        retired = iq.retire_head(2)
        assert [e.instr.opcode for e in retired] == [Opcode.LD, Opcode.ADD]
        assert len(iq) == 3
        assert iq[0].instr.opcode is Opcode.ST

    def test_squash_after(self, entries):
        iq = InstructionQueue(8)
        iq.extend(entries[:6])
        squashed = iq.squash_after(2)
        assert len(squashed) == 3
        assert len(iq) == 3

    def test_ordinals(self, entries):
        iq = InstructionQueue(8)
        iq.extend(entries)  # ld, add, st, fadd, be, jmpl, call, halt
        assert iq.load_ordinal(0) == 0
        assert iq.load_ordinal(3) == 1  # one load before position 3
        assert iq.store_ordinal(2) == 0
        assert iq.store_ordinal(5) == 1
        assert iq.control_ordinal(4) == 0  # branch itself is at 4
        assert iq.control_ordinal(7) == 2  # be + jmpl before halt

    def test_unresolved_branches(self, entries):
        iq = InstructionQueue(8)
        iq.extend(entries)
        assert iq.unresolved_branches() == 1
        entries[4].stage = Stage.DONE
        assert iq.unresolved_branches() == 0


class TestQueueClassPartition:
    def test_every_class_assigned_exactly_once(self):
        from repro.isa.opcodes import InstrClass

        all_classes = set(InstrClass)
        partition = (INT_QUEUE_CLASSES | FP_QUEUE_CLASSES
                     | ADDR_QUEUE_CLASSES)
        assert partition == all_classes
        assert not INT_QUEUE_CLASSES & FP_QUEUE_CLASSES
        assert not INT_QUEUE_CLASSES & ADDR_QUEUE_CLASSES
        assert not FP_QUEUE_CLASSES & ADDR_QUEUE_CLASSES
