"""Tests for the agent model and the memory-bit accounting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import AgentMemory, FieldKind, MemoryModel


class TestMemoryModel:
    def test_bit_costs_scale_with_parameters(self):
        small = MemoryModel(k=8, max_degree=4)
        large = MemoryModel(k=1024, max_degree=512)
        assert small.bits(FieldKind.ID) < large.bits(FieldKind.ID)
        assert small.bits(FieldKind.PORT) < large.bits(FieldKind.PORT)
        assert small.bits(FieldKind.FLAG) == large.bits(FieldKind.FLAG) == 1

    def test_id_bits_logarithmic(self):
        model = MemoryModel(k=1000, max_degree=10)
        assert model.bits(FieldKind.ID) == math.ceil(math.log2(1001))

    def test_port_bits_cover_bot(self):
        model = MemoryModel(k=10, max_degree=7)
        assert model.bits(FieldKind.PORT) == math.ceil(math.log2(9))

    def test_log_unit(self):
        model = MemoryModel(k=16, max_degree=16)
        assert model.log_k_plus_delta_bits() == pytest.approx(5.0)

    def test_max_id_override(self):
        model = MemoryModel(k=10, max_degree=4, max_id=1000)
        assert model.bits(FieldKind.ID) >= 10


class TestAgentMemory:
    def make(self):
        return AgentMemory(MemoryModel(k=32, max_degree=8))

    def test_write_read_roundtrip(self):
        mem = self.make()
        mem.write("parent", 3, FieldKind.PORT)
        assert mem.read("parent") == 3
        assert "parent" in mem

    def test_undeclared_write_rejected(self):
        mem = self.make()
        with pytest.raises(KeyError):
            mem.write("mystery", 1)

    def test_redeclare_different_kind_rejected(self):
        mem = self.make()
        mem.declare("x", FieldKind.PORT)
        with pytest.raises(ValueError):
            mem.declare("x", FieldKind.ID)

    def test_clear_releases_bits(self):
        mem = self.make()
        mem.write("cnt", 5, FieldKind.COUNTER_K)
        used = mem.current_bits
        mem.clear("cnt")
        assert mem.current_bits == used - mem.model.bits(FieldKind.COUNTER_K)

    def test_peak_is_monotone(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        mem.write("b", 2, FieldKind.PORT)
        peak = mem.peak_bits
        mem.clear("a")
        mem.clear("b")
        assert mem.peak_bits == peak
        assert mem.current_bits == 0

    def test_rewrite_does_not_double_charge(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        before = mem.current_bits
        mem.write("a", 2)
        assert mem.current_bits == before

    def test_overwrite_keeps_current_and_peak(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        mem.write("b", 5, FieldKind.COUNTER_K)
        mem.clear("b")  # the peak now sits above the current total
        current, peak = mem.current_bits, mem.peak_bits
        assert peak > current
        mem.write("a", 2, FieldKind.PORT)
        mem.write("a", 3)
        assert (mem.current_bits, mem.peak_bits) == (current, peak)
        assert mem.read("a") == 3

    def test_overwrite_set_field_with_different_kind_rejected(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        current, peak = mem.current_bits, mem.peak_bits
        with pytest.raises(ValueError):
            mem.write("a", 2, FieldKind.ID)
        assert mem.read("a") == 1
        assert (mem.current_bits, mem.peak_bits) == (current, peak)

    def test_overwrite_set_field_without_kind(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.FLAG)
        mem.write("a", 0)
        assert mem.read("a") == 0
        assert mem.current_bits == mem.model.bits(FieldKind.FLAG)

    def test_writing_none_discharges_set_field(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        mem.write("b", 1, FieldKind.ID)
        mem.write("a", None)
        mem.write("b", None, FieldKind.ID)
        assert "a" not in mem and "b" not in mem
        assert mem.current_bits == 0
        assert mem.peak_bits == mem.model.bits(FieldKind.PORT) + mem.model.bits(FieldKind.ID)

    def test_peak_in_log_units(self):
        mem = self.make()
        mem.write("id", 7, FieldKind.ID)
        assert mem.peak_in_log_units() > 0

    def test_snapshot(self):
        mem = self.make()
        mem.write("a", 1, FieldKind.PORT)
        snap = mem.snapshot()
        assert snap == {"a": 1}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(FieldKind)), st.integers(1, 100)), max_size=20))
    def test_property_current_bits_never_negative(self, ops):
        mem = AgentMemory(MemoryModel(k=64, max_degree=16))
        for i, (kind, value) in enumerate(ops):
            name = f"f{i % 5}"
            try:
                mem.write(name, value, kind)
            except ValueError:
                continue  # re-declared with a different kind
            assert mem.current_bits >= 0
            assert mem.peak_bits >= mem.current_bits


class TestAgent:
    def test_initial_state_charges_id(self):
        agent = Agent(5, 0, MemoryModel(k=8, max_degree=3))
        assert agent.memory.current_bits >= agent.memory.model.bits(FieldKind.ID)
        assert agent.pin is None
        assert agent.role is AgentRole.EXPLORER

    def test_invalid_id_rejected(self):
        with pytest.raises(ValueError):
            Agent(0, 0, MemoryModel(k=4, max_degree=2))

    def test_arrive_updates_pin(self):
        agent = Agent(1, 0, MemoryModel(k=4, max_degree=4))
        agent.arrive(3, incoming_port=2)
        assert agent.position == 3
        assert agent.pin == 2

    def test_settle_and_unsettle(self):
        agent = Agent(2, 1, MemoryModel(k=4, max_degree=4))
        agent.settle(1, parent_port=3, treelabel=2)
        assert agent.settled and agent.home == 1
        assert agent.parent_port == 3
        assert agent.treelabel == 2
        agent.unsettle()
        assert not agent.settled and agent.home is None
        assert agent.parent_port is None

    def test_settle_root_has_no_parent(self):
        agent = Agent(3, 0, MemoryModel(k=4, max_degree=4))
        agent.settle(0, None)
        assert agent.parent_port is None
