"""Tests for the per-node navigation ledger and its memory charging."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.core.navigation import _MAX_LIST_LEN, _RECORD_FIELDS, NavLedger, NavRecord


def make_agent(aid=1):
    return Agent(aid, 0, MemoryModel(k=16, max_degree=8))


class TestNavLedger:
    def test_create_and_get(self):
        ledger = NavLedger()
        owner = make_agent()
        rec = ledger.create(3, owner, parent_port=2, occupied=True)
        assert ledger.has(3)
        assert ledger.get(3) is rec
        assert ledger.owner(3) is owner
        assert rec.parent_port == 2

    def test_duplicate_create_rejected(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(0, owner)
        with pytest.raises(ValueError):
            ledger.create(0, owner)

    def test_charge_appears_in_owner_memory(self):
        ledger = NavLedger()
        owner = make_agent()
        before = owner.memory.current_bits
        ledger.create(1, owner, parent_port=4, occupied=True, forward_count=2)
        assert owner.memory.current_bits > before

    def test_update_unknown_field_rejected(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        with pytest.raises(AttributeError):
            ledger.update(1, bogus=1)

    def test_child_group_chunk_limit(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        for port in (1, 2, 3):
            ledger.append_child_port(1, port)
        with pytest.raises(ValueError):
            ledger.append_child_port(1, 4)

    def test_sibling_group_chunk_limit(self):
        ledger = NavLedger()
        owner = make_agent()
        ledger.create(1, owner)
        ledger.append_sibling_port(1, 5)
        ledger.append_sibling_port(1, 6)
        with pytest.raises(ValueError):
            ledger.append_sibling_port(1, 7)

    def test_transfer_moves_charge(self):
        ledger = NavLedger()
        old, new = make_agent(1), make_agent(2)
        base_old = old.memory.current_bits
        base_new = new.memory.current_bits
        ledger.create(2, old, parent_port=1, occupied=True)
        charged = old.memory.current_bits - base_old
        assert charged > 0
        ledger.transfer(2, new)
        assert old.memory.current_bits == base_old
        assert new.memory.current_bits == base_new + charged
        assert ledger.owner(2) is new

    def test_owner_with_constant_records_stays_logarithmic(self):
        """An agent owning O(1) records uses O(log(k+Δ)) bits (Lemma 9 regime)."""
        model = MemoryModel(k=4096, max_degree=2048)
        owner = Agent(1, 0, model)
        ledger = NavLedger()
        for node in range(4):  # own node + 3 covered nodes, the worst case
            ledger.create(
                node,
                owner,
                parent_port=7,
                occupied=(node == 0),
                forward_count=3,
                child_group=[1, 2, 3],
                next_anchor=4,
                sibling_group=[5, 6],
            )
        assert owner.memory.peak_in_log_units() < 60


class _FullRechargeShadow:
    """Reference accounting: after every mutation, write every slot of the
    record to the owner's memory (set slots with their kind, unset slots
    cleared), and clear every slot of a record an owner gives away."""

    def __init__(self) -> None:
        self.records = {}
        self.owners = {}

    @staticmethod
    def _slots(node, record):
        for name, kind, is_list in _RECORD_FIELDS:
            value = getattr(record, name)
            if is_list:
                for i in range(_MAX_LIST_LEN[name]):
                    yield f"nav[{node}].{name}[{i}]", kind, value[i] if i < len(value) else None
            else:
                yield f"nav[{node}].{name}", kind, value

    def _recharge(self, node) -> None:
        memory = self.owners[node].memory
        for mem_name, kind, value in self._slots(node, self.records[node]):
            memory.declare(mem_name, kind)
            memory.write(mem_name, value)

    def create(self, node, owner, **initial) -> None:
        self.records[node] = NavRecord(**copy.deepcopy(initial))
        self.owners[node] = owner
        self._recharge(node)

    def update(self, node, **changes) -> None:
        for name, value in changes.items():
            setattr(self.records[node], name, copy.copy(value))
        self._recharge(node)

    def transfer(self, node, new_owner) -> None:
        memory = self.owners[node].memory
        for mem_name, _kind, _value in self._slots(node, self.records[node]):
            memory.write(mem_name, None)
        self.owners[node] = new_owner
        self._recharge(node)


def _random_field_value(rng, name):
    if name in _MAX_LIST_LEN:
        return [rng.randint(1, 8) for _ in range(rng.randint(0, _MAX_LIST_LEN[name]))]
    if name in ("depth_parity", "forward_count", "leaf_child_count"):
        return rng.randint(0, 3)
    if name in ("occupied", "rt_initialized", "rt_is_anchor"):
        return rng.random() < 0.5
    return rng.choice([None, 1, 2, 5, 8])  # a port field, ⊥ included


class TestIncrementalCharging:
    """``update``/``append_*`` recharge only the changed fields; the owners'
    memory must still match a ledger that recharges every slot each time."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_matches_full_recharge(self, seed):
        rng = random.Random(seed)
        model = MemoryModel(k=16, max_degree=8)
        owners = [Agent(i, 0, model) for i in (1, 2, 3)]
        shadow_owners = [Agent(i, 0, model) for i in (1, 2, 3)]
        ledger, shadow = NavLedger(), _FullRechargeShadow()
        names = [name for name, _kind, _is_list in _RECORD_FIELDS]
        for _step in range(40):
            nodes = sorted(shadow.records)
            op = rng.choice(["create", "update", "child", "sibling", "transfer"])
            if op == "create" or not nodes:
                node = len(nodes)
                who = rng.randrange(3)
                initial = {
                    name: _random_field_value(rng, name)
                    for name in rng.sample(names, rng.randint(0, 4))
                }
                ledger.create(node, owners[who], **copy.deepcopy(initial))
                shadow.create(node, shadow_owners[who], **initial)
            elif op == "update":
                node = rng.choice(nodes)
                changes = {
                    name: _random_field_value(rng, name)
                    for name in rng.sample(names, rng.randint(1, 4))
                }
                ledger.update(node, **copy.deepcopy(changes))
                shadow.update(node, **changes)
            elif op in ("child", "sibling"):
                node = rng.choice(nodes)
                field = "child_group" if op == "child" else "sibling_group"
                group = getattr(shadow.records[node], field)
                if len(group) == _MAX_LIST_LEN[field]:
                    continue
                port = rng.randint(1, 8)
                if op == "child":
                    ledger.append_child_port(node, port)
                else:
                    ledger.append_sibling_port(node, port)
                shadow.update(node, **{field: group + [port]})
            else:
                node = rng.choice(nodes)
                who = rng.randrange(3)
                ledger.transfer(node, owners[who])
                shadow.transfer(node, shadow_owners[who])
            for real, expected in zip(owners, shadow_owners):
                assert real.memory.current_bits == expected.memory.current_bits
                assert real.memory.peak_bits == expected.memory.peak_bits
                assert real.memory.snapshot() == expected.memory.snapshot()
