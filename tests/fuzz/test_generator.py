"""Tests for the seeded random machine generator."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cache import spec_fingerprint
from repro.fuzz import generator
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_corpus,
    generate_machine,
)
from repro.rtl.components import Memory, Selector
from repro.rtl.validate import ensure_valid
from repro.rtl.writer import spec_to_text


class TestValidity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_every_generated_machine_is_valid(self, seed):
        machine = generate_machine(seed)
        ensure_valid(machine.spec)
        assert machine.cycles >= 1
        # outport always exists, so every run observably does something
        assert "outport" in machine.spec.component_map

    def test_component_budget_is_respected(self):
        config = GeneratorConfig(max_components=6)
        for seed in range(40):
            machine = generate_machine(seed, config)
            # the mandatory output port may exceed the budget by one
            assert len(machine.spec) <= config.max_components + 1

    def test_cycle_range_is_respected(self):
        config = GeneratorConfig(min_cycles=5, max_cycles=9)
        for seed in range(20):
            machine = generate_machine(seed, config)
            assert 5 <= machine.cycles <= 9
            assert machine.spec.cycles == machine.cycles


class TestDeterminism:
    def test_same_seed_same_machine(self):
        for seed in (0, 7, 12345):
            first = generate_machine(seed)
            second = generate_machine(seed)
            assert spec_to_text(first.spec) == spec_to_text(second.spec)
            assert first.cycles == second.cycles
            assert first.inputs == second.inputs

    def test_corpus_is_a_stable_prefix(self):
        """Extending a session re-generates the same machines plus new."""
        short = generate_corpus(11, 4)
        long = generate_corpus(11, 7)
        assert [spec_fingerprint(m.spec) for m in short] == [
            spec_fingerprint(m.spec) for m in long[:4]
        ]

    def test_different_seeds_differ(self):
        prints = {
            spec_fingerprint(generate_machine(seed).spec)
            for seed in range(20)
        }
        assert len(prints) == 20


class TestDiversity:
    """The generator must exercise every component shape, not one."""

    def test_structural_shapes_all_appear(self):
        names_seen: set[str] = set()
        shapes = {"ctrl": 0, "ram": 0, "inport": 0, "selector": 0,
                  "initial": 0}
        for seed in range(120):
            spec = generate_machine(seed).spec
            names = set(spec.component_map)
            names_seen |= names
            if "ctrl" in names:
                shapes["ctrl"] += 1
            if "ram" in names:
                shapes["ram"] += 1
            if "inport" in names:
                shapes["inport"] += 1
            if any(name.startswith("s") for name in names):
                shapes["selector"] += 1
            if any(m.initial_values for m in spec.memories()):
                shapes["initial"] += 1
        assert all(count >= 5 for count in shapes.values()), shapes

    def test_inputs_accompany_inport(self):
        saw_inputs = False
        for seed in range(60):
            machine = generate_machine(seed)
            if machine.inputs:
                assert "inport" in machine.spec.component_map
                saw_inputs = True
        assert saw_inputs


class TestFaults:
    """A seeded share of machines is built to break at run time."""

    @staticmethod
    def _fault_sites(seeds, monkeypatch):
        """seed -> the components its fault changed, against the machine
        the seed builds when no machine carries a fault"""
        machines = {seed: generate_machine(seed) for seed in seeds}
        monkeypatch.setattr(generator, "_FAULT_SHARE", 0.0)
        sites = {}
        for seed, machine in machines.items():
            clean = generate_machine(seed)
            assert machine.cycles == clean.cycles
            assert machine.inputs == clean.inputs
            sites[seed] = [
                component
                for name, component in machine.spec.component_map.items()
                if component != clean.spec.component_map[name]
            ]
        return sites

    def test_a_share_of_machines_carries_each_fault(self, monkeypatch):
        sites = self._fault_sites(range(200), monkeypatch)
        # a fault touches its one site, and nothing else
        assert all(len(changed) <= 1 for changed in sites.values())
        kinds = Counter(
            type(changed[0]).__name__ if changed else None
            for changed in sites.values()
        )
        assert set(kinds) == {None, "Selector", "Memory", "Alu"}
        assert kinds[None] > len(sites) - kinds[None]

    def test_each_fault_undoes_its_guarantee(self, monkeypatch):
        sites = self._fault_sites(range(60), monkeypatch)
        for changed in filter(None, sites.values()):
            component = changed[0]
            if isinstance(component, Selector):
                assert component.case_count < 1 << component.select.total_width
            elif isinstance(component, Memory):
                assert component.size < 1 << component.address.total_width
            else:
                assert component.funct.total_width == 4


class TestConfigValidation:
    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            GeneratorConfig(max_components=3)

    def test_bad_cycle_range_rejected(self):
        with pytest.raises(ValueError, match="cycle range"):
            GeneratorConfig(min_cycles=10, max_cycles=5)

    def test_with_spec_substitutes_only_the_spec(self):
        machine = generate_machine(3)
        other = generate_machine(4)
        swapped = machine.with_spec(other.spec)
        assert swapped.seed == machine.seed
        assert swapped.cycles == machine.cycles
        assert spec_to_text(swapped.spec) == spec_to_text(other.spec)
