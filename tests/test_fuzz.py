"""Seeded scenario fuzzer: deterministic generation, classification
gates, the differential engine-invariant harness, greedy minimization,
and the ``python -m repro fuzz`` CLI."""

import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.workloads.fuzz import (
    FAMILIES,
    check_gates,
    differential_check,
    fuzz_workload,
    generate_corpus,
    minimize,
)
from repro.workloads.generator import Pattern
from repro.workloads.spec import (
    load_workload_file,
    validate_workload,
    workload_hash,
)

sys.path.insert(0, str(Path(__file__).parent))
import reference_engine  # noqa: E402

SEED = 2019


def iter_loads(spec):
    for tenant in spec.tenants:
        for phase in tenant.phases:
            yield from phase.loads


class TestGeneration:
    def test_deterministic_per_seed_and_index(self):
        for index in range(4):
            a = fuzz_workload(SEED, index)
            b = fuzz_workload(SEED, index)
            assert a == b
            assert workload_hash(a) == workload_hash(b)

    def test_different_seeds_differ(self):
        assert workload_hash(fuzz_workload(1, 0)) != workload_hash(
            fuzz_workload(2, 0)
        )

    def test_corpus_covers_every_family(self):
        corpus = generate_corpus(SEED, len(FAMILIES) * 2)
        names = [spec.name for spec in corpus]
        assert len(set(names)) == len(names)
        for family in FAMILIES:
            assert any(family.replace("_", "") in n for n in names), family

    def test_every_spec_validates(self):
        for spec in generate_corpus(SEED, 12):
            validate_workload(spec)

    def test_multi_tenant_family_has_tenants(self):
        spec = fuzz_workload(SEED, FAMILIES.index("multi_tenant"))
        assert len(spec.tenants) >= 2

    def test_phase_shift_family_has_phases(self):
        spec = fuzz_workload(SEED, FAMILIES.index("phase_shift"))
        assert any(len(t.phases) >= 2 for t in spec.tenants)


class TestGates:
    @pytest.mark.parametrize("index", range(8))
    def test_corpus_passes_classification_gates(self, index):
        problems, classification = check_gates(fuzz_workload(SEED, index))
        assert not problems, problems
        assert classification is not None and classification.loads

    def test_gates_catch_an_undeclared_stream(self):
        # A spec whose declared REUSE working set is huge relative to
        # its touches classifies as streaming -> the gate must fire.
        import dataclasses

        spec = fuzz_workload(SEED, 0)
        tenant = spec.tenants[0]
        phase = tenant.phases[0]
        bad_loads = tuple(
            dataclasses.replace(ld, working_set_lines=1 << 18,
                                pattern=Pattern.DIVERGENT)
            if ld.pattern is not Pattern.STREAM else ld
            for ld in phase.loads
        )
        bad = dataclasses.replace(spec, tenants=(
            dataclasses.replace(tenant, phases=(
                dataclasses.replace(phase, loads=bad_loads),
            ) + tenant.phases[1:]),
        ) + spec.tenants[1:])
        problems, _ = check_gates(bad)
        assert any("streaming" in p for p in problems)


class TestDifferentialHarness:
    def test_engine_invariants_hold(self):
        # One representative spec end to end, machine and reference; the
        # CI fuzz job sweeps the full corpus. thrash (index 0) exercises
        # the victim path hardest: L1-adversarial working sets with
        # backups/restores.
        with reference_engine.registered():
            problems = differential_check(fuzz_workload(SEED, 0))
        assert not problems, problems

    @staticmethod
    def _skew_vector(monkeypatch, hooked: bool):
        # The stand-in "vector" is the reference engine run under a
        # 1-CTA cap, and only for one kind of request (hooked or
        # extension-free), so only the leg under test moves.
        from repro.engine import BACKENDS

        vector = BACKENDS["vector"]

        def skewed(config, kernel, extension_factory, options):
            if (extension_factory is not None) != hooked:
                return vector(config, kernel, extension_factory, options)
            capped = options.replace(max_concurrent_ctas=1)
            return BACKENDS["object"](config, kernel, extension_factory, capped)

        monkeypatch.setitem(BACKENDS, "vector", skewed)

    def test_default_engine_is_checked_against_pinned_object(self, monkeypatch):
        # No flag needed: a machine that disagrees with a registered
        # reference fails the harness.
        with reference_engine.registered():
            self._skew_vector(monkeypatch, hooked=False)
            problems = differential_check(fuzz_workload(SEED, 0))
        diverged = [p for p in problems if "diverges from object" in p]
        assert diverged and all(p.startswith("baseline: the machine") for p in diverged), problems

    def test_hooked_leg_is_checked_against_pinned_object(self, monkeypatch):
        # The Linebacker leg is compared on purpose, not by accident of
        # an option: skew only hooked requests.
        with reference_engine.registered():
            self._skew_vector(monkeypatch, hooked=True)
            problems = differential_check(fuzz_workload(SEED, 0))
        diverged = [p for p in problems if "diverges from object" in p]
        assert diverged and all(p.startswith("linebacker: the machine") for p in diverged), problems


    def test_stall_replays_are_compared(self, monkeypatch):
        # A replay miscount moves no result: only the live SMs show it.
        from repro.engine import BACKENDS

        vector = BACKENDS["vector"]

        def miscounting(config, kernel, extension_factory, options):
            result = vector(config, kernel, extension_factory, options)
            for sm in result.sms if options.keep_objects else ():
                sm.mshr_stalls += 1
            return result

        with reference_engine.registered():
            monkeypatch.setitem(BACKENDS, "vector", miscounting)
            problems = differential_check(fuzz_workload(SEED, 0))
        assert [p.split(":")[0] for p in problems] == ["linebacker", "baseline"], problems
        assert all("MSHR-stall replays" in p for p in problems), problems


class TestMinimize:
    def test_shrinks_while_preserving_predicate(self):
        def fails(s):
            return any(
                ld.pattern is Pattern.REUSE and ld.working_set_lines > 10
                for ld in iter_loads(s)
            )

        spec = next(s for s in generate_corpus(SEED, 8) if fails(s))
        small = minimize(spec, fails)
        validate_workload(small)
        assert fails(small)
        assert sum(1 for _ in iter_loads(small)) <= sum(
            1 for _ in iter_loads(spec)
        )
        assert small.num_ctas <= spec.num_ctas

    def test_predicate_never_true_returns_input(self):
        spec = fuzz_workload(SEED, 0)
        assert minimize(spec, lambda s: False) == spec


class TestCLI:
    def test_fuzz_cli_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = repro_main([
            "fuzz", "--seed", str(SEED), "--count", "3",
            "--out", str(out), "--no-simulate",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "3/3 specs passed" in captured.err
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        for path in files:
            spec = load_workload_file(path)
            assert spec.name == path.stem
            # The committed document is canonical JSON: reload+reserialize
            # is byte-stable, so corpus diffs are always meaningful.
            assert json.loads(path.read_text(encoding="utf-8"))

    def test_fuzz_cli_rejects_bad_count(self):
        with pytest.raises(SystemExit):
            repro_main(["fuzz", "--count", "0"])
