"""Additional workload-generator coverage: WARP scope, strides,
reuse bursts, weights, and the scramble hash quality."""

import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.runner.fleet import worker_env
from repro.workloads.generator import (
    LoadSpec,
    Pattern,
    Scope,
    _pack_terms,
    _scramble,
    _scramble_packed,
)
from repro.workloads.spec import build_workload
from repro.workloads.suite import kernel_for

sys.path.insert(0, str(Path(__file__).parent))
from reference_engine import generator as reference  # noqa: E402
from workload_helpers import lines_of, make_app  # noqa: E402


_MASK64 = (1 << 64) - 1


def spec_with(load, iters=20, warps=2, ctas=2, alu=1):
    return make_app(load, iters=iters, warps=warps, ctas=ctas, alu=alu)


class TestWarpScope:
    def test_warp_regions_disjoint(self):
        kernel = build_workload(
            spec_with(LoadSpec(0x100, Pattern.REUSE, 8, Scope.WARP))
        )
        w0 = set(lines_of(kernel, 0, 0))
        w1 = set(lines_of(kernel, 0, 1))
        other_cta = set(lines_of(kernel, 1, 0))
        assert not (w0 & w1)
        assert not (w0 & other_cta)


class TestReuseKnobs:
    def test_burst_repeats_lines(self):
        kernel = build_workload(
            spec_with(LoadSpec(0x100, Pattern.REUSE, 64, reuse_burst=4), iters=8)
        )
        seq = lines_of(kernel, 0, 0)
        # Bursts of 4 identical addresses.
        assert seq[0] == seq[1] == seq[2] == seq[3]
        assert seq[4] == seq[5]

    def test_stride_advances_offset(self):
        kernel = build_workload(
            spec_with(LoadSpec(0x100, Pattern.REUSE, 64, stride=3, reuse_burst=1), iters=4)
        )
        seq = lines_of(kernel, 0, 0)
        assert (seq[1] - seq[0]) % 64 == 3

    def test_weight_multiplies_issues(self):
        light = build_workload(spec_with(LoadSpec(0x100, Pattern.REUSE, 8, weight=1)))
        heavy = build_workload(spec_with(LoadSpec(0x100, Pattern.REUSE, 8, weight=3)))
        assert len(lines_of(heavy, 0, 0)) == 3 * len(lines_of(light, 0, 0))


class TestScrambleQuality:
    def test_packed_hash_matches_the_scalar_oracle_at_extreme_inputs(self):
        # Every 64-bit slot at its widest (terms and lanes far past 32
        # bits): a carry between slots would corrupt a neighbour.
        rng = random.Random(7)
        ts = [rng.randrange(1 << 40) for _ in range(300)] + [0, _MASK64]
        for lane, j in ((0, 0), (1 << 20, 63), (rng.randrange(1 << 40), 5)):
            expected = [reference._scramble(t, lane, j) for t in ts]
            assert list(_scramble_packed(_pack_terms(ts), lane, j)) == expected
            assert [_scramble(t, lane, j) for t in ts] == expected

    def test_deterministic(self):
        assert _scramble(5, 7, 0) == _scramble(5, 7, 0)

    def test_streams_identical_in_a_child_with_another_hash_seed(self):
        """The address hash is a fixed function: a process with a
        different PYTHONHASHSEED builds the same Table-2 streams."""
        child = (
            "from repro.workloads.suite import kernel_for\n"
            "k = kernel_for('2D', scale=0.05)\n"
            "print([(i.op.name, i.line_addrs) for i in k.materialize(3, 1)])\n"
        )
        env = dict(worker_env(), PYTHONHASHSEED="12345")
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        here = kernel_for("2D", scale=0.05).materialize(3, 1)
        assert proc.stdout.strip() == str([(i.op.name, i.line_addrs) for i in here])

    def test_no_linear_structure_in_t(self):
        """Consecutive iterations must not form a permutation of the
        region — reuse happens at birthday rate (the regression that
        motivated the hash)."""
        ws = 97
        draws = [_scramble(t, 3, 0) % ws for t in range(4 * ws)]
        counts = Counter(draws)
        # A permutation would give every line exactly 4 touches; i.i.d.
        # draws give a spread including 0-touch and >6-touch lines.
        assert max(counts.values()) > 6
        assert len(set(range(ws)) - set(draws)) > 0

    def test_roughly_uniform(self):
        ws = 64
        draws = [_scramble(t, 9, 0) % ws for t in range(6400)]
        counts = Counter(draws)
        mean = 6400 / ws
        assert all(0.5 * mean < counts[i] < 1.5 * mean for i in range(ws))

    def test_lanes_decorrelated(self):
        a = [_scramble(t, 0, 0) % 128 for t in range(100)]
        b = [_scramble(t, 1, 0) % 128 for t in range(100)]
        assert sum(x == y for x, y in zip(a, b)) < 10
