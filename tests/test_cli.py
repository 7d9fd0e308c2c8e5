"""Tests for the `python -m repro` command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.__main__ import FIGURES, build_parser, main
from repro.runner import ARCHITECTURES, ResultCache


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_list_archs_prints_derived_columns(self, capsys):
        assert main(["list", "--archs"]) == 0
        rows = {
            line.split()[0]: line.split()[1:3]
            for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in ARCHITECTURES
        }
        assert set(rows) == set(ARCHITECTURES)
        # returns, extra params — there is one engine, so no column for it.
        assert rows["baseline"] == ["SimulationResult", "-"]
        assert rows["best_swl"] == ["BestSWLResult", "-"]
        assert rows["best_swl_cache_ext"] == ["SimulationResult", "cta_limit"]
        assert rows["linebacker"] == ["SimulationResult", "lb_config"]
        assert rows["ccws"] == ["SimulationResult", "-"]

    def test_cache_info_and_clear_count_rows(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 16, i)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert re.search(r"^entries +3$", capsys.readouterr().out, re.M)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("removed 3 cache entries")
        assert cache.info().entries == 0

    def test_no_subcommand_takes_a_backend_flag(self, capsys):
        for command in ("run", "trace", "submit", "fuzz"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "--backend" not in capsys.readouterr().out

    def test_submit_refuses_a_bad_pair_before_connecting(self, capsys):
        # Port 9 is never dialled: the job is refused when it is built.
        for flags in (["--arch", "best_swl", "--timeseries"],
                      ["--arch", "warp9"]):
            with pytest.raises(SystemExit) as err:
                main(["submit", "--url", "http://127.0.0.1:9", *flags])
            assert err.value.code == 2
            assert flags[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "fig1", "--apps", "S2", "--no-cache"],
        ["trace", "S2", "--sm", "0"],
        ["submit", "--url", "http://127.0.0.1:9"],
        ["fuzz", "--count", "1", "--no-simulate"],
    ], ids=lambda c: c[0])
    def test_a_machine_without_sms_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([*command, "--sms", "0"])
        assert err.value.code == 2
        assert "GPUConfig.num_sms" in capsys.readouterr().err

    def test_overhead_command(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "total (KB)" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figNaN"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig1", "--apps", "NOPE"])

    def test_fig1_tiny_run(self, capsys):
        assert main(["run", "fig1", "--apps", "LI", "--scale", "0.1", "--sms", "1"]) == 0
        out = capsys.readouterr().out
        assert "LI" in out

    def test_every_figure_registered(self):
        expected = {f"fig{i}" for i in list(range(1, 6)) + list(range(9, 19))}
        assert set(FIGURES) == expected | {"dynamics"}


class TestDocumentedCommands:
    """Every ``python -m repro <word>`` the docs and CI spell names a
    subcommand the parser registers. EXPERIMENTS.md and CHANGES.md are
    history and may name retired ones."""

    ROOT = Path(__file__).resolve().parent.parent
    FILES = (".github/workflows/ci.yml", "README.md", "DESIGN.md",
             ".claude/skills/verify/SKILL.md")

    @staticmethod
    def registered() -> set:
        return {
            name
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices
        }

    def test_retired_bench_is_an_argparse_error(self, capsys):
        assert {"run", "lint", "worker", "fuzz"} <= self.registered()
        with pytest.raises(SystemExit) as err:
            main(["bench"])
        assert err.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", [
        "repro bench", "repro.bench", "BENCH_sim", "traceio",
        "AppSpec", "build_kernel", "workload_from_app", "expected_classes_for_app",
    ])
    def test_retired_names_appear_only_in_history(self, retired):
        live = [*self.FILES, *(
            str(p.relative_to(self.ROOT))
            for pattern in ("src/repro/**/*.py", "examples/*.py")
            for p in sorted(self.ROOT.glob(pattern))
        )]
        assert [name for name in live if retired in (self.ROOT / name).read_text()] == []

    @pytest.mark.parametrize("name", FILES)
    def test_every_documented_subcommand_is_registered(self, name):
        text = (self.ROOT / name).read_text()
        words = re.findall(r"python3? -m repro\s+([a-z][\w-]*)", text)
        assert words, f"{name} names no `python -m repro` command"
        assert sorted(set(words) - self.registered()) == []


class TestTraceCLI:
    def test_trace_json_emits_window_rows(self, capsys):
        assert main(
            ["trace", "GE", "linebacker", "--json", "--scale", "0.1", "--sms", "1"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "GE"
        assert payload["arch"] == "linebacker"
        assert payload["rows"], "expected at least one closed window"
        window = payload["window_cycles"]
        for row in payload["rows"]:
            assert row["cycle"] % window == 0
            for key in ("ipc", "active", "inactive", "vps", "state", "phase"):
                assert key in row

    def test_trace_text_table(self, capsys):
        assert main(["trace", "GE", "--scale", "0.1", "--sms", "1"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "VPs" in out
        assert "final:" in out

    def test_trace_output_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(
            ["trace", "GE", "--json", "--scale", "0.1", "--sms", "1",
             "--output", str(target)]
        ) == 0
        capsys.readouterr()
        import json

        assert json.loads(target.read_text())["app"] == "GE"

    def test_trace_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["trace", "NOPE"])

    def test_trace_rejects_arch_without_timeseries_support(self):
        with pytest.raises(SystemExit):
            main(["trace", "GE", "best_swl"])

    def test_trace_rejects_out_of_range_sm(self):
        with pytest.raises(SystemExit):
            main(["trace", "GE", "--sms", "2", "--sm", "5"])
