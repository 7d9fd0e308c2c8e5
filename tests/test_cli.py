"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import FIGURES, main
from repro.runner import ARCHITECTURES


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
        assert rows["baseline"] == ["result", "-"]
        assert rows["best_swl_cache_ext"] == ["sweep", "cta_limit"]
        assert rows["linebacker"] == ["result", "lb_config"]
        assert rows["ccws"] == ["result", "-"]

    def test_no_subcommand_takes_a_backend_flag(self, capsys):
        for command in ("run", "trace", "submit", "bench", "fuzz"):
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


class TestBenchHistory:
    def test_committed_history_loads(self):
        from pathlib import Path

        from repro.bench import latest_entry, load_history

        history = load_history(str(Path(__file__).parent.parent / "BENCH_sim.json"))
        # Entries taken on the retired reference engine stay readable.
        assert latest_entry(history, backend="object") is not None
        assert latest_entry(history, backend="vector") is not None

    def test_single_report_is_not_a_history(self, tmp_path):
        from repro.bench import load_history

        report = tmp_path / "bench-ci.json"
        report.write_text('{"backend": "object", "apps": []}')
        with pytest.raises(ValueError, match="not a bench history"):
            load_history(str(report))


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
