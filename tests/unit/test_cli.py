"""Unit tests for the repro-dgemm CLI."""

import json

import pytest

from repro.cli import (
    build_metrics_parser,
    build_parser,
    build_schedule_parser,
    build_serve_parser,
    build_trace_parser,
    main,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.variant == "SCHED"
        assert args.preset == "small"

    def test_variant_case_insensitive(self):
        args = build_parser().parse_args(["--variant", "db"])
        assert args.variant == "DB"

    def test_unknown_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--variant", "TURBO"])


class TestMain:
    def test_functional_run_ok(self, capsys):
        assert main(["--variant", "PE"]) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out and "DMA:" in out

    def test_check_accepts_rounding_within_the_contract(self, capsys):
        """At alpha=1e6 the absolute error passes 1e-9 but stays inside
        the componentwise contract bound."""
        assert main(["--m", "128", "--n", "128", "--k", "256",
                     "--alpha", "1e6", "--check"]) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_estimate_only(self, capsys):
        assert main(["--estimate-only", "--preset", "paper",
                     "--m", "9216", "--n", "9216", "--k", "9216"]) == 0
        out = capsys.readouterr().out
        assert "Gflop/s" in out and "modelled" in out

    def test_bad_shape_returns_error_code(self, capsys):
        assert main(["--m", "100", "--n", "64", "--k", "128"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pad_rescues_bad_shape(self, capsys):
        assert main(["--m", "120", "--n", "60", "--k", "120", "--pad"]) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_gantt_output(self, capsys):
        assert main(["--variant", "SCHED", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "compute" in out and "dma" in out

    def test_gantt_skipped_for_raw(self, capsys):
        assert main(["--variant", "RAW", "--gantt"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_alpha_beta_plumbed(self, capsys):
        assert main(["--variant", "SCHED", "--alpha", "2.5",
                     "--beta", "-0.5"]) == 0
        assert "[OK]" in capsys.readouterr().out


class TestSchedule:
    def test_parser_defaults(self):
        args = build_schedule_parser().parse_args([])
        assert args.items == 16
        assert args.cgs == 4
        assert args.variant == "SCHED"

    def test_schedule_run(self, capsys):
        assert main(["schedule", "--items", "8", "--cgs", "4"]) == 0
        out = capsys.readouterr().out
        assert "executed 8 items" in out
        assert "CG0:" in out and "CG3:" in out
        assert "makespan" in out and "load-balance efficiency" in out

    def test_schedule_estimate_only_plans_without_executing(self, capsys):
        assert main(["schedule", "--items", "6", "--cgs", "2",
                     "--estimate-only"]) == 0
        out = capsys.readouterr().out
        assert "executed" not in out
        assert "CG1:" in out and "modeled speedup" in out

    def test_schedule_bad_pool_returns_error_code(self, capsys):
        assert main(["schedule", "--cgs", "9"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_parser_defaults(self):
        args = build_trace_parser().parse_args([])
        assert args.items == 8
        assert args.cgs == 4
        assert args.format == "chrome"
        assert args.out == "trace.json"

    def test_smoke_emits_valid_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "counters reconcile" in stdout
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"session.batch", "cg_dispatch", "dgemm"} <= names

    def test_jsonl_format(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--smoke", "--format", "jsonl",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert json.loads(lines[0])["name"] == "session.batch"

    def test_report_prints_phase_table(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--smoke", "--report",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "phase" in stdout and "flop/B" in stdout


class TestServe:
    def test_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.requests == 32
        assert args.window > 0
        assert args.batch >= 2
        assert not args.smoke

    def test_smoke_serves_with_zero_drops(self, capsys):
        assert main(["serve", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "0 dropped, 0 failed" in out
        assert "served from cache" in out
        assert "session.batch dispatches" in out
        assert "reconciles with Session.stats()" in out
        # the SLO table made it out with percentile columns
        assert "p50 ms" in out and "p99 ms" in out

    def test_zero_window_skips_coalescing_check(self, capsys):
        assert main(["serve", "--smoke", "--window", "0",
                     "--cache-wave", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 dropped" in out

    def test_smoke_writes_scrapes_that_validate(self, tmp_path):
        one = tmp_path / "one.prom"
        two = tmp_path / "two.prom"
        assert main([
            "serve", "--smoke",
            "--metrics-out", str(one), "--metrics-out2", str(two),
        ]) == 0
        for path in (one, two):
            text = path.read_text()
            assert text.endswith("# EOF\n")
            assert "# TYPE repro_serve_admitted counter" in text


class TestMetrics:
    def test_parser_defaults(self):
        args = build_metrics_parser().parse_args([])
        assert args.items > 0
        assert args.url is None

    def test_two_scrapes_to_files(self, capsys, tmp_path):
        one = tmp_path / "one.prom"
        two = tmp_path / "two.prom"
        assert main([
            "metrics", "--items", "4",
            "--out", str(one), "--out2", str(two),
        ]) == 0
        first, second = one.read_text(), two.read_text()
        assert first.endswith("# EOF\n") and second.endswith("# EOF\n")

        def value(text, name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            return None

        # counters advance between the two scrapes.
        counter = "repro_session_items_total"
        assert value(first, counter) == 4.0
        assert value(second, counter) == 8.0

    def test_single_scrape_to_stdout(self, capsys):
        assert main(["metrics", "--items", "2"]) == 0
        out = capsys.readouterr().out
        assert "# EOF" in out
