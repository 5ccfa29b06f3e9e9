"""Command-line front end: run a simulated DGEMM from the shell.

Installed as ``repro-dgemm``::

    repro-dgemm --m 256 --n 128 --k 256 --variant SCHED --check
    repro-dgemm --preset paper --variant DB --estimate-only
    repro-dgemm --m 512 --n 512 --k 1536 --gantt
    repro-dgemm schedule --items 16 --cgs 4
    repro-dgemm trace --items 8 --cgs 4 --out trace.json --report
    repro-dgemm serve --requests 32 --concurrency 32
    repro-dgemm serve --smoke --metrics-out scrape.prom
    repro-dgemm metrics --items 8 --out scrape1.prom --out2 scrape2.prom
    repro-dgemm metrics --url http://127.0.0.1:9464/metrics

``--estimate-only`` skips the functional simulation and prints the
performance model's prediction (any paper-scale size is fine there);
functional runs execute on the default engine and are verified against
the engine contract (``--check`` turns a violation into exit status 1).
The ``schedule`` subcommand dispatches a mixed-shape batch across the
chip's core-group pool and reports the per-CG split, the modeled
makespan vs. the serial single-CG time, and the load-balance
efficiency.  The ``trace`` subcommand runs a traced session batch and
exports the span tree as a Chrome trace (load it at ui.perfetto.dev)
or JSONL, reconciling span counter deltas against the session totals
before it reports success.  The ``serve``
subcommand stands up the asyncio serving tier, drives it with the
seeded load generator, then verifies the serving contract: zero
dropped responses, same-bin coalescing (strictly fewer dispatched
batches than batch-path requests), a cache wave served without
touching the device, and per-request span traffic reconciling
bit-exactly with the session totals — optionally scraping its own
OpenMetrics endpoint mid-run and at shutdown (``--metrics-out`` /
``--metrics-out2``) for ``tools/check_metrics.py``.  The ``metrics``
subcommand takes one-shot OpenMetrics scrapes: either of a live
endpoint (``--url``) or of an internal sampled session run, dumping
one scrape per output file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.engine import DEFAULT_ENGINE
from repro.core.params import BlockingParams
from repro.core.reference import contract_violation, reference_dgemm
from repro.core.variants import VARIANTS
from repro.errors import ReproError
from repro.perf.estimator import Estimator
from repro.workloads.matrices import gemm_operands

__all__ = [
    "build_metrics_parser",
    "build_parser",
    "build_schedule_parser",
    "build_serve_parser",
    "build_trace_parser",
    "main",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgemm",
        description="DGEMM on a simulated SW26010 core group "
                    "(ICPP'17 reproduction)",
    )
    parser.add_argument("--m", type=int, default=None, help="rows of A/C")
    parser.add_argument("--n", type=int, default=None, help="columns of B/C")
    parser.add_argument("--k", type=int, default=None, help="inner dimension")
    parser.add_argument(
        "--variant", default="SCHED", choices=sorted(VARIANTS),
        type=lambda s: s.upper(), help="implementation (paper Sec V)",
    )
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument(
        "--preset", choices=["small", "paper"], default="small",
        help="blocking parameters: scaled-down (default) or the paper's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pad", action="store_true",
                        help="zero-pad non-multiple shapes")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the result meets the engine "
                             "contract (always checked and reported)")
    parser.add_argument("--estimate-only", action="store_true",
                        help="skip the functional run; print the model's view")
    parser.add_argument("--gantt", action="store_true",
                        help="render the modelled DMA/compute timeline")
    return parser


def build_schedule_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgemm schedule",
        description="Dispatch a mixed-shape batch across the SW26010's "
                    "core-group pool (CGScheduler)",
    )
    parser.add_argument("--items", type=int, default=16,
                        help="number of batch items (default 16)")
    parser.add_argument("--cgs", type=int, default=4,
                        help="pool size, 1..4 core groups (default 4)")
    parser.add_argument(
        "--variant", default="SCHED", choices=sorted(VARIANTS),
        type=lambda s: s.upper(), help="implementation (paper Sec V)",
    )
    parser.add_argument(
        "--preset", choices=["small", "paper"], default="small",
        help="blocking parameters: scaled-down (default) or the paper's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--estimate-only", action="store_true",
                        help="plan only: print the dispatch and modeled "
                             "timing without executing the batch")
    return parser


def _run_schedule(argv: list[str]) -> int:
    from repro.multi.scheduler import CGScheduler
    from repro.workloads.matrices import mixed_batch

    args = build_schedule_parser().parse_args(argv)
    params = _params_for(args)
    try:
        scheduler = CGScheduler(
            n_core_groups=args.cgs, variant=args.variant, params=params,
        )
        items = mixed_batch(args.items, params=params, seed=args.seed)
        if args.estimate_only:
            plan = scheduler.plan(items)
            counts = [0] * plan.n_core_groups
            for g in plan.assignments:
                counts[g] += 1
            per_cg = [
                (g, counts[g], plan.cg_seconds[g]) for g in range(args.cgs)
            ]
            errors_by_cg = {}
        else:
            result = scheduler.run(items)
            plan = result.plan
            per_cg = [
                (t.core_group, t.items, t.modeled_seconds)
                for t in result.per_cg
            ]
            errors_by_cg = {e.core_group: e for e in result.errors}
            print(f"executed {len(result)} items "
                  f"({len(result.errors)} failed), "
                  f"DMA {result.dma_bytes / 1e6:.2f} MB in "
                  f"{result.dma_transactions} transactions")
        for g, n_items, seconds in per_cg:
            bar = "#" * int(round(40 * seconds / max(plan.makespan_seconds, 1e-30)))
            suffix = "  [item failed]" if g in errors_by_cg else ""
            print(f"CG{g}: {n_items:3d} items  {seconds * 1e3:8.3f} ms  "
                  f"{bar}{suffix}")
        print(f"makespan {plan.makespan_seconds * 1e3:.3f} ms vs serial "
              f"{plan.serial_seconds * 1e3:.3f} ms -> modeled speedup "
              f"{plan.modeled_speedup:.2f}x on {args.cgs} CG(s), "
              f"load-balance efficiency "
              f"{100 * plan.load_balance_efficiency:.1f}%")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgemm trace",
        description="Run a traced Session batch and export the span tree "
                    "as a Chrome trace (Perfetto) or JSONL",
    )
    parser.add_argument("--items", type=int, default=8,
                        help="number of batch items (default 8)")
    parser.add_argument("--cgs", type=int, default=4,
                        help="pool size, 1..4 core groups (default 4)")
    parser.add_argument(
        "--variant", default="SCHED", choices=sorted(VARIANTS),
        type=lambda s: s.upper(), help="implementation (paper Sec V)",
    )
    parser.add_argument(
        "--preset", choices=["small", "paper"], default="small",
        help="blocking parameters: scaled-down (default) or the paper's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="trace.json",
                        help="output path (default trace.json)")
    parser.add_argument("--format", choices=["chrome", "jsonl"],
                        default="chrome",
                        help="chrome trace-event JSON (default) or one "
                             "span per JSONL line")
    parser.add_argument("--report", action="store_true",
                        help="also print the per-phase text report")
    parser.add_argument("--parallel", action="store_true",
                        help="dispatch the batch on per-CG worker threads "
                             "(the trace must still nest strictly per "
                             "track and reconcile bit-exactly)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed workload (4 items, 2 CGs, small "
                             "preset) for CI; still reconciles counters")
    return parser


def _run_trace(argv: list[str]) -> int:
    from repro.core.session import Session
    from repro.obs import (
        SpanTracer, phase_report, write_chrome_trace, write_jsonl,
    )
    from repro.workloads.matrices import mixed_batch

    args = build_trace_parser().parse_args(argv)
    if args.smoke:
        args.items, args.cgs, args.preset = 4, 2, "small"
    params = _params_for(args)
    tracer = SpanTracer()
    try:
        with Session(
            variant=args.variant, params=params,
            n_core_groups=args.cgs, tracer=tracer,
        ) as session:
            items = mixed_batch(args.items, params=params, seed=args.seed)
            result = session.batch(items, parallel=args.parallel)
            totals = session.stats().traffic.as_dict()
        if result.errors:
            print(f"error: {len(result.errors)} batch item(s) failed",
                  file=sys.stderr)
            return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # every byte the session accounted must appear in exactly one
    # dgemm span's counter deltas — the trace is trustworthy only if
    # this reconciles bit-exactly.
    deltas = tracer.counter_totals("dgemm")
    mismatches = [
        f"{field}: spans={deltas.get(f'ctx.{field}', 0)!r} "
        f"session={total!r}"
        for field, total in totals.items()
        if deltas.get(f"ctx.{field}", 0) != total
    ]
    if mismatches:
        print("error: span counters do not reconcile with Session.stats():",
              file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1

    if args.format == "chrome":
        write_chrome_trace(tracer.spans, args.out,
                           label=f"repro {args.variant} x{args.items}")
    else:
        write_jsonl(tracer.spans, args.out)
    print(f"{len(tracer.spans)} spans over {args.cgs} CG(s), "
          f"{tracer.total_seconds('session.batch') * 1e3:.3f} ms wall; "
          f"counters reconcile "
          f"with Session.stats() ({len(totals)} fields)")
    print(f"wrote {args.format} trace to {args.out}")
    if args.report:
        print()
        print(phase_report(tracer.spans))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgemm serve",
        description="Drive the asyncio serving tier (repro.serve) with a "
                    "seeded GEMM workload and verify the serving contract",
    )
    parser.add_argument("--requests", type=int, default=32,
                        help="requests in the main wave (default 32)")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="concurrent client submissions (default 32)")
    parser.add_argument("--cgs", type=int, default=4,
                        help="pool size, 1..4 core groups (default 4)")
    parser.add_argument(
        "--variant", default="SCHED", choices=sorted(VARIANTS),
        type=lambda s: s.upper(), help="implementation (paper Sec V)",
    )
    parser.add_argument(
        "--preset", choices=["small", "paper"], default="small",
        help="blocking parameters: scaled-down (default) or the paper's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=float, default=0.05,
                        help="coalescing window in seconds (default 0.05; "
                             "0 disables coalescing)")
    parser.add_argument("--batch", type=int, default=8,
                        help="max requests per dispatched batch (default 8)")
    parser.add_argument("--pending", type=int, default=64,
                        help="admission bound on in-flight requests "
                             "(default 64)")
    parser.add_argument("--cache-wave", type=int, default=4,
                        help="earlier requests resubmitted after the main "
                             "wave to exercise the operand cache (default 4)")
    parser.add_argument("--engine", choices=["device", "vectorized",
                                             "stepwise"], default=None,
                        help="execution engine for the serving session "
                             f"(default: {DEFAULT_ENGINE})")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="scrape the server's OpenMetrics endpoint "
                             "after the main wave and write it here")
    parser.add_argument("--metrics-out2", default=None, metavar="FILE",
                        help="second scrape, taken after all waves "
                             "(check_metrics.py compares the pair for "
                             "counter monotonicity)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed workload (12 requests, 2 CGs, "
                             "stepwise engine) for CI; same contract "
                             "checks plus plan-cache counters and a "
                             "validated OpenMetrics scrape")
    return parser


async def _scrape_openmetrics(address: tuple[str, int]) -> str:
    """GET /metrics from a running exposition endpoint, over real HTTP."""
    import asyncio

    host, port = address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /metrics HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    if " 200 " not in f"{status} ":
        raise ReproError(f"metrics endpoint answered {status!r}")
    return body.decode("utf-8")


def _parse_scrape(text: str) -> dict[str, float]:
    """Sample lines of an OpenMetrics scrape as ``{name: value}``.

    Ints parse as ints so bit-exact comparison against integer session
    counters holds; histogram bucket lines (with labels) keep their
    ``{...}`` in the name and are simply never looked up.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = int(value)
        except ValueError:
            try:
                out[name] = float(value)
            except ValueError:
                continue
    return out


async def _serve_session(args) -> int:
    from repro.obs import SpanTracer
    from repro.serve import LoadGenerator, ReproServer, ServeConfig

    params = _params_for(args)
    # --smoke always arms the endpoint so CI exercises a real scrape
    # even when no output files were requested.
    scraping = bool(args.metrics_out or args.metrics_out2 or args.smoke)
    config = ServeConfig(
        window_seconds=args.window,
        max_batch_size=args.batch,
        max_pending=args.pending,
        metrics_port=0 if scraping else None,
    )
    # the coalescing and reconciliation checks below read spans
    async with ReproServer(
        config=config, variant=args.variant, params=params,
        n_core_groups=args.cgs, engine=args.engine, tracer=SpanTracer(),
    ) as server:
        generator = LoadGenerator(seed=args.seed, params=params)
        requests = generator.generate(args.requests)
        results = await generator.run(
            server, requests, concurrency=args.concurrency
        )

        dropped = args.requests - len(results)
        failed = [r for r in results if not r.ok]
        print(f"{len(results)} responses to {args.requests} requests "
              f"({dropped} dropped, {len(failed)} failed, "
              f"{sum(r.cache_hit for r in results)} cache hits) over "
              f"{server.stats()['batches']} dispatched batches")
        if dropped or failed:
            print("error: serving contract violated "
                  f"({dropped} dropped, {len(failed)} failed)",
                  file=sys.stderr)
            return 1

        # mid-run scrape: the exposition endpoint must answer while
        # the server keeps serving (the second scrape at the end lets
        # check_metrics.py verify counter monotonicity).
        scrape1 = None
        if scraping:
            assert server.metrics_address is not None
            scrape1 = await _scrape_openmetrics(server.metrics_address)

        # cache wave: resubmitting completed requests must be served
        # from the operand cache without touching the device.
        wave = requests[: args.cache_wave]
        if wave:
            replays = await generator.run(server, wave, concurrency=4)
            misses = [r for r in replays if not (r.ok and r.cache_hit)]
            print(f"cache wave: {len(replays) - len(misses)}/{len(wave)} "
                  "served from cache")
            if misses:
                print("error: cache wave missed the operand cache",
                      file=sys.stderr)
                return 1

        # plan cache: a *fresh* same-shape request (new operands, so
        # the operand cache cannot serve it) must hit the compiled
        # plan, not rebuild it — one build per shape bin per session.
        if server.session.engine == "stepwise":
            from repro.api import GemmRequest

            before = server.session.plan_cache.stats()
            template = requests[0]
            rng = np.random.default_rng(len(requests))
            fresh = GemmRequest(
                a=rng.standard_normal(np.asarray(template.a).shape),
                b=rng.standard_normal(np.asarray(template.b).shape),
            )
            resp = await server.submit(fresh)
            after = server.session.plan_cache.stats()
            print(f"plan cache: {after.builds} builds, {after.hits} hits, "
                  f"{after.bytes} bytes resident")
            if not resp.ok or resp.cache_hit:
                print("error: fresh same-shape request did not execute",
                      file=sys.stderr)
                return 1
            if after.builds != before.builds or after.hits <= before.hits:
                print("error: plan cache rebuilt (or missed) on a "
                      f"same-shape resubmit: builds {before.builds} -> "
                      f"{after.builds}, hits {before.hits} -> {after.hits}",
                      file=sys.stderr)
                return 1

        # coalescing: with a window armed, same-bin requests must share
        # dispatches — strictly fewer session.batch spans than
        # dispatched requests.
        tracer = server.session.tracer
        batch_spans = sum(
            1 for s in tracer.spans if s.name == "session.batch"
        )
        dispatched = sum(
            1 for s in tracer.spans if s.name == "serve.request"
        )
        if args.window > 0 and batch_spans >= dispatched:
            print(f"error: no coalescing — {batch_spans} dispatches for "
                  f"{dispatched} dispatched requests", file=sys.stderr)
            return 1
        print(f"coalescing: {dispatched} dispatched requests ran in "
              f"{batch_spans} session.batch dispatches")

        # the reconciliation contract: summing every serve.request
        # span's traffic delta must equal Session.stats() bit-exactly.
        deltas = tracer.counter_totals("serve.request")
        totals = server.session.stats().traffic.as_dict()
        mismatched = [
            f"{field}: spans={deltas.get(f'ctx.{field}', 0)!r} "
            f"session={total!r}"
            for field, total in totals.items()
            if deltas.get(f"ctx.{field}", 0) != total
        ]
        if mismatched:
            print("error: per-request traffic does not reconcile with "
                  "Session.stats():", file=sys.stderr)
            for line in mismatched:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"per-request span traffic reconciles with Session.stats() "
              f"({len(totals)} fields)")

        if scraping:
            from repro.obs.promexp import metric_name

            assert server.metrics_address is not None
            scrape2 = await _scrape_openmetrics(server.metrics_address)
            # the scraped text must reconcile bit-exactly too: the
            # serve.request counter totals render via repr/str, so
            # parsing them back recovers the exact session counters.
            parsed = _parse_scrape(scrape2)
            bad = [
                f"{field}: scraped={parsed.get(name)!r} session={total!r}"
                for field, total in server.session.stats()
                .traffic.as_dict().items()
                for name in [
                    metric_name(f"serve.request.ctx.{field}") + "_total"
                ]
                if parsed.get(name) != total
            ]
            if bad:
                print("error: scraped OpenMetrics counters do not "
                      "reconcile with Session.stats():", file=sys.stderr)
                for line in bad:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print("scraped serve.request counters reconcile with "
                  "Session.stats()")
            for path, text in ((args.metrics_out, scrape1),
                               (args.metrics_out2, scrape2)):
                if path and text is not None:
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    print(f"wrote OpenMetrics scrape to {path}")

        print()
        print(server.slo.render())
    return 0


def _run_serve(argv: list[str]) -> int:
    import asyncio

    args = build_serve_parser().parse_args(argv)
    if args.smoke:
        args.requests, args.cgs, args.preset = 12, 2, "small"
        args.concurrency = 12
        # exercise the plan-compiled engine so the smoke run verifies
        # the plan-cache counters (unless an engine was forced).
        args.engine = args.engine or "stepwise"
    try:
        return asyncio.run(_serve_session(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgemm metrics",
        description="Take one-shot OpenMetrics scrapes: of a live "
                    "exposition endpoint (--url) or of an internal "
                    "sampled session run",
    )
    parser.add_argument("--url", default=None,
                        help="scrape a running endpoint "
                             "(http://host:port/metrics) instead of "
                             "running a workload")
    parser.add_argument("--items", type=int, default=8,
                        help="batch items per half of the internal run "
                             "(default 8)")
    parser.add_argument("--cgs", type=int, default=2,
                        help="pool size, 1..4 core groups (default 2)")
    parser.add_argument(
        "--variant", default="SCHED", choices=sorted(VARIANTS),
        type=lambda s: s.upper(), help="implementation (paper Sec V)",
    )
    parser.add_argument(
        "--preset", choices=["small", "paper"], default="small",
        help="blocking parameters: scaled-down (default) or the paper's",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--period", type=float, default=0.01,
                        help="sampler period in seconds (default 0.01)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the (first) scrape here instead of "
                             "stdout")
    parser.add_argument("--out2", default=None, metavar="FILE",
                        help="write a second scrape, taken after the "
                             "second half of the run, for counter-"
                             "monotonicity checks")
    return parser


def _run_metrics(argv: list[str]) -> int:
    from repro.core.session import Session
    from repro.obs import MetricsSampler, render_openmetrics
    from repro.workloads.matrices import mixed_batch

    args = build_metrics_parser().parse_args(argv)

    def deliver(text: str, path: str | None) -> None:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote OpenMetrics scrape to {path} "
                  f"({len(text.splitlines())} lines)")
        else:
            print(text, end="")

    if args.url:
        from urllib.parse import urlsplit

        parts = urlsplit(args.url)
        if not parts.hostname or not parts.port:
            print(f"error: --url needs host and port, got {args.url!r}",
                  file=sys.stderr)
            return 2
        import asyncio

        try:
            text = asyncio.run(
                _scrape_openmetrics((parts.hostname, parts.port))
            )
        except (OSError, ReproError) as exc:
            print(f"error: scrape failed: {exc}", file=sys.stderr)
            return 2
        deliver(text, args.out)
        return 0

    params = _params_for(args)
    try:
        with Session(
            variant=args.variant, params=params, n_core_groups=args.cgs,
        ) as session:
            sampler = MetricsSampler(
                session.metrics_registry(), period_seconds=args.period,
            )
            with sampler:
                items = mixed_batch(
                    2 * args.items, params=params, seed=args.seed
                )
                session.batch(items[: args.items], parallel=True)
                first = render_openmetrics(sampler.sample_once())
                session.batch(items[args.items:], parallel=True)
            second = render_openmetrics(sampler.sample_once())
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deliver(first, args.out)
    if args.out2:
        deliver(second, args.out2)
    return 0


def _params_for(args) -> BlockingParams:
    traits = VARIANTS[args.variant].traits
    if args.preset == "paper":
        return (BlockingParams.paper_double() if traits.double_buffered
                else BlockingParams.paper_single())
    return BlockingParams.small(double_buffered=traits.double_buffered)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "schedule":
        return _run_schedule(argv[1:])
    if argv and argv[0] == "trace":
        return _run_trace(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "metrics":
        return _run_metrics(argv[1:])
    args = build_parser().parse_args(argv)
    params = _params_for(args)
    m = args.m if args.m is not None else 2 * params.b_m
    n = args.n if args.n is not None else params.b_n
    k = args.k if args.k is not None else params.b_k

    try:
        if args.estimate_only:
            estimate = Estimator().estimate(args.variant, m, n, k, params=params)
            print(f"{args.variant} {m}x{n}x{k}: {estimate.gflops:.1f} Gflop/s "
                  f"({100 * estimate.efficiency():.1f}% of peak), "
                  f"{estimate.bytes_moved / 1e6:.1f} MB traffic, "
                  f"{estimate.seconds * 1e3:.3f} ms modelled")
        else:
            a, b, c = gemm_operands(m, n, k, seed=args.seed)
            cg = CoreGroup()
            out = dgemm(a, b, c, alpha=args.alpha, beta=args.beta,
                        variant=args.variant, params=params,
                        core_group=cg, pad=args.pad)
            expected = reference_dgemm(args.alpha, a, b, args.beta, c)
            err = float(np.max(np.abs(out - expected)))
            violation = contract_violation(out, args.alpha, a, b, args.beta, c)
            status = "OK" if violation is None else "MISMATCH"
            print(f"{args.variant} {m}x{n}x{k}: max |sim - numpy| = {err:.2e} "
                  f"[{status}]")
            if violation is not None:
                print(f"contract violated: {violation}", file=sys.stderr)
            print(f"DMA: {cg.dma.stats.bytes_total / 1e6:.2f} MB "
                  f"({cg.dma.stats.transactions} transactions); "
                  f"regcomm: {cg.regcomm.stats.bytes_moved / 1e6:.2f} MB")
            if args.check and status != "OK":
                return 1
        if args.gantt:
            from repro.perf.gantt import render_gantt
            from repro.perf.timeline import TimelineSimulator

            if VARIANTS[args.variant].traits.shared:
                paper_params = _params_for(
                    argparse.Namespace(variant=args.variant, preset="paper")
                )
                gm = max(m, 2 * paper_params.b_m)
                gn = max(n, paper_params.b_n)
                gk = max(k, paper_params.b_k)
                gm -= gm % paper_params.b_m
                gn -= gn % paper_params.b_n
                gk -= gk % paper_params.b_k
                result = TimelineSimulator().run(
                    args.variant, gm, gn, gk, params=paper_params
                )
                print()
                print(render_gantt(result.tracer, width=90))
            else:
                print("(RAW has no blocked timeline; --gantt skipped)")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
