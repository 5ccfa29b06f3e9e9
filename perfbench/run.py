"""The benchmark command: one seeded workload per process, one JSON result.

    python3 perfbench/run.py --workload scalar-square --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload again with a ``SpanTracer`` and prints the per-layer
metrics, writing the spans to ``.perfbench_out/`` as a Chrome trace.
``--workload all`` runs every workload, each in a fresh process.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any output was wrong or any op failed.

The program is imported from ``src/`` next to this directory and
nowhere else, so the command refuses to run outside a full checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scalar-square", "batch-shared-a", "serve-open")
#: host BLAS is pinned to one thread before numpy loads: two OpenBLAS
#: threads on a 2-core host turn a sub-millisecond floor into tens of
#: milliseconds whenever a CG worker holds the other core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_host_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def host_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in this process; return (result, record)."""
    import workloads as wl

    config = json.loads((HERE / "workloads.json").read_text())["workloads"][name]
    trace_path = None
    if trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{name}-seed{seed}.trace.json"
    if name == "serve-open":
        load = wl.ServeOpen(
            seed, max(2, round(config["rate_per_second"] * seconds)), seconds,
            config["repeat_share"],
        )
        outcome = wl.run_serve(
            load, cold_starts=config["cold_starts"],
            latency_limit_ms=config["latency_limit_ms"],
            trace=trace, trace_path=trace_path,
        )
    else:
        load = (wl.ScalarSquare if name == "scalar-square" else wl.BatchSharedA)(seed)
        outcome = wl.run_closed(
            load, n_ops=max(2, round(config["ops_per_second"] * seconds)),
            cold_starts=config["cold_starts"], tax_limit=config["tax_limit"],
            trace=trace, trace_path=trace_path,
        )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    return result, outcome.record


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=175, cwd=ROOT,
        )
        lines = child.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"perfbench: {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pin_host_threads()
    if args.workload == "all":
        return run_all(args)
    import_program()
    result, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# host " + json.dumps(host_record()))
    print("# record " + json.dumps({"workload": args.workload, "seed": args.seed, **record}))
    for key, metric in result["metrics"].items():
        print(f"# {args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
