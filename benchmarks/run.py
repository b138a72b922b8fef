"""Benchmark runner for the rareweak Monte Carlo lab.

    python3 benchmarks/run.py --workload phase-grid --seed 1 --seconds 20 --trace 0

Runs one workload against the package source in ``src/`` of the same
checkout, for whole rounds until ``--seconds`` have passed, checks every
output, and prints one JSON object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (the latter also written to ``benchmarks/out/``). See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("phase-grid", "screen-large-p", "aggregation-search", "applied-pipeline")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # self-test sizes
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import rareweak from this checkout's src/, never from anywhere else."""
    if not (SRC / "rareweak" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC}/rareweak")
    sys.path.insert(0, str(SRC))
    import rareweak

    if Path(rareweak.__file__).resolve().parent != (SRC / "rareweak").resolve():
        raise SystemExit(f"error: imported rareweak from {rareweak.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def time_setup(args, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import the package and run the warm-up calls."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe", "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return samples


def measure(workload, seconds: float, tracer):
    """Whole rounds until ``seconds`` pass; returns {k: {mode: Outcome}} and {mode: [(units, s)]}.

    Untraced runs alternate a serial and a 2-worker round. Traced runs
    alternate an untraced and a traced serial round on the same inputs,
    so their ratio is the tracing overhead.
    """
    modes = (("serial", 1, None), ("traced", 1, tracer)) if tracer else (("serial", 1, None), ("2w", 2, None))
    rounds, times = {}, {mode: [] for mode, _, _ in modes}
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for mode, workers, tr in modes:
            with tr.install() if tr else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = workload.round(k, workers, tr)
                dt = time.perf_counter() - t0
            rounds.setdefault(k, {})[mode] = out
            times[mode].append((out.units, dt))
        k += 1
    return rounds, times


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    if args.setup_probe:
        workloads[args.workload](args.seed, args.workdir, args.tiny).warm_up()
        return 0

    from spans import Tracer

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        workload = workloads[args.workload](args.seed, Path(tmp), args.tiny)
        workload.prepare()
        setup = [] if args.trace else time_setup(args, Path(tmp))
        workload.warm_up()
        tracer = Tracer() if args.trace else None
        rounds, times = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check(rounds)

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    outcomes = [out for by_mode in rounds.values() for out in by_mode.values()]

    def rate(mode: str) -> float:
        return statistics.median(units / dt for units, dt in times[mode])

    if args.trace:
        plain = sum(dt for _, dt in times["serial"])
        traced = sum(dt for _, dt in times["traced"])
        units = sum(u for u, _ in times["traced"])
        metrics = tracer.layer_metrics(units, 100.0 * (traced / plain - 1.0))
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        report = {"workload": args.workload, "seed": args.seed, "units": units, "untraced_s": plain,
                  "traced_s": traced, "metrics": metrics, "spans": tracer.summary()}
        (out_dir / f"trace-{args.workload}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "trials_per_s": {"value": rate("serial"), "unit": "1/s"},
            "trials_per_s_2w": {"value": rate("2w"), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
