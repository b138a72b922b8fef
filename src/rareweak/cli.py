"""Command-line interface.

Subcommands:
  simulate   one Monte Carlo trial from flags or a JSON spec file
  sweep      a (beta, strength) grid sweep from a JSON spec file
  boundary   phase-boundary curve on a beta grid, as CSV
  ifpca-run  applied screen-then-PCA pipeline on a labeled CSV

Exit codes: 0 success, 2 invalid specification, 3 completed with
partial per-method failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .harness import (
    METHOD_PRESETS,
    METHODS,
    SweepSpec,
    TrialSpec,
    canonical_json,
    run_sweep,
    run_trial,
    sweep_csv_rows,
)
from .ifpca import baseline_kmeans, ifpca_pipeline, load_labeled_csv
from .model import ArwParams
from .phase import BOUND_KINDS, PROBLEMS, VARIANTS, PhaseQuery, boundary

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_PARTIAL = 3


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run one seeded trial")
    p.add_argument("--spec", type=Path, help="TrialSpec JSON file (overrides flags)")
    p.add_argument("--p", type=int, default=5000)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--alpha", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--a", type=float, default=0.0, help="fraction of negative signals")
    p.add_argument("--q", type=float, help="screening exponent for if_pca / recover_if_q")
    p.add_argument("--N", type=int, help="aggregation sparsity (default: expected signal count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--methods",
        default="simple_agg,classical_pca",
        help=f"comma-separated method names ({', '.join(METHODS)}) or preset:{' / preset:'.join(METHOD_PRESETS)}",
    )
    p.add_argument("--out", type=Path)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="run a grid sweep from a SweepSpec JSON file")
    p.add_argument("--spec", type=Path, required=True)
    p.add_argument("--out", type=Path, help="output path stem (writes .json and .csv)")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trials run at once on this many threads (default 1); each trial runs BLAS on one thread",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_boundary(sub):
    p = sub.add_parser("boundary", help="emit a phase-boundary curve as CSV")
    p.add_argument("--problem", default="clustering", choices=PROBLEMS)
    p.add_argument("--kind", default="statistical", choices=BOUND_KINDS)
    p.add_argument("--variant", default="one_sided", choices=VARIANTS)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, default=200, help="number of beta grid points")
    p.add_argument("--out", type=Path)


def _add_ifpca(sub):
    p = sub.add_parser("ifpca-run", help="applied pipeline on a labeled CSV")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--labels", type=Path, help="separate one-label-per-line file")
    p.add_argument("--label-column", help="label column name inside the data CSV")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--q", type=float)
    mode.add_argument("--fdr", type=float)
    mode.add_argument("--top-k", type=int)
    mode.add_argument("--sweep", help="q grid start:stop:step")
    p.add_argument("--baseline-kmeans", action="store_true", help="also report the plain k-means error count")
    p.add_argument("--out", type=Path)


def _spec_from_flags(ns) -> TrialSpec:
    if ns.spec is not None:
        return TrialSpec.from_dict(json.loads(ns.spec.read_text()))
    params = ArwParams(p=ns.p, theta=ns.theta, beta=ns.beta, alpha=ns.alpha, r=ns.r, sign_mix_a=ns.a)
    if ns.methods.startswith("preset:"):
        preset = ns.methods.removeprefix("preset:")
        if preset not in METHOD_PRESETS:
            raise ValueError(f"unknown preset {preset!r}; available: {sorted(METHOD_PRESETS)}")
        names = list(METHOD_PRESETS[preset])
    else:
        names = [name.strip() for name in ns.methods.split(",") if name.strip()]
    flags = {key: value for key, value in (("q", ns.q), ("N", ns.N)) if value is not None}
    methods = {}
    for name in names:
        accepted = METHODS[name].options if name in METHODS else ()
        methods[name] = {key: value for key, value in flags.items() if key in accepted}
    return TrialSpec(params=params, methods=methods, seed=ns.seed)


def _write(text: str, out: Path | None):
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _rows_to_csv(rows: list[dict]) -> str:
    fields = []
    for row in rows:
        for k in row:
            if k not in fields:
                fields.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_simulate(ns) -> int:
    try:
        spec = _spec_from_flags(ns)
    except (ValueError, OverflowError, json.JSONDecodeError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    record = run_trial(spec)
    if ns.format == "json":
        _write(canonical_json(record.to_dict()), ns.out)
    else:
        rows = []
        for group in ("clustering", "recovery", "tests"):
            for name, entry in getattr(record, group).items():
                rows.append({"group": group, "method": name, **entry})
        _write(_rows_to_csv(rows), ns.out)
    return EXIT_PARTIAL if record.has_errors else EXIT_OK


def cmd_sweep(ns) -> int:
    if ns.workers < 1:
        print(f"invalid --workers: must be at least 1, got {ns.workers}", file=sys.stderr)
        return EXIT_BAD_SPEC
    try:
        sweep = SweepSpec.from_dict(json.loads(ns.spec.read_text()))
    except (ValueError, OverflowError, json.JSONDecodeError) as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    result = run_sweep(sweep, workers=ns.workers)
    rows = sweep_csv_rows(result)
    if ns.out is not None:
        _write(canonical_json(result), Path(str(ns.out) + ".json"))
        _write(_rows_to_csv(rows), Path(str(ns.out) + ".csv"))
    else:
        _write(canonical_json(result) if ns.format == "json" else _rows_to_csv(rows), None)
    partial = any("error" in c for c in result["cells"]) or any(
        c.get("results", {}).get("n_errors", 0) for c in result["cells"] if "results" in c
    )
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_boundary(ns) -> int:
    if ns.grid < 1:
        print(f"invalid query: --grid must be at least 1, got {ns.grid}", file=sys.stderr)
        return EXIT_BAD_SPEC
    rows = []
    for i in range(1, ns.grid + 1):
        beta = i / (ns.grid + 1)
        try:
            ans = boundary(PhaseQuery(ns.problem, ns.kind, ns.variant, ns.theta, beta))
        except ValueError as exc:
            print(f"invalid query: {exc}", file=sys.stderr)
            return EXIT_BAD_SPEC
        rows.append({"beta": repr(beta), "alpha_boundary": repr(ans.alpha_boundary), "segment": ans.segment})
    _write(_rows_to_csv(rows), ns.out)
    return EXIT_OK


def cmd_ifpca(ns) -> int:
    try:
        data = load_labeled_csv(ns.data, labels_path=ns.labels, label_column=ns.label_column)
    except (ValueError, OSError) as exc:
        print(f"cannot load data: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    grid = None
    if ns.sweep is not None:
        try:
            start, stop, step = (float(v) for v in ns.sweep.split(":"))
            grid = list(np.arange(start, stop + 1e-12, step)) if step > 0 else []
        except ValueError:
            grid = []
        if not grid:
            print("bad --sweep, expected start:stop:step with step > 0 and start <= stop", file=sys.stderr)
            return EXIT_BAD_SPEC
    try:
        # argparse's required exclusive group sets exactly one mode
        report = ifpca_pipeline(data, q=ns.q, fdr=ns.fdr, top_k=ns.top_k, sweep=grid)
    except ValueError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    payload = {
        "mode": report.mode,
        "dropped_features": report.dropped_features,
        "warnings": report.warnings,
        "rows": [asdict(r) for r in report.rows],
        "n_samples": int(data.X.shape[0]),
    }
    if ns.baseline_kmeans:
        payload["baseline_kmeans_errors"] = baseline_kmeans(data)
    _write(canonical_json(payload), ns.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rareweak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_sweep(sub)
    _add_boundary(sub)
    _add_ifpca(sub)
    ns = parser.parse_args(argv)
    handler = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "boundary": cmd_boundary,
        "ifpca-run": cmd_ifpca,
    }[ns.command]
    return handler(ns)


if __name__ == "__main__":
    raise SystemExit(main())
