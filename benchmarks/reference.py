"""Re-measure the single-call and sweep timings quoted in ROADMAP.md.

    python3 benchmarks/reference.py

Prints one JSON object: the first and the steady-state Gram product at
p = 10^4, gen_dataset and the HC test at p = 10^5, greedy aggregation
at p = 10^4 with N = 40 (pure noise and a weak signal), and the
500-trial bundle sweep serially and with 2 thread workers. Medians of a
few calls each; takes about two minutes.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rareweak.cluster import sparse_aggregation_greedy  # noqa: E402
from rareweak.harness import SweepSpec, run_sweep  # noqa: E402
from rareweak.hyptest import higher_criticism_test  # noqa: E402
from rareweak.model import ArwParams, gen_dataset  # noqa: E402


def ms(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def main() -> None:
    rng = np.random.default_rng(0)
    M = rng.standard_normal((100, 10_000))
    gram = ms(lambda: M @ M.T, 20)
    big = ArwParams(p=100_000, theta=0.5, beta=0.6, r=0.3)
    X = gen_dataset(big, seed=1).X
    # the local search's sweep count, and so its time, depends on the data
    null = gen_dataset(ArwParams(p=10_000, theta=0.5, beta=0.6, alpha=math.inf), seed=2).X
    agg = gen_dataset(ArwParams(p=10_000, theta=0.5, beta=0.6, alpha=0.2), seed=2).X
    bundle = SweepSpec(p=5_000, theta=0.5, betas=(0.05, 0.09, 0.13, 0.17, 0.21), strength_kind="alpha_ratio",
                       strengths=(0.5, 0.75, 1.0, 1.5, 2.0), reps=20, master_seed=1,
                       methods={m: {} for m in ("simple_agg", "classical_pca", "if_pca", "higher_criticism", "agg_chi2")})
    sweep_s = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        run_sweep(bundle, workers=workers)
        sweep_s[workers] = time.perf_counter() - t0
    print(json.dumps({
        "gram_p1e4_first_ms": gram[:3],
        "gram_p1e4_steady_ms": statistics.median(gram[10:]),
        "gen_dataset_p1e5_ms": statistics.median(ms(lambda: gen_dataset(big, seed=3), 5)),
        "hc_test_p1e5_ms": statistics.median(ms(lambda: higher_criticism_test(X), 5)),
        "greedy_p1e4_N40_null_ms": statistics.median(ms(lambda: sparse_aggregation_greedy(null, 40, restarts=8), 3)),
        "greedy_p1e4_N40_alpha0.2_ms": statistics.median(ms(lambda: sparse_aggregation_greedy(agg, 40, restarts=8), 3)),
        "bundle_500_trials_per_s": {"serial": 500 / sweep_s[1], "2_threads": 500 / sweep_s[2]},
    }, indent=1))


if __name__ == "__main__":
    main()
