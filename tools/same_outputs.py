"""Check that two source trees of rareweak give byte-identical outputs.

Usage: python3 tools/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories that hold the ``rareweak``
package (a checkout's ``src``). Each tree runs in its own subprocesses,
on the same inputs, written once to a temporary directory:

* ``sweep`` on 1, 2 and 3 workers, all 14 methods, over an alpha grid with
  a null cell (both the ``Infinity`` token and ``"inf"``) and an invalid
  beta, the signed variant, an ``r`` grid with a cell at rho and cells at
  both ends of IF-PCA's beta range, and an ``alpha_ratio`` grid; the
  null-cell sweep also as CSV;
* ``sweep`` and ``simulate`` with methods that carry options: unsigned
  searches at N = 2 (exact at p = 300, over budget at p = 2100, where
  ``sparse_agg_exact`` records its error), 4 and the default, and two
  screens at different q beside HC on one score vector;
* ``simulate`` on a null-cell, a colored, a signed and a non-finite ``q``
  spec file, and on flags; the white spec file, which lists all 14
  methods, also as CSV;
* ``ifpca-run --baseline-kmeans`` in all four modes, on a matrix with a
  zero-MAD column and a uniform column (its MAD-scaled squared norm is
  near 0.6 n, so its ``--fdr`` P-value is mostly lower tail), where the
  last ``--sweep`` row has an empty screen; ``--fdr`` runs at 0.1 and at
  0.3, where the step-up count is 21, and 45 without the lower-tail term;
* ``spec_hash`` of a white, a signed, a null-cell, a non-finite ``q``
  and a colored spec;
* ``boundary`` for each of the 12 (problem, kind, variant) curves, one
  output per curve: theta 0.2, 0.5 and 0.8 on the default grid (0.8
  hits beta = 1/3), theta 0.5 on ``--grid 7`` (beta = i/8) and theta 0.2
  on ``--grid 19`` (beta = i/20), which hit breakpoints exactly.

The top-level ``meta`` and ``wall_time`` entries of JSON output are
dropped, and the rest, with the exit code, is compared as bytes. One
line per output, then the first lines that differ in each differing
output and each tree's ``rareweak/*.py`` line count; the exit status is
1 when any output differs. Only the standard library is
used here; the trees need numpy.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from difflib import unified_diff
from pathlib import Path

METHODS = {
    name: {}
    for name in (
        "simple_agg",
        "sparse_agg_exact",
        "sparse_agg_greedy",
        "classical_pca",
        "if_pca",
        "signed_sparse_agg",
        "recover_sa_star",
        "recover_if_star",
        "recover_sa_n",
        "recover_if_q",
        "recover_signed_pca",
        "agg_chi2",
        "sparse_agg_l1",
        "higher_criticism",
    )
}

# options that make shared results differ by N, solver and q
OPTIONS = {
    "sparse_agg_exact": {"N": 2},
    "recover_sa_n": {"N": 2},
    "sparse_agg_greedy": {"N": 4},
    "sparse_agg_l1": {},
    "signed_sparse_agg": {"N": 2},
    "if_pca": {"q": 1.0},
    "recover_if_q": {"q": 2.5},
    "higher_criticism": {},
}

# "inf" written as a token here; null.json spells it "inf"
SWEEPS = {
    "alpha": '{"p": 32, "theta": 0.5, "betas": [0.3, 0.6, 1.2], "strength_kind": "alpha", '
    '"strengths": [0.1, 0.3, Infinity], "reps": 2, "master_seed": 1, "methods": %s}',
    "signed": '{"p": 300, "theta": 0.5, "betas": [0.4, 0.7], "strength_kind": "alpha", '
    '"strengths": [0.15, "inf"], "reps": 2, "sign_mix_a": 0.5, "master_seed": 2, "methods": %s}',
    # rho_star_theta(0.5, 0.6) = 0.1 up to rounding: that cell is on_boundary; 0.5 and 0.75 end IF-PCA's range
    "r": '{"p": 2000, "theta": 0.5, "betas": [0.5, 0.6, 0.7, 0.75, 1.2], "strength_kind": "r", '
    '"strengths": [0.1, 0.3], "reps": 2, "master_seed": 3, "methods": %s}',
    "alpha_ratio": '{"p": 1000, "theta": 0.5, "betas": [0.55, 0.65], "strength_kind": "alpha_ratio", '
    '"strengths": [0.8, 1.2], "reps": 2, "sign_mix_a": 0.5, "master_seed": 4, '
    '"ratio_reference": ["hypothesis_testing", "ctub"], "methods": %s}',
    # C(2100, 2) is over the enumeration budget: sparse_agg_exact fails and recover_sa_n runs greedy
    "options": '{"p": 2100, "theta": 0.5, "betas": [0.6, 0.7], "strength_kind": "alpha", '
    '"strengths": [0.2], "reps": 2, "master_seed": 5, "methods": %s}',
}

CURVES = [
    (problem, kind, variant)
    for problem in ("clustering", "signal_recovery", "hypothesis_testing")
    for kind in ("statistical", "ctub")
    for variant in ("one_sided", "signed")
]
BOUNDARY_GRIDS = (
    ["--theta", "0.2"],
    ["--theta", "0.5"],
    ["--theta", "0.8"],
    ["--theta", "0.5", "--grid", "7"],
    ["--theta", "0.2", "--grid", "19"],
)
SHOWN_LINES = 10  # differing lines printed per output


def _params(**kw) -> dict:
    return {"p": 300, "theta": 0.5, "beta": 0.4, "alpha": None, "r": None, "sign_mix_a": 0.0} | kw


def _trial_specs() -> dict:
    """Trial spec files: white, signed, null cell, non-finite q and colored (A and B listed as rows)."""
    n, p = 17, 300  # n = round(300^0.5)
    A = [[1.0 if i == j else 0.05 * ((3 * i + 5 * j) % 7 - 3) for j in range(n)] for i in range(n)]
    B = [[math.exp(0.5 * math.log(4.0) * (2 * i / (p - 1) - 1)) if i == j else 0.0 for j in range(p)] for i in range(p)]
    return {
        "white": {"params": _params(alpha=0.15), "methods": METHODS, "seed": 4},
        "signed": {"params": _params(alpha=0.15, sign_mix_a=0.5), "methods": METHODS, "seed": 5},
        "null": {"params": _params(p=2000, alpha="inf"), "methods": METHODS, "seed": 3},
        # default N = 6 is over budget: greedy searches at N = 4 and 6, exact ones at N = 2
        "options": {"params": _params(beta=0.7, alpha=0.15), "methods": OPTIONS, "seed": 7},
        "nonfinite_q": {
            "params": _params(alpha=0.15),
            "methods": {"if_pca": {"q": math.inf}, "recover_if_q": {"q": math.nan}},
        },
        "colored": {
            "params": _params(alpha=0.15),
            "methods": METHODS,
            "seed": 6,
            "noise": {"kind": "colored", "A": A, "B": B},
        },
    }


def _labeled_csv(path: Path) -> None:
    """A 40 x 201 matrix and a label column: 8 columns shift with the class, one column has zero MAD
    and the last is uniform on [0, 1)."""
    rng = random.Random(7)
    rows = ["group," + ",".join(f"f{j}" for j in range(201))]
    for i in range(40):
        label = "a" if i % 2 else "b"
        cells = [rng.gauss(0.0, 1.0) + ((1.0 if label == "a" else -1.0) if j < 8 else 0.0) for j in range(200)]
        cells[199] = 1.0 if i else 2.0
        cells.append(rng.random())
        rows.append(label + "," + ",".join(repr(x) for x in cells))
    path.write_text("\n".join(rows) + "\n")


def _runs(work: Path) -> dict:
    """Output name -> the argument lists of ``python -m rareweak.cli`` whose outputs it joins."""
    runs = {}
    for name in SWEEPS:
        for workers in (1, 2, 3):
            runs[f"sweep {name} workers={workers}"] = [["sweep", "--spec", str(work / f"sweep_{name}.json"),
                                                        "--workers", str(workers)]]
    runs["sweep alpha csv"] = [["sweep", "--spec", str(work / "sweep_alpha.json"), "--format", "csv"]]
    for name in ("null", "colored", "signed", "options", "nonfinite_q"):
        runs[f"simulate {name}"] = [["simulate", "--spec", str(work / f"trial_{name}.json")]]
    runs["simulate white csv"] = [["simulate", "--spec", str(work / "trial_white.json"), "--format", "csv"]]
    runs["simulate flags"] = [["simulate", "--p", "300", "--beta", "0.6", "--r", "0.2", "--seed", "9",
                               "--methods", ",".join(METHODS)]]
    data = ["--data", str(work / "data.csv"), "--label-column", "group", "--baseline-kmeans"]
    for mode in (["--q", "0.3"], ["--fdr", "0.1"], ["--fdr", "0.3"], ["--top-k", "12"], ["--sweep", "0.1:8.1:2"]):
        runs[f"ifpca-run {' '.join(mode)}"] = [["ifpca-run", *data, *mode]]
    for problem, kind, variant in CURVES:
        curve = ["boundary", "--problem", problem, "--kind", kind, "--variant", variant]
        runs[f"boundary {problem} {kind} {variant}"] = [curve + grid for grid in BOUNDARY_GRIDS]
    return runs


_HASHES = (
    "import json, sys\n"
    "from rareweak.harness import TrialSpec\n"
    "for path in sys.argv[1:]:\n"
    "    print(TrialSpec.from_dict(json.load(open(path))).spec_hash())\n"
)


def _normalize(stdout: str) -> str:
    """JSON output without its top-level meta and wall_time, written back in its own layout."""
    try:
        doc = json.loads(stdout, object_pairs_hook=dict)
    except json.JSONDecodeError:
        return stdout  # CSV
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k not in ("meta", "wall_time")}
    return json.dumps(doc, indent=1) + "\n"


def _outputs(src: str, work: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    out = {}
    for name, arg_lists in _runs(work).items():
        out[name] = ""
        for args in arg_lists:
            cmd = [sys.executable, "-m", "rareweak.cli", *args]
            proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True, text=True)
            out[name] += f"exit {proc.returncode}\n{_normalize(proc.stdout)}"
    files = [str(work / f"trial_{name}.json") for name in _trial_specs()]
    proc = subprocess.run([sys.executable, "-c", _HASHES, *files], env=env, cwd=work, capture_output=True, text=True)
    out["spec_hash"] = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_src, head_src = (str(Path(a).resolve()) for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in SWEEPS.items():
            (work / f"sweep_{name}.json").write_text(text % json.dumps(OPTIONS if name == "options" else METHODS))
        for name, spec in _trial_specs().items():
            (work / f"trial_{name}.json").write_text(json.dumps(spec))
        _labeled_csv(work / "data.csv")
        base, head = _outputs(base_src, work), _outputs(head_src, work)
    differ = [name for name in base if base[name] != head[name]]
    for name in base:
        print(f"{'DIFFERS' if name in differ else 'same':8}{name}")
    print(f"{len(base) - len(differ)} of {len(base)} outputs byte-identical")
    for name in differ:
        diff = unified_diff(base[name].splitlines(), head[name].splitlines(), lineterm="", n=0)
        lines = [line for line in diff if line[:1] in "-+" and line[:3] not in ("---", "+++")]
        print(f"{name}:")
        for line in lines[:SHOWN_LINES]:
            print(f"  {line}")
        if len(lines) > SHOWN_LINES:
            print(f"  ... and {len(lines) - SHOWN_LINES} more")
    for label, src in (("base", base_src), ("head", head_src)):
        lines = sum(len(path.read_text().splitlines()) for path in Path(src, "rareweak").glob("*.py"))
        print(f"{label} rareweak/*.py: {lines} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
