"""Rare/weak two-class model: calibration and synthetic data generation.

The whole experiment is driven by the feature count p. Sample size,
signal rarity, and signal strength are tied to p through exponents:
n = round(p^theta), eps = p^-beta, and either tau = p^-alpha (plain
strength) or the log-adjusted tau* = p^(-theta/4) (4 r log p)^(1/4).
A dataset is the rank-one signal outer(labels, mu) plus Gaussian noise,
optionally colored on both sides by fixed matrices.

Randomness is split into three independent child streams (labels, mu,
noise) of one seed sequence, so the same seed always reproduces the
same dataset bit for bit, no matter which pieces are drawn first.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ArwParams",
    "NoiseSpec",
    "Dataset",
    "calibrate",
    "gen_labels",
    "gen_mu",
    "gen_dataset",
    "diagonal_coloring",
    "save_dataset",
    "load_dataset",
]


_REQUIRED = object()


def _is_integer(value) -> bool:
    """Whether value is an integral number (7 or 7.0), and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _check_count(obj, name: str, minimum: int) -> None:
    """Check that attribute ``name`` of a (frozen) dataclass is an integer
    (see :func:`_is_integer`) of at least ``minimum``, and store it as an int."""
    value = getattr(obj, name)
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    object.__setattr__(obj, name, int(value))


def _field(d: dict, key: str, kind, default=_REQUIRED):
    """d[key] from a parsed JSON object, checked to be a ``kind``; ``default`` when absent.

    ``kind=int`` takes any integral number (see :func:`_is_integer`) and
    returns it as an int. Raises ValueError when d is not an object, or
    the field is ill-typed or missing without a default.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {type(d).__name__}")
    if key not in d:
        if default is _REQUIRED:
            raise ValueError(f"missing field {key!r}")
        return default
    value = d[key]
    if kind is int:
        if not _is_integer(value):
            raise ValueError(f"field {key!r} must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} has type {type(value).__name__}")
    return value


def _sample_size(p: int, theta: float) -> int:
    """n = round(p^theta), ties rounded half up."""
    return int(math.floor(p**theta + 0.5))


@dataclass(frozen=True)
class ArwParams:
    """Calibration tuple (p, theta, beta, alpha-or-r, sign mix).

    Exactly one of ``alpha`` and ``r`` must be set. ``alpha = inf`` is
    allowed and gives tau = 0, i.e. the pure-noise null model.
    ``sign_mix_a`` is the fraction of nonzero feature effects that are
    negative (0 = all positive, 1/2 = balanced).
    """

    p: int
    theta: float
    beta: float
    alpha: float | None = None
    r: float | None = None
    sign_mix_a: float = 0.0

    def __post_init__(self):
        _check_count(self, "p", 2)
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if (self.alpha is None) == (self.r is None):
            raise ValueError("set exactly one of alpha and r")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive (inf allowed for the null model)")
        if self.r is not None and not 0.0 < self.r < 1.0:
            raise ValueError("r must lie in (0, 1)")
        if not 0.0 <= self.sign_mix_a <= 0.5:
            raise ValueError("sign_mix_a must lie in [0, 1/2]")

    @property
    def n(self) -> int:
        return _sample_size(self.p, self.theta)

    @property
    def epsilon(self) -> float:
        return self.p ** (-self.beta)

    @property
    def tau(self) -> float:
        if self.alpha is not None:
            return 0.0 if math.isinf(self.alpha) else self.p ** (-self.alpha)
        return self.p ** (-self.theta / 4) * (4 * self.r * math.log(self.p)) ** 0.25

    @property
    def expected_signals(self) -> float:
        return self.p * self.epsilon

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "theta": self.theta,
            "beta": self.beta,
            "alpha": None if self.alpha is None else ("inf" if math.isinf(self.alpha) else self.alpha),
            "r": self.r,
            "sign_mix_a": self.sign_mix_a,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArwParams":
        alpha = _field(d, "alpha", (numbers.Real, str, type(None)), None)
        r = _field(d, "r", (numbers.Real, type(None)), None)
        return cls(
            p=_field(d, "p", int),
            theta=float(_field(d, "theta", numbers.Real)),
            beta=float(_field(d, "beta", numbers.Real)),
            alpha=None if alpha is None else (math.inf if alpha == "inf" else float(alpha)),
            r=None if r is None else float(r),
            sign_mix_a=float(_field(d, "sign_mix_a", numbers.Real, 0.0)),
        )


def calibrate(params: ArwParams) -> tuple[int, float, float]:
    """Resolve (n, epsilon, tau) from the exponent calibration.

    Rejects degenerate setups: fewer than two samples, or an expected
    signal count so small that no trial would ever carry a signal.
    """
    n = params.n
    if n < 2:
        raise ValueError(f"calibration gives n={n} < 2")
    if params.expected_signals < 1e-9:
        raise ValueError("expected signal count below 1e-9; no signals would ever appear")
    return n, params.epsilon, params.tau


@dataclass
class NoiseSpec:
    """White noise, or noise colored as A @ Z @ B with fixed A, B."""

    kind: str = "white"
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("white", "colored"):
            raise ValueError(f"kind must be 'white' or 'colored', got {self.kind!r}")
        if self.kind == "white" and (self.A is not None or self.B is not None):
            raise ValueError("white noise takes no coloring matrices")
        for name, m in (("A", self.A), ("B", self.B)):
            if m is not None and not np.isfinite(m).all():
                raise ValueError(f"coloring matrix {name} must be finite")

    @classmethod
    def white(cls) -> "NoiseSpec":
        return cls(kind="white")

    @classmethod
    def colored(cls, A: np.ndarray | None = None, B: np.ndarray | None = None) -> "NoiseSpec":
        return cls(kind="colored", A=A, B=B)


def diagonal_coloring(p: int, cond: float) -> np.ndarray:
    """Diagonal feature-coloring matrix with condition number ``cond``.

    Entries run geometrically from 1/sqrt(cond) to sqrt(cond), so the
    overall noise scale stays near one while columns become
    heteroscedastic. Meant for tests.
    """
    if cond < 1:
        raise ValueError("cond must be >= 1")
    return np.diag(np.geomspace(1.0 / math.sqrt(cond), math.sqrt(cond), p))


@dataclass
class Dataset:
    """One generated or loaded n-by-p data matrix with optional truth."""

    X: np.ndarray
    labels: np.ndarray | None = None
    mu: np.ndarray | None = None
    support: np.ndarray | None = None
    seed: int = 0
    params: ArwParams | None = None

    def __post_init__(self):
        if self.labels is not None and not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be +-1")
        if self.mu is not None:
            sup = np.flatnonzero(self.mu)
            if self.support is None:
                self.support = sup
            elif not np.array_equal(np.sort(self.support), sup):
                raise ValueError("support does not match the nonzeros of mu")


def _require_finite_cells(X: np.ndarray, source, names: list[str] | None = None) -> None:
    """Reject a loaded matrix with a NaN or inf entry, naming the first one.

    Rows and columns count from 0 over the data cells; ``names`` labels
    the columns when given.
    """
    if not np.isfinite(X).all():
        i, j = (int(k) for k in np.argwhere(~np.isfinite(X))[0])
        column = j if names is None else repr(names[j])
        raise ValueError(f"{source}: non-finite value {X[i, j]} at row {i}, column {column}")


def gen_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """iid uniform +-1 class labels."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int64)


def gen_mu(
    p: int,
    epsilon: float,
    tau: float,
    sign_mix_a: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse feature-effect vector and its support.

    Each coordinate is independently 0 with probability 1 - epsilon,
    -tau with probability sign_mix_a * epsilon, and +tau otherwise.
    tau = 0 is allowed and produces the all-zero (null) vector. An
    empty support is a legal draw and is propagated as-is.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if not 0.0 <= sign_mix_a <= 0.5:
        raise ValueError("sign_mix_a must lie in [0, 1/2]")
    u = rng.random(p)
    mu = np.zeros(p)
    mu[u < (1.0 - sign_mix_a) * epsilon] = tau
    mu[((1.0 - sign_mix_a) * epsilon <= u) & (u < epsilon)] = -tau
    return mu, np.flatnonzero(mu)


def gen_dataset(params: ArwParams, noise: NoiseSpec | None = None, seed: int = 0) -> Dataset:
    """Draw one dataset X = outer(labels, mu) + noise.

    The seed is split into three child streams (labels, mu, noise), so
    identical (params, noise, seed) gives a bitwise-identical dataset.
    The signal is added to the (colored) noise matrix in place, one row
    at a time, with the arithmetic of outer(labels, mu) + Z: the call
    allocates no n-by-p array besides X itself (a coloring product makes
    one more while it runs).
    """
    noise = noise or NoiseSpec.white()
    n, epsilon, tau = calibrate(params)
    ss_labels, ss_mu, ss_noise = np.random.SeedSequence(seed).spawn(3)
    labels = gen_labels(n, np.random.default_rng(ss_labels))
    mu, support = gen_mu(params.p, epsilon, tau, params.sign_mix_a, np.random.default_rng(ss_mu))
    Z = np.random.default_rng(ss_noise).standard_normal((n, params.p))
    if noise.kind == "colored":
        if noise.A is not None:
            if noise.A.shape != (n, n):
                raise ValueError(f"A must be {n}x{n}, got {noise.A.shape}")
            Z = noise.A @ Z
        if noise.B is not None:
            if noise.B.shape != (params.p, params.p):
                raise ValueError(f"B must be {params.p}x{params.p}, got {noise.B.shape}")
            Z = Z @ noise.B
    X = Z
    neg = -mu
    for i, label in enumerate(labels):
        X[i] += mu if label > 0 else neg
    return Dataset(X=X, labels=labels, mu=mu, support=support, seed=seed, params=params)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the matrix as CSV (rows = samples) plus a JSON sidecar.

    Floats are written with shortest round-trip formatting, so loading
    reproduces the matrix exactly.
    """
    path = Path(path)
    with open(path, "w") as fh:
        for row in dataset.X:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
    sidecar = {
        "seed": dataset.seed,
        "params": None if dataset.params is None else dataset.params.to_dict(),
        "labels": None if dataset.labels is None else dataset.labels.tolist(),
        "support": None if dataset.support is None else dataset.support.tolist(),
        "mu_values": None
        if dataset.mu is None
        else {str(j): repr(float(dataset.mu[j])) for j in np.flatnonzero(dataset.mu)},
        "shape": list(dataset.X.shape),
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def load_dataset(path: str | Path) -> Dataset:
    """Inverse of :func:`save_dataset`. A NaN or inf cell raises ValueError."""
    path = Path(path)
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    _require_finite_cells(X, path)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        sidecar = json.load(fh)
    if list(X.shape) != sidecar["shape"]:
        raise ValueError(f"matrix shape {X.shape} does not match sidecar {sidecar['shape']}")
    mu = None
    if sidecar["mu_values"] is not None:
        mu = np.zeros(X.shape[1])
        for j, v in sidecar["mu_values"].items():
            mu[int(j)] = float(v)
    return Dataset(
        X=X,
        labels=None if sidecar["labels"] is None else np.asarray(sidecar["labels"], dtype=np.int64),
        mu=mu,
        support=None if sidecar["support"] is None else np.asarray(sidecar["support"], dtype=np.int64),
        seed=int(sidecar["seed"]),
        params=None if sidecar["params"] is None else ArwParams.from_dict(sidecar["params"]),
    )
