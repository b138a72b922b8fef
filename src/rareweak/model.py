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

import hashlib
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

__all__ = [
    "ArwParams",
    "NoiseSpec",
    "Dataset",
    "gen_labels",
    "gen_mu",
    "gen_dataset",
    "diagonal_coloring",
]


def _is_integer(value) -> bool:
    """Whether value is an integral number (7 or 7.0), and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _is_real(value) -> bool:
    """Whether value is a real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_count(obj, name: str, minimum: int) -> None:
    """Check that attribute ``name`` of a (frozen) dataclass is an integer
    (see :func:`_is_integer`) of at least ``minimum``, and store it as an int."""
    value = getattr(obj, name)
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    object.__setattr__(obj, name, int(value))


def _check_type(obj, name: str, ok=_is_real, what: str = "a real number") -> None:
    """Check that attribute ``name`` of obj passes ``ok``, which by default takes
    a real number (see :func:`_is_real`); the error says it must be ``what``."""
    value = getattr(obj, name)
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _float_if_real(value):
    """float(value) for a real number; anything else is left for the field check."""
    return float(value) if _is_real(value) else value


def _spell_nonfinite(value):
    """value as strict JSON: each non-finite float, nested ones too, as its str() "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _spell_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_nonfinite(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _read_nonfinite(value, spellings=("inf", "-inf", "nan")):
    """Inverse of _spell_nonfinite on one JSON value: each of ``spellings`` as its float, anything else as given."""
    return float(value) if isinstance(value, str) and value in spellings else value


def _from_json(cls, d, **convert):
    """cls(**d) from a parsed JSON object, with convert[name] applied to field name.

    Checks only the object's shape: d is an object, with no field that cls
    lacks and every field that has no default. Every value rule is cls's own,
    so a spec file and a spec built in Python get the same error. An error
    raised by a convert entry (a nested object's own from_dict, say)
    becomes a ValueError prefixed with the field's name.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    declared = fields(cls)
    unknown = sorted(set(d) - {f.name for f in declared})
    if unknown:
        raise ValueError(f"unknown fields {unknown}; {cls.__name__} takes {[f.name for f in declared]}")
    missing = [f.name for f in declared if f.name not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing fields {missing}")
    kwargs = dict(d)
    for name, fn in convert.items():
        if name in kwargs:
            try:
                kwargs[name] = fn(kwargs[name])
            except (TypeError, ValueError) as exc:
                # an index path such as [0][1] joins the field name directly: B[0][1]
                sep = "" if str(exc).startswith("[") else ": "
                raise ValueError(f"{name}{sep}{exc}") from exc
    return cls(**kwargs)


def _sample_size(p: int, theta: float) -> int:
    """n = round(p^theta), ties rounded half up."""
    return int(math.floor(p**theta + 0.5))


def _check_calibration(obj) -> None:
    """The checks that ArwParams and SweepSpec share, on their fields p,
    theta and sign_mix_a: p is a count of at least 2 (stored as an int),
    theta and sign_mix_a are real numbers, theta lies in (0, 1),
    n = round(p^theta) is at least 2, and sign_mix_a lies in [0, 1/2]."""
    _check_count(obj, "p", 2)
    _check_type(obj, "theta")
    _check_type(obj, "sign_mix_a")
    if not 0.0 < obj.theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    n = _sample_size(obj.p, obj.theta)
    if n < 2:
        raise ValueError(f"calibration gives n={n} < 2")
    if not 0.0 <= obj.sign_mix_a <= 0.5:
        raise ValueError("sign_mix_a must lie in [0, 1/2]")


@dataclass(frozen=True)
class ArwParams:
    """Calibration tuple (p, theta, beta, alpha-or-r, sign mix).

    Exactly one of ``alpha`` and ``r`` must be set, and n = round(p^theta)
    must be at least 2. ``alpha = inf`` is allowed and gives tau = 0, i.e.
    the pure-noise null model.
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
        _check_calibration(self)
        _check_type(self, "beta")
        for name in ("alpha", "r"):
            _check_type(self, name, lambda v: v is None or _is_real(v), "a real number or null")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if (self.alpha is None) == (self.r is None):
            raise ValueError("set exactly one of alpha and r")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive (inf allowed for the null model)")
        if self.r is not None and not 0.0 < self.r < 1.0:
            raise ValueError("r must lie in (0, 1)")

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
        """The fields; JSON writers spell ``alpha = inf`` "inf" (see _spell_nonfinite)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ArwParams":
        """Inverse of to_dict: real numbers are read as floats, and "inf" is the one string alpha takes."""
        real = _float_if_real
        alpha = lambda v: real(_read_nonfinite(v, ("inf",)))
        return _from_json(cls, d, theta=real, beta=real, r=real, sign_mix_a=real, alpha=alpha)


def _matrix_digest(m: np.ndarray) -> dict:
    """A dense matrix named by its shape and the SHA-256 of its C-order float64 bytes."""
    return {"shape": list(m.shape), "sha256": hashlib.sha256(np.asarray(m, dtype=float).tobytes()).hexdigest()}


def _check_json_array(rows: list, path: str = "") -> None:
    """Raise ValueError at the first entry of a nested JSON list that breaks its
    shape, naming its index path (such as [0][1]): the entries must all be real
    numbers, or all lists as long as the first."""
    if rows and isinstance(rows[0], list):
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(rows[0]):
                got = f"a list of {len(row)}" if isinstance(row, list) else repr(row)
                raise ValueError(f"{path}[{i}] must be a list of {len(rows[0])} entries, got {got}")
            _check_json_array(row, f"{path}[{i}]")
    elif not set(map(type, rows)) <= {int, float}:  # JSON numbers are int or float; any other type is checked
        for i, x in enumerate(rows):
            if not _is_real(x):
                raise ValueError(f"{path}[{i}] must be a real number, got {x!r}")


def _json_matrix(value):
    """A JSON list of rows of real numbers as a float array (its shape is
    NoiseSpec.check_shapes's to judge); anything but a list is left for the
    field check."""
    if not isinstance(value, list):
        return value
    _check_json_array(value)
    return np.array(value, dtype=float)


@dataclass
class NoiseSpec:
    """White noise, or noise colored as A @ Z @ B with fixed A, B."""

    kind: str = "white"
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    def __post_init__(self):
        for name in ("A", "B"):
            _check_type(self, name, lambda m: m is None or isinstance(m, np.ndarray), "an array or null")
        if self.kind not in ("white", "colored"):
            raise ValueError(f"kind must be 'white' or 'colored', got {self.kind!r}")
        if self.kind == "white" and (self.A is not None or self.B is not None):
            raise ValueError("white noise takes no coloring matrices")
        for name, m in (("A", self.A), ("B", self.B)):
            if m is not None and not np.isfinite(m).all():
                raise ValueError(f"coloring matrix {name} must be finite")

    def check_shapes(self, n: int, p: int) -> None:
        """Reject an A that is not n x n or a B that is not p x p, 1-d or 3-d included."""
        for name, m, size in (("A", self.A, n), ("B", self.B, p)):
            if m is not None and m.shape != (size, size):
                raise ValueError(f"{name} must be {size}x{size}, got {m.shape}")

    @classmethod
    def white(cls) -> "NoiseSpec":
        return cls(kind="white")

    @classmethod
    def colored(cls, A: np.ndarray | None = None, B: np.ndarray | None = None) -> "NoiseSpec":
        return cls(kind="colored", A=A, B=B)

    def to_dict(self) -> dict:
        """The record form: the kind, and each coloring matrix named by its
        _matrix_digest rather than listed, so it does not load back."""
        matrices = {"A": self.A, "B": self.B}
        return {"kind": self.kind} | {name: _matrix_digest(m) for name, m in matrices.items() if m is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        """A NoiseSpec from its spec-file form, each coloring matrix a list of rows."""
        return _from_json(cls, d, A=_json_matrix, B=_json_matrix)


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
    """One n-by-p data matrix as gen_dataset drew it, with its truth: the
    +-1 labels, the feature effects mu and their sorted support."""

    X: np.ndarray
    labels: np.ndarray
    mu: np.ndarray
    support: np.ndarray


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
    n, epsilon, tau = params.n, params.epsilon, params.tau
    noise.check_shapes(n, params.p)
    ss_labels, ss_mu, ss_noise = np.random.SeedSequence(seed).spawn(3)
    labels = gen_labels(n, np.random.default_rng(ss_labels))
    mu, support = gen_mu(params.p, epsilon, tau, params.sign_mix_a, np.random.default_rng(ss_mu))
    Z = np.random.default_rng(ss_noise).standard_normal((n, params.p))
    if noise.A is not None:
        Z = noise.A @ Z
    if noise.B is not None:
        Z = Z @ noise.B
    X = Z
    neg = -mu
    for i, label in enumerate(labels):
        X[i] += mu if label > 0 else neg
    return Dataset(X=X, labels=labels, mu=mu, support=support)
