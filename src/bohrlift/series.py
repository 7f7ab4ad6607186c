"""Dirichlet and power polynomials linked by the Bohr lift.

A Dirichlet polynomial is a finite sum D(s) = sum_n a_n n^{-s} with all
coefficients a_n in one space C^d.  Writing n = prod_j p_j^{alpha_j} and
substituting z_j for p_j^{-s} turns D into the power polynomial
sum_alpha a_n z^alpha on the polytorus.  That substitution (`bohr_lift`)
is a bijection on coefficient maps and `bohr_transform` inverts it
exactly: coefficient vectors are moved, never recomputed.

Coefficient maps are sparse dicts; exact-zero vectors are dropped at
construction so equal polynomials have equal maps, and non-finite
coefficients are rejected there.  Polynomials are immutable and safe
to share across threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .multiindex import EMPTY_INDEX, MultiIndex
from .primes import MAX_INDEX, factorize, index_of
from .spaces import CoeffSpace, SCALAR, as_coeff_array, vector_norm


def _infer_space(values) -> CoeffSpace:
    for v in values:
        arr = np.atleast_1d(np.asarray(v))
        return CoeffSpace(arr.shape[0]) if arr.ndim == 1 else SCALAR
    return SCALAR


def _check_space(a, b) -> None:
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space} vs {b.space}")


class _SparsePoly:
    """Finite map key -> coefficient vector in one space.

    Subclasses validate and normalize keys in ``_key``, which runs on
    every key before zero coefficients are dropped.
    """

    __slots__ = ("_space", "_coeffs")

    def __init__(self, coeffs: Mapping, space: CoeffSpace | None = None):
        items = dict(coeffs)
        if space is None:
            space = _infer_space(items.values())
        self._space = space
        store = {}
        for key, v in items.items():
            key = self._key(key)
            arr = as_coeff_array(v, space.dim)
            if arr.any():
                store[key] = arr
        if store and not np.isfinite(np.concatenate(list(store.values()))).all():
            raise ValueError("coefficients must be finite")
        self._coeffs = store

    @property
    def space(self) -> CoeffSpace:
        return self._space

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def indices(self) -> list:
        return sorted(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def get(self, key, default=None):
        return self._coeffs.get(key, default)

    def __getitem__(self, key) -> np.ndarray:
        return self._coeffs[key]

    def __contains__(self, key) -> bool:
        return key in self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._space == other._space
            and self._coeffs.keys() == other._coeffs.keys()
            and all(np.array_equal(v, other._coeffs[k]) for k, v in self._coeffs.items())
        )

    def __add__(self, other):
        _check_space(self, other)
        out = {k: v.copy() for k, v in self._coeffs.items()}
        for k, v in other.items():
            out[k] = out[k] + v if k in out else v
        return type(self)(out, self._space)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return type(self)({k: v * scalar for k, v in self._coeffs.items()}, self._space)

    __rmul__ = __mul__


class DirichletPoly(_SparsePoly):
    """Finite map n -> coefficient vector, representing sum_n a_n n^{-s}."""

    __slots__ = ()

    @staticmethod
    def _key(n) -> int:
        n = int(n)
        if n < 1:
            raise ValueError(f"Dirichlet indices start at 1, got {n}")
        if n > MAX_INDEX:
            raise ValueError(f"index {n} is beyond the 64-bit range")
        return n

    @property
    def max_index(self) -> int:
        """Largest stored index N (0 for the zero polynomial)."""
        return max(self._coeffs, default=0)

    def __repr__(self) -> str:
        return f"DirichletPoly({len(self)} terms, max_index={self.max_index}, space={self._space})"


class PowerPoly(_SparsePoly):
    """Finite map multi-index -> coefficient vector, representing sum c_alpha z^alpha."""

    __slots__ = ()

    @staticmethod
    def _key(alpha) -> MultiIndex:
        return alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)

    @property
    def width(self) -> int:
        """Smallest m such that every stored index lives on the first m coordinates."""
        return max((alpha.width for alpha in self._coeffs), default=0)

    @property
    def degree(self) -> int:
        """Largest total degree among stored indices (0 for the zero polynomial)."""
        return max((alpha.degree for alpha in self._coeffs), default=0)

    @property
    def constant_term(self) -> np.ndarray:
        return self._coeffs.get(EMPTY_INDEX, as_coeff_array(np.zeros(self._space.dim)))

    def __repr__(self) -> str:
        return f"PowerPoly({len(self)} terms, width={self.width}, space={self._space})"


def bohr_lift(D: DirichletPoly) -> PowerPoly:
    """Move each coefficient a_n to the monomial z^alpha with n = prod p_j^alpha_j."""
    return PowerPoly({factorize(n): v for n, v in D.items()}, D.space)


def bohr_transform(P: PowerPoly) -> DirichletPoly:
    """Inverse of the lift: coefficient at alpha returns to index prod p_j^alpha_j."""
    return DirichletPoly({index_of(alpha): v for alpha, v in P.items()}, P.space)


def restrict(P: PowerPoly, m: int) -> PowerPoly:
    """Keep the coefficients supported on the first m coordinates.

    This is the coefficient-side image of integrating out all torus
    variables past the m-th, so it never enlarges any norm.  Idempotent:
    restrict(restrict(P, m), m) = restrict(P, m).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return PowerPoly({a: v for a, v in P.items() if a.width <= m}, P.space)


def partial_sum(D: DirichletPoly, N: int) -> DirichletPoly:
    """Truncation S_N D = sum_{n <= N} a_n n^{-s}."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return DirichletPoly({n: v for n, v in D.items() if n <= N}, D.space)


def max_coeff_gap(A, B) -> float:
    """Largest coefficient-wise norm distance between two polynomials of one type."""
    _check_space(A, B)
    zero = np.zeros(A.space.dim, dtype=np.complex128)
    gap = 0.0
    for key in set(A.coeffs) | set(B.coeffs):
        a = A.get(key, zero)
        b = B.get(key, zero)
        gap = max(gap, vector_norm(a - b, A.space))
    return gap


# -- dense views used by the estimators ---------------------------------------

_CHUNK_ENTRIES = 4_000_000  # cap on transient (samples x terms) matrix size


def coeff_matrix(poly) -> np.ndarray:
    """Stacked coefficient vectors, one row per stored index, in sorted index order."""
    keys = poly.indices()
    if not keys:
        return np.zeros((0, poly.space.dim), dtype=np.complex128)
    return np.array([poly[k] for k in keys], dtype=np.complex128)


def exponent_matrix(P: PowerPoly, width: int | None = None) -> np.ndarray:
    """(terms, width) integer matrix of exponents, rows in sorted index order."""
    m = P.width if width is None else width
    if m < P.width:
        raise ValueError(f"width {m} below the polynomial's width {P.width}")
    keys = P.indices()
    A = np.zeros((len(keys), m), dtype=np.int64)
    for i, alpha in enumerate(keys):
        for pos, e in alpha.pairs:
            A[i, pos] = e
    return A


def monomial_map(poly):
    """Map from sample points to poly's (points, terms) monomial matrix.

    Torus angles theta of shape (S, >= width) give exp(i theta . alpha)
    for a PowerPoly; line times t of shape (T,) give n^{-it} for a
    DirichletPoly.  Columns follow coeff_matrix(poly) order, so any
    coefficient rows in that order apply to the matrix by one matmul.
    """
    if isinstance(poly, PowerPoly):
        m = poly.width
        A = exponent_matrix(poly).T.astype(np.float64)  # (m, terms)
        return lambda theta: np.exp(1j * (theta[:, :m] @ A))
    logs = np.log(np.array(poly.indices(), dtype=np.float64))
    return lambda t: np.exp(-1j * np.outer(t, logs))


def evaluate(poly, points: np.ndarray) -> np.ndarray:
    """(S, dim) values of poly at S points, in the form `monomial_map` takes.

    Work is chunked so the transient monomial matrix stays bounded
    regardless of the point count; the chunk boundaries depend only on
    the point and term counts, so seeded runs reproduce exactly.
    """
    S = points.shape[0]
    out = np.zeros((S, poly.space.dim), dtype=np.complex128)
    if not len(poly):
        return out
    monomials = monomial_map(poly)
    C = coeff_matrix(poly)
    chunk = max(1, _CHUNK_ENTRIES // len(poly))
    for lo in range(0, S, chunk):
        out[lo : lo + chunk] = monomials(points[lo : lo + chunk]) @ C
    return out


def power_values_at_angles(P: PowerPoly, theta: np.ndarray) -> np.ndarray:
    """Evaluate P at torus points omega = exp(i theta), theta of shape (S, m); returns (S, dim)."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2:
        raise ValueError("theta must be (samples, coords)")
    if theta.shape[1] < P.width:
        raise ValueError(f"need at least {P.width} torus coordinates, got {theta.shape[1]}")
    return evaluate(P, theta)


def dirichlet_line_values(D: DirichletPoly, t: np.ndarray) -> np.ndarray:
    """Evaluate D on the vertical line, D(it) = sum_n a_n n^{-it}, t of shape (T,)."""
    return evaluate(D, np.asarray(t, dtype=np.float64).reshape(-1))


def power_eval(P: PowerPoly, z: Iterable[complex]) -> np.ndarray:
    """Value of P at a single point z of the polydisc (len(z) >= width)."""
    z = np.asarray(list(z), dtype=np.complex128)
    m = P.width
    if z.shape[0] < m:
        raise ValueError(f"need at least {m} coordinates, got {z.shape[0]}")
    total = np.zeros(P.space.dim, dtype=np.complex128)
    for alpha, v in P.items():
        mono = 1.0 + 0.0j
        for pos, e in alpha.pairs:
            mono *= z[pos] ** e
        total = total + mono * v
    return total
