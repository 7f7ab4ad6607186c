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

import math
import os
import threading
from collections import Counter, deque
from contextlib import contextmanager
from itertools import compress, groupby, repeat
from typing import Iterable, Mapping

import numpy as np

from .multiindex import EMPTY_INDEX, MultiIndex
from .primes import MAX_INDEX, factorize_all, index_of, primes_up_to, trial_factors
from .spaces import CoeffSpace, SCALAR, as_coeff_array, max_row_norm


def _infer_space(values) -> CoeffSpace:
    for v in values:
        arr = np.atleast_1d(np.asarray(v))
        return CoeffSpace(arr.shape[0]) if arr.ndim == 1 else SCALAR
    return SCALAR


def _coeff_stack(values: list, dim: int) -> np.ndarray | None:
    """(terms, dim) complex array of the coefficients in one conversion; None if they do not stack so."""
    try:
        stack = np.array(values, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError):
        return None
    if stack.ndim == 1 and dim == 1:  # scalars
        return stack.reshape(-1, 1)
    return stack if stack.ndim == 2 and stack.shape[1] == dim else None


def _store(keys: list, stack: np.ndarray) -> dict:
    """key -> read-only copy of its row of stack, for the nonzero rows; rejects a non-finite stack."""
    if not np.isfinite(stack).all():
        raise ValueError("coefficients must be finite")
    # each row a copy that owns its memory: a view would keep the whole stack alive;
    # C-level maps, since a Python loop over the rows takes about 1.5 times as long
    rows = list(map(np.ndarray.copy, stack))
    deque(map(np.ndarray.setflags, rows, repeat(False)), maxlen=0)
    nonzero = stack.any(axis=1).tolist()
    return dict(zip(compress(keys, nonzero), compress(rows, nonzero)))


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
        stack = _coeff_stack(list(items.values()), space.dim)
        if stack is None:
            # mixed or bad forms: term by term, so an error names the first bad key or coefficient
            rows = []
            for key, v in items.items():
                self._key(key)
                rows.append(as_coeff_array(v, space.dim))
            stack = np.array(rows, dtype=np.complex128).reshape(len(rows), space.dim)
        self._coeffs = _store([self._key(key) for key in items], stack)

    @classmethod
    def _moved(cls, coeffs: dict, space: CoeffSpace):
        """A polynomial that takes over coeffs, a fresh dict of stored coefficient vectors, as its own map.

        Stored vectors are immutable copies, nonzero and finite (kept by
        other polynomials, or made by `_store`), and the keys are valid
        already (stored keys, made by `factorize_all`, `index_of` or
        `pack`, or checked by a loader), so nothing is checked again;
        lift and transform move, never copy.  Every caller builds the
        dict for this call alone, so it is not copied either.
        """
        poly = cls.__new__(cls)
        poly._space = space
        poly._coeffs = coeffs
        return poly

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
        out = dict(self._coeffs)
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

    @staticmethod
    def _check_keys(ns: list) -> None:
        """`_key`'s range check on a list of ints at once; on failure it raises at the first index out of range."""
        if ns and not 1 <= min(ns) <= max(ns) <= MAX_INDEX:
            for n in ns:
                DirichletPoly._key(n)

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

    def indices(self) -> list:
        return sorted(self._coeffs, key=MultiIndex.order_key)

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
    return PowerPoly._moved(dict(zip(factorize_all(list(D._coeffs)), D._coeffs.values())), D.space)


def bohr_transform(P: PowerPoly) -> DirichletPoly:
    """Inverse of the lift: coefficient at alpha returns to index prod p_j^alpha_j."""
    return DirichletPoly._moved(dict(zip(map(index_of, P._coeffs), P._coeffs.values())), P.space)


def restrict(P: PowerPoly, m: int) -> PowerPoly:
    """Keep the coefficients supported on the first m coordinates.

    This is the coefficient-side image of integrating out all torus
    variables past the m-th, so it never enlarges any norm.  Idempotent:
    restrict(restrict(P, m), m) = restrict(P, m).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return PowerPoly._moved({a: v for a, v in P.items() if a.width <= m}, P.space)


def pack(P: PowerPoly) -> tuple[list, PowerPoly]:
    """(active, Q): the sorted positions P's terms use, and P moved onto 0, ..., k-1 by the order-keeping map active[j] -> j."""
    active = sorted({pos for alpha in P._coeffs for pos, _ in alpha.pairs})
    at = {pos: j for j, pos in enumerate(active)}
    moved = (MultiIndex._trusted(tuple((at[pos], e) for pos, e in alpha.pairs)) for alpha in P._coeffs)
    return active, (P if len(active) == P.width else PowerPoly._moved(dict(zip(moved, P._coeffs.values())), P.space))


def partial_sum(D: DirichletPoly, N: int) -> DirichletPoly:
    """Truncation S_N D = sum_{n <= N} a_n n^{-s}."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return DirichletPoly._moved({n: v for n, v in D.items() if n <= N}, D.space)


def max_coeff_gap(A, B) -> float:
    """Largest coefficient-wise norm distance between two polynomials of one type.

    A key stored on one side only is compared with zero, and two zero
    polynomials are 0.0 apart.
    """
    _check_space(A, B)
    keys = A._coeffs.keys() | B._coeffs.keys()
    if not keys:
        return 0.0
    zero = np.zeros(A.space.dim, dtype=np.complex128)
    a = np.array([A.get(key, zero) for key in keys])
    b = np.array([B.get(key, zero) for key in keys])
    return max_row_norm(a - b, A.space)


# -- dense views used by the estimators ---------------------------------------

#: Cap on the (terms x points) monomial matrix of one chunk, and on the
#: (points x dim) values of a lattice block that joins several slices:
#: 2**16 complex entries, 1 MiB, small enough to stay cache-resident.
_CHUNK_ENTRIES = 65_536

#: Line evaluation factors an index by trial division with the primes up to
#: this bound; whatever cofactor is left serves as a base of its own.
_TRIAL_PRIMES = 1 << 16


def coeff_matrix(poly) -> np.ndarray:
    """Stacked coefficient vectors, one row per stored index, in sorted index order."""
    return coeff_rows(poly, poly.indices())


def coeff_rows(poly, keys: list) -> np.ndarray:
    """(len(keys), dim) array of the coefficient vectors stored at keys, in their order."""
    if not keys:
        return np.zeros((0, poly.space.dim), dtype=np.complex128)
    return np.concatenate(list(map(poly._coeffs.__getitem__, keys))).reshape(len(keys), poly.space.dim)


def _unit_from_half(half: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
    """out = exp(2i half) from t = tan(half): cos = 2/(1 + t^2) - 1 and sin = 2t/(1 + t^2).

    half and tmp are float arrays of out's shape; half is overwritten
    (with t) and tmp is work space.  Callers scale their phase constants
    by 0.5, which is exact, so the half phases carry the bits of halved
    phases.  One vectorized tan and five arithmetic passes cost about a
    seventh of a cos and a sin, which numpy 2.4 runs as scalar loops on
    x86-64.  On phases up to 1.5e7 each part stays within 3.4e-16 of
    np.cos and np.sin, and |out| within 4.5e-16 of 1.  tan is odd bit
    for bit (numpy 2.4, x86-64, with and without AVX-512), so negated
    phases give conjugate values, and a zero phase gives exactly 1.
    """
    np.tan(half, out=half)
    np.multiply(half, half, out=tmp)
    tmp += 1.0
    np.divide(2.0, tmp, out=tmp)
    np.multiply(half, tmp, out=out.imag)
    np.subtract(tmp, 1.0, out=out.real)


#: Workspaces not in use, each a list of flat work buffers (`_work_views`):
#: a thread takes one for a pass (`workspace`), and the list keeps at most
#: one per CPU, so work arrays outlive the call that mapped them.
_SPARES: list = []
_SPARES_LOCK = threading.Lock()


@contextmanager
def workspace():
    """A workspace from the free list (a new empty one when it is empty), given back on exit."""
    with _SPARES_LOCK:
        work = _SPARES.pop() if _SPARES else []
    try:
        yield work
    finally:
        with _SPARES_LOCK:
            if len(_SPARES) < (os.cpu_count() or 1):
                _SPARES.append(work)


def _work_views(work: list, slot: int, dtype, rows, S: int, capacity: int) -> list:
    """(n, S) arrays for n in rows, cut one after another from the flat buffer work[slot].

    A buffer too short for the rows at S points is replaced by one that
    holds them at max(S, capacity) points, so a plan's first call sizes
    it for all its later ones.  Slot 0 holds the float and slot 1 the
    complex work of `monomial_map`, slot 2 the Monte Carlo draw.
    """
    work.extend([None] * (slot + 1 - len(work)))
    buf = work[slot]
    if buf is None or buf.size < sum(rows) * S:
        buf = work[slot] = np.empty(sum(rows) * max(S, capacity), dtype)
    views, at = [], 0
    for n in rows:
        views.append(buf[at : at + n * S].reshape(n, S))
        at += n * S
    return views


def monomial_map(poly):
    """Multiplicative plan for poly's monomials: (points per chunk, work bytes, map from points to monomials).

    A monomial is a product of factor powers: z_j^e with z_j =
    exp(i theta_j) at torus angles theta of shape (S, width) for a
    PowerPoly, one column per coordinate, column-major (as a transposed
    `sampling.point_blocks` block, a chunk-wide column view of one, or a
    fancy pick lays them out), and (b^e)^{-it} over the factors b^e of n
    (`trial_factors`) at line times t of shape (S,) for a DirichletPoly.
    A term whose prefix, the term without its last factor power, is a
    term too is that prefix times the power when the power's value
    serves more than once; any other term is a base value of its own.
    The (rows, S) work matrix M holds 1, then the base values, one tan
    each (`_unit_from_half`, on half phases from halved constants), then
    the chained terms depth by depth, each one complex multiply of two
    earlier rows gathered into work arrays, whatever the degrees.

    The map returns the (S, terms) matrix of monomials, columns in
    coeff_matrix(poly) order, in a work buffer that its next call
    overwrites.  With vector coefficients (dim >= 2) it is the
    F-order view of a row gather of M, whose coefficient product numpy
    runs as gemm, with the bits of the C-order copy; with scalar ones it
    is that C-order copy, since gemv sums differently on the two
    layouts.  S must not exceed the chunk size, _CHUNK_ENTRIES over the
    count of terms and the constant 1, so bases that serve chained terms
    alone add rows but move no chunk boundary.  The plan itself is
    read-only, so threads may share it: each caller passes its own
    workspace, a list (see `workspace`) whose flat buffers the map
    carves into its work arrays, growing them on first use to a full
    chunk; the work bytes returned are the arrays' total size.
    """
    power = isinstance(poly, PowerPoly)
    if power:
        support = [alpha.pairs for alpha in poly.indices()]
    else:
        primes = primes_up_to(min(math.isqrt(poly.max_index), _TRIAL_PRIMES))
        support = [trial_factors(n, primes) for n in poly.indices()]
    members = set(support)
    chained = [alpha for alpha in support if len(alpha) > 1 and alpha[:-1] in members]
    # a power that is itself a term is a base value already
    uses = Counter(alpha[-1:] for alpha in chained) + Counter(alpha for alpha in support if len(alpha) == 1)
    split = {alpha: ((), alpha) for alpha in support if alpha}  # term -> (parent, base), their product
    for alpha in chained:
        if uses[alpha[-1:]] > 1:
            split[alpha] = alpha[:-1], alpha[-1:]
    depth = {(): 0}
    for alpha in sorted(split, key=len):  # a parent is a shorter prefix
        depth[alpha] = depth[split[alpha][0]] + 1
    bases = sorted({base for _, base in split.values()})
    chains = sorted((alpha for alpha in split if depth[alpha] > 1), key=lambda alpha: (depth[alpha], alpha))
    row = {alpha: i for i, alpha in enumerate([(), *bases, *chains])}
    levels = []  # per depth past the bases: its rows lo:hi, their parents' rows, their base rows
    for _, level in groupby(chains, key=depth.get):
        level = list(level)
        ups, downs = np.array([[row[part] for part in split[alpha]] for alpha in level], dtype=np.intp).T.copy()
        levels.append((row[level[0]], row[level[-1]] + 1, ups, downs))
    columns = np.array([row[alpha] for alpha in support], dtype=np.intp)
    # half phases: scaling by 0.5 is exact, so they are the halved phases bit for bit
    if power:
        A = np.zeros((len(bases), poly.width))  # base half phases are A theta
        for k, base in enumerate(bases):
            for pos, e in base:
                A[k, pos] = 0.5 * e
        phases = lambda theta, out: np.matmul(A, theta.T, out=out)
    else:
        neg_logs = -0.5 * np.array([math.log(math.prod(b**e for b, e in base)) for base in bases])
        phases = lambda t, out: np.multiply.outer(neg_logs, t, out=out)
    k, terms, widest = len(bases), len(columns), max((hi - lo for lo, hi, _, _ in levels), default=0)
    chunk = max(1, _CHUNK_ENTRIES // len(members | {()}))
    # rows of each work array: phases and tan work (float), then M, parents, factors and the monomials
    floats, complexes = (k, k), (len(row), widest, widest, terms)
    scalar = poly.space.dim == 1

    def monomials(points: np.ndarray, work: list) -> np.ndarray:
        S = points.shape[0]
        phase, tmp = _work_views(work, 0, np.float64, floats, S, chunk)
        M, parents, factors, E = _work_views(work, 1, np.complex128, complexes, S, chunk)
        phases(points, phase)
        # not a complex exp: on x86 its loop runs tenfold slower after a BLAS
        # call that leaves the upper halves of the vector registers dirty
        _unit_from_half(phase, tmp, M[1 : 1 + k])
        M[0] = 1.0
        # mode="clip" lets take write straight into out; the rows are valid by construction
        for lo, hi, ups, downs in levels:
            np.take(M, ups, axis=0, out=parents[: hi - lo], mode="clip")
            np.take(M, downs, axis=0, out=factors[: hi - lo], mode="clip")
            np.multiply(parents[: hi - lo], factors[: hi - lo], out=M[lo:hi])
        if scalar:  # the product runs as gemv, whose sums follow the layout: keep the C-order copy
            E = E.reshape(S, terms)
            np.take(M.T, columns, axis=1, out=E, mode="clip")
            return E
        np.take(M, columns, axis=0, out=E, mode="clip")
        return E.T

    return chunk, (8 * sum(floats) + 16 * sum(complexes)) * chunk, monomials


def evaluate(poly, points: np.ndarray) -> np.ndarray:
    """(S, dim) values of poly at S line times (S,) or torus angles (S, >= width).

    A PowerPoly is packed (`pack`), and one plan takes each chunk's angles
    at its used coordinates, picked column-major as `monomial_map` reads
    them, in a workspace from the free list, so work memory follows the
    chunk, not the point count.  Chunk boundaries depend only on the
    point and term counts, so seeded runs reproduce exactly.
    """
    active, poly = pack(poly) if isinstance(poly, PowerPoly) else (slice(None), poly)
    chunk, _, monomials = monomial_map(poly)
    C = coeff_matrix(poly)
    out = np.empty((points.shape[0], poly.space.dim), dtype=np.complex128)
    with workspace() as work:
        for lo in range(0, points.shape[0], chunk):
            E = monomials(points[lo : lo + chunk][..., active], work)
            np.matmul(E, C, out=out[lo : lo + E.shape[0]])
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


def _line_grid_scan(logs: np.ndarray, C: np.ndarray, h: float, T: int) -> np.ndarray:
    """(T, dim) values of sum_n a_n n^{-it} at the T >= 2 centred nodes t_k = (k - (T-1)/2) h.

    The terms come as their logs log n and coefficient rows C, so a
    truncation of sorted terms is a prefix of both arrays.
    An odd T has a node at exactly t = 0.  With c = (T-1)//2 and
    S = isqrt(T-1) + 1, write k - c = qS + j with 0 <= j < S, so that
    t_k = qSh + (j - frac)h, frac = 0 for odd T and 1/2 for even T.
    Each monomial then splits as n^{-it_k} = U[q, n] W[j, n] with
    U[q, n] = n^{-iqSh} and W[j, n] = n^{-i(j - frac)h}, the grid of
    Odlyzko and Schoenhage, and the values at the S nodes of one q are
    W @ (U[q] * C): T x terms monomials become two sqrt(T) x terms
    tables and one matrix product.  At the centre node of an odd T
    both tables hold exactly 1.  Blocks of terms keep the two tables
    within _CHUNK_ENTRIES, and blocks of q keep U * C within it too
    (down to a single q, no larger than C), so memory beyond the output
    stays near the chunk size (`_line_grid_bytes`); each block's
    product is added into the output.
    """
    dim = C.shape[1]
    S, q_lo, q_hi, width, rows = _line_grid_blocks(len(logs), dim, T)
    c, Q = (T - 1) // 2, q_hi - q_lo + 1
    out = np.zeros((T, dim), dtype=np.complex128)
    neg_logs = -0.5 * logs  # half phases, see `_unit_from_half`
    j_times = (np.arange(S) - 0.5 * (1 - T % 2)) * h
    q_times = np.arange(q_lo, q_hi + 1) * S * h
    W = np.empty((S, width), dtype=np.complex128)
    U = np.empty((Q, width), dtype=np.complex128)
    # U[q] is the conjugate of U[-q]: tan is odd bit for bit (see `_unit_from_half`), and so is qSh log n,
    # so only the rows q >= 0 and an unpaired q_lo are computed
    mirror = min(-q_lo, q_hi)
    unpaired = -mirror - q_lo
    phase, tmp = np.empty((2, S, width))  # no computed table has more than S rows: q_hi < S
    for lo in range(0, len(neg_logs), width):
        logs = neg_logs[lo : lo + width]
        w = len(logs)
        for table, times in ((W[:, :w], j_times), (U[:unpaired, :w], q_times[:unpaired]), (U[-q_lo:, :w], q_times[-q_lo:])):
            ph = phase[: len(times), :w]
            np.multiply.outer(times, logs, out=ph)
            _unit_from_half(ph, tmp[: len(times), :w], table)
        np.conjugate(U[mirror - q_lo : -q_lo : -1, :w], out=U[unpaired:-q_lo, :w])
        for qa in range(0, Q, rows):
            qb = min(Q, qa + rows)
            UC = U[qa:qb, :w].T[:, :, None] * C[lo : lo + w, None, :]  # (w, q, dim)
            V = (W[:, :w] @ UC.reshape(w, -1)).reshape(S, qb - qa, dim).swapaxes(0, 1).reshape(-1, dim)
            k = (q_lo + qa) * S + c  # the node of V's first row; the first and last q reach past the grid
            out[max(k, 0) : k + len(V)] += V[max(-k, 0) : T - k]
            del UC, V  # before the next block's, so that one block is held at a time
    return out


def _line_grid_blocks(terms: int, dim: int, T: int) -> tuple[int, int, int, int, int]:
    """(S, q_lo, q_hi, width, rows): S nodes per q from q_lo to q_hi, in blocks of width terms and rows q (`_line_grid_scan`)."""
    c = (T - 1) // 2
    S = math.isqrt(T - 1) + 1
    q_lo, q_hi = -c // S, (T - 1 - c) // S
    width = max(1, min(terms, _CHUNK_ENTRIES // (S + q_hi - q_lo + 1)))
    rows = max(1, min(q_hi - q_lo + 1, _CHUNK_ENTRIES // (width * dim)))
    return S, q_lo, q_hi, width, rows


def _line_grid_bytes(terms: int, dim: int, T: int) -> int:
    """Bytes a `_line_grid_scan` of terms terms in C^dim at T nodes holds at once.

    Its (T, dim) output and half phases, one block's W and U tables and
    float phase work, and a block of U * C with its product and that
    product's copy in node order.
    """
    S, q_lo, q_hi, width, rows = _line_grid_blocks(terms, dim, T)
    tables = (S + q_hi - q_lo + 1) * width
    return 16 * (T * dim + tables + width * rows * dim + 2 * S * rows * dim) + 8 * (terms + 2 * S * width)


def power_eval(P: PowerPoly, z: Iterable[complex]) -> np.ndarray:
    """Value of P at a single point z of the polydisc (len(z) >= width)."""
    z = np.asarray(list(z), dtype=np.complex128)
    m = P.width
    if z.shape[0] < m:
        raise ValueError(f"need at least {m} coordinates, got {z.shape[0]}")
    total = np.zeros(P.space.dim, dtype=np.complex128)
    for alpha, v in P.items():
        total = total + monomial_at(alpha, z) * v
    return total


def monomial_at(alpha: MultiIndex, z):
    """z^alpha = prod_j z_j^alpha_j for z indexed by coordinate, multiplied left to right from 1.0."""
    w = 1.0
    for pos, e in alpha.pairs:
        w *= z[pos] ** e
    return w
