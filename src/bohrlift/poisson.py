"""Poisson kernel on the polytorus and radial smoothing of power polynomials.

The one-variable kernel K(omega, z) = (|omega|^2 - |z|^2) / |omega - z|^2
is positive with Haar mean 1; the m-variable kernel at radius vector r
is the product prod_j K(omega_j, r_j z_j), equal to the absolutely
convergent series sum_alpha omega^{-alpha} z^alpha r^{|alpha|} over all
integer alpha.  Convolving a polynomial against it therefore just scales
the coefficient at alpha by r^{|alpha|} =  prod_j r_j^{alpha_j}; the
numeric path recomputes the same thing by tensor-grid quadrature and
discrete orthogonality, and agreement of the two is a standing check.
Smoothing never enlarges any L_p norm (the kernel is a probability
density), which `contraction_check` probes estimator-side, with the
smoothed and the plain norm as two weight rows on one sample set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError
from .norms import NormEstimate, check_count, lattice_value_chunks, norm_hp_rows
from .sampling import SamplerConfig
from .series import PowerPoly, monomial_at, pack

#: Most used coordinates the grid-quadrature path will accept by default.
DEFAULT_POISSON_DIM_CAP = 4


@dataclass(frozen=True)
class RadiusVector:
    """Per-coordinate radii, each in [0, 1)."""

    radii: tuple[float, ...]

    def __init__(self, radii):
        values = []
        for k, r in enumerate(radii):
            r = float(r)
            if not (0.0 <= r < 1.0):
                raise ValueError(f"radius {k} is {r}, must lie in [0, 1)")
            values.append(r)
        object.__setattr__(self, "radii", tuple(values))

    def __len__(self) -> int:
        return len(self.radii)

    def __mul__(self, other: "RadiusVector") -> "RadiusVector":
        if len(self) != len(other):
            raise ValueError("radius vectors must have equal length")
        return RadiusVector(tuple(a * b for a, b in zip(self.radii, other.radii)))

    @classmethod
    def uniform(cls, r: float, m: int) -> "RadiusVector":
        return cls((r,) * m)


def _check_unimodular(w: np.ndarray, name: str) -> None:
    if not np.all(np.abs(np.abs(w) - 1.0) <= 1e-9):
        raise ValueError(f"{name} must lie on the unit circle")


def kernel_1d(omega, z):
    """K(omega, z) = (|omega|^2 - |z|^2) / |omega - z|^2 for |omega| = 1, |z| < 1.

    Accepts scalars or arrays.  Positive on its domain; its Haar mean
    in omega is 1 for any fixed z, which makes it an averaging kernel.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    _check_unimodular(omega, "omega")
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("z must lie strictly inside the unit disc")
    num = np.abs(omega) ** 2 - np.abs(z) ** 2
    den = np.abs(omega - z) ** 2
    out = num / den
    return float(out) if out.ndim == 0 else out


def _torus_pair(omega, z, r: RadiusVector) -> tuple[np.ndarray, np.ndarray, int]:
    """Torus points omega and z of one shape (..., m), m <= len(r), and m."""
    omega = np.asarray(omega, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    if omega.shape != z.shape:
        raise ValueError("omega and z must have the same shape")
    m = omega.shape[-1] if omega.ndim else 0
    if m > len(r):
        raise ValueError(f"radius vector has {len(r)} entries, need {m}")
    _check_unimodular(omega, "omega")
    _check_unimodular(z, "z")
    return omega, z, m


def kernel_m(omega, z, r: RadiusVector):
    """Product kernel K(omega, r z) = prod_j K(omega_j, r_j z_j) on the torus.

    omega and z are torus points (unimodular entries) of shape (..., m)
    with m <= len(r).  Equals the multi-series
    sum_{alpha in Z^m} omega^{-alpha} z^alpha r^{|alpha|}.
    """
    omega, z, m = _torus_pair(omega, z, r)
    rv = np.array(r.radii[:m], dtype=np.float64)
    num = 1.0 - rv**2
    den = np.abs(omega - rv * z) ** 2
    out = np.prod(num / den, axis=-1)
    return float(out) if out.ndim == 0 else out


def kernel_m_series(omega, z, r: RadiusVector, terms: int):
    """Truncation of the kernel's multi-series to the box |alpha_j| <= terms.

    The series factors per coordinate, so the truncated box sum is the
    product of one-dimensional partial sums; the tail is geometric of
    size O(r^{terms}), which lets tests pin the product formula against
    the series within explicit tolerances.
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    omega, z, m = _torus_pair(omega, z, r)
    total = np.ones(omega.shape[:-1], dtype=np.complex128)
    for j in range(m):
        u = z[..., j] / omega[..., j]
        rj = r.radii[j]
        acc = np.ones_like(u)
        powerpos = np.ones_like(u)
        powerneg = np.ones_like(u)
        for n in range(1, terms + 1):
            powerpos = powerpos * u
            powerneg = powerneg / u
            acc = acc + (rj**n) * (powerpos + powerneg)
        total = total * acc
    out = total.real if total.ndim else float(total.real)
    return out


def _check_radii(P: PowerPoly, r: RadiusVector) -> None:
    if len(r) < P.width:
        raise ValueError(f"radius vector has {len(r)} entries, polynomial width is {P.width}")


def poisson_convolve_exact(P: PowerPoly, r: RadiusVector) -> PowerPoly:
    """Radial smoothing on coefficients: c_alpha -> c_alpha prod_j r_j^alpha_j.

    Composing two smoothings multiplies the radius vectors entrywise;
    the all-zero radius keeps only the constant term.
    """
    _check_radii(P, r)
    return PowerPoly({alpha: v * monomial_at(alpha, r.radii) for alpha, v in P.items()}, P.space)


_PROBE = np.ones(64)


def _clear_upper_halves() -> None:
    """Run one small numpy AVX loop, whose closing vzeroupper clears the vector registers' upper halves.

    OpenBLAS's gemm leaves them set, and pocketfft's SSE-encoded loops
    then run several times slower until something clears them (probably
    the AVX-to-SSE transition penalty).  On a 2-core AVX-512 x86-64 the
    strided last-axis FFTs of the eight engine blocks of a G = 64,
    m = 3, C^2 lattice took 17.9 ms straight after each block's gemm
    and 5.0 ms with this call in between.  numpy's copy of the lines
    into contiguous order happens to clear them too; this call keeps
    the transforms clear whatever runs before them.
    """
    np.add(_PROBE, _PROBE)


def _last_axis_spectra(blocks, G: int, d: int):
    """The forward FFT of each lattice line along the last coordinate, from C-order (points, d) value blocks.

    Yields (lines, d, G) arrays, in lattice order, each a view of one
    buffer kept across blocks, which the next block overwrites.  A line
    split across blocks is put back together there first.  With d > 1
    the lines are also copied there contiguous before their transform,
    which pocketfft runs over twice as fast as on the block's strided
    lines; each line's transform is the same either way.
    """
    work, held = np.empty((1, d, G), dtype=np.complex128), 0  # held: points of a split line in work[0]
    for block in blocks:
        _clear_upper_halves()  # the block came out of a gemm
        take = min(-held % G, len(block))  # the rest of a split line
        work[0, :, held : held + take] = block[:take].T
        held += take
        if held == G:
            yield np.fft.fft(work[:1], axis=-1, out=work[:1])
            held = 0
        n = (len(block) - take) // G
        lines = block[take : take + n * G].reshape(n, G, d).transpose(0, 2, 1)
        if n:
            if len(work) < n:
                work = np.empty((n, d, G), dtype=np.complex128)
            if d > 1:
                np.copyto(work[:n], lines)
                lines = work[:n]
            yield np.fft.fft(lines, axis=-1, out=work[:n])
        if take + n * G < len(block):  # the start of a split line
            held = len(block) - take - n * G
            work[0, :, :held] = block[take + n * G :].T
        block = lines = None  # the engine makes the next block with this one freed


def poisson_convolve_numeric(
    P: PowerPoly,
    r: RadiusVector,
    grid_per_dim: int,
    dim_cap: int = DEFAULT_POISSON_DIM_CAP,
) -> PowerPoly:
    """Radial smoothing computed by tensor-grid quadrature.

    Averages the polynomial's lattice values against the kernel (a
    cyclic convolution over the grid group, evaluated by FFT) and reads
    the smoothed coefficients back off by discrete orthogonality.  The
    values come from the separable engine of `lattice_value_chunks`
    and go through numpy's forward FFT; the kernel is the closed form
    (1 - r^2) / |1 - r e^{i theta}|^2 sampled on the grid and
    transformed the same way.  The convolution's quadrature values and
    their coefficients are an inverse and a forward FFT that cancel,
    so the coefficients are the product spectrum over G^(2k) directly.
    The quadrature and its cap count the k used coordinates (`series.pack`).
    The node count per coordinate must be an integer exceeding twice
    the largest per-coordinate degree plus one; then polynomial
    frequencies never alias (the engine folds nothing) and the only
    deviation from the exact path is the kernel's geometric tail
    r^{grid - degree}.

    The spectrum is taken in one streaming pass, pruned to the support
    (Markel's FFT pruning).  Each engine block's lines along the last
    coordinate are transformed as the block arrives
    (`_last_axis_spectra`), and only the support's last-axis
    frequencies K are kept, in a (|K|, dim) + (G,) * (k - 1) array.
    The other axes follow in fftn's order (axis k - 2 down to 0), each
    on the lines whose trailing frequencies are the tail of some
    support index.  Every line kept is the one the whole-array fftn
    transforms, with the same input, so the coefficients are its bits.
    The working set is G^(k-1) |K| dim values plus about two blocks
    (the engine's and the pass's buffer), and a grid whose G^k lattice
    array would not fit in memory still runs, in time proportional to
    G^k.
    """
    G = check_count(grid_per_dim, "grid_per_dim", 1)
    active, Q = pack(P)
    m = Q.width
    if m > dim_cap:
        raise DimensionCapError(f"quadrature over {m} used coordinates exceeds the cap {dim_cap}")
    _check_radii(P, r)
    max_deg = max((e for alpha in P.coeffs for _, e in alpha.pairs), default=0)
    if G <= 2 * max_deg + 1:
        raise ValueError(
            f"grid_per_dim must exceed 2 * max degree + 1 = {2 * max_deg + 1}, got {G}"
        )
    if m == 0:
        return PowerPoly._moved(dict(P.items()), P.space)

    d = P.space.dim
    idx = np.array([alpha.exponents + (0,) * (m - len(alpha.exponents)) for alpha in Q.indices()])
    K, at = np.unique(idx[:, -1], return_inverse=True)  # the support's last-axis frequencies
    spectrum = np.empty((len(K), d, G ** (m - 1)), dtype=np.complex128)
    lo = 0
    for lines in _last_axis_spectra(lattice_value_chunks(Q, G), G, d):
        spectrum[..., lo : lo + len(lines)] = lines[:, :, K].T
        lo += len(lines)
    spectrum = spectrum.reshape((len(K), d) + (G,) * (m - 1))
    for j in range(m - 2, -1, -1):  # fftn's axis order; spectrum is (tails, d) + (G,) * (j + 1)
        _, first, tail = np.unique(idx[:, j:], axis=0, return_index=True, return_inverse=True)
        np.fft.fft(spectrum, axis=-1, out=spectrum)
        spectrum, at = spectrum[at[first], ..., idx[first, j]], tail  # each tail alpha_j.. of the support
    coeffs = spectrum[at]

    # per-coordinate kernel on the lattice offsets, transformed once each
    ell = np.arange(G)
    for j in range(m):
        rj = r.radii[active[j]]
        kj = (1.0 - rj**2) / np.abs(1.0 - rj * np.exp(2j * math.pi * ell / G)) ** 2
        coeffs *= np.fft.fft(kj)[idx[:, j], None]
    return PowerPoly(dict(zip(P.indices(), coeffs / G ** (2 * m))), P.space)


def contraction_check(
    P: PowerPoly, r: RadiusVector, p: float, cfg: SamplerConfig | None = None
) -> tuple[NormEstimate, NormEstimate]:
    """Norms of (smoothed P, P); smoothing must not enlarge the norm.

    The smoothed polynomial weighs the coefficient at alpha by
    r^alpha, so both norms come from one call of `norm_hp_rows`, as
    the weight rows r^alpha and 1: exact Parseval values for p = 2 with
    Euclidean coefficients, else Monte Carlo estimates on one sample
    set.  Callers compare lhs against rhs plus three combined standard
    errors.
    """
    _check_radii(P, r)
    radial = np.array([monomial_at(alpha, r.radii) for alpha in P.indices()])
    return tuple(norm_hp_rows(P, p, np.stack([radial, np.ones_like(radial)]), cfg))
