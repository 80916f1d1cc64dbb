"""Polyphase analysis of periodic nonuniform sampling schemes.

A scheme samples f, f', ..., f^(r-1) at the points {x_n + rho*l} with period
rho = L*r.  The polyphase matrix Psi(x) collects the generator's shifted
values; the scheme is a complete interpolation set exactly when det Psi has
no zero on the unit circle.

When no column of Psi carries more than one power of z (`_single_power`,
which holds for every scheme with offsets in one cell and rho >= mu),
Psi(z) = M diag(z^e_q).  Then |det Psi| = |det M| and Psi* Psi is
unitarily similar to M^T M on the whole circle, so det_on_circle and
frame_bounds read their constants from M.  Any other Psi is evaluated on
CIRCLE_GRID as one stack of matrices, one batched numpy call each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cos, floor, pi

import numpy as np

__all__ = [
    "CIS_THRESHOLD",
    "SamplingScheme",
    "LaurentMatrix",
    "build_polyphase",
    "cis_determinant",
    "det_on_circle",
    "frame_bounds",
    "zak_transform",
]

# The one CIS verdict: det_on_circle's minimum of |det Psi| above this
# declares a complete interpolation set (invert_polyphase and check-cis).
CIS_THRESHOLD = 1e-9
# The one grid on the circle, x = k/256.  The generators are real, so
# det Psi(-x) = conj(det Psi(x)) is real at x = 0 and x = 1/2; those are the
# two points where its zeros generically lie (the half-shifted even-order
# B-splines vanish at 1/2), and the grid holds both.
CIRCLE_GRID = np.arange(256) / 256


@dataclass(frozen=True)
class SamplingScheme:
    """Offsets x_0 < ... < x_{L-1} in [0, rho) with r derivative channels.

    The period is rho = L*r.  When every offset lies in a single unit cell
    [s, s+1) the cell index s is available and the compactly supported
    kernel theory applies; otherwise s is None.
    """

    offsets: tuple
    r: int = 1

    def __post_init__(self):
        offs = tuple(float(x) for x in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise ValueError("at least one offset is required")
        if not isinstance(self.r, (int, np.integer)) or self.r < 1:
            raise ValueError(f"derivative count must be a positive integer, got {self.r!r}")
        object.__setattr__(self, "r", int(self.r))
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if offs[0] < 0.0 or offs[-1] >= self.rho:
            raise ValueError(f"offsets must lie in [0, {self.rho})")

    @property
    def L(self) -> int:
        return len(self.offsets)

    @property
    def rho(self) -> int:
        return len(self.offsets) * self.r

    @property
    def s(self):
        """Common cell index, or None when offsets span several cells."""
        c = floor(self.offsets[0])
        if all(c <= x < c + 1 for x in self.offsets):
            return int(c)
        return None

    @classmethod
    def equally_spaced(cls, L: int, r: int = 1, s: int = 0):
        """L offsets s + n/L, n = 0..L-1, all inside the cell [s, s+1)."""
        return cls(tuple(s + n / L for n in range(L)), r)

    @classmethod
    def chebyshev(cls, L: int, r: int = 1, s: int = 0):
        """Chebyshev nodes s + 1/2 - cos((2n+1)pi/(2L))/2 inside [s, s+1)."""
        return cls(tuple(s + 0.5 - 0.5 * cos((2 * n + 1) * pi / (2 * L))
                         for n in range(L)), r)

    def __repr__(self):
        return (f"SamplingScheme(offsets={self.offsets}, r={self.r}, "
                f"rho={self.rho}, s={self.s})")


class LaurentMatrix:
    """Finite sum Sum_k C_k z^k of square matrices, z = e^{2 pi i x}."""

    def __init__(self, dim: int, coeffs: dict):
        self.dim = int(dim)
        self.coeffs = {}
        for k, mat in coeffs.items():
            mat = np.asarray(mat)
            if mat.shape != (self.dim, self.dim):
                raise ValueError(f"coefficient {k} has shape {mat.shape}, "
                                 f"expected {(self.dim, self.dim)}")
            if np.any(mat != 0):
                self.coeffs[int(k)] = mat.copy()

    def powers(self) -> list:
        return sorted(self.coeffs)

    def coeff(self, k: int) -> np.ndarray:
        mat = self.coeffs.get(int(k))
        if mat is None:
            return np.zeros((self.dim, self.dim))
        return mat.copy()

    def __call__(self, x) -> np.ndarray:
        """Psi at z = e^{2 pi i x}; an array x gives shape x.shape + (dim, dim).

        Every point goes through the same elementwise operations, so
        self(xs)[j] equals self(xs[j]) bit for bit.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.dim, self.dim), dtype=complex)
        for k, mat in self.coeffs.items():
            out += mat * np.exp(2j * pi * k * x)[..., None, None]
        return out

    def det(self, x: float) -> complex:
        return complex(np.linalg.det(self(x)))

    def __repr__(self):
        return f"LaurentMatrix(dim={self.dim}, powers={self.powers()})"


def build_polyphase(gen, scheme: SamplingScheme) -> LaurentMatrix:
    """Polyphase matrix of the scheme with respect to the generator.

    Row i = n*r + p holds derivative order p at offset x_n; column q ranges
    over the residues 0..rho-1.  Entry (i, q) is the Laurent series
    Sum_k phi^{(p)}(x_n + rho k - q) z^k; compact support of phi keeps the
    sum finite (k >= 0 and k < 1 + (mu - 1)/rho).
    """
    if gen.regularity < scheme.r - 1:
        raise ValueError(
            f"scheme needs derivatives up to order {scheme.r - 1} but the "
            f"generator only provides {gen.regularity}")
    rho, r = scheme.rho, scheme.r
    shifts = rho * np.arange(ceil(1 + (gen.mu - 1) / rho))
    # pts[n, k, q] = x_n + rho k - q feeds rows n*r + p, one eval per order p
    pts = np.asarray(scheme.offsets)[:, None, None] + shifts[:, None] - np.arange(rho)
    coeffs = np.empty((len(shifts), rho, rho))
    for p in range(r):
        coeffs[:, p::r] = gen.eval(pts, p).swapaxes(0, 1)
    return LaurentMatrix(rho, dict(enumerate(coeffs)))


def cis_determinant(gen, scheme: SamplingScheme) -> float:
    """Determinant whose nonvanishing makes the scheme a CIS of order r-1.

    Valid when rho >= mu and all offsets share one cell [s, s+1); then
    det Psi(x) = (-1)^((s+1)(rho-1)) z^(rho-s-1) times this value, so the
    single number settles the CIS question.  check-cis prints it as
    information; the verdict reads det_on_circle, which takes |det M| from
    the columns of Psi, so it may differ from |det C| in its last bits.
    """
    rho = scheme.rho
    if rho < gen.mu:
        raise ValueError(f"requires rho >= mu, got rho={rho}, mu={gen.mu}")
    s = scheme.s
    if s is None:
        raise ValueError("offsets must lie in a single cell [s, s+1)")
    r = scheme.r
    pts = np.asarray(scheme.offsets)[:, None] - s - 1 + rho - np.arange(rho)
    C = np.empty((rho, rho))
    for p in range(r):
        C[p::r] = gen.eval(pts, p)
    return float(np.linalg.det(C))


def _single_power(psi: LaurentMatrix):
    """(M, e) when no column q of Psi carries more than one power e_q (an
    exact zero test), else None.

    Then Psi(z) = M diag(z^{e_q}) with M = Psi(0) = sum_k C_k (exact: one
    nonzero term per entry), and e_q = 0 for a zero column.  The split is
    made once per matrix and kept on it, with M and e read-only, so
    det_on_circle, frame_bounds and invert_polyphase share it.
    """
    if "_single" in vars(psi):
        return psi._single
    powers = np.array(psi.powers(), dtype=int)
    C = np.array([psi.coeffs[k] for k in powers]).reshape(-1, psi.dim, psi.dim)
    carried = C.any(axis=1)             # carried[k, q]: column q holds power k
    single = None
    if not np.any(carried.sum(axis=0) > 1):
        single = C.sum(axis=0), powers @ carried
        for a in single:
            a.flags.writeable = False
    psi._single = single
    return single


def det_on_circle(psi: LaurentMatrix):
    """Minimum of |det Psi(x)| on the circle, as (min_abs, argmin_x).

    A single-power Psi has |det Psi| = |det M| everywhere, and the argmin
    of a constant is the first grid point, 0.  Any other Psi is scanned
    over CIRCLE_GRID, which holds 0 and 1/2.
    """
    single = _single_power(psi)
    if single is not None:
        return float(abs(np.linalg.det(single[0]))), float(CIRCLE_GRID[0])
    dets = np.linalg.det(psi(CIRCLE_GRID))
    vals = np.hypot(dets.real, dets.imag)   # rounds as abs() of a complex does
    idx = int(np.argmin(vals))
    return float(vals[idx]), float(CIRCLE_GRID[idx])


def frame_bounds(psi: LaurentMatrix, phi_min: float, phi_max: float):
    """Sampling frame bounds (A, B) from the polyphase spectrum.

    A = min_x lambda_min(Psi* Psi) / phi_max and
    B = max_x lambda_max(Psi* Psi) / phi_min, so A > 0 exactly when the
    determinant stays away from zero.  A single-power Psi has Psi* Psi
    unitarily similar to M^T M on the whole circle, so the extremes are
    sigma(M)^2, from the singular values of M (the eigenvalues of M^T M
    would square its condition number).  Any other Psi is scanned over
    CIRCLE_GRID.
    """
    if phi_min <= 0:
        raise ValueError("phi_min must be positive")
    single = _single_power(psi)
    if single is not None:
        sv = np.linalg.svd(single[0], compute_uv=False)
        lo, hi = sv[-1] ** 2, sv[0] ** 2
    else:
        m = psi(CIRCLE_GRID)
        ev = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
        lo, hi = ev[:, 0].min(), ev[:, -1].max()
    return float(max(lo, 0.0) / phi_max), float(hi / phi_min)


def zak_transform(f, alpha: float, x: float, y: float, trunc_k: int) -> complex:
    """Truncated Zak sum Sum_k f(x - alpha k) e^{2 pi i alpha k y}."""
    total = 0j
    for k in range(-trunc_k, trunc_k + 1):
        v = f(x - alpha * k)
        if v != 0.0:
            total += v * np.exp(2j * pi * alpha * k * y)
    return complex(total)
