"""Interpolating kernels from the inverse polyphase matrix.

When the scheme is a CIS with offsets in one cell and rho >= mu, the inverse
polyphase matrix is A + B z^{-1} and the kernels

    Theta_ni(t) = sum_{q<=s} A[q, nr+i] phi(t-q)
                + sum_{q>s}  B[q, nr+i] phi(t+rho-q)

are compactly supported on [-rho+s+1, mu+s] and give perfect reconstruction
of every element of V(phi) from its derivative samples.
"""

from __future__ import annotations

import json
from math import ceil, floor

import numpy as np

from .generators import _expand, generator_from_descriptor
from .polyphase import CIS_THRESHOLD, LaurentMatrix, SamplingScheme

__all__ = [
    "SingularSamplePointError",
    "ResidualError",
    "KernelSet",
    "invert_polyphase",
    "build_kernels",
    "evaluate_kernel",
    "reconstruct",
    "save_kernels",
    "load_kernels",
]


class SingularSamplePointError(RuntimeError):
    """det Psi vanished (or nearly) at an inversion grid point."""


class ResidualError(RuntimeError):
    """Inverse coefficients violate the expected structure."""


def invert_polyphase(psi: LaurentMatrix, n_fft: int = 64) -> LaurentMatrix:
    """Fourier coefficients of Psi(x)^{-1} by sampling on the circle.

    Psi is inverted pointwise at n_fft uniform x values and the coefficient
    matrices are recovered by a DFT across the grid.  Coefficients whose
    largest entry is below 1e-10 are dropped; surviving entries below 1e-10
    are zeroed.  When |det Psi| is constant on the grid (monomial
    determinant, the compactly supported case) any surviving coefficient
    outside powers {-1, 0} signals a bug or an inadmissible scheme and
    raises ResidualError.
    """
    n = int(n_fft)
    if n < 4:
        raise ValueError("n_fft must be >= 4")
    dim = psi.dim
    samples = np.empty((n, dim, dim), dtype=complex)
    dets = np.empty(n)
    for j in range(n):
        x = j / n
        m = psi(x)
        det = np.linalg.det(m)
        dets[j] = abs(det)
        if dets[j] <= CIS_THRESHOLD:
            raise SingularSamplePointError(
                f"|det Psi({x})| = {dets[j]:.3e}, scheme is not a CIS")
        samples[j] = np.linalg.inv(m)
    spectrum = np.fft.fft(samples, axis=0) / n
    compact = np.ptp(dets) <= 1e-8 * dets.max()
    coeffs = {}
    for k in range(n):
        nu = k if k <= n // 2 else k - n
        mat = spectrum[k]
        if np.abs(mat.imag).max() > 1e-9:
            raise ResidualError(f"coefficient {nu} has imaginary part "
                                f"{np.abs(mat.imag).max():.3e}")
        real = mat.real.copy()
        real[np.abs(real) < 1e-10] = 0.0
        if np.any(real != 0.0):
            coeffs[nu] = real
    if compact:
        stray = {nu: m for nu, m in coeffs.items() if nu not in (-1, 0)}
        worst = max((np.abs(m).max() for m in stray.values()), default=0.0)
        if worst > 1e-9:
            raise ResidualError(
                f"coefficients outside powers {{-1, 0}} reach {worst:.3e} "
                "although the determinant is a monomial")
        for nu in stray:
            del coeffs[nu]
    return LaurentMatrix(dim, coeffs)


class KernelSet:
    """Compactly supported interpolating kernels Theta_ni for one scheme."""

    def __init__(self, gen, scheme: SamplingScheme, A: np.ndarray, B: np.ndarray):
        rho = scheme.rho
        s = scheme.s
        if s is None:
            raise ValueError("kernel synthesis needs offsets in a single cell")
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != (rho, rho) or B.shape != (rho, rho):
            raise ValueError("A and B must be rho x rho")
        if np.abs(A[s + 1:]).max(initial=0.0) > 1e-9:
            raise ValueError("rows s+1..rho-1 of A must vanish")
        if np.abs(B[:s + 1]).max(initial=0.0) > 1e-9:
            raise ValueError("rows 0..s of B must vanish")
        self.gen = gen
        self.scheme = scheme
        self.A = A
        self.B = B
        self.support = (float(-rho + s + 1), float(gen.mu + s))
        self._terms = {}
        for n in range(scheme.L):
            for i in range(scheme.r):
                col = n * scheme.r + i
                shifts, coefs = [], []
                for q in range(0, s + 1):
                    if A[q, col] != 0.0:
                        shifts.append(float(q))
                        coefs.append(A[q, col])
                for q in range(s + 1, rho):
                    if B[q, col] != 0.0:
                        shifts.append(float(q - rho))
                        coefs.append(B[q, col])
                self._terms[n, i] = (np.array(shifts), np.array(coefs))

    def term_table(self, n: int, i: int):
        """Pairs (shifts, coefs) with Theta_ni(t) = sum coefs * phi(t - shifts)."""
        shifts, coefs = self._terms[n, i]
        return shifts.copy(), coefs.copy()

    def kernel(self, n: int, i: int, t):
        return _kernel_values(self, n, i, t)

    def __repr__(self):
        return (f"KernelSet(gen={self.gen!r}, scheme={self.scheme!r}, "
                f"support={self.support})")


def _kernel_values(ks, n: int, i: int, t):
    """Theta_ni(t) from the term table of a kernel set or prediction scheme.

    A direct sum over the table: for the few points of a per-point call it
    costs less than setting up the piece-wise expansion of `_series`.
    """
    if not 0 <= n < ks.scheme.L or not 0 <= i < ks.scheme.r:
        raise IndexError(f"kernel index ({n}, {i}) out of range")
    shifts, coefs = ks._terms[n, i]
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if len(shifts) == 0:
        out = np.zeros_like(arr)
    else:
        args = arr[None, :] - shifts[:, None]
        out = coefs @ ks.gen.eval(args.ravel()).reshape(len(shifts), -1)
    return float(out[0]) if scalar else out


def _series(ks, periods: np.ndarray, samples: np.ndarray, x) -> np.ndarray:
    """sum_l sum_{n,i} samples[n, i, l] Theta_ni(x - rho l) over `periods`.

    Every kernel is a table of shifted copies of phi, so the whole series
    is one expansion sum_j b_j phi(x - s_j) with s_j = rho l + (kernel
    shift); rho l is an integer and adds no fractional class.
    """
    rho = ks.scheme.rho
    shifts, coefs = [], []
    for n in range(ks.scheme.L):
        for i in range(ks.scheme.r):
            s, c = ks._terms[n, i]
            shifts.append(np.add.outer(rho * periods, s).ravel())
            coefs.append(np.multiply.outer(samples[n, i], c).ravel())
    return _expand(ks.gen, np.concatenate(shifts), np.concatenate(coefs), x)


def build_kernels(gen, scheme: SamplingScheme, inv: LaurentMatrix) -> KernelSet:
    """Assemble the kernel set from the inverse polyphase coefficients."""
    stray = [k for k in inv.powers() if k not in (-1, 0)]
    if stray:
        raise ValueError(f"inverse has coefficients at powers {stray}, "
                         "kernels would not be compactly supported")
    return KernelSet(gen, scheme, inv.coeff(0), inv.coeff(-1))


def evaluate_kernel(ks: KernelSet, n: int, i: int, t):
    return ks.kernel(n, i, t)


def reconstruct(ks: KernelSet, samples: dict, t):
    """Sum of sampled data against the kernels: recovers f on V(phi).

    samples maps (n, i, l) to f^{(i)}(x_n + rho l).  Every l whose kernel
    window meets some evaluation point must be present; missing entries
    raise KeyError rather than being treated as zero.
    """
    arr = np.asarray(t, dtype=float)
    ts = np.sort(arr, axis=None)
    lo, hi = ks.support
    scheme = ks.scheme
    rho = scheme.rho
    periods = np.arange(ceil((ts[0] - hi) / rho), floor((ts[-1] - lo) / rho) + 1)
    # keep the periods whose open window (lo, hi) + rho l holds a point
    a = np.searchsorted(ts, lo + rho * periods, side="right")
    b = np.searchsorted(ts, hi + rho * periods, side="left")
    periods = periods[a < b]
    values = np.empty((scheme.L, scheme.r, len(periods)))
    for n in range(scheme.L):
        for i in range(scheme.r):
            for j, l in enumerate(periods.tolist()):
                key = (n, i, l)
                if key not in samples:
                    raise KeyError(f"missing sample for offset {scheme.offsets[n]}, "
                                   f"derivative {i}, period {l}")
                values[n, i, j] = samples[key]
    out = _series(ks, periods, values, arr)
    return float(out) if arr.ndim == 0 else out


def kernel_doc(ks: KernelSet) -> dict:
    """Plain-dict form of a kernel set, JSON-ready, full float precision."""
    return {
        "scheme": {"offsets": list(ks.scheme.offsets), "r": ks.scheme.r},
        "generator": ks.gen.descriptor(),
        "A": [[float(v) for v in row] for row in ks.A],
        "B": [[float(v) for v in row] for row in ks.B],
    }


def kernels_from_doc(doc: dict) -> KernelSet:
    gen = generator_from_descriptor(doc["generator"])
    scheme = SamplingScheme(tuple(doc["scheme"]["offsets"]), int(doc["scheme"]["r"]))
    return KernelSet(gen, scheme, np.array(doc["A"]), np.array(doc["B"]))


def save_kernels(ks: KernelSet, path):
    """Write the kernel set as JSON with full-precision decimal entries."""
    with open(path, "w") as fh:
        json.dump(kernel_doc(ks), fh, indent=1)
        fh.write("\n")


def load_kernels(path) -> KernelSet:
    with open(path) as fh:
        return kernels_from_doc(json.load(fh))
