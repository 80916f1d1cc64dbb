"""Interpolating kernels from the inverse polyphase matrix.

When the scheme is a CIS with offsets in one cell and rho >= mu, each
column of Psi carries a single power of z, det Psi is a monomial, and one
matrix inverse gives the inverse polyphase matrix A + B z^{-1} exactly
(invert_polyphase).  The kernels

    Theta_ni(t) = sum_{q<=s} A[q, nr+i] phi(t-q)
                + sum_{q>s}  B[q, nr+i] phi(t+rho-q)

are compactly supported on [-rho+s+1, mu+s] and give perfect reconstruction
of every element of V(phi) from its derivative samples.

A kernel set may also carry nodes eps_p and weights a_p, which shift it
into the past (see prediction.modify_kernels):

    Theta~_ni(t) = sum_p a_p Theta_ni(t - eps_p),

again a finite table of shifted copies of phi.  The two-sided kernels are
the case eps = (0,), a = (1,).
"""

from __future__ import annotations

import json
from math import ceil, floor, fsum

import numpy as np

from .generators import _as_array, _expand, generator_from_descriptor
from .polyphase import CIS_THRESHOLD, LaurentMatrix, SamplingScheme

__all__ = [
    "SingularSamplePointError",
    "KernelSet",
    "invert_polyphase",
    "build_kernels",
    "reconstruct",
    "save_kernels",
    "load_kernels",
]


class SingularSamplePointError(RuntimeError):
    """det Psi vanished (or nearly) where the inversion evaluated it."""


def invert_polyphase(psi: LaurentMatrix, n_fft: int = 64) -> LaurentMatrix:
    """Psi(x)^{-1} as a Laurent matrix.

    When no column q of Psi carries more than one power e_q (an exact
    zero test), Psi(z) = M diag(z^{e_q}) with M = Psi(0) = sum_k C_k, so
    det Psi = det M z^{sum e_q} is a monomial and Psi^{-1} = diag(z^{-e_q})
    M^{-1}: row q of M^{-1} is the coefficient of z^{-e_q}.  build_polyphase
    gives this shape for every scheme with offsets in one cell and
    rho >= mu, because the generators vanish exactly off (0, mu); the
    powers of a CIS are then {-1, 0} (rho > mu leaves a zero column, so
    det M = 0).

    Otherwise the inverse is in general not a Laurent polynomial: Psi is
    inverted at n_fft uniform x values and all n_fft Fourier coefficients
    of the DFT across the grid are returned, so build_kernels rejects it.
    Raises SingularSamplePointError when |det M|, or |det Psi| at a grid
    point, is at most CIS_THRESHOLD.
    """
    n = int(n_fft)
    if n < 4:
        raise ValueError("n_fft must be >= 4")
    powers = np.array(psi.powers(), dtype=int)
    C = np.array([psi.coeffs[k] for k in powers]).reshape(-1, psi.dim, psi.dim)
    carried = C.any(axis=1)             # carried[k, q]: column q holds power k
    if np.all(carried.sum(axis=0) <= 1):
        e = powers @ carried
        M = C.sum(axis=0)               # exact: one nonzero term per entry
        det = np.linalg.det(M)
        if abs(det) <= CIS_THRESHOLD:
            raise SingularSamplePointError(
                f"|det Psi| = {abs(det):.3e} on the whole circle, "
                "scheme is not a CIS")
        inv = np.linalg.inv(M)
        return LaurentMatrix(psi.dim, {-k: np.where((e == k)[:, None], inv, 0.0)
                                       for k in np.unique(e)})
    xs = np.arange(n) / n
    samples = psi(xs)
    dets = np.abs(np.linalg.det(samples))
    j = int(np.argmin(dets))
    if dets[j] <= CIS_THRESHOLD:
        raise SingularSamplePointError(
            f"|det Psi({xs[j]})| = {dets[j]:.3e}, scheme is not a CIS")
    spectrum = np.fft.fft(np.linalg.inv(samples), axis=0).real / n
    return LaurentMatrix(psi.dim, {(k if k <= n // 2 else k - n): spectrum[k]
                                   for k in range(n)})


# Nodes and weights of the unshifted, two-sided kernels.
_TWO_SIDED = ((0.0,), (1.0,))


def _check_causal_nodes(rho: int, eps: tuple, wts: tuple):
    """rho strictly increasing nodes from eps_0 >= rho whose weights solve
    the moment equation sum_p a_p (-eps_p)^j = delta_{j0}, j < rho."""
    if len(eps) != rho:
        raise ValueError(f"need exactly rho = {rho} epsilon nodes, got {len(eps)}")
    if len(wts) != len(eps):
        raise ValueError("weights and epsilons must have equal length")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon nodes must be strictly increasing")
    if eps[0] < rho:
        raise ValueError(
            f"eps0 = {eps[0]} < rho = {rho}: shifted kernels would not be causal")
    for j in range(rho):
        resid = fsum(wts[p] * (-eps[p]) ** j for p in range(rho)) - (j == 0)
        scale = max(abs(wts[p]) * eps[p] ** j for p in range(rho))
        if abs(resid) > 1e-9 * max(scale, 1.0):
            raise ValueError(f"weights violate the moment equation at degree {j}")


class KernelSet:
    """Compactly supported interpolating kernels for one scheme.

    With nodes eps and weights a other than the default (0,), (1,), the
    kernels are the causal sum_p a_p Theta_ni(t - eps_p); such nodes must
    pass `_check_causal_nodes` (ValueError otherwise).
    """

    def __init__(self, gen, scheme: SamplingScheme, A: np.ndarray, B: np.ndarray,
                 epsilons=(0.0,), weights=(1.0,)):
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
        eps = tuple(float(e) for e in epsilons)
        wts = tuple(float(a) for a in weights)
        if (eps, wts) != _TWO_SIDED:
            _check_causal_nodes(rho, eps, wts)
        self.gen = gen
        self.scheme = scheme
        self.A = A
        self.B = B
        self.epsilons = eps
        self.weights = wts
        self.support = (float(-rho + s + 1) + eps[0], float(gen.mu + s) + eps[-1])
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
                shifts, coefs = np.array(shifts), np.array(coefs)
                self._terms[n, i] = (np.concatenate([shifts + e for e in eps]),
                                     np.concatenate([a * coefs for a in wts]))

    def term_table(self, n: int, i: int):
        """Pairs (shifts, coefs) with K_ni(t) = sum coefs * phi(t - shifts)."""
        shifts, coefs = self._terms[n, i]
        return shifts.copy(), coefs.copy()

    def kernel(self, n: int, i: int, t):
        return _kernel_values(self, n, i, t)

    def __repr__(self):
        return (f"KernelSet(gen={self.gen!r}, scheme={self.scheme!r}, "
                f"epsilons={self.epsilons}, support={self.support})")


def _kernel_values(ks, n: int, i: int, t):
    """K_ni(t) from the term table, in t's dtype (np.longdouble is kept).

    A direct sum over the table: for the few points of a per-point call it
    costs less than setting up the piece-wise expansion of `_series`.
    """
    if not 0 <= n < ks.scheme.L or not 0 <= i < ks.scheme.r:
        raise IndexError(f"kernel index ({n}, {i}) out of range")
    shifts, coefs = ks._terms[n, i]
    arr, scalar = _as_array(t)
    arr = np.atleast_1d(arr)
    if len(shifts) == 0:
        out = np.zeros_like(arr)
    else:
        args = arr[None, :] - shifts[:, None]
        vals = ks.gen.eval(args.ravel()).reshape(len(shifts), -1)
        out = np.asarray(coefs, dtype=arr.dtype) @ vals
    return float(out[0]) if scalar else out


def _periods(ks, x) -> np.ndarray:
    """Periods l from the first whose closed kernel window [lo, hi] + rho l
    holds min x to the last that holds max x; none for an empty x."""
    x = np.asarray(x)
    if x.size == 0:
        return np.arange(0)
    lo, hi = ks.support
    rho = ks.scheme.rho
    return np.arange(ceil((x.min() - hi) / rho), floor((x.max() - lo) / rho) + 1)


def _samples(ks, source, W: float, periods: np.ndarray) -> np.ndarray:
    """W^-i f^(i)((x_n + rho l)/W) for every offset n, channel i and l in periods.

    source is a map (n, i, l) -> f^(i)((x_n + rho l)/W), an object with
    .eval(t, i), a sequence of per-derivative callables, or a bare callable
    when r = 1.  Callables receive all the sample times of a channel as one
    array.  A map that lacks a sample raises KeyError.
    """
    scheme = ks.scheme
    rho = scheme.rho
    out = np.empty((scheme.L, scheme.r, len(periods)))
    for n, x in enumerate(scheme.offsets):
        times = (x + rho * periods) / W
        for i in range(scheme.r):
            if isinstance(source, dict):
                try:
                    vals = [source[n, i, l] for l in periods.tolist()]
                except KeyError as exc:
                    raise KeyError(f"missing sample for offset {x}, derivative "
                                   f"{i}, period {exc.args[0][2]}") from None
            elif hasattr(source, "eval"):
                vals = source.eval(times, i)
            elif isinstance(source, (list, tuple)):
                vals = source[i](times)
            elif callable(source) and i == 0:
                vals = source(times)
            elif callable(source):
                raise TypeError("a bare callable provides no derivatives; pass "
                                "a sequence of callables or a signal object")
            else:
                raise TypeError(f"unsupported sample source {type(source).__name__}")
            out[n, i] = np.asarray(vals, dtype=float) * W ** (-i)
    return out


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
        raise ValueError(f"inverse has coefficients at {len(stray)} powers "
                         f"outside {{-1, 0}}, from {stray[0]} to {stray[-1]}; "
                         "kernels would not be compactly supported")
    return KernelSet(gen, scheme, inv.coeff(0), inv.coeff(-1))


def reconstruct(ks: KernelSet, samples: dict, t):
    """Sum of sampled data against the kernels: recovers f on V(phi).

    samples maps (n, i, l) to f^{(i)}(x_n + rho l).  Every l whose kernel
    window meets some evaluation point must be present; missing entries
    raise KeyError rather than being treated as zero.
    """
    arr = np.asarray(t, dtype=float)
    ts = np.sort(arr, axis=None)
    lo, hi = ks.support
    rho = ks.scheme.rho
    periods = _periods(ks, ts)
    # keep the periods whose open window (lo, hi) + rho l holds a point
    a = np.searchsorted(ts, lo + rho * periods, side="right")
    b = np.searchsorted(ts, hi + rho * periods, side="left")
    periods = periods[a < b]
    out = _series(ks, periods, _samples(ks, samples, 1.0, periods), arr)
    return float(out) if arr.ndim == 0 else out


def kernel_doc(ks: KernelSet) -> dict:
    """Plain-dict form of a kernel set, JSON-ready, full float precision.

    The nodes and weights are written only for a shifted set.
    """
    doc = {
        "scheme": {"offsets": list(ks.scheme.offsets), "r": ks.scheme.r},
        "generator": ks.gen.descriptor(),
        "A": [[float(v) for v in row] for row in ks.A],
        "B": [[float(v) for v in row] for row in ks.B],
    }
    if (ks.epsilons, ks.weights) != _TWO_SIDED:
        doc["epsilons"] = list(ks.epsilons)
        doc["weights"] = list(ks.weights)
    return doc


def kernels_from_doc(doc: dict) -> KernelSet:
    """Inverse of kernel_doc; nodes read from the document are checked as
    for any shifted set."""
    gen = generator_from_descriptor(doc["generator"])
    scheme = SamplingScheme(tuple(doc["scheme"]["offsets"]), int(doc["scheme"]["r"]))
    return KernelSet(gen, scheme, np.array(doc["A"]), np.array(doc["B"]),
                     doc.get("epsilons", _TWO_SIDED[0]),
                     doc.get("weights", _TWO_SIDED[1]))


def save_kernels(ks: KernelSet, path):
    """Write the kernel set as JSON with full-precision decimal entries."""
    with open(path, "w") as fh:
        json.dump(kernel_doc(ks), fh, indent=1)
        fh.write("\n")


def load_kernels(path) -> KernelSet:
    with open(path) as fh:
        return kernels_from_doc(json.load(fh))
