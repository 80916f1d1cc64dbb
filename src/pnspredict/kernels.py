"""Interpolating kernels from the inverse polyphase matrix.

When the scheme is a CIS with offsets in one cell and rho >= mu, each
column of Psi carries a single power of z, det Psi is a monomial, and one
matrix inverse gives the inverse polyphase matrix A + B z^{-1} exactly
(invert_polyphase).  The kernels

    Theta_ni(t) = sum_{q<=s} A[q, nr+i] phi(t-q)
                + sum_{q>s}  B[q, nr+i] phi(t+rho-q)

are compactly supported on [-rho+s+1, mu+s] and give perfect reconstruction
of every element of V(phi) from its derivative samples.

A kernel set may also carry nodes eps_p, which shift it into the past
(see prediction.modify_kernels):

    Theta~_ni(t) = sum_p a_p Theta_ni(t - eps_p),

again a finite table of shifted copies of phi.  The weights a_p are the
nodes' Lagrange weights (lagrange_weights), so the nodes fix them.  The
two-sided kernels are the case eps = (0,), a = (1,).  A set keeps A and B
(which save_kernels writes and modify_kernels rebuilds from), the
coefficient rows they give, and its nodes; the weights are derived from
the nodes, and the term tables from the rows and the nodes.
"""

from __future__ import annotations

import json
from math import ceil, floor, isfinite

import numpy as np

from .generators import _expand, generator_from_descriptor
from .polyphase import (CIS_THRESHOLD, LaurentMatrix, SamplingScheme, _single_power,
                        det_on_circle)

__all__ = [
    "SingularSamplePointError",
    "KernelSet",
    "lagrange_weights",
    "invert_polyphase",
    "build_kernels",
    "reconstruct",
    "save_kernels",
    "load_kernels",
]


class SingularSamplePointError(RuntimeError):
    """det Psi vanished (or nearly) where the inversion evaluated it."""


def invert_polyphase(psi: LaurentMatrix) -> LaurentMatrix | None:
    """Psi(x)^{-1} as a Laurent matrix, or None when it is not one.

    When no column q of Psi carries more than one power e_q
    (polyphase._single_power), Psi(z) = M diag(z^{e_q}), so
    det Psi = det M z^{sum e_q} is a monomial and Psi^{-1} = diag(z^{-e_q})
    M^{-1}: row q of M^{-1} is the coefficient of z^{-e_q}.  build_polyphase
    gives this shape for every scheme with offsets in one cell and
    rho >= mu, because the generators vanish exactly off (0, mu); the
    powers of a CIS are then {-1, 0} (rho > mu leaves a zero column, so
    det M = 0).

    Otherwise det Psi is not a monomial, so det Psi^{-1} = 1/det Psi is not
    a Laurent polynomial and neither is Psi^{-1}: None is returned, which
    build_kernels refuses.  Raises SingularSamplePointError when
    det_on_circle's minimum (|det M| for a single-power Psi) is at most
    CIS_THRESHOLD.
    """
    min_abs, argmin = det_on_circle(psi)
    if min_abs <= CIS_THRESHOLD:
        raise SingularSamplePointError(
            f"|det Psi({argmin})| = {min_abs:.3e}, scheme is not a CIS")
    single = _single_power(psi)
    if single is None:
        return None
    M, e = single
    inv = np.linalg.inv(M)
    return LaurentMatrix(psi.dim, {-k: np.where((e == k)[:, None], inv, 0.0)
                                   for k in sorted(set(e.tolist()))})


# Nodes of the unshifted, two-sided kernels, whose one weight is 1.
_TWO_SIDED = (0.0,)


def lagrange_weights(epsilons) -> list:
    """Weights a_p = prod_{q != p} eps_q / (eps_q - eps_p).

    The unique solution of sum_p a_p (-eps_p)^j = delta_{j0} for
    j = 0..len-1.  Nodes must be finite, strictly increasing and nonzero.
    A float is a dyadic rational, so one power of two scales every node
    to an integer N_q, and a_p = prod_{q != p} N_q / prod_{q != p} (N_q - N_p)
    is a quotient of two exact integer products, rounded once (int / int
    is correctly rounded).  So nodes whose weights are representable
    (integers in particular) give them without rounding error.
    """
    eps = [float(e) for e in epsilons]
    if not all(isfinite(e) for e in eps):
        raise ValueError("epsilon nodes must be finite")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon nodes must be strictly increasing")
    if any(e == 0.0 for e in eps):
        raise ValueError("epsilon nodes must be nonzero")
    ratios = [e.as_integer_ratio() for e in eps]
    scale = max((d for _, d in ratios), default=1)   # each d divides it
    nodes = [n * (scale // d) for n, d in ratios]
    out = []
    for p, node in enumerate(nodes):
        num = den = 1
        for q, other in enumerate(nodes):
            if q != p:
                num *= other
                den *= other - node
        out.append(num / den)
    return out


def _causal_weights(eps: tuple, rho: int) -> tuple:
    """The Lagrange weights of causal nodes: rho finite, strictly increasing,
    nonzero nodes from eps_0 >= rho, so that the shifted kernels read past
    samples only (ValueError otherwise)."""
    if len(eps) != rho:
        raise ValueError(f"need exactly rho = {rho} epsilon nodes, got {len(eps)}")
    wts = tuple(lagrange_weights(eps))
    if eps[0] < rho:
        raise ValueError(f"eps0 = {eps[0]} < rho = {rho}: shifted kernels "
                         "would not be causal")
    return wts


class KernelSet:
    """Compactly supported interpolating kernels for one scheme.

    With nodes eps other than the default (0,), the kernels are the causal
    sum_p a_p Theta_ni(t - eps_p), with a_p the nodes' Lagrange weights;
    such nodes must be rho strictly increasing ones from eps_0 >= rho
    (ValueError otherwise).
    """

    def __init__(self, gen, scheme: SamplingScheme, A: np.ndarray, B: np.ndarray,
                 epsilons=_TWO_SIDED):
        rho = scheme.rho
        s = scheme.s
        if s is None:
            raise ValueError("kernel synthesis needs offsets in a single cell")
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != (rho, rho) or B.shape != (rho, rho):
            raise ValueError("A and B must be rho x rho")
        # row q of A multiplies phi(t - q), row q of B phi(t - (q - rho)); a
        # row outside the cell's shifts is refused, even one the kernels
        # would ignore, since save_kernels would write it back
        if A[s + 1:].any() or B[:s + 1].any():
            outside = [q - rho for q in range(s + 1) if B[q].any()] + [
                q for q in range(s + 1, rho) if A[q].any()]
            raise ValueError(
                "the kernels would need phi(t - k) at k = "
                f"{', '.join(map(str, outside))}, outside the shifts "
                f"{s + 1 - rho}..{s} that offsets in the cell [{s}, {s + 1}) "
                "allow; choose other scheme.offsets or scheme.r")
        eps = tuple(float(e) for e in epsilons)
        wts = (1.0,) if eps == _TWO_SIDED else _causal_weights(eps, rho)
        self.gen = gen
        self.scheme = scheme
        self.A = A
        self.B = B
        self.epsilons = eps
        self.weights = wts
        self.support = (float(-rho + s + 1) + eps[0], float(gen.mu + s) + eps[-1])
        # _coef[n, i, k]: coefficient of phi(t - _k0 - k) in Theta_ni
        self._k0 = s + 1 - rho
        self._coef = np.concatenate([B[s + 1:], A[:s + 1]]).T.reshape(
            scheme.L, scheme.r, rho)

    def term_table(self, n: int, i: int):
        """Pairs (shifts, coefs) with K_ni(t) = sum coefs * phi(t - shifts):
        the nonzero terms of shifts 0..s, then s+1-rho..-1, node by node."""
        row = self._coef[n, i]
        k = np.roll(np.arange(self.scheme.rho), self._k0)
        k = k[row[k] != 0.0]
        return (np.concatenate([self._k0 + k + e for e in self.epsilons]),
                np.concatenate([a * row[k] for a in self.weights]))

    def kernel(self, n: int, i: int, t):
        """K_ni(t) from its coefficient row."""
        if not 0 <= n < self.scheme.L or not 0 <= i < self.scheme.r:
            raise IndexError(f"kernel index ({n}, {i}) out of range")
        out = _expand(self.gen, self._coef[n, i], self._k0, self.epsilons,
                      self.weights, t)
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return (f"KernelSet(gen={self.gen!r}, scheme={self.scheme!r}, "
                f"epsilons={self.epsilons}, support={self.support})")


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

    source is a map (n, i, l) -> f^(i)((x_n + rho l)/W) or a signal, an
    object with .eval(t, i) that receives all the sample times of a channel
    as one array; anything else raises TypeError.  A map that lacks a
    sample raises KeyError.
    """
    is_map = isinstance(source, dict)
    if not (is_map or hasattr(source, "eval")):
        raise TypeError("samples must be a map (n, i, l) -> value or a signal "
                        f"with .eval(t, i), not {type(source).__name__}")
    scheme = ks.scheme
    rho = scheme.rho
    out = np.empty((scheme.L, scheme.r, len(periods)))
    for n, x in enumerate(scheme.offsets):
        times = (x + rho * periods) / W
        for i in range(scheme.r):
            if is_map:
                try:
                    vals = [source[n, i, l] for l in periods.tolist()]
                except KeyError as exc:
                    raise KeyError(f"missing sample for offset {x}, derivative "
                                   f"{i}, period {exc.args[0][2]}") from None
            else:
                vals = source.eval(times, i)
            out[n, i] = np.asarray(vals, dtype=float) * W ** (-i)
    return out


def _series_coefs(ks, samples: np.ndarray, periods: np.ndarray):
    """(b, start) with the sampling series equal to
    sum_j b[..., j] phi(W t - start - j) on the given periods, from the
    samples[..., n, i, l] that `_samples` gives; leading axes hold further
    series, each with its own coefficients.

    The channels are summed into b[..., rho l + k] one by one, elementwise,
    so a period's coefficients do not depend on the other periods, nor a
    series' on the other series.
    """
    rho = ks.scheme.rho
    f = samples.reshape(samples.shape[:-3] + (rho, len(periods)))
    b = np.zeros(f.shape[:-2] + (len(periods), rho))
    for q, c in enumerate(ks._coef.reshape(rho, rho)):
        b += f[..., q, :, None] * c
    start = ks._k0 + rho * int(periods[0]) if periods.size else 0
    return b.reshape(f.shape[:-2] + (-1,)), start


def _series_eval(ks, source, W: float, t):
    """The sampling series sum_l sum_{n,i} W^-i f^(i)((x_n + rho l)/W)
    K_ni(W t - rho l) at t: a float for a scalar t, else an array.  W must
    be positive (ValueError otherwise).

    source is a map or a signal, as `_samples` reads it; the samples are taken
    over the periods whose closed window holds some W t (`_periods`), made
    into one coefficient sequence (`_series_coefs`) and expanded against
    the nodes (`_expand`).  The points may come in any order, and each is
    evaluated as a 1-element batch would be.
    """
    if W <= 0:
        raise ValueError("W must be positive")
    arr = np.asarray(t, dtype=float)
    wt = W * np.atleast_1d(arr)
    periods = _periods(ks, wt)
    b, start = _series_coefs(ks, _samples(ks, source, W, periods), periods)
    out = _expand(ks.gen, b, start, ks.epsilons, ks.weights, wt)
    return float(out[0]) if arr.ndim == 0 else out


def build_kernels(gen, scheme: SamplingScheme,
                  inv: LaurentMatrix | None) -> KernelSet:
    """Assemble the kernel set from the inverse polyphase coefficients; None
    (no Laurent inverse) and powers outside {-1, 0} are refused, and
    KernelSet refuses kernel shifts outside the window of the offsets' cell."""
    if inv is None:
        raise ValueError("det Psi is not a monomial, so Psi has no Laurent "
                         "inverse; kernels would not be compactly supported")
    stray = [k for k in inv.powers() if k not in (-1, 0)]
    if stray:
        raise ValueError(f"inverse has coefficients at {len(stray)} powers "
                         f"outside {{-1, 0}}, from {stray[0]} to {stray[-1]}; "
                         "kernels would not be compactly supported")
    return KernelSet(gen, scheme, inv.coeff(0), inv.coeff(-1))


def reconstruct(ks: KernelSet, samples: dict, t):
    """Sum of sampled data against the kernels: recovers f on V(phi).

    The W = 1 case of the sampling series (`_series_eval`).  samples maps
    (n, i, l) to f^{(i)}(x_n + rho l).  Every l whose closed kernel window
    [lo, hi] + rho l holds some evaluation point must be present; missing
    entries raise KeyError rather than being treated as zero.
    """
    return _series_eval(ks, samples, 1.0, t)


def save_kernels(ks: KernelSet, path):
    """Write the kernel set as JSON with full-precision decimal entries; the
    nodes are written only for a shifted set, and its weights with them as
    information (load_kernels derives them from the nodes)."""
    doc = {
        "scheme": {"offsets": list(ks.scheme.offsets), "r": ks.scheme.r},
        "generator": ks.gen.descriptor(),
        "A": [[float(v) for v in row] for row in ks.A],
        "B": [[float(v) for v in row] for row in ks.B],
    }
    if ks.epsilons != _TWO_SIDED:
        doc["epsilons"] = list(ks.epsilons)
        doc["weights"] = list(ks.weights)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_kernels(path) -> KernelSet:
    """The kernel set save_kernels wrote; nodes read from the file are
    checked, and their weights derived, as for any shifted set."""
    with open(path) as fh:
        doc = json.load(fh)
    gen = generator_from_descriptor(doc["generator"])
    scheme = SamplingScheme(tuple(doc["scheme"]["offsets"]), doc["scheme"]["r"])
    return KernelSet(gen, scheme, np.array(doc["A"]), np.array(doc["B"]),
                     doc.get("epsilons", _TWO_SIDED))
