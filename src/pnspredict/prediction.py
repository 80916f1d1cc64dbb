"""Causal prediction from past samples.

Replacing each kernel Theta_ni by the weighted shift combination

    Theta~_ni(t) = sum_p a_p Theta_ni(t - eps_p),   eps_0 >= rho,

moves the kernel support into (0, oo), so the operator

    (S~_W f)(t) = sum_{l in Omega_t} sum_i sum_n W^{-i}
                  f^{(i)}((x_n + rho l)/W) Theta~_ni(W t - rho l)

uses only samples taken strictly before t.  The weights a_p solve a
Vandermonde system that preserves the polynomial reproduction order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, factorial, floor, fsum, prod

import numpy as np

from .kernels import KernelSet, _kernel_values, kernel_doc, kernels_from_doc

__all__ = [
    "PredictionScheme",
    "lagrange_weights",
    "equally_spaced_weights",
    "modify_kernels",
    "past_window",
    "window_bound",
    "predict",
    "save_prediction",
    "load_prediction",
]


def lagrange_weights(epsilons) -> list:
    """Weights a_p = prod_{q != p} eps_q / (eps_q - eps_p).

    The unique solution of sum_p a_p (-eps_p)^j = delta_{j0} for
    j = 0..len-1.  Nodes must be strictly increasing and nonzero.
    The products are carried in exact rational arithmetic, so nodes
    whose weights are representable (integers in particular) come out
    without rounding error.
    """
    eps = [float(e) for e in epsilons]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon nodes must be strictly increasing")
    if any(e == 0.0 for e in eps):
        raise ValueError("epsilon nodes must be nonzero")
    nodes = [Fraction(e) for e in eps]
    out = []
    for p, node in enumerate(nodes):
        w = Fraction(1)
        for q, other in enumerate(nodes):
            if q != p:
                w *= other / (other - node)
        out.append(float(w))
    return out


def equally_spaced_weights(eps0: float, d: float, rho: int) -> list:
    """Closed form of lagrange_weights for the nodes eps_p = eps0 + p*d.

    With d0 = eps0/d the weights are
    (-1)^p / (p! (rho-1-p)! (d0+p)) * prod_{k=0}^{rho-1} (d0 + k).
    """
    if d <= 0:
        raise ValueError("spacing must be positive")
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    rho = int(rho)
    if rho < 1:
        raise ValueError("rho must be >= 1")
    d0 = eps0 / d
    rising = prod(d0 + k for k in range(rho))
    return [(-1) ** p * rising / (factorial(p) * factorial(rho - 1 - p) * (d0 + p))
            for p in range(rho)]


class PredictionScheme:
    """A kernel set shifted into the past: Theta~ supported in (0, oo)."""

    def __init__(self, base: KernelSet, epsilons, weights):
        eps = tuple(float(e) for e in epsilons)
        wts = tuple(float(a) for a in weights)
        rho = base.scheme.rho
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
        self.base = base
        self.epsilons = eps
        self.weights = wts
        self.support = (base.support[0] + eps[0], base.support[1] + eps[-1])
        self._terms = {}
        for (n, i), (shifts, coefs) in base._terms.items():
            full_shifts = np.concatenate([shifts + e for e in eps]) if len(shifts) \
                else np.zeros(0)
            full_coefs = np.concatenate([a * coefs for a in wts]) if len(coefs) \
                else np.zeros(0)
            self._terms[n, i] = (full_shifts, full_coefs)

    @property
    def scheme(self):
        return self.base.scheme

    @property
    def gen(self):
        return self.base.gen

    def term_table(self, n: int, i: int):
        shifts, coefs = self._terms[n, i]
        return shifts.copy(), coefs.copy()

    def kernel(self, n: int, i: int, t):
        return _kernel_values(self, n, i, t)

    def __repr__(self):
        return (f"PredictionScheme(epsilons={self.epsilons}, "
                f"support={self.support})")


def modify_kernels(ks: KernelSet, epsilons, weights=None) -> PredictionScheme:
    """Shift the kernels into the past; weights default to lagrange_weights."""
    if weights is None:
        weights = lagrange_weights(epsilons)
    return PredictionScheme(ks, epsilons, weights)


def past_window(scheme, ps: PredictionScheme, W: float, t: float) -> set:
    """Periods l whose samples can contribute to the prediction at t.

    Solves lo <= W*t - rho*l <= hi for the support [lo, hi] of Theta~;
    boundary ties are included (the kernel vanishes there anyway).
    """
    if W <= 0:
        raise ValueError("W must be positive")
    lo, hi = ps.support
    rho = scheme.rho
    l_min = ceil((W * t - hi) / rho)
    l_max = floor((W * t - lo) / rho)
    return set(range(l_min, l_max + 1))


def window_bound(ps: PredictionScheme) -> int:
    """Upper bound 2 + floor((mu - 1 + eps_last - eps_0)/rho) on |Omega_t|."""
    mu = ps.gen.mu
    rho = ps.scheme.rho
    return 2 + floor((mu - 1 + ps.epsilons[-1] - ps.epsilons[0]) / rho)


def _sample_value(samples, n: int, i: int, l: int, time: float) -> float:
    if isinstance(samples, dict):
        key = (n, i, l)
        if key not in samples:
            raise KeyError(f"missing sample for offset index {n}, "
                           f"derivative {i}, period {l}")
        return float(samples[key])
    if hasattr(samples, "eval"):
        return float(samples.eval(time, i))
    if isinstance(samples, (list, tuple)):
        return float(samples[i](time))
    if callable(samples):
        if i != 0:
            raise TypeError("a bare callable provides no derivatives; pass a "
                            "sequence of callables or a signal object")
        return float(samples(time))
    raise TypeError(f"unsupported sample source {type(samples).__name__}")


def predict(ps: PredictionScheme, samples, W: float, t: float) -> float:
    """Causal predictor value (S~_W f)(t) from past samples only.

    samples may be a map (n, i, l) -> value, a signal object with
    .eval(t, i), a sequence of per-derivative callables, or a bare callable
    when r = 1.
    """
    if W <= 0:
        raise ValueError("W must be positive")
    scheme = ps.scheme
    rho = scheme.rho
    total = 0.0
    for l in sorted(past_window(scheme, ps, W, t)):
        tau = W * t - rho * l
        for n, x in enumerate(scheme.offsets):
            time = (x + rho * l) / W
            for i in range(scheme.r):
                v = _sample_value(samples, n, i, l, time)
                if v != 0.0:
                    total += W ** (-i) * v * ps.kernel(n, i, tau)
    return total


def save_prediction(ps: PredictionScheme, path):
    """Serialize base kernels plus epsilon nodes and weights as JSON."""
    doc = kernel_doc(ps.base)
    doc["epsilons"] = [float(e) for e in ps.epsilons]
    doc["weights"] = [float(a) for a in ps.weights]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_prediction(path) -> PredictionScheme:
    with open(path) as fh:
        doc = json.load(fh)
    base = kernels_from_doc(doc)
    return PredictionScheme(base, doc["epsilons"], doc["weights"])
