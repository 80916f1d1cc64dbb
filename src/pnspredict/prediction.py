"""Causal prediction from past samples.

Replacing each kernel Theta_ni by the weighted shift combination

    Theta~_ni(t) = sum_p a_p Theta_ni(t - eps_p),   eps_0 >= rho,

moves the kernel support into (0, oo), so the operator

    (S~_W f)(t) = sum_{l in Omega_t} sum_i sum_n W^{-i}
                  f^{(i)}((x_n + rho l)/W) Theta~_ni(W t - rho l)

uses only samples taken strictly before t.  The weights a_p solve a
Vandermonde system that preserves the polynomial reproduction order.
Theta~ is again a KernelSet (one carrying the nodes and weights), and S~_W
is the same sampling series as the two-sided operator, read from past
bursts only.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, factorial, floor, prod

import numpy as np

from .approximation import _series_eval
from .kernels import KernelSet

__all__ = [
    "lagrange_weights",
    "equally_spaced_weights",
    "modify_kernels",
    "past_window",
    "window_bound",
    "predict",
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


def modify_kernels(ks: KernelSet, epsilons, weights=None) -> KernelSet:
    """Shift the kernels into the past; weights default to lagrange_weights.

    The result is built from the A and B of ks, so nodes ks already carries
    are replaced, not compounded.  It needs rho strictly increasing nodes
    with eps_0 >= rho and weights that solve the moment equation
    sum_p a_p (-eps_p)^j = delta_{j0}, j < rho; ValueError otherwise.
    """
    if weights is None:
        weights = lagrange_weights(epsilons)
    return KernelSet(ks.gen, ks.scheme, ks.A, ks.B, epsilons, weights)


def past_window(scheme, ps: KernelSet, W: float, t: float) -> set:
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


def window_bound(ps: KernelSet) -> int:
    """Upper bound 2 + floor((mu - 1 + eps_last - eps_0)/rho) on |Omega_t|."""
    mu = ps.gen.mu
    rho = ps.scheme.rho
    return 2 + floor((mu - 1 + ps.epsilons[-1] - ps.epsilons[0]) / rho)


def predict(ps: KernelSet, samples, W: float, t: float) -> float:
    """Causal predictor value (S~_W f)(t) from past samples only.

    samples may be a map (n, i, l) -> value, a signal object with
    .eval(t, i), a sequence of per-derivative callables, or a bare callable
    when r = 1; callables take arrays.  A map must hold every period of
    past_window.  The value equals approx_operator(ps, samples, W, t).
    """
    if W <= 0:
        raise ValueError("W must be positive")
    return float(_series_eval(ps, samples, W, np.array([float(t)]))[0])
