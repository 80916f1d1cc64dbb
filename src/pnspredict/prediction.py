"""Causal prediction from past samples.

Replacing each kernel Theta_ni by the weighted shift combination

    Theta~_ni(t) = sum_p a_p Theta_ni(t - eps_p),   eps_0 >= rho,

moves the kernel support into (0, oo), so the operator

    (S~_W f)(t) = sum_{l in Omega_t} sum_i sum_n W^{-i}
                  f^{(i)}((x_n + rho l)/W) Theta~_ni(W t - rho l)

uses only samples taken strictly before t.  The weights a_p solve a
Vandermonde system that preserves the polynomial reproduction order, so
the nodes fix them (lagrange_weights, kept with KernelSet in `kernels` and
re-exported here).  Theta~ is again a KernelSet (one carrying the nodes),
and S~_W is the same sampling series as the two-sided operator, read from
past bursts only.
"""

from __future__ import annotations

from math import factorial, floor, prod

from .kernels import KernelSet, _periods, _series_eval, lagrange_weights

__all__ = [
    "lagrange_weights",
    "equally_spaced_weights",
    "modify_kernels",
    "past_window",
    "window_bound",
    "predict",
]


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
    """Shift the kernels into the past, with the nodes' Lagrange weights.

    The result is built from the A and B of ks, so nodes ks already carries
    are replaced, not compounded.  It needs rho strictly increasing nodes
    with eps_0 >= rho; ValueError otherwise.  `weights`, when given, must
    be exactly the weights the nodes fix (ValueError otherwise).
    """
    out = KernelSet(ks.gen, ks.scheme, ks.A, ks.B, epsilons)
    if weights is not None and tuple(float(a) for a in weights) != out.weights:
        raise ValueError("weights must be the Lagrange weights of the nodes, "
                         f"{list(out.weights)}")
    return out


def past_window(scheme, ps: KernelSet, W: float, t: float) -> set:
    """Periods l whose samples can contribute to the prediction at t.

    The periods whose closed window [lo, hi] + rho l of Theta~ holds W t
    (`kernels._periods`, the rule the series itself sums over), boundary
    ties included.  rho is read from ps.scheme; `scheme` is accepted for
    the signature's sake.
    """
    if W <= 0:
        raise ValueError("W must be positive")
    return set(_periods(ps, W * t).tolist())


def window_bound(ps: KernelSet) -> int:
    """Upper bound 2 + floor((mu - 1 + eps_last - eps_0)/rho) on |Omega_t|."""
    mu = ps.gen.mu
    rho = ps.scheme.rho
    return 2 + floor((mu - 1 + ps.epsilons[-1] - ps.epsilons[0]) / rho)


def predict(ps: KernelSet, samples, W: float, t: float) -> float:
    """Causal predictor value (S~_W f)(t) from past samples only.

    samples is a map (n, i, l) -> value, which must hold every period of
    past_window, or a signal with .eval(t, i) taking arrays; anything else
    raises TypeError.  W must be positive (ValueError otherwise).  The
    value equals approx_operator(ps, samples, W, t).
    """
    return _series_eval(ps, samples, W, float(t))
