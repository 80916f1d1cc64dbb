"""Approximation operator, error norms, and convergence studies.

(S_W f)(t) = sum_l sum_i sum_n W^{-i} f^{(i)}((x_n + rho l)/W)
             K_ni(W t - rho l)

covers both the two-sided operator (K = Theta) and the causal predictor
(K = Theta~); the kernel object supplies its support, rows and nodes.
Reconstruction (kernels.reconstruct) is its W = 1 case, and the causal
predictor (prediction.predict) reads it at one point.  All of them go
through `kernels._series_eval`, which sums over the periods l whose
closed kernel window [lo, hi] + rho l holds W t (`kernels._periods`).

Every Theta_ni is a row of rho coefficients against consecutive integer
shifts of phi, so S_W f is a channel sum followed by one pass per class of
nodes that share a fractional part (one class for db3_r1, four for the
quartic predictors with nodes 4 + p/4): the samples come from one
vectorised signal.eval per channel (n, i), and each point reads ceil(mu)
unit pieces of phi per class (`generators._expand`).  A point's value
depends on its own t only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, floor, isfinite

import numpy as np

from .generators import _BLOCK
from .kernels import _series_eval

__all__ = [
    "TestSignal",
    "ConvergenceReport",
    "builtin_signal",
    "approx_operator",
    "lp_error",
    "convergence_study",
]


@dataclass(frozen=True)
class TestSignal:
    """A named signal with derivative evaluators, the window (a, b) where
    lp_error and the predict traces read it, and the t where f may jump or
    kink (its breaks, which lp_error takes as panel edges)."""

    __test__ = False   # keep pytest collection away from the Test prefix

    name: str
    derivs: tuple
    interval: tuple = (-8.0, 10.0)
    # sorted; a signal.file's are its t column, an array, hence no compare
    breaks: tuple = field(default=(), compare=False)

    def eval(self, t, i: int = 0):
        if not 0 <= i < len(self.derivs):
            raise ValueError(f"signal {self.name!r} provides derivatives "
                             f"up to order {len(self.derivs) - 1}, asked for {i}")
        return self.derivs[i](t)

    @property
    def f(self):
        return self.derivs[0]


def _smooth_f(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-t * t / 4.0) * np.sin(2.0 * np.pi * t)


def _smooth_f1(t):
    t = np.asarray(t, dtype=float)
    env = np.exp(-t * t / 4.0)
    return env * (2.0 * np.pi * np.cos(2.0 * np.pi * t)
                  - 0.5 * t * np.sin(2.0 * np.pi * t))


def _smooth_f2(t):
    t = np.asarray(t, dtype=float)
    env = np.exp(-t * t / 4.0)
    return env * ((0.25 * t * t - 4.0 * np.pi ** 2 - 0.5) * np.sin(2.0 * np.pi * t)
                  - 2.0 * np.pi * t * np.cos(2.0 * np.pi * t))


def _jump_g(t):
    t = np.asarray(t, dtype=float)
    return np.where((t > -1.5) & (t < 3.0), -0.5 * t ** 3 + 2.0, 0.0)


def builtin_signal(name: str) -> TestSignal:
    """Built-in test signals: "f" (smooth Gaussian-windowed sine) and "g"
    (cubic with jump discontinuities at -1.5 and 3)."""
    if name in ("f", "smooth"):
        return TestSignal("f", (_smooth_f, _smooth_f1, _smooth_f2))
    if name in ("g", "jump"):
        return TestSignal("g", (_jump_g,), (-4.0, 6.0), (-1.5, 3.0))
    raise ValueError(f"unknown built-in signal {name!r}")


def approx_operator(kset, signal: TestSignal, W: float, t):
    """Value of the sampling series S_W f at t (scalar or array); W must be
    positive (ValueError otherwise)."""
    return _series_eval(kset, signal, W, t)


# Errors below this are rounding noise: relative changes and slopes mean nothing.
_NOISE_FLOOR = 1e3 * np.finfo(float).eps
# lp_error stops when its error estimate is at most this share of the value.
_REL_TOL = 1e-3


@lru_cache(maxsize=None)
def _gauss(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], from
    the eigenvectors of its Jacobi matrix (Golub-Welsch); made once per n."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    rule = (x + 1.0) / 2.0, v[0] ** 2
    for arr in rule:
        arr.flags.writeable = False     # shared by every call
    return rule


def _breakpoint_panels(kset, signal, W, a, b, per_block: int):
    """Panels (lo, h) of [a, b], about per_block of them at a time, whose
    edges are a, b and, between them, the breakpoints (k + delta)/W of the
    series (delta over the nodes' fractional parts: where W t - eps_p meets
    an integer knot of phi) and the signal's breaks, sorted and distinct."""
    frac = np.array(sorted({e - floor(e) for e in kset.epsilons}))
    cells = max(per_block // len(frac), 1)
    breaks = np.sort(np.asarray(signal.breaks, dtype=float))
    k = floor(W * a - frac[0])      # (k + frac[0]) / W <= a
    lo = a
    while lo < b:
        knots = ((np.arange(k, k + cells)[:, None] + frac) / W).ravel()
        # the block ends at the next block's first knot
        hi = min((k + cells + frac[0]) / W, b)
        inner = breaks[np.searchsorted(breaks, lo, "right"):
                       np.searchsorted(breaks, hi, "left")]
        edges = np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], inner, [hi]])
        edges.sort()
        edges = edges[np.concatenate([[True], edges[1:] > edges[:-1]])]
        yield edges[:-1], np.diff(edges)
        lo, k = hi, k + cells


def _panel_rules(kset, signal, W, p, lo, h, n):
    """G_n and G_(n+1) of |S_W f - f|^p on each panel [lo, lo + h].

    The panels go through in blocks of _BLOCK // (2n + 1), so every array
    of points is one block.  A difference that is not finite raises
    ValueError naming W and its t, and so does a p-th power that
    overflows."""
    (xa, wa), (xb, wb) = _gauss(n), _gauss(n + 1)
    x = np.concatenate([xa, xb])
    lower, upper = np.empty(len(lo)), np.empty(len(lo))
    step = max(_BLOCK // len(x), 1)
    for c in range(0, len(lo), step):
        hc = h[c:c + step]
        t = (lo[c:c + step, None] + hc[:, None] * x).ravel()   # panel by panel
        d = _series_eval(kset, signal, W, t)
        d -= np.asarray(signal.eval(t), dtype=float)
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise ValueError(f"lp_error at W = {W:g} is not finite: S_W f - f is "
                             f"{d[bad[0]]:g} at t = {t[bad[0]]:g}")
        np.abs(d, out=d)
        d **= p
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise ValueError(f"lp_error at W = {W:g} is not finite: |S_W f - f|^p "
                             f"overflows at t = {t[bad[0]]:g}")
        d = d.reshape(len(hc), len(x))
        lower[c:c + step] = hc * (d[:, :n] @ wa)
        upper[c:c + step] = hc * (d[:, n:] @ wb)
    return lower, upper


def _panel_sums(kset, signal, W, p, a, b, n, per_block, share):
    """Sums over the breakpoint panels of [a, b] of the finer rule and of
    the two rules' differences, each panel halved, up to three times,
    while its difference is above share times its width; and the number
    of panels still above it."""
    total = error = 0.0
    unsettled = 0
    for lo, h in _breakpoint_panels(kset, signal, W, a, b, per_block):
        lower, upper = _panel_rules(kset, signal, W, p, lo, h, n)
        for halvings in range(4):
            est = np.abs(upper - lower)
            split = est > share * h
            if halvings == 3 or not split.any():
                total += float(upper.sum())
                error += float(est.sum())
                unsettled += int(np.count_nonzero(split))
                break
            total += float(upper[~split].sum())
            error += float(est[~split].sum())
            half = h[split] / 2.0
            lo = np.concatenate([lo[split], lo[split] + half])
            h = np.concatenate([half, half])
            lower, upper = _panel_rules(kset, signal, W, p, lo, h, n)
    return total, error, unsettled


def lp_error(kset, signal: TestSignal, W: float, p: float = 2.0) -> float:
    """L^p norm of S_W f - f by Gauss-Legendre panels on the breakpoints.

    The interval is the signal's window (signal.interval) extended by one
    kernel support width.  Its panels end at the series' breakpoints and
    the signal's breaks (signal.breaks), so for a B-spline Q_m the series
    is one polynomial of degree m - 1 on each.  Every panel gets the n- and
    (n + 1)-point Gauss rules, n = ceil(mu) (m for Q_m), which are exact
    for |S_W f - f|^2 there whenever f is a polynomial of degree below m.
    The integral of |S_W f - f|^p is the sum of the finer rule, and the
    sum of the two rules' differences estimates its error.

    When that estimate is above _REL_TOL = 1e-3 of the value (p times
    that of the integral), a second pass halves, up to three times, every
    panel whose difference is above its share, by width, of the allowed
    error.  If the estimate is still above it, the value is returned with
    a RuntimeWarning (unless it sits at the noise floor, where relative
    changes are rounding).  Each pass runs the panels in blocks and keeps
    running sums only.  A value that is not finite raises ValueError.
    """
    if W <= 0:
        raise ValueError("W must be positive")
    if not (isfinite(p) and p >= 1):
        raise ValueError("p must be a finite real >= 1")
    a, b = signal.interval
    ext = (kset.support[1] - kset.support[0]) / W
    a -= ext
    b += ext
    n = ceil(kset.gen.mu)
    per_block = max(_BLOCK // (2 * n + 1), 1)
    total, error, unsettled = _panel_sums(kset, signal, W, p, a, b, n, per_block,
                                          np.inf)
    # the norm is total^(1/p), and (1 + r)^(1/p) - 1 <= r/p
    allowed = _REL_TOL * p * total
    if error > allowed:
        # a quarter block: three halvings make at most two blocks of panels
        total, error, unsettled = _panel_sums(kset, signal, W, p, a, b, n,
                                              per_block // 4, allowed / (b - a))
    if not isfinite(total):
        raise ValueError(f"lp_error at W = {W:g} is not finite")
    value = total ** (1.0 / p)
    if error > allowed and value > _NOISE_FLOOR:
        warnings.warn(f"lp_error at W = {W:g} did not converge: after three "
                      f"rounds of halving, {unsettled} panels are still above "
                      "their share of the error; the estimate is "
                      f"{error / (p * total):.2e} relative (criterion 1e-3)",
                      RuntimeWarning, stacklevel=2)
    return value


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors per W plus the fitted log-log slope (None when degenerate)."""

    W: tuple
    errors: tuple
    slope: float
    p: float

    @property
    def rows(self):
        return list(zip(self.W, self.errors))

    def __str__(self):
        lines = [f"L^{self.p:g} errors:"]
        lines += [f"  W = {w:g}: {e:.6e}" for w, e in self.rows]
        if self.slope is None:
            lines.append("slope: skipped (errors at noise floor)")
        else:
            lines.append(f"fitted slope: {self.slope:.3f}")
        return "\n".join(lines)


def convergence_study(kset, signal: TestSignal, W_list, p: float = 2.0
                      ) -> ConvergenceReport:
    """Errors over a ladder of W values and the least-squares decay slope.

    W values whose error sits at the noise floor (below 1e3 times machine
    epsilon) are excluded from the fit; if fewer than two remain the slope
    is None.
    """
    Ws = tuple(float(w) for w in W_list)
    if len(Ws) < 3:
        raise ValueError("need at least three W values")
    errors = tuple(lp_error(kset, signal, w, p) for w in Ws)
    pts = [(w, e) for w, e in zip(Ws, errors) if e > _NOISE_FLOOR]
    if len(pts) < 2:
        slope = None
    else:
        lw = np.log([w for w, _ in pts])
        le = np.log([e for _, e in pts])
        slope = float(np.polyfit(lw, le, 1)[0])
    return ConvergenceReport(W=Ws, errors=errors, slope=slope, p=float(p))

