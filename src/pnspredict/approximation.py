"""Approximation operator, error norms, and convergence studies.

(S_W f)(t) = sum_l sum_i sum_n W^{-i} f^{(i)}((x_n + rho l)/W)
             K_ni(W t - rho l)

covers both the two-sided operator (K = Theta) and the causal predictor
(K = Theta~); the kernel object supplies its own support and term table.

Every K_ni is a finite table of shifted copies of phi, so S_W f is itself
one expansion sum_j b_j phi(W t - s_j).  It is evaluated that way: the
samples of all periods come from one vectorised signal.eval per channel
(n, i), the shifts are grouped into classes by their fractional part (one
class for db3_r1, four for the quartic predictors with nodes 4 + p/4),
and each point reads ceil(mu) unit pieces of phi per class
(`generators._expand`).  A point's value depends on its own t only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, comb, isfinite

import numpy as np

from .kernels import _periods, _samples, _series

__all__ = [
    "TestSignal",
    "ConvergenceReport",
    "builtin_signal",
    "approx_operator",
    "lp_error",
    "convergence_study",
    "tau_modulus_estimate",
]


@dataclass(frozen=True)
class TestSignal:
    """A named signal with derivative evaluators and a smoothness tag."""

    __test__ = False   # keep pytest collection away from the Test prefix

    name: str
    derivs: tuple
    smoothness: str = "smooth"

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
        return TestSignal("f", (_smooth_f, _smooth_f1, _smooth_f2), "smooth")
    if name in ("g", "jump"):
        return TestSignal("g", (_jump_g,), "jump")
    raise ValueError(f"unknown built-in signal {name!r}")


def _series_eval(kset, source, W: float, ts: np.ndarray) -> np.ndarray:
    """Evaluate the sampling series at the points ts (any order).

    source is any sample source `kernels._samples` reads; the samples are
    taken over the closed period range of the points.
    """
    wt = W * ts
    periods = _periods(kset, wt)
    return _series(kset, periods, _samples(kset, source, W, periods), wt)


def approx_operator(kset, signal: TestSignal, W: float, t):
    """Value of the sampling series S_W f at t (scalar or array)."""
    if W <= 0:
        raise ValueError("W must be positive")
    arr = np.asarray(t, dtype=float)
    vals = _series_eval(kset, signal, W, np.atleast_1d(arr))
    return float(vals[0]) if arr.ndim == 0 else vals


# Errors below this are rounding noise: relative changes and slopes mean nothing.
_NOISE_FLOOR = 1e3 * np.finfo(float).eps


def _default_interval(signal: TestSignal):
    if signal.smoothness == "jump":
        return (-4.0, 6.0)
    return (-8.0, 10.0)


def _simpson(vals: np.ndarray, h: float) -> float:
    w = np.ones(len(vals))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * (w @ vals))


def _lp_once(kset, signal, W, p, a, b, panels):
    ts = np.linspace(a, b, 2 * panels + 1)
    diff = np.abs(_series_eval(kset, signal, W, ts)
                  - np.asarray(signal.eval(ts), dtype=float))
    return _simpson(diff ** p, ts[1] - ts[0]) ** (1.0 / p)


def lp_error(kset, signal: TestSignal, W: float, p: float = 2.0,
             interval=None, quad_n: int = None) -> float:
    """L^p norm of S_W f - f by composite Simpson quadrature.

    The interval defaults to the signal's mass window extended by one
    kernel support width; quad_n is the number of Simpson panels.  When
    quad_n is omitted the rule starts at step 1/(50 W) and refines until
    doubling changes the result by under 0.1 percent; when three doublings
    do not get there, the last value is returned with a RuntimeWarning
    (unless it sits at the noise floor, where relative changes are rounding).
    """
    if W <= 0:
        raise ValueError("W must be positive")
    if not (isfinite(p) and p >= 1):
        raise ValueError("p must be a finite real >= 1")
    if interval is None:
        interval = _default_interval(signal)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("empty integration interval")
    ext = (kset.support[1] - kset.support[0]) / W
    a -= ext
    b += ext
    if quad_n is not None:
        if quad_n < 1:
            raise ValueError("quad_n must be >= 1")
        return _lp_once(kset, signal, W, p, a, b, int(quad_n))
    panels = ceil(25.0 * W * (b - a))
    value = _lp_once(kset, signal, W, p, a, b, panels)
    for _ in range(3):
        finer = _lp_once(kset, signal, W, p, a, b, 2 * panels)
        change = abs(finer - value) / max(abs(finer), 1e-300)
        if change <= 1e-3:
            return finer
        panels *= 2
        value = finer
    if value > _NOISE_FLOOR:
        warnings.warn(f"lp_error at W = {W:g} did not converge: {panels} Simpson "
                      f"panels still changed the result by {change:.2e} relative "
                      "(criterion 1e-3)", RuntimeWarning, stacklevel=2)
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


def tau_modulus_estimate(signal: TestSignal, r: int, delta: float,
                         p: float, grid) -> float:
    """Averaged modulus of smoothness tau_r(f; delta)_p on a lattice.

    For each grid point x the local modulus sup |Delta_h^r f(t)| is
    maximized over a discretization of the admissible (t, h) with
    t, t + r h inside [x - r delta/2, x + r delta/2]; the discrete L^p
    norm over the grid is returned.  A lower bound of the true modulus.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if r < 1:
        raise ValueError("difference order must be >= 1")
    xs = np.sort(np.asarray(grid, dtype=float).ravel())
    if xs.size < 2:
        raise ValueError("grid must have at least two points")
    if np.diff(xs).max() >= delta / 8.0:
        raise ValueError("grid resolution must be finer than delta/8")
    binom = np.array([(-1.0) ** (r - k) * comb(r, k) for k in range(r + 1)])
    omega = np.zeros_like(xs)
    for h in delta * np.arange(1, 17) / 16.0:
        span = r * (delta - h)
        for frac in np.linspace(0.0, 1.0, 17):
            t0 = xs - r * delta / 2.0 + frac * span
            diff = np.zeros_like(xs)
            for k in range(r + 1):
                diff += binom[k] * np.asarray(signal.eval(t0 + k * h), dtype=float)
            omega = np.maximum(omega, np.abs(diff))
    if np.isinf(p):
        return float(omega.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.trapezoid(omega ** p, xs) ** (1.0 / p))
