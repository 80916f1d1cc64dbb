"""Vanishing-moment checks and the polynomial reproduction order.

A kernel set reproduces polynomials of degree < kappa exactly when the
generalized moment sums

    sum_i C(j,i) i! sum_{l,n} (x_n + rho l - t)^{j-i} Theta_ni(t - rho l)

equal delta_{j0} for every j < kappa.  The defects of all degrees are
measured together on a grid spanning one period plus margins (the defect
is rho-periodic in t): each kernel is evaluated once on the whole grid of
t - rho l.  The verdict is cross-checked by applying the W = 1 sampling
operator to monomials.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, factorial, floor

import numpy as np

from .approximation import _series_eval
from .kernels import _kernel_values

__all__ = ["MomentReport", "moment_defects", "reproduction_order"]


@dataclass(frozen=True)
class MomentReport:
    """Reproduction order kappa plus per-degree defects.

    defects[j] is the moment defect of degree j; cross_defects[j] is the
    relative error of the W = 1 operator applied to t^j, probed for j up
    to kappa (inclusive where available).
    """

    kappa: int
    defects: tuple
    cross_defects: tuple
    tol: float

    def __str__(self):
        lines = [f"reproduction order kappa = {self.kappa} (tol {self.tol:g})",
                 "degree  defect        monomial check"]
        for j, d in enumerate(self.defects):
            cross = (f"{self.cross_defects[j]:.3e}"
                     if j < len(self.cross_defects) else "-")
            lines.append(f"{j:6d}  {d:.6e}  {cross}")
        return "\n".join(lines)


def moment_defects(ks, degree: int, t_grid) -> tuple:
    """Moment defects of degrees 0..degree: for each j, the max over t_grid
    of |moment sum of degree j minus delta_{j0}|.

    Every kernel is evaluated once, on the (t, l) grid of the periods l
    whose window can hold t, and feeds the sums of all degrees.  Carried in
    extended precision: modified kernels carry weights in the thousands,
    and the cancellation down to ~1e-9 defects is below the float64 noise
    floor of the naive sum.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    ts = np.asarray(t_grid, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("t_grid must be nonempty")
    scheme = ks.scheme
    rho = scheme.rho
    lo, hi = ks.support
    work = np.longdouble
    # first period whose window reaches t, then as many as a window spans;
    # the kernels vanish exactly at the periods past the last one
    first = np.ceil((ts - hi) / rho)
    periods = first[:, None] + np.arange(floor((hi - lo) / rho) + 1)
    tau = ts.astype(work)[:, None] - work(rho) * periods
    acc = np.zeros((degree + 1, ts.size), dtype=work)
    for n, x in enumerate(scheme.offsets):
        diff = work(x) - tau
        for i in range(min(degree, scheme.r - 1) + 1):
            term = _kernel_values(ks, n, i, tau.ravel()).reshape(tau.shape)
            for j in range(i, degree + 1):
                acc[j] += (comb(j, i) * factorial(i)) * term.sum(axis=1)
                term = term * diff
    acc[0] -= 1.0
    return tuple(float(d) for d in np.abs(acc).max(axis=1))


def _monomial_cross_check(ks, degree: int) -> float:
    """Relative error of the W = 1 operator applied to t^degree."""
    ts = np.linspace(0.0, ks.scheme.rho, 65)
    derivs = [lambda t, i=i: (factorial(degree) / factorial(degree - i)
                              * t ** (degree - i) if i <= degree else 0.0 * t)
              for i in range(ks.scheme.r)]
    approx = _series_eval(ks, derivs, 1.0, ts)
    exact = ts ** degree
    scale = max(1.0, float(np.abs(exact).max()))
    return float(np.abs(approx - exact).max()) / scale


def reproduction_order(ks, tol: float = 1e-8, probe_max: int = 8) -> MomentReport:
    """Largest kappa with moment defects <= tol for every degree < kappa.

    Probes degrees 0..probe_max; a clean sweep reports kappa = probe_max+1.
    The independent monomial check (reproducing t^j through the sampling
    operator itself) is reported alongside and a disagreement warns.
    """
    if probe_max < 1:
        raise ValueError("probe_max must be >= 1")
    lo, hi = ks.support
    width = hi - lo
    rho = ks.scheme.rho
    grid = np.linspace(-width, rho + width, 257)
    defects = moment_defects(ks, probe_max, grid)
    kappa = probe_max + 1
    for j, d in enumerate(defects):
        if d > tol:
            kappa = j
            break
    cross = tuple(_monomial_cross_check(ks, j)
                  for j in range(min(kappa, probe_max) + 1))
    for j in range(kappa):
        if j < len(cross) and cross[j] > max(100.0 * tol, 1e-6):
            warnings.warn(
                f"degree {j}: moment defect {defects[j]:.2e} passes but the "
                f"monomial check gives {cross[j]:.2e}", RuntimeWarning,
                stacklevel=2)
    return MomentReport(kappa=kappa, defects=defects, cross_defects=cross,
                        tol=float(tol))
