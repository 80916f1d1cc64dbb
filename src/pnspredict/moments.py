"""The polynomial reproduction order and the vanishing-moment defects.

A kernel set reproduces polynomials of degree < kappa exactly when the
generalized moment sums

    sum_i C(j,i) i! sum_{l,n} (x_n + rho l - t)^{j-i} Theta_ni(t - rho l)

equal delta_{j0} for every j < kappa.  kappa comes from the Strang-Fix
order of phi; the defects of degrees 0..kappa are measured together on one
period (the moment sums are rho-periodic in t), each kernel evaluated once
on the whole grid of t - rho l.  The W = 1 sampling operator applied to
monomials on the same grid witnesses kappa.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .generators import _expand
from .kernels import _TWO_SIDED, _periods, _series_coefs

__all__ = ["MomentReport", "moment_defects", "reproduction_order"]


@dataclass(frozen=True)
class MomentReport:
    """Reproduction order kappa plus, for j = 0..kappa, the moment defect
    defects[j] and the relative error cross_defects[j] of the W = 1 operator
    applied to t^j."""

    kappa: int
    defects: tuple
    cross_defects: tuple

    def __str__(self):
        lines = [f"reproduction order kappa = {self.kappa}",
                 "degree  defect        monomial check"]
        for j, (d, cross) in enumerate(zip(self.defects, self.cross_defects)):
            lines.append(f"{j:6d}  {d:.6e}  {cross:.3e}")
        return "\n".join(lines)


def moment_defects(ks, degree: int, t_grid) -> tuple:
    """Moment defects of degrees 0..degree: for each j, the max over t_grid
    of |moment sum of degree j minus delta_{j0}|.

    Every kernel is read in one `_expand` of all the coefficient rows, each
    row as KernelSet.kernel reads it, on the (t, l) grid of t - rho l over
    the periods whose window holds some t (`_periods`), and feeds the sums
    of all degrees; a kernel is 0 off its window, so the other columns add
    zeros.  Everything is float64.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    ts = np.asarray(t_grid, dtype=float).ravel()
    if ts.size == 0:
        raise ValueError("t_grid must be nonempty")
    scheme = ks.scheme
    rho = scheme.rho
    tau = ts[:, None] - rho * _periods(ks, ts)
    kernels = _expand(ks.gen, ks._coef.reshape(rho, rho).T, ks._k0, ks.epsilons,
                      ks.weights, tau).reshape(tau.shape + (scheme.L, scheme.r))
    acc = np.zeros((degree + 1, ts.size))
    for n, x in enumerate(scheme.offsets):
        diff = x - tau
        for i in range(min(degree, scheme.r - 1) + 1):
            term = kernels[..., n, i]
            for j in range(i, degree + 1):
                acc[j] += (comb(j, i) * factorial(i)) * term.sum(axis=1)
                term = term * diff
    acc[0] -= 1.0
    return tuple(float(d) for d in np.abs(acc).max(axis=1))


def _monomial_cross_checks(ks, degree: int, ts) -> tuple:
    """Relative errors over ts of the W = 1 operator applied to t^j, for
    j = 0..degree: the samples of every degree in one array, made into one
    coefficient column per degree (`_series_coefs`) and expanded together.

    The sample of channel i of t^j at t = x_n + rho l is
    j!/(j - i)! t^(j - i) (0 for i > j), with each power of t taken once.
    """
    scheme = ks.scheme
    periods = _periods(ks, ts)
    times = np.asarray(scheme.offsets)[:, None] + scheme.rho * periods
    powers = [times ** k for k in range(degree + 1)]
    samples = np.zeros((degree + 1, scheme.L, scheme.r, len(periods)))
    for j in range(degree + 1):
        for i in range(min(j, scheme.r - 1) + 1):
            samples[j, :, i] = factorial(j) / factorial(j - i) * powers[j - i]
    b, start = _series_coefs(ks, samples, periods)
    vals = _expand(ks.gen, b.T, start, ks.epsilons, ks.weights, ts)
    out = []
    for j in range(degree + 1):
        exact = ts ** j
        err = np.abs(vals[:, j] - exact).max()
        out.append(float(err) / max(1.0, float(np.abs(exact).max())))
    return tuple(out)


def reproduction_order(ks, tol: float = 1e-8) -> MomentReport:
    """kappa by Strang-Fix, with the defects and monomial checks of degrees
    0..kappa (kappa, the first degree not reproduced, included), both on
    one period of t.

    A two-sided set on a CIS is exact on V(phi), so it reproduces what the
    shifts of phi do: kappa = gen.approx_order.  The causal set's W = 1
    operator is sum_p a_p (S f)(t - eps_p), which keeps degree j when
    sum_p a_p (-eps_p)^j = delta_j0: the weights KernelSet derives from the
    nodes solve this for j < rho by construction, and at j = rho the sum is
    -prod eps_p != 0, so kappa = min(approx_order, rho).

    No tolerance decides kappa; tol only sets the guard.  A monomial check
    above max(100 tol, 1e-6) below kappa warns (RuntimeWarning), as it does
    for kernels that do not come from a CIS.
    """
    kappa = ks.gen.approx_order
    if ks.epsilons != _TWO_SIDED:
        kappa = min(kappa, ks.scheme.rho)
    grid = np.linspace(0.0, ks.scheme.rho, 65)
    defects = moment_defects(ks, kappa, grid)
    cross = _monomial_cross_checks(ks, kappa, grid)
    for j in range(kappa):
        if cross[j] > max(100.0 * tol, 1e-6):
            warnings.warn(f"degree {j} < kappa = {kappa}, but the monomial check "
                          f"gives {cross[j]:.2e} (moment defect {defects[j]:.2e})",
                          RuntimeWarning, stacklevel=2)
    return MomentReport(kappa=kappa, defects=defects, cross_defects=cross)
