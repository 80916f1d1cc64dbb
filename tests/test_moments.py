from math import ceil, comb, factorial, floor

import numpy as np
import pytest

from pnspredict.moments import MomentReport, moment_defects, reproduction_order


def test_moment_defect_degree_zero(kernels_quartic_r1):
    grid = np.linspace(-8.0, 12.0, 161)
    assert moment_defects(kernels_quartic_r1, 0, grid)[0] < 1e-12


def test_moment_defect_validation(kernels_quartic_r1):
    with pytest.raises(ValueError):
        moment_defects(kernels_quartic_r1, -1, [0.0])
    with pytest.raises(ValueError):
        moment_defects(kernels_quartic_r1, 0, [])


def _per_period_defects(ks, degree, grid):
    """Reference: the moment sum of each degree built period by period, each
    kernel summed from its term table in extended precision."""
    ts = np.sort(np.asarray(grid, dtype=float))
    scheme = ks.scheme
    rho = scheme.rho
    lo, hi = ks.support
    work = np.longdouble
    out = []
    for j in range(degree + 1):
        acc = np.zeros(ts.shape, dtype=work)
        for l in range(ceil((ts[0] - hi) / rho), floor((ts[-1] - lo) / rho) + 1):
            inside = (ts > lo + rho * l) & (ts < hi + rho * l)
            tau = ts[inside].astype(work) - work(rho) * l
            for n, x in enumerate(scheme.offsets):
                for i in range(min(j, scheme.r - 1) + 1):
                    shifts, coefs = ks.term_table(n, i)
                    kern = sum(work(c) * ks.gen.eval(tau - work(s))
                               for s, c in zip(shifts, coefs))
                    acc[inside] += (comb(j, i) * factorial(i)
                                    * (work(x) - tau) ** (j - i) * kern)
        out.append(float(np.abs(acc - (j == 0)).max()))
    return out


@pytest.mark.parametrize("name, tol", [
    ("kernels_quartic_r1", 1e-8), ("kernels_hermite", 1e-8),
    ("kernels_db3", 1e-6), ("pred_quartic_r1", 1e-8), ("pred_hermite", 1e-8),
    ("pred_db3", 1e-6)])
def test_defects_match_the_per_period_loop(request, name, tol):
    ks = request.getfixturevalue(name)
    lo, hi = ks.support
    grid = np.linspace(lo - hi, ks.scheme.rho + hi - lo, 257)
    ref = _per_period_defects(ks, 8, grid)
    new = moment_defects(ks, 8, grid)

    def kappa(defects):
        return next((j for j, d in enumerate(defects) if d > tol), len(defects))

    assert kappa(new) == kappa(ref) == reproduction_order(ks, tol).kappa
    for got, want in zip(new, ref):
        if want > 1e-6:
            assert got == pytest.approx(want, rel=1e-3)


def test_reproduction_order_quartic_r1(kernels_quartic_r1):
    rep = reproduction_order(kernels_quartic_r1)
    assert rep.kappa == 4
    assert max(rep.defects[:4]) < 1e-12
    assert rep.defects[4] > 0.1


def test_reproduction_order_hermite(kernels_hermite):
    rep = reproduction_order(kernels_hermite)
    assert rep.kappa == 4
    assert max(rep.defects[:4]) < 1e-12
    assert rep.defects[4] > 0.1


def test_reproduction_order_survives_modification(pred_quartic_r1, pred_hermite):
    # the causal weights preserve the vanishing-moment structure
    for ps in (pred_quartic_r1, pred_hermite):
        rep = reproduction_order(ps)
        assert rep.kappa == 4
        assert max(rep.defects[:4]) < 1e-8


def test_reproduction_order_db3(kernels_db3, pred_db3):
    # three vanishing moments: cubics are not reproduced
    for ks in (kernels_db3, pred_db3):
        rep = reproduction_order(ks, tol=1e-6)
        assert rep.kappa == 3
        assert max(rep.defects[:3]) < 1e-8
        assert rep.defects[3] > 1.0


def test_monomial_cross_checks_agree(kernels_quartic_r1):
    rep = reproduction_order(kernels_quartic_r1)
    assert len(rep.cross_defects) == rep.kappa + 1
    assert max(rep.cross_defects[:4]) < 1e-9
    assert rep.cross_defects[4] > 1e-3


def test_report_formatting(kernels_quartic_r1):
    rep = reproduction_order(kernels_quartic_r1)
    text = str(rep)
    assert "kappa = 4" in text
    assert "degree" in text
    assert isinstance(rep, MomentReport)


def test_reproduction_order_validation(kernels_quartic_r1):
    with pytest.raises(ValueError):
        reproduction_order(kernels_quartic_r1, probe_max=0)
