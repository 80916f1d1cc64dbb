import warnings
from math import ceil, comb, factorial, floor

import numpy as np
import pytest

from pnspredict import (BSplineGenerator, KernelSet, SamplingScheme, TestSignal,
                        modify_kernels)
from pnspredict.kernels import _periods, _series_eval
from pnspredict.moments import (MomentReport, _monomial_cross_checks, moment_defects,
                               reproduction_order)
from conftest import build_kernel_set


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


def _rounding_bounds(ks, degree, grid):
    """gamma_N max_t B_j(t) for j = 0..degree: the forward error bound of a
    float64 sum of products (Higham 2002, ch. 3-4).

    B_j(t) is the moment sum of degree j with every factor in absolute
    value, read from the term tables.  N counts the products in one moment
    sum and the roundings along one product's path: phi (Horner on the
    rounded coefficients of Q_m, or the Daubechies table's interpolation),
    the weight times the coefficient, the factor C(j,i) i!, t - rho l and
    the j moment factors (a difference and a product each).  The bound
    speaks of phi as evaluated; the defects phi has of its own (the
    Daubechies table's) are not rounding and are not in it.
    """
    ts = np.asarray(grid, dtype=float)
    scheme = ks.scheme
    rho = scheme.rho
    lo, hi = ks.support
    periods = range(ceil((ts.min() - hi) / rho), floor((ts.max() - lo) / rho) + 1)
    phi_path = 2 * ks.gen.m - 1 if isinstance(ks.gen, BSplineGenerator) else 3
    u = np.finfo(float).eps / 2
    out = []
    for j in range(degree + 1):
        big_b = np.zeros(ts.shape)
        products = 0
        for n, x in enumerate(scheme.offsets):
            for i in range(min(j, scheme.r - 1) + 1):
                shifts, coefs = ks.term_table(n, i)
                products += len(periods) * len(shifts)
                for l in periods:
                    tau = ts - rho * l
                    kern = sum(abs(c) * np.abs(ks.gen.eval(tau - s))
                               for s, c in zip(shifts, coefs))
                    big_b += comb(j, i) * factorial(i) * np.abs(x - tau) ** (j - i) * kern
        n_round = products + phi_path + 2 + 1 + 2 * j
        out.append(n_round * u / (1 - n_round * u) * float(big_b.max()))
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
    bound = _rounding_bounds(ks, 8, grid)

    # a degree is reproduced when its defect is within the float64 rounding
    # bound plus tol, what phi and the inverted coefficients miss themselves
    # (the db3 table's degree-2 defect is 4.9e-10 in long double too)
    def kappa(defects):
        return next((j for j, (d, b) in enumerate(zip(defects, bound))
                     if d > b + tol), len(defects))

    assert kappa(new) == kappa(ref) == reproduction_order(ks, tol).kappa
    for got, want in zip(new, ref):
        if want > 1e-6:
            assert got == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("name", [
    "kernels_quartic_r1", "kernels_hermite", "kernels_db3",
    "pred_quartic_r1", "pred_hermite", "pred_db3"])
def test_defects_are_rho_periodic(request, name):
    # the moment sums cover every period whose window holds t, so one
    # period of t is the whole grid, bit for bit
    ks = request.getfixturevalue(name)
    rho = ks.scheme.rho
    grid = np.linspace(0.0, rho, 65)
    rep = reproduction_order(ks)
    assert moment_defects(ks, rep.kappa, grid) == rep.defects
    assert moment_defects(ks, rep.kappa, grid + 3 * rho) == rep.defects
    assert moment_defects(ks, rep.kappa, grid - 2 * rho) == rep.defects


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
    # the causal weights preserve the vanishing-moment structure: below
    # kappa the float64 defects are rounding (degree 3: 1.2e-8 and 7.3e-9,
    # against bounds of 5.1e-6 and 7.1e-6); at kappa they are above 500
    for ps in (pred_quartic_r1, pred_hermite):
        rep = reproduction_order(ps)
        assert rep.kappa == 4
        bound = _rounding_bounds(ps, 4, np.linspace(0.0, ps.scheme.rho, 65))
        for defect, b in zip(rep.defects[:4], bound):
            assert defect <= b
        assert rep.defects[4] > bound[4]


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


@pytest.mark.parametrize("name", ("kernels_hermite", "pred_hermite", "pred_db3",
                                  "pred_quartic_r1_nondyadic"))
def test_one_pass_equals_kernel_by_kernel_and_degree_by_degree(request, name):
    # every kernel and every degree in one expansion, with the same bits as
    # KernelSet.kernel one kernel at a time and the series one degree at a time
    ks = request.getfixturevalue(name)
    degree = ks.gen.approx_order
    ts = np.linspace(0.0, ks.scheme.rho, 65)
    tau = ts[:, None] - ks.scheme.rho * _periods(ks, ts)
    acc = np.zeros((degree + 1, ts.size))
    for n, x in enumerate(ks.scheme.offsets):
        for i in range(min(degree, ks.scheme.r - 1) + 1):
            term = ks.kernel(n, i, tau)
            for j in range(i, degree + 1):
                acc[j] += (comb(j, i) * factorial(i)) * term.sum(axis=1)
                term = term * (x - tau)
    acc[0] -= 1.0
    assert moment_defects(ks, degree, ts) == tuple(np.abs(acc).max(axis=1).tolist())
    cross = []
    for j in range(degree + 1):
        monomial = TestSignal("t^j", tuple(
            lambda t, i=i: (factorial(j) / factorial(j - i) * t ** (j - i)
                            if i <= j else 0.0 * t)
            for i in range(ks.scheme.r)))
        err = np.abs(_series_eval(ks, monomial, 1.0, ts) - ts ** j).max()
        cross.append(float(err) / max(1.0, float(np.abs(ts ** j).max())))
    assert _monomial_cross_checks(ks, degree, ts) == tuple(cross)


def test_report_formatting(kernels_quartic_r1):
    rep = reproduction_order(kernels_quartic_r1)
    text = str(rep)
    assert "kappa = 4" in text
    assert "degree" in text
    assert isinstance(rep, MomentReport)


# Causal sets whose degree-3..5 long-double defects reach 1e-8 to 7e-8:
# read against a tolerance, they gave kappa = 3, 3, 4 and 3.
SWEEP_CAUSAL_SETS = {
    "Q4_r2": (4, 2, (0.6504592762678163, 0.6884467305709401), 4),
    "Q5_r1_a": (5, 1, (0.31024187555895566, 0.4858353588317891,
                       0.5253543224757259, 0.7214883401940817,
                       0.8894878343490003), 5),
    "Q5_r1_b": (5, 1, (0.22715759353337972, 0.33791122550713326,
                       0.39161900052816123, 0.6231871446860424,
                       0.8902743520047923), 5),
    "Q6_r2_cheb": (6, 2, SamplingScheme.chebyshev(3, 2).offsets, 6),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CAUSAL_SETS))
def test_causal_sets_read_the_theoretical_kappa(case):
    m, r, offsets, want = SWEEP_CAUSAL_SETS[case]
    scheme = SamplingScheme(offsets, r)
    ks = build_kernel_set(BSplineGenerator(m), scheme)
    rho = scheme.rho
    ps = modify_kernels(ks, tuple(rho * (p + 1.0) for p in range(rho)))
    rep = reproduction_order(ps)
    assert rep.kappa == want
    # the operator itself witnesses kappa: exact below it, not at it
    assert max(rep.cross_defects[:want]) <= 1e-6
    assert rep.cross_defects[want] >= 1e-4


def test_two_sided_set_with_rho_below_the_order_keeps_it():
    # Q2 sampled once per unit at 0 is a CIS with Psi = z, rho = 1 and
    # approx_order = 2: its kernel is the hat phi(t + 1), and linear
    # interpolation reproduces lines, though one causal node would keep only
    # constants.  The shift -1 lies outside KernelSet's cell convention
    # (B row 0 must vanish), so the set is assembled by hand.
    ks = object.__new__(KernelSet)
    ks.gen = BSplineGenerator(2)
    ks.scheme = SamplingScheme((0.0,), 1)
    ks.A, ks.B = np.zeros((1, 1)), np.ones((1, 1))
    ks.epsilons, ks.weights = (0.0,), (1.0,)
    ks.support = (-1.0, 1.0)
    ks._k0, ks._coef = -1, np.ones((1, 1, 1))
    assert ks.kernel(0, 0, 0.0) == 1.0 and ks.kernel(0, 0, 1.0) == 0.0
    rep = reproduction_order(ks)
    assert rep.kappa == ks.gen.approx_order == 2 > ks.scheme.rho
    assert max(rep.cross_defects[:2]) <= 1e-12
    assert rep.cross_defects[2] > 0.1


def test_kernels_off_a_cis_trip_the_guard(kernels_quartic_r1):
    ks = kernels_quartic_r1
    bent = KernelSet(ks.gen, ks.scheme, 1.01 * ks.A, ks.B)
    with pytest.warns(RuntimeWarning,
                      match=r"degree \d < kappa = 4, but the monomial check"):
        reproduction_order(bent)


def test_kappa_does_not_need_a_long_double(monkeypatch, kernels_quartic_r1,
                                           kernels_hermite, kernels_db3,
                                           pred_quartic_r1, pred_hermite, pred_db3):
    # the moment pass is float64 throughout, so its results do not depend
    # on long double being wider (it is float64 on MSVC and Apple arm64)
    def no_long_double(*args, **kwargs):
        raise AssertionError("np.longdouble used")

    monkeypatch.setattr(np, "longdouble", no_long_double)
    cases = ((kernels_quartic_r1, 4), (kernels_hermite, 4), (kernels_db3, 3),
             (pred_quartic_r1, 4), (pred_hermite, 4), (pred_db3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ks, want in cases:
            assert reproduction_order(ks).kappa == want
