import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from pnspredict import approximation
from pnspredict.approximation import (TestSignal, approx_operator,
                                      builtin_signal, convergence_study,
                                      lp_error)
from pnspredict.generators import BSplineGenerator
from pnspredict.polyphase import SamplingScheme
from pnspredict.prediction import modify_kernels

from conftest import build_kernel_set, random_spline


def test_builtin_smooth_signal_values():
    f = builtin_signal("f")
    assert float(f.eval(0.25)) == pytest.approx(np.exp(-1.0 / 64.0), abs=1e-14)
    assert float(f.eval(0.0)) == 0.0
    h = 1e-6
    for i in (1, 2):
        t = 0.37
        fd = (f.eval(t + h, i - 1) - f.eval(t - h, i - 1)) / (2.0 * h)
        assert float(f.eval(t, i)) == pytest.approx(float(fd), rel=1e-7)


def test_builtin_jump_signal_values():
    g = builtin_signal("g")
    assert float(g.eval(0.0)) == 2.0
    assert float(g.eval(1.0)) == 1.5
    # the cubic lives on the open interval (-1.5, 3)
    for t in (-2.0, -1.5, 3.0, 3.5):
        assert float(g.eval(t)) == 0.0


def test_builtin_aliases_and_unknown():
    assert builtin_signal("smooth").name == "f"
    assert builtin_signal("jump").name == "g"
    assert builtin_signal("g").interval == (-4.0, 6.0)
    assert builtin_signal("f").interval == (-8.0, 10.0)
    assert builtin_signal("g").breaks == (-1.5, 3.0)
    assert builtin_signal("f").breaks == ()
    with pytest.raises(ValueError):
        builtin_signal("h")


def test_signal_derivative_range_check():
    g = builtin_signal("g")
    with pytest.raises(ValueError, match="derivatives"):
        g.eval(0.0, 1)


def test_operator_reproduces_cubics(kernels_quartic_r1):
    ts = np.linspace(-3.0, 3.0, 41)
    for j in range(4):
        sig = TestSignal("m", (lambda t, j=j: np.asarray(t, float) ** j,))
        for W in (1.0, 5.0, 20.0):
            err = np.abs(approx_operator(kernels_quartic_r1, sig, W, ts)
                         - ts ** j).max()
            assert err <= 1e-7


def test_operator_zero_signal(kernels_quartic_r1):
    zero = TestSignal("zero", (lambda t: np.zeros_like(np.asarray(t, float)),))
    ts = np.linspace(-5.0, 5.0, 64)
    assert np.abs(approx_operator(kernels_quartic_r1, zero, 2.0, ts)).max() == 0.0
    assert lp_error(kernels_quartic_r1, zero, 2.0) == 0.0


def test_operator_scalar_matches_array(kernels_quartic_r1):
    f = builtin_signal("f")
    ts = np.array([-1.2, 0.3, 2.7])
    arr = approx_operator(kernels_quartic_r1, f, 3.0, ts)
    for t, v in zip(ts, arr):
        assert approx_operator(kernels_quartic_r1, f, 3.0, float(t)) == v


def test_operator_exact_on_the_space(q4):
    scheme = SamplingScheme((0.5, 0.75), 2)
    ks = build_kernel_set(q4, scheme)
    rng = np.random.default_rng(11)
    deriv = random_spline(q4, rng.uniform(-1.0, 1.0, 30))
    sig = TestSignal("member", (lambda t: deriv(0)(t), lambda t: deriv(1)(t)))
    ts = np.linspace(-6.0, 6.0, 201)
    err = np.abs(approx_operator(ks, sig, 1.0, ts) - sig.f(ts)).max()
    assert err <= 1e-10


def test_lp_error_validation(kernels_quartic_r1):
    f = builtin_signal("f")
    with pytest.raises(ValueError):
        lp_error(kernels_quartic_r1, f, 0.0)
    for p in (0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="p must be"):
            lp_error(kernels_quartic_r1, f, 2.0, p=p)


def test_prediction_error_matches_reference_values(pred_quartic_r1, q4):
    f = builtin_signal("f")
    e20 = lp_error(pred_quartic_r1, f, 20.0)
    assert e20 == pytest.approx(0.17917, rel=1e-2)
    cheb = build_kernel_set(q4, SamplingScheme.chebyshev(4, 1))
    pred_cheb = modify_kernels(cheb, (4.0, 4.25, 4.5, 4.75))
    e30 = lp_error(pred_cheb, f, 30.0)
    assert e30 == pytest.approx(0.03555, rel=1e-2)
    assert e30 < e20


def _shifted_g(t):
    # g with its jumps at -7/6 and 10/3, which no halving of a unit panel hits
    return approximation._jump_g(np.asarray(t, dtype=float) - 1.0 / 3.0)


def test_lp_error_warns_when_refinement_does_not_settle(kernels_quartic_r1):
    undeclared = TestSignal("g", (_shifted_g,), (-4.0, 6.0))
    with pytest.warns(RuntimeWarning, match=r"W = 1 did not converge: after three "
                      r"rounds of halving, \d+ panels .* \d\.\d+e-\d+ "
                      r"relative \(criterion 1e-3\)"):
        err = lp_error(kernels_quartic_r1, undeclared, 1.0)
    assert err > 0.0


def test_lp_error_converged_refinement_is_silent(kernels_quartic_r1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp_error(kernels_quartic_r1, builtin_signal("f"), 5.0)
        # declared jumps are panel edges, so the rule settles at once
        lp_error(kernels_quartic_r1, builtin_signal("g"), 1.0)
        lp_error(kernels_quartic_r1, TestSignal("g", (_shifted_g,), (-4.0, 6.0),
                                                (-7.0 / 6.0, 10.0 / 3.0)), 1.0)
        # an error at the noise floor is exact reproduction, not a stall
        one = TestSignal("one", (lambda t: np.ones_like(np.asarray(t, float)),))
        lp_error(kernels_quartic_r1, one, 8.0)


def _holed(t):
    # the smooth f with NaN on [1, 1.1)
    t = np.asarray(t, dtype=float)
    return np.where((t >= 1.0) & (t < 1.1), np.nan, builtin_signal("f").eval(t))


@pytest.mark.parametrize("kset", ("pred_quartic_r1", "pred_db3"))
def test_lp_error_refuses_a_norm_that_is_not_finite(request, kset):
    # nan > the noise floor is False: the NaN used to come back silently,
    # and convergence_study reported it as the noise floor
    holed = TestSignal("holed", (_holed,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^lp_error at W = 8 is not finite: "
                           r"S_W f - f is nan at t = ") as exc:
            lp_error(request.getfixturevalue(kset), holed, 8.0)
    # the predictor reads only past samples, so the first NaN is f's own
    assert 1.0 <= float(str(exc.value).rsplit("= ", 1)[1]) < 1.01
    # a finite difference whose square overflows
    huge = TestSignal("huge", (lambda t: 1e200 * np.asarray(t, dtype=float),))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^lp_error at W = 8 is not finite: \|S_W f - f\|\^p "
            r"overflows at t = "):
        lp_error(request.getfixturevalue(kset), huge, 8.0)


def _recording(monkeypatch, name):
    """Replace approximation.<name> by a wrapper that logs its arguments
    and results."""
    calls, inner = [], getattr(approximation, name)

    def wrapper(*args):
        out = inner(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(approximation, name, wrapper)
    return calls


def _window(ks, signal, W):
    a, b = signal.interval
    ext = (ks.support[1] - ks.support[0]) / W
    return a - ext, b + ext


def _reference(ks, signal, W, p=2.0, split=4, n=8):
    """The L^p error by n-point Gauss-Legendre on the series' breakpoint
    panels, each split in `split`; the panels are found here, apart from
    lp_error, from the nodes' fractional parts and the signal's breaks."""
    a, b = _window(ks, signal, W)
    frac = np.unique(np.mod(ks.epsilons, 1.0))
    k = np.arange(np.floor(W * a) - 1.0, np.ceil(W * b) + 2.0)
    edges = np.unique(np.concatenate([[a, b], np.add.outer(k, frac).ravel() / W,
                                      signal.breaks]))
    edges = edges[(edges >= a) & (edges <= b)]
    h = np.diff(edges)
    lo = (edges[:-1, None] + h[:, None] * np.arange(split) / split).ravel()
    h = np.repeat(h / split, split)
    x, w = leggauss(n)
    t = lo[:, None] + h[:, None] * (x + 1.0) / 2.0
    d = np.abs(approx_operator(ks, signal, W, t) - signal.eval(t)) ** p
    return float(np.sum(h * (d @ w) / 2.0)) ** (1.0 / p)


def _g_with_derivative():
    # g and g', for the two-channel hermite set
    g = builtin_signal("g")

    def dg(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > -1.5) & (t < 3.0), -1.5 * t * t, 0.0)

    return TestSignal("g", (g.f, dg), g.interval, g.breaks)


@pytest.mark.parametrize("kset", ("pred_quartic_r1", "pred_hermite",
                                  "pred_quartic_r1_nondyadic", "pred_db3"))
@pytest.mark.parametrize("W", (5.0, 20.0))
def test_lp_error_matches_the_fine_reference(request, kset, W):
    # the B-spline series is a polynomial on each panel, so the rule is
    # exact there up to f's own smoothness; db3's pieces are rough, and
    # the rule is held to its own 1e-3 contract
    ks = request.getfixturevalue(kset)
    tol = 1e-3 if kset == "pred_db3" else 1e-10
    for signal in (builtin_signal("f"), _g_with_derivative()):
        want = _reference(ks, signal, W)
        assert lp_error(ks, signal, W) == pytest.approx(want, rel=tol)


def _cubic_with_a_jump(t):
    t = np.asarray(t, dtype=float)
    return 0.02 * t ** 3 - 0.3 * t + 1.0 + np.where(t >= 1.0 / 3.0, 2.0, 0.0)


def _split_rule(ks, signal, W, p=2.0, split=4):
    """The rule of lp_error on its breakpoint panels, each split in
    `split`, with no refinement."""
    a, b = _window(ks, signal, W)
    n = int(np.ceil(ks.gen.mu))
    total = 0.0
    for lo, h in approximation._breakpoint_panels(ks, signal, W, a, b, 1000):
        lo = (lo[:, None] + h[:, None] * np.arange(split) / split).ravel()
        _, upper = approximation._panel_rules(ks, signal, W, p, lo,
                                              np.repeat(h / split, split), n)
        total += float(upper.sum())
    return total ** (1.0 / p)


def test_the_rule_is_exact_on_a_polynomial_with_a_declared_jump(kernels_quartic_r1,
                                                               pred_quartic_r1):
    # f has degree 3 < kappa = 4, so S_W f - f is a cubic on every panel
    # and both Gauss rules integrate its square exactly
    signal = TestSignal("cubic", (_cubic_with_a_jump,), (-4.0, 6.0), (1.0 / 3.0,))
    for W in (5.0, 7.0, 20.0, 30.0):
        # a few ulp on the two-sided set; the causal weights sum to 7105 in
        # absolute value, and the series rounds that much coarser
        value = lp_error(kernels_quartic_r1, signal, W)
        split = _split_rule(kernels_quartic_r1, signal, W)
        assert abs(value - split) <= 4 * np.spacing(value)
        value = lp_error(pred_quartic_r1, signal, W)
        assert value == pytest.approx(_split_rule(pred_quartic_r1, signal, W), rel=1e-14)
    # left undeclared, the jump sits inside a panel: the rule misses it by
    # far more than rounding, or does not settle
    undeclared = TestSignal("cubic", (_cubic_with_a_jump,), (-4.0, 6.0))
    exact = lp_error(pred_quartic_r1, signal, 5.0)
    assert lp_error(pred_quartic_r1, undeclared, 5.0) != pytest.approx(exact, rel=1e-6)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        lp_error(kernels_quartic_r1, undeclared, 5.0)


def test_quadrature_refinement_is_settled(pred_quartic_r1):
    # the B-spline sets stop at the first check: panels four times finer
    # move the value only by rounding
    f = builtin_signal("f")
    for W in (5.0, 20.0, 30.0):
        assert lp_error(pred_quartic_r1, f, W) == pytest.approx(
            _split_rule(pred_quartic_r1, f, W), rel=1e-12)


@pytest.mark.parametrize("kset", ("pred_quartic_r1", "pred_db3"))
def test_refined_error_is_the_error_at_the_final_panel_count(request, monkeypatch,
                                                             kset):
    # the value is the finer rule summed over the panels left when the
    # refinement stops, each counted once: those that were not halved
    ks = request.getfixturevalue(kset)
    f = builtin_signal("f")
    calls = _recording(monkeypatch, "_panel_rules")
    value = lp_error(ks, f, 5.0)
    evaluated, halved = {}, set()
    for (_, _, _, _, lo, h, _), (_, upper) in calls:
        evaluated.update(zip(zip(lo.tolist(), h.tolist()), upper.tolist()))
    for (_, _, _, _, lo, h, _), _ in calls[1:]:
        m = len(lo) // 2
        if np.array_equal(lo[m:], lo[:m] + h[:m]) and np.array_equal(h[m:], h[:m]):
            halved.update(zip(lo[:m].tolist(), (2.0 * h[:m]).tolist()))
    final = {key: v for key, v in evaluated.items() if key not in halved}
    assert bool(halved) == (kset == "pred_db3")   # only db3 refines at W = 5
    a, b = _window(ks, f, 5.0)
    assert sum(h for _, h in final) == pytest.approx(b - a, rel=1e-12)
    assert sum(final.values()) ** 0.5 == pytest.approx(value, rel=1e-12)


def test_refinement_halves_only_the_panels_above_their_share(monkeypatch, pred_db3):
    # db3 at W = 5 refines: a second pass walks the panels again and halves,
    # up to three times, those whose two rules differ by more than their
    # share (by width) of 1e-3 of the value, p = 2 times that of the integral
    f = builtin_signal("f")
    rules = _recording(monkeypatch, "_panel_rules")
    points = _recording(monkeypatch, "_series_eval")
    lp_error(pred_db3, f, 5.0)
    (first, (lower, upper)), *second = [(args[4:6], out) for args, out in rules]
    a, b = _window(pred_db3, f, 5.0)
    share = 2e-3 * upper.sum() / (b - a)
    assert len(first[0]) * 11 == np.size(points[0][0][3])   # one block, G5 + G6
    halvings = 0
    for ((lo, h), (lower, upper)), ((lo2, h2), _) in zip(second, second[1:]):
        m = len(lo2) // 2
        if np.array_equal(lo2[m:], lo2[:m] + h2[:m]):     # halves of lo's panels
            above = np.abs(upper - lower) > share * h
            assert np.array_equal(lo2[:m], lo[above])
            assert np.array_equal(2.0 * h2[:m], h[above])
            assert 0 < m < len(lo)
            halvings += 1
    assert halvings >= 3
    # the second pass evaluates each point once
    again = np.concatenate([np.ravel(args[3]) for args, _ in points[1:]])
    assert len(np.unique(again)) == len(again)


def test_lp_error_evaluates_few_series_points(monkeypatch, pred_quartic_r1):
    # composite Simpson took 55,553 points for quartic_r1 at W = 30; the
    # Gauss panels take 9 per breakpoint panel, 4 breakpoints per unit of W t
    calls = _recording(monkeypatch, "_series_eval")
    lp_error(pred_quartic_r1, builtin_signal("f"), 30.0)
    assert sum(np.size(args[3]) for args, _ in calls) <= 22_221


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lp_error_memory_does_not_grow_with_w(pred_db3):
    # the panels go through in blocks with running sums, so past one block
    # of points the peak stays where it is
    f = builtin_signal("f")
    lp_error(pred_db3, f, 30.0)     # the Gauss rules are made once
    assert _traced_peak(lp_error, pred_db3, f, 30.0) <= 1.25 * 2 ** 20
    coarse, fine = (_traced_peak(lp_error, pred_db3, f, W) for W in (60.0, 240.0))
    assert abs(fine - coarse) <= 0.1 * coarse


def test_lp_error_does_not_import_numpy_ma():
    # a fresh CLI process and a quartic and a db3 lp_error import none of
    # numpy.ma (about 20 ms; np.unique imports it), fractions or decimal
    # (2.5 ms), nor numpy.polynomial before db3's taps need it
    script = (
        "import sys\n"
        "import pnspredict as pp, pnspredict.cli\n"
        "def run(gen, scheme, eps):\n"
        "    psi = pp.build_polyphase(gen, scheme)\n"
        "    ks = pp.build_kernels(gen, scheme, pp.invert_polyphase(psi))\n"
        "    pp.lp_error(pp.modify_kernels(ks, eps), pp.builtin_signal('f'), 10.0)\n"
        "    print(gen.kind, 'numpy.polynomial' in sys.modules)\n"
        "run(pp.BSplineGenerator(4), pp.SamplingScheme((0, .25, .5, .75), 1),\n"
        "    (4, 4.25, 4.5, 4.75))\n"
        "run(pp.DaubechiesGenerator(3), pp.SamplingScheme.chebyshev(5, 1),\n"
        "    (5, 10, 15, 20, 25))\n"
        "print(*(m for m in ('numpy.ma', 'fractions', 'decimal') if m in sys.modules))\n")
    src = Path(approximation.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "bspline False\ndaubechies True\n\n"


def test_prediction_error_decreases_in_W(pred_quartic_r1):
    f = builtin_signal("f")
    errs = [lp_error(pred_quartic_r1, f, W)
            for W in (5.0, 7.0, 10.0, 15.0, 20.0, 25.0, 30.0)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_smooth_signal_decays_at_order_four(pred_quartic_r1):
    f = builtin_signal("f")
    rep = convergence_study(pred_quartic_r1, f, (10.0, 15.0, 20.0, 25.0, 30.0))
    assert rep.slope == pytest.approx(-4.0, abs=0.3)
    assert len(rep.rows) == 5
    assert "fitted slope" in str(rep)


def test_jump_signal_decays_slowly(pred_quartic_r1):
    g = builtin_signal("g")
    rep = convergence_study(pred_quartic_r1, g, (10.0, 15.0, 20.0))
    assert rep.slope > -1.0


def test_constant_signal_hits_noise_floor(kernels_quartic_r1):
    one = TestSignal("one", (lambda t: np.ones_like(np.asarray(t, float)),))
    rep = convergence_study(kernels_quartic_r1, one, (2.0, 4.0, 8.0))
    assert rep.slope is None
    assert max(rep.errors) < 1e-12
    assert "noise floor" in str(rep)


def test_convergence_study_needs_three_points(kernels_quartic_r1):
    f = builtin_signal("f")
    with pytest.raises(ValueError):
        convergence_study(kernels_quartic_r1, f, (2.0, 4.0))
