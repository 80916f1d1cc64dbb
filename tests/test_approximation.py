import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    assert lp_error(kernels_quartic_r1, zero, 2.0, quad_n=200) == 0.0


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
    with pytest.raises(ValueError):
        lp_error(kernels_quartic_r1, f, 2.0, p=0.5)
    with pytest.raises(ValueError):
        lp_error(kernels_quartic_r1, f, 2.0, quad_n=0)


def test_prediction_error_matches_reference_values(pred_quartic_r1, q4):
    f = builtin_signal("f")
    e20 = lp_error(pred_quartic_r1, f, 20.0)
    assert e20 == pytest.approx(0.17917, rel=1e-2)
    cheb = build_kernel_set(q4, SamplingScheme.chebyshev(4, 1))
    pred_cheb = modify_kernels(cheb, (4.0, 4.25, 4.5, 4.75))
    e30 = lp_error(pred_cheb, f, 30.0)
    assert e30 == pytest.approx(0.03555, rel=1e-2)
    assert e30 < e20


def test_lp_error_warns_when_refinement_does_not_settle(kernels_quartic_r1):
    g = builtin_signal("g")
    with pytest.warns(RuntimeWarning,
                      match=r"W = 1 .* \d+ Simpson panels .* \d\.\d+e-\d+ relative"):
        err = lp_error(kernels_quartic_r1, g, 1.0)
    assert err > 0.0


def test_lp_error_converged_refinement_is_silent(kernels_quartic_r1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp_error(kernels_quartic_r1, builtin_signal("f"), 5.0)
        # an error at the noise floor is exact reproduction, not a stall
        one = TestSignal("one", (lambda t: np.ones_like(np.asarray(t, float)),))
        lp_error(kernels_quartic_r1, one, 8.0)


def _holed(t):
    # the smooth f with NaN on [1, 1.1)
    t = np.asarray(t, dtype=float)
    return np.where((t >= 1.0) & (t < 1.1), np.nan, builtin_signal("f").eval(t))


@pytest.mark.parametrize("quad_n", (None, 4000))
def test_lp_error_refuses_a_norm_that_is_not_finite(pred_quartic_r1, quad_n):
    # nan > the noise floor is False: the NaN used to come back silently,
    # and convergence_study reported it as the noise floor
    holed = TestSignal("holed", (_holed,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^lp_error at W = 8 is not finite: "
                           r"S_W f - f is nan at t = ") as exc:
            lp_error(pred_quartic_r1, holed, 8.0, quad_n=quad_n)
    # the predictor reads only past samples, so the first NaN is f's own
    assert 1.0 <= float(str(exc.value).rsplit("= ", 1)[1]) < 1.01


def _recording(monkeypatch, name):
    """Replace approximation.<name> by a wrapper that logs its arguments."""
    calls, inner = [], getattr(approximation, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(approximation, name, wrapper)
    return calls


@pytest.mark.parametrize("kset", ("pred_quartic_r1", "pred_db3"))
def test_refined_error_is_the_error_at_the_final_panel_count(request, monkeypatch,
                                                             kset):
    # the doubled grid reuses the coarse nodes' values, bit for bit
    kset = request.getfixturevalue(kset)
    f = builtin_signal("f")
    passes = _recording(monkeypatch, "_lp_once")
    adaptive = lp_error(kset, f, 20.0)
    assert lp_error(kset, f, 20.0, quad_n=passes[-1][6]) == adaptive


def test_refinement_evaluates_each_node_once(monkeypatch, pred_quartic_r1):
    seen = _recording(monkeypatch, "_series_eval")
    lp_error(pred_quartic_r1, builtin_signal("f"), 20.0)
    coarse, odd = (np.asarray(args[3]) for args in seen)
    n = len(odd) // 2
    assert (len(coarse), len(odd)) == (2 * n + 1, 2 * n)
    nodes = np.sort(np.concatenate([coarse, odd]))
    assert np.array_equal(nodes, np.linspace(coarse[0], coarse[-1], 4 * n + 1))


def test_lp_error_does_not_import_numpy_ma():
    # numpy.ma costs a fresh process about 20 ms; np.unique imports it
    script = (
        "import sys\n"
        "import pnspredict as pp, pnspredict.cli\n"
        "for gen, scheme, eps in (\n"
        "        (pp.BSplineGenerator(4), pp.SamplingScheme((0, .25, .5, .75), 1),\n"
        "         (4, 4.25, 4.5, 4.75)),\n"
        "        (pp.DaubechiesGenerator(3), pp.SamplingScheme.chebyshev(5, 1),\n"
        "         (5, 10, 15, 20, 25))):\n"
        "    psi = pp.build_polyphase(gen, scheme)\n"
        "    ks = pp.build_kernels(gen, scheme, pp.invert_polyphase(psi))\n"
        "    pp.lp_error(pp.modify_kernels(ks, eps), pp.builtin_signal('f'), 10.0)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = Path(approximation.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"


def test_quadrature_refinement_is_settled(pred_quartic_r1):
    f = builtin_signal("f")
    coarse = lp_error(pred_quartic_r1, f, 20.0, quad_n=6000)
    fine = lp_error(pred_quartic_r1, f, 20.0, quad_n=12000)
    assert abs(fine - coarse) <= 1e-3 * fine


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
