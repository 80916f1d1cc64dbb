import inspect
import json
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnspredict.approximation import TestSignal, approx_operator, builtin_signal
from pnspredict.kernels import KernelSet, load_kernels, save_kernels
from pnspredict.prediction import (equally_spaced_weights, lagrange_weights,
                                   modify_kernels, past_window, predict,
                                   window_bound)


def test_lagrange_weights_quartic_nodes():
    w = lagrange_weights((4.0, 4.25, 4.5, 4.75))
    assert w == [969.0, -2736.0, 2584.0, -816.0]


def test_lagrange_weights_db3_nodes():
    assert lagrange_weights((5.0, 10.0, 15.0, 20.0, 25.0)) == \
        [5.0, -10.0, 10.0, -5.0, 1.0]


def test_equally_spaced_weights_closed_form():
    assert equally_spaced_weights(4.0, 0.25, 4) == \
        pytest.approx([969.0, -2736.0, 2584.0, -816.0], abs=1e-9)
    assert equally_spaced_weights(5.0, 5.0, 5) == \
        pytest.approx([5.0, -10.0, 10.0, -5.0, 1.0], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.integers(min_value=2, max_value=6))
def test_weight_routes_agree(eps0, d, rho):
    nodes = tuple(eps0 + p * d for p in range(rho))
    direct = lagrange_weights(nodes)
    closed = equally_spaced_weights(eps0, d, rho)
    scale = max(abs(v) for v in direct)
    assert np.abs(np.asarray(direct) - closed).max() <= 1e-9 * max(scale, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.25, max_value=30.0), min_size=2,
                max_size=12, unique=True))
def test_weights_annihilate_powers(nodes):
    # The exact weights solve sum_p a_p (-eps_p)^j = delta_j0 for j < rho.
    # lagrange_weights rounds each exact weight once, and each term below
    # rounds twice more (the power, taken in Fraction and rounded once, and
    # the product), so term_p = a_p (-eps_p)^j (1 + t_p), |t_p| <= gamma_3.
    # fsum rounds the exact sum of the terms once more.  Hence
    #   |fsum - delta_j0| <= gamma_3 (1 + u) / (1 - gamma_3) sum|term_p| + u
    #                     <= 4 u sum|term_p| + u.
    nodes = sorted(nodes)
    if min(b - a for a, b in zip(nodes, nodes[1:])) < 1e-3:
        return
    u = np.finfo(float).eps / 2
    w = lagrange_weights(nodes)
    for j in range(len(nodes)):
        terms = [a * float(Fraction(-e) ** j) for a, e in zip(w, nodes)]
        bound = 4 * u * fsum(abs(v) for v in terms) + u
        assert abs(fsum(terms) - (j == 0)) <= bound, j


def _fraction_weights(nodes) -> list:
    """The weights carried in Fraction products of the float nodes, rounded
    once: the reference lagrange_weights must equal bit for bit."""
    nodes = [Fraction(e) for e in nodes]
    out = []
    for p, node in enumerate(nodes):
        w = Fraction(1)
        for q, other in enumerate(nodes):
            if q != p:
                w *= other / (other - node)
        out.append(float(w))
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8, unique=True))
@example([0.1, 0.2, 0.3, 0.7])
@example([1 / 3, 2 / 3, 1.0, 4 / 3, 5 / 3])
@example([-2.5e-7, 1e-300, 3.0, 1e6])
@example([4.0, 4.25, 4.5, 4.75])
def test_integer_weights_equal_the_fraction_weights(nodes):
    # int / int rounds the exact quotient once, as float(Fraction) does
    nodes = sorted(e for e in nodes if e != 0.0)
    got, want = lagrange_weights(nodes), _fraction_weights(nodes)
    assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_weight_validation():
    with pytest.raises(ValueError):
        lagrange_weights((2.0, 1.0))
    with pytest.raises(ValueError):
        lagrange_weights((0.0, 1.0))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon nodes must be finite"):
            lagrange_weights((4.0, 5.0, 6.0, bad))
    with pytest.raises(ValueError):
        equally_spaced_weights(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        equally_spaced_weights(1.0, -1.0, 3)


def test_modification_requires_causal_nodes(kernels_quartic_r1):
    with pytest.raises(ValueError, match="causal"):
        modify_kernels(kernels_quartic_r1, (2.0, 2.25, 2.5, 2.75))
    with pytest.raises(ValueError):
        modify_kernels(kernels_quartic_r1, (4.0, 4.5))   # wrong count


def test_modified_support(pred_quartic_r1, pred_hermite, pred_db3):
    assert pred_quartic_r1.support == (1.0, 8.75)
    assert pred_hermite.support == (1.0, 8.75)
    assert pred_db3.support == (1.0, 30.0)


def test_window_bound_values(pred_quartic_r1, pred_db3):
    assert window_bound(pred_quartic_r1) == 2
    assert window_bound(pred_db3) == 6


def test_past_window_is_strictly_causal(pred_quartic_r1, scheme_quartic_r1):
    rng = np.random.default_rng(5)
    bound = window_bound(pred_quartic_r1)
    for _ in range(500):
        W = float(rng.uniform(0.5, 40.0))
        t = float(rng.uniform(-50.0, 50.0))
        window = past_window(scheme_quartic_r1, pred_quartic_r1, W, t)
        assert len(window) <= bound
        for l in window:
            for x in scheme_quartic_r1.offsets:
                assert (x + 4 * l) / W < t


def test_past_window_translation_covariance(pred_quartic_r1, scheme_quartic_r1):
    W = 2.0
    base = past_window(scheme_quartic_r1, pred_quartic_r1, W, 1.3)
    shifted = past_window(scheme_quartic_r1, pred_quartic_r1, W, 1.3 + 4 / W)
    assert sorted(shifted) == [l + 1 for l in sorted(base)]


def test_predict_reproduces_quadratic(pred_quartic_r1):
    sq = TestSignal("sq", (lambda t: np.asarray(t, float) ** 2,))
    for t in np.linspace(-3.0, 7.0, 21):
        assert predict(pred_quartic_r1, sq, 1.0, float(t)) == \
            pytest.approx(t * t, abs=1e-7)


def test_predict_scales_derivative_channels(pred_hermite):
    cubic = TestSignal("cubic", (lambda t: np.asarray(t, float) ** 3,
                                 lambda t: 3.0 * np.asarray(t, float) ** 2))
    for W in (1.0, 3.0):
        for t in (0.0, 0.4, 2.2):
            assert predict(pred_hermite, cubic, W, t) == \
                pytest.approx(t ** 3, abs=1e-6 * max(1.0, abs(t) ** 3))


def test_predict_dict_samples_and_missing_key(pred_quartic_r1,
                                              scheme_quartic_r1):
    window = past_window(scheme_quartic_r1, pred_quartic_r1, 1.0, 0.0)
    samples = {(n, 0, l): 1.0 for l in window
               for n in range(scheme_quartic_r1.L)}
    # constant signal: the prediction of 1 is 1
    assert predict(pred_quartic_r1, samples, 1.0, 0.0) == pytest.approx(1.0, abs=1e-9)
    samples.popitem()
    with pytest.raises(KeyError):
        predict(pred_quartic_r1, samples, 1.0, 0.0)


@pytest.mark.parametrize("pred", ["pred_quartic_r1", "pred_hermite", "pred_db3",
                                  "pred_quartic_r1_nondyadic"])
def test_predict_equals_the_operator_for_every_sample_source(request, pred):
    # the two sources: a map of the window's samples, and a signal (the
    # built-in one, or one wrapped around the derivative callables)
    ps = request.getfixturevalue(pred)
    scheme = ps.scheme
    sig = builtin_signal("f")
    wrapped = TestSignal("wrapped", tuple(sig.derivs[:scheme.r]))
    for W, t in ((1.0, 0.3), (5.0, -1.7), (20.0, 2.45)):
        periods = np.array(sorted(past_window(scheme, ps, W, t)))
        samples = {}
        for n, x in enumerate(scheme.offsets):
            times = (x + scheme.rho * periods) / W
            for i in range(scheme.r):
                samples.update(((n, i, l), v) for l, v
                               in zip(periods.tolist(), sig.eval(times, i)))
        expected = approx_operator(ps, sig, W, t)
        for source in (samples, sig, wrapped):
            assert predict(ps, source, W, t) == expected


def test_predict_takes_a_map_or_a_signal_only(pred_quartic_r1):
    # callables, bare or in a list, are no sample source: wrap them in a
    # TestSignal
    sig = builtin_signal("f")
    for source in ([sig.f], sig.f, 3):
        with pytest.raises(TypeError, match=r"^samples must be a map \(n, i, l\) "
                           r"-> value or a signal with \.eval\(t, i\), not "):
            predict(pred_quartic_r1, source, 5.0, 0.3)


@pytest.mark.parametrize("W", [0.0, -1.0])
def test_the_series_refuses_w_at_most_zero(pred_quartic_r1, W):
    sig = builtin_signal("f")
    with pytest.raises(ValueError, match="^W must be positive$"):
        predict(pred_quartic_r1, sig, W, 0.3)
    with pytest.raises(ValueError, match="^W must be positive$"):
        approx_operator(pred_quartic_r1, sig, W, np.linspace(-1.0, 1.0, 5))
    with pytest.raises(ValueError, match="^W must be positive$"):
        past_window(pred_quartic_r1.scheme, pred_quartic_r1, W, 0.3)


def test_modify_kernels_defaults_to_lagrange(kernels_quartic_r1,
                                             pred_quartic_r1):
    explicit = modify_kernels(kernels_quartic_r1, (4.0, 4.25, 4.5, 4.75),
                              (969.0, -2736.0, 2584.0, -816.0))
    ts = np.linspace(1.0, 8.75, 101)
    assert np.array_equal(explicit.kernel(0, 0, ts),
                          pred_quartic_r1.kernel(0, 0, ts))


def test_scheme_rejects_noninterpolatory_weights(kernels_quartic_r1):
    with pytest.raises(ValueError):
        modify_kernels(kernels_quartic_r1, (4.0, 4.25, 4.5, 4.75),
                       (1.0, 1.0, 1.0, 1.0))


def test_weights_one_ulp_off_are_refused(kernels_quartic_r1):
    # the nodes fix the weights: anything but their exact Lagrange weights
    # is refused, however close
    nodes = (4.0, 4.25, 4.5, 4.75)
    exact = lagrange_weights(nodes)
    assert modify_kernels(kernels_quartic_r1, nodes, exact).weights == tuple(exact)
    for p in range(len(nodes)):
        for toward in (-np.inf, np.inf):
            off = list(exact)
            off[p] = float(np.nextafter(off[p], toward))
            with pytest.raises(ValueError, match="Lagrange weights"):
                modify_kernels(kernels_quartic_r1, nodes, off)


def test_kernel_set_derives_its_weights(kernels_quartic_r1):
    assert "weights" not in inspect.signature(KernelSet).parameters
    ks = kernels_quartic_r1
    assert ks.weights == (1.0,)
    nodes = (4.1, 4.4, 4.7, 5.0)
    shifted = KernelSet(ks.gen, ks.scheme, ks.A, ks.B, nodes)
    assert shifted.weights == tuple(lagrange_weights(nodes))
    for bad, message in [((4.0, 4.25, 4.5), "exactly rho = 4"),
                         ((4.0, 4.5, 4.25, 4.75), "strictly increasing"),
                         ((3.0, 4.0, 5.0, 6.0), "not be causal")]:
        with pytest.raises(ValueError, match=message):
            KernelSet(ks.gen, ks.scheme, ks.A, ks.B, bad)


def test_non_finite_nodes_are_named(tmp_path, kernels_quartic_r1, pred_hermite):
    # they used to reach Fraction: OverflowError or ValueError on integer ratios
    ks = kernels_quartic_r1
    for bad in (np.inf, np.nan):
        nodes = (4.0, 4.25, 4.5, bad)
        with pytest.raises(ValueError, match="epsilon nodes must be finite"):
            KernelSet(ks.gen, ks.scheme, ks.A, ks.B, nodes)
        with pytest.raises(ValueError, match="epsilon nodes must be finite"):
            modify_kernels(ks, nodes)
    path = tmp_path / "prediction.json"
    save_kernels(pred_hermite, path)
    doc = json.loads(path.read_text())
    doc["epsilons"][-1] = float("inf")
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    with pytest.raises(ValueError, match="epsilon nodes must be finite"):
        load_kernels(path)


def test_save_load_round_trip(tmp_path, pred_hermite):
    path = tmp_path / "prediction.json"
    save_kernels(pred_hermite, path)
    clone = load_kernels(path)
    assert clone.support == pred_hermite.support
    assert clone.epsilons == pred_hermite.epsilons
    assert clone.weights == pred_hermite.weights
    ts = np.linspace(1.0, 8.75, 101)
    for n in range(2):
        for i in range(2):
            assert np.array_equal(clone.kernel(n, i, ts),
                                  pred_hermite.kernel(n, i, ts))
    save_kernels(clone, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_kernels_derives_the_weights_from_the_nodes(tmp_path, pred_hermite):
    # the written weights are information: the nodes alone are read
    path = tmp_path / "prediction.json"
    save_kernels(pred_hermite, path)
    doc = json.loads(path.read_text())
    doc["weights"] = [1.0] * len(doc["weights"])
    path.write_text(json.dumps(doc))
    assert load_kernels(path).weights == pred_hermite.weights


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=4.0, max_value=12.0),
       st.floats(min_value=0.05, max_value=2.0))
def test_causal_support_is_positive(kernels_quartic_r1, eps0, d):
    ps = modify_kernels(kernels_quartic_r1,
                        tuple(eps0 + p * d for p in range(4)))
    lo, hi = ps.support
    assert lo > 0.0
    assert hi == pytest.approx(4.0 + eps0 + 3 * d)
    assert lo == pytest.approx(-3.0 + eps0)
