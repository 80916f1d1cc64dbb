import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnspredict.approximation import TestSignal, approx_operator, builtin_signal
from pnspredict.kernels import load_kernels, save_kernels
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
                max_size=6, unique=True))
def test_weights_annihilate_powers(nodes):
    nodes = sorted(nodes)
    if min(b - a for a, b in zip(nodes, nodes[1:])) < 1e-3:
        return
    w = lagrange_weights(nodes)
    for j in range(len(nodes)):
        total = sum(a * (-e) ** j for a, e in zip(w, nodes))
        scale = max(1.0, max(abs(a * (-e) ** j) for a, e in zip(w, nodes)))
        assert abs(total - (1.0 if j == 0 else 0.0)) < 1e-9 * scale


def test_weight_validation():
    with pytest.raises(ValueError):
        lagrange_weights((2.0, 1.0))
    with pytest.raises(ValueError):
        lagrange_weights((0.0, 1.0))
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


@pytest.mark.parametrize("pred", ["pred_quartic_r1", "pred_hermite", "pred_db3"])
def test_predict_equals_the_operator_for_every_sample_source(request, pred):
    ps = request.getfixturevalue(pred)
    scheme = ps.scheme
    sig = builtin_signal("f")
    derivs = list(sig.derivs[:scheme.r])
    for W, t in ((1.0, 0.3), (5.0, -1.7), (20.0, 2.45)):
        periods = np.array(sorted(past_window(scheme, ps, W, t)))
        samples = {}
        for n, x in enumerate(scheme.offsets):
            times = (x + scheme.rho * periods) / W
            for i in range(scheme.r):
                samples.update(((n, i, l), v) for l, v
                               in zip(periods.tolist(), sig.eval(times, i)))
        sources = [sig, samples, derivs] + ([sig.f] if scheme.r == 1 else [])
        expected = approx_operator(ps, sig, W, t)
        for source in sources:
            assert predict(ps, source, W, t) == expected


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
