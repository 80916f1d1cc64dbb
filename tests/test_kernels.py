import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnspredict as pp
from pnspredict.cli import load_config
from pnspredict.kernels import (SingularSamplePointError, build_kernels,
                                invert_polyphase, load_kernels, reconstruct,
                                save_kernels)
from conftest import build_kernel_set, random_spline

# printed inverse for the quartic r = 1 scheme: constant part A, z^{-1} part B
QUARTIC_R1_A0 = [-19.0, 208 / 3, -260 / 3, 112 / 3]
QUARTIC_R1_B = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [19.0, -116 / 3, 82 / 3, -20 / 3],
    [-13 / 3, 40 / 3, -32 / 3, 8 / 3],
    [13 / 3, -44 / 3, 46 / 3, -4.0],
])

# printed inverse for the Hermite scheme (offsets 1/2, 3/4, r = 2)
HERMITE_A0 = [149.0, 97 / 6, -148.0, 67 / 3]
HERMITE_B = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-331.0, -281 / 6, 332.0, -113 / 3],
    [53.0, 37 / 6, -52.0, 19 / 3],
    [-43.0, -29 / 6, 44.0, -17 / 3],
])

# kernel linear combinations, as {shift: coefficient} per (n, i)
QUARTIC_R1_KERNELS = {
    (0, 0): {0: -19.0, -3: 19.0, -2: -13 / 3, -1: 13 / 3},
    (1, 0): {0: 208 / 3, -3: -116 / 3, -2: 40 / 3, -1: -44 / 3},
    (2, 0): {0: -260 / 3, -3: 82 / 3, -2: -32 / 3, -1: 46 / 3},
    (3, 0): {0: 112 / 3, -3: -20 / 3, -2: 8 / 3, -1: -4.0},
}
HERMITE_KERNELS = {
    (0, 0): {0: 149.0, -3: -331.0, -2: 53.0, -1: -43.0},
    (0, 1): {0: 97 / 6, -3: -281 / 6, -2: 37 / 6, -1: -29 / 6},
    (1, 0): {0: -148.0, -3: 332.0, -2: -52.0, -1: 44.0},
    (1, 1): {0: 67 / 3, -3: -113 / 3, -2: 19 / 3, -1: -17 / 3},
}


def combo(ks, n, i):
    shifts, coefs = ks.term_table(n, i)
    return dict(zip([round(s) for s in shifts], coefs))


def test_inverse_matrices_quartic_r1(q4, scheme_quartic_r1):
    inv = invert_polyphase(pp.build_polyphase(q4, scheme_quartic_r1))
    assert sorted(inv.powers()) == [-1, 0]
    A, B = inv.coeff(0), inv.coeff(-1)
    assert np.abs(A[0] - QUARTIC_R1_A0).max() < 1e-9
    assert np.abs(A[1:]).max() < 1e-9
    assert np.abs(B - QUARTIC_R1_B).max() < 1e-9


def test_inverse_matrices_hermite(q4, scheme_hermite):
    inv = invert_polyphase(pp.build_polyphase(q4, scheme_hermite))
    A, B = inv.coeff(0), inv.coeff(-1)
    assert np.abs(A[0] - HERMITE_A0).max() < 1e-9
    assert np.abs(A[1:]).max() < 1e-9
    assert np.abs(B - HERMITE_B).max() < 1e-9


def test_inverse_times_forward_is_identity(q4, scheme_quartic_r1, scheme_hermite):
    for scheme in (scheme_quartic_r1, scheme_hermite):
        psi = pp.build_polyphase(q4, scheme)
        inv = invert_polyphase(psi)
        for x in np.arange(16) / 16:
            prod = psi(x) @ inv(x)
            assert np.abs(prod - np.eye(scheme.rho)).max() < 1e-10


# Q4 with r = 2 at two close offsets: a CIS whose determinant is a monomial,
# with large inverse entries (a small det M), which an FFT inversion with
# cut-offs on the imaginary parts of its coefficients refused
CLOSE_OFFSETS = [(0.262, 0.298), (0.6504592762678163, 0.6884467305709401)]


@pytest.mark.parametrize("offsets", CLOSE_OFFSETS)
def test_close_offsets_invert_exactly_and_reconstruct(q4, offsets):
    scheme = pp.SamplingScheme(offsets, 2)
    psi = pp.build_polyphase(q4, scheme)
    inv = invert_polyphase(psi)
    assert inv.powers() == [-1, 0]
    for x in np.arange(16) / 16:
        assert np.abs(psi(x) @ inv(x) - np.eye(4)).max() < 1e-10
    ks = build_kernels(q4, scheme, inv)
    f = random_spline(q4, np.random.default_rng(5).uniform(-1, 1, 12))
    samples = {(n, i, l): float(f(i)(x + 4 * l))
               for l in range(-3, 5) for n, x in enumerate(offsets)
               for i in range(2)}
    ts = np.linspace(0.0, 8.0, 101)
    want = f(0)(ts)
    out = reconstruct(ks, samples, ts)
    assert np.abs(out - want).max() <= 1e-8 * np.abs(want).max()


def test_invert_rejects_singular_scheme(q3, scheme_cubic_split):
    with pytest.raises(SingularSamplePointError):
        invert_polyphase(pp.build_polyphase(q3, scheme_cubic_split))


def test_invert_rejects_a_singular_single_power_scheme(q3):
    # rho = 4 > mu = 3 leaves a zero column: Psi = M diag(z^e), det M = 0
    psi = pp.build_polyphase(q3, pp.SamplingScheme.equally_spaced(4, 1, 0))
    assert pp.det_on_circle(psi)[0] == 0.0
    with pytest.raises(SingularSamplePointError,
                       match=r"^\|det Psi\(0\.0\)\| = 0\.000e\+00, scheme is not"):
        invert_polyphase(psi)


def test_build_kernels_rejects_stray_powers(q4, scheme_quartic_r1):
    # an inverse with a power outside {-1, 0} gives kernels of wider support
    inv = pp.LaurentMatrix(4, {0: np.eye(4), 1: np.eye(4)})
    with pytest.raises(ValueError, match=r"outside \{-1, 0\}, from 1 to 1"):
        build_kernels(q4, scheme_quartic_r1, inv)


def test_quartic_split_inverse_is_not_compact(q4, scheme_cubic_split):
    # offsets (1/2, 5/2) keep Q4 a CIS, but det Psi is not a monomial, so
    # Psi has no Laurent inverse and the kernel construction refuses it
    psi = pp.build_polyphase(q4, scheme_cubic_split)
    inv = invert_polyphase(psi)
    assert inv is None
    with pytest.raises(ValueError, match="compactly supported"):
        build_kernels(q4, scheme_cubic_split, inv)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
INVERSE_OUTCOMES = {"cubic_split_cells": "singular", "quartic_split_cells": "none",
                    "quartic_r1": "laurent", "quartic_r1_chebyshev": "laurent",
                    "quartic_hermite": "laurent", "db3_r1": "laurent"}


@pytest.mark.parametrize("name", sorted(INVERSE_OUTCOMES))
def test_invert_polyphase_returns_an_inverse_none_or_singular(name):
    # the only exception invert_polyphase raises is SingularSamplePointError
    assert {p.stem for p in CONFIGS.glob("*.cfg")} == set(INVERSE_OUTCOMES)
    cfg = load_config(CONFIGS / f"{name}.cfg")
    psi = pp.build_polyphase(cfg.gen, cfg.scheme)
    assert inverse_outcome(psi) == INVERSE_OUTCOMES[name]


def test_invert_polyphase_contract_when_rho_is_below_mu(q4, db3):
    # rho < mu: more than one power in some column of Psi
    db3_two = pp.build_polyphase(db3, pp.SamplingScheme((0.0, 0.5), 1))
    assert inverse_outcome(db3_two) == "none"
    # Q4 with the one offset 1/2 and r = 3: det Psi(1/2) = 0
    q4_half = pp.build_polyphase(q4, pp.SamplingScheme((0.5,), 3))
    assert inverse_outcome(q4_half) == "singular"


def inverse_outcome(psi) -> str:
    try:
        inv = invert_polyphase(psi)
    except SingularSamplePointError:
        return "singular"
    if inv is None:
        return "none"
    assert isinstance(inv, pp.LaurentMatrix)
    return "laurent"


def test_kernel_combinations_quartic_r1(kernels_quartic_r1):
    for (n, i), want in QUARTIC_R1_KERNELS.items():
        got = combo(kernels_quartic_r1, n, i)
        assert set(got) == set(want)
        for shift, c in want.items():
            assert got[shift] == pytest.approx(c, abs=1e-9)


def test_kernel_combinations_hermite(kernels_hermite):
    for (n, i), want in HERMITE_KERNELS.items():
        got = combo(kernels_hermite, n, i)
        assert set(got) == set(want)
        for shift, c in want.items():
            assert got[shift] == pytest.approx(c, abs=1e-9)


def test_kernel_support(kernels_quartic_r1, kernels_hermite, kernels_db3):
    assert kernels_quartic_r1.support == (-3.0, 4.0)
    assert kernels_hermite.support == (-3.0, 4.0)
    assert kernels_db3.support == (-4.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-12.0, max_value=12.0))
def test_kernel_vanishes_off_support(kernels_quartic_r1, t):
    lo, hi = kernels_quartic_r1.support
    if not lo < t < hi:
        for n in range(4):
            assert kernels_quartic_r1.kernel(n, 0, t) == 0.0


def test_interpolation_property_quartic_r1(kernels_quartic_r1, scheme_quartic_r1):
    for n in range(4):
        for m, x in enumerate(scheme_quartic_r1.offsets):
            for l in range(-2, 3):
                v = kernels_quartic_r1.kernel(n, 0, x + 4 * l)
                assert v == pytest.approx(float(n == m and l == 0), abs=1e-9)


def test_hermite_interpolation_property(kernels_hermite, scheme_hermite):
    # delta on values and on derivatives, the latter via central differences
    h = 1e-5
    for n in range(2):
        for i in range(2):
            for m, x in enumerate(scheme_hermite.offsets):
                for l in range(-2, 3):
                    t = x + 4 * l
                    v = kernels_hermite.kernel(n, i, t)
                    dv = (kernels_hermite.kernel(n, i, t + h)
                          - kernels_hermite.kernel(n, i, t - h)) / (2 * h)
                    assert v == pytest.approx(float(n == m and i == 0 and l == 0),
                                              abs=1e-6)
                    assert dv == pytest.approx(float(n == m and i == 1 and l == 0),
                                               abs=1e-6)


def test_reconstruct_spline_exactly(q4, scheme_quartic_r1, kernels_quartic_r1):
    rng = np.random.default_rng(3)
    f = random_spline(q4, rng.uniform(-1, 1, 12))
    samples = {(n, 0, l): float(f(0)(x + 4 * l))
               for l in range(-3, 5)
               for n, x in enumerate(scheme_quartic_r1.offsets)}
    ts = np.linspace(0.0, 8.0, 101)
    out = reconstruct(kernels_quartic_r1, samples, ts)
    assert np.abs(out - f(0)(ts)).max() < 1e-10


def test_reconstruct_handles_unsorted_points(kernels_quartic_r1, q4,
                                             scheme_quartic_r1):
    rng = np.random.default_rng(11)
    f = random_spline(q4, rng.uniform(-1, 1, 10))
    samples = {(n, 0, l): float(f(0)(x + 4 * l))
               for l in range(-3, 5)
               for n, x in enumerate(scheme_quartic_r1.offsets)}
    ts = rng.uniform(0.0, 6.0, 40)
    sorted_out = reconstruct(kernels_quartic_r1, samples, np.sort(ts))
    out = reconstruct(kernels_quartic_r1, samples, ts)
    assert np.array_equal(out, sorted_out[np.argsort(np.argsort(ts))])


def test_reconstruct_reads_exactly_the_window_samples(kernels_quartic_r1, q4,
                                                     scheme_quartic_r1):
    f = random_spline(q4, np.random.default_rng(4).uniform(-1, 1, 10))
    # support (-3, 4) and rho = 4: t = 1.5 meets the windows of l = 0 and 1 only
    samples = {(n, 0, l): float(f(0)(x + 4 * l))
               for l in (0, 1) for n, x in enumerate(scheme_quartic_r1.offsets)}
    value = reconstruct(kernels_quartic_r1, samples, 1.5)
    assert isinstance(value, float)
    assert value == pytest.approx(float(f(0)(1.5)), abs=1e-10)
    assert value == reconstruct(kernels_quartic_r1, samples, np.array([1.5]))[0]
    del samples[2, 0, 1]
    with pytest.raises(KeyError):
        reconstruct(kernels_quartic_r1, samples, 1.5)


@pytest.fixture(scope="module")
def kernels_box():
    return build_kernel_set(pp.BSplineGenerator(1), pp.SamplingScheme((0.5,), 1))


def test_reconstruct_box_spline_at_knots(kernels_box):
    # Q1 with offset 1/2: f = sum_k c_k Q1(. - k) is c_k on [k, k + 1), and
    # the samples f(l + 1/2) = l + 2 give f = floor(t) + 2.  The kernel
    # window is [0, 1] and Theta(0) = Q1(0) = 1, so a point on a knot reads
    # the period whose window starts there.
    ks = kernels_box
    assert ks.support == (0.0, 1.0)
    samples = {(0, 0, l): float(l + 2) for l in range(-5, 6)}
    for t in (0.0, 1.0, 2.0, 0.5):
        assert reconstruct(ks, samples, t) == np.floor(t) + 2.0
    assert reconstruct(ks, samples, np.array([0.0, 0.5, 1.0])).tolist() == \
        [2.0, 2.0, 3.0]
    assert pp.approx_operator(ks, samples, 1.0, np.array([0.0, 1.0, 2.0])
                              ).tolist() == [2.0, 3.0, 4.0]


@pytest.mark.parametrize("kset", ["kernels_box", "kernels_quartic_r1",
                                  "kernels_hermite", "pred_quartic_r1",
                                  "kernels_db3", "pred_quartic_r1_nondyadic"])
def test_reconstruct_is_the_operator_at_W_1(request, kset):
    ks = request.getfixturevalue(kset)
    scheme = ks.scheme
    f = random_spline(ks.gen, np.random.default_rng(8).uniform(-1, 1, 12))
    samples = {(n, i, l): float(f(i)(x + scheme.rho * l))
               for l in range(-20, 20) for n, x in enumerate(scheme.offsets)
               for i in range(scheme.r)}
    lo, hi = ks.support
    windows = scheme.rho * np.arange(-1, 3)
    ts = np.concatenate([np.random.default_rng(9).uniform(-4.0, 12.0, 60),
                         np.arange(-4.0, 13.0), lo + windows, hi + windows])
    batch = reconstruct(ks, samples, ts)
    assert np.array_equal(batch, pp.approx_operator(ks, samples, 1.0, ts))
    for t, value in zip(ts.tolist(), batch.tolist()):
        assert reconstruct(ks, samples, t) == value
        assert pp.approx_operator(ks, samples, 1.0, t) == value


@pytest.mark.parametrize("kset", ["kernels_box", "kernels_quartic_r1",
                                  "kernels_hermite", "kernels_db3",
                                  "pred_quartic_r1", "pred_hermite", "pred_db3",
                                  "pred_quartic_r1_nondyadic"])
def test_kernel_is_the_sum_over_its_term_table(request, kset):
    ks = request.getfixturevalue(kset)
    gen = ks.gen
    lo, hi = ks.support
    peak = np.abs(gen.eval(np.linspace(0.0, gen.mu, 4001))).max()
    for n in range(ks.scheme.L):
        for i in range(ks.scheme.r):
            shifts, coefs = ks.term_table(n, i)
            # the knots of every term, and points between them
            knots = np.add.outer(shifts, np.arange(-1.0, np.ceil(gen.mu) + 2))
            ts = np.concatenate([knots.ravel(), np.linspace(lo - 1, hi + 1, 1001),
                                 np.random.default_rng(n).uniform(lo, hi, 400)])
            direct = sum(c * gen.eval(ts - s) for s, c in zip(shifts, coefs))
            bound = 1e-12 * np.abs(coefs).sum() * peak
            assert np.abs(ks.kernel(n, i, ts) - direct).max() <= bound


def test_reconstruct_missing_sample_raises(kernels_quartic_r1):
    with pytest.raises(KeyError):
        reconstruct(kernels_quartic_r1, {}, np.array([0.5]))


def test_evaluators_return_empty_on_empty_input(kernels_quartic_r1):
    sig = pp.builtin_signal("f")
    for out in (reconstruct(kernels_quartic_r1, {}, []),
                pp.approx_operator(kernels_quartic_r1, sig, 5.0, [])):
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)


def test_kernel_index_validation(kernels_quartic_r1):
    with pytest.raises(IndexError):
        kernels_quartic_r1.kernel(4, 0, 0.5)
    with pytest.raises(IndexError):
        kernels_quartic_r1.kernel(0, 1, 0.5)


def test_save_load_round_trip(tmp_path, kernels_hermite):
    path = tmp_path / "kernels.json"
    save_kernels(kernels_hermite, path)
    clone = load_kernels(path)
    assert clone.support == kernels_hermite.support
    ts = np.linspace(-3.0, 4.0, 101)
    for n in range(2):
        for i in range(2):
            assert np.array_equal(clone.kernel(n, i, ts),
                                  kernels_hermite.kernel(n, i, ts))
    # serialization is bitwise stable
    save_kernels(clone, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_kernels_refuses_bad_files(tmp_path, pred_quartic_r1):
    path = tmp_path / "prediction.json"
    save_kernels(pred_quartic_r1, path)
    doc = json.loads(path.read_text())
    cases = [("epsilons", [1, 2, 3, 4], ValueError,
              "eps0 = 1.0 < rho = 4: shifted kernels would not be causal"),
             ("A", None, KeyError, "'A'"),
             ("generator", {"kind": "bspline", "order": 4.5}, ValueError,
              "B-spline order must be an integer >= 1, got 4.5"),
             ("generator", {"kind": "tabulated", "step": 0.5, "values": [0.0, 1.0]},
              ValueError, "unknown generator kind 'tabulated'"),
             # int() used to truncate r to 1 and read "1" as 1
             ("scheme", {**doc["scheme"], "r": 1.9}, ValueError,
              "derivative count must be a positive integer, got 1.9"),
             ("scheme", {**doc["scheme"], "r": "1"}, ValueError,
              "derivative count must be a positive integer, got '1'")]
    for key, value, error, message in cases:
        bad = dict(doc)
        if value is None:
            del bad[key]
        else:
            bad[key] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(error) as info:
            load_kernels(path)
        assert str(info.value) == message


def test_zero_row_validation(q4, scheme_quartic_r1, kernels_quartic_r1):
    from pnspredict.kernels import KernelSet
    # forbidden rows for s = 0; the kernels would ignore the 1e-12 entry,
    # but save_kernels would write it back
    for entry in (0.5, 1e-12):
        A = kernels_quartic_r1.A.copy()
        A[2, 1] = entry
        with pytest.raises(ValueError, match=r"phi\(t - k\) at k = 2, outside"):
            KernelSet(q4, scheme_quartic_r1, A, kernels_quartic_r1.B)
        B = kernels_quartic_r1.B.copy()
        B[0, 1] = entry
        with pytest.raises(ValueError, match=r"phi\(t - k\) at k = -4, outside"):
            KernelSet(q4, scheme_quartic_r1, kernels_quartic_r1.A, B)
