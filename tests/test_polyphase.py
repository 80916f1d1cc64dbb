import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnspredict as pp
from pnspredict.polyphase import (CIS_THRESHOLD, LaurentMatrix, SamplingScheme,
                                  build_polyphase, cis_determinant,
                                  det_on_circle, frame_bounds, zak_transform)

# printed polyphase matrix for Q4 with offsets (0, 1/4, 1/2, 3/4), r = 1:
# constant part and z part, row by row
QUARTIC_R1_PSI0 = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [1 / 384, 0.0, 0.0, 0.0],
    [1 / 48, 0.0, 0.0, 0.0],
    [9 / 128, 0.0, 0.0, 0.0],
])
QUARTIC_R1_PSI1 = np.array([
    [0.0, 1 / 6, 2 / 3, 1 / 6],
    [0.0, 9 / 128, 235 / 384, 121 / 384],
    [0.0, 1 / 48, 23 / 48, 23 / 48],
    [0.0, 1 / 384, 121 / 384, 235 / 384],
])

# printed matrix for Q4 with offsets (1/2, 3/4), r = 2 (function + derivative)
HERMITE_PSI0 = np.array([
    [1 / 48, 0.0, 0.0, 0.0],
    [1 / 8, 0.0, 0.0, 0.0],
    [9 / 128, 0.0, 0.0, 0.0],
    [9 / 32, 0.0, 0.0, 0.0],
])
HERMITE_PSI1 = np.array([
    [0.0, 1 / 48, 23 / 48, 23 / 48],
    [0.0, -1 / 8, -5 / 8, 5 / 8],
    [0.0, 1 / 384, 121 / 384, 235 / 384],
    [0.0, -1 / 32, -21 / 32, 13 / 32],
])


def test_scheme_validation():
    with pytest.raises(ValueError):
        SamplingScheme(())
    with pytest.raises(ValueError):
        SamplingScheme((0.5, 0.25), 1)
    with pytest.raises(ValueError):
        SamplingScheme((0.25, 0.25), 1)
    with pytest.raises(ValueError):
        SamplingScheme((-0.1, 0.5), 1)
    with pytest.raises(ValueError):
        SamplingScheme((0.0, 2.0), 1)   # 2.0 >= rho = 2
    with pytest.raises(ValueError):
        SamplingScheme((0.0,), 0)


def test_scheme_properties(scheme_quartic_r1, scheme_hermite, scheme_cubic_split):
    assert scheme_quartic_r1.L == 4
    assert scheme_quartic_r1.rho == 4
    assert scheme_quartic_r1.s == 0
    assert scheme_hermite.L == 2
    assert scheme_hermite.rho == 4
    assert scheme_hermite.s == 0
    assert scheme_cubic_split.s is None
    assert list(scheme_hermite.row_points) == [0.5, 0.5, 0.75, 0.75]
    assert list(scheme_hermite.row_derivs) == [0, 1, 0, 1]


def test_equally_spaced_and_chebyshev_constructors():
    eq = SamplingScheme.equally_spaced(4)
    assert eq.offsets == (0.0, 0.25, 0.5, 0.75)
    ch = SamplingScheme.chebyshev(4)
    want = tuple(0.5 - 0.5 * np.cos((2 * n + 1) * np.pi / 8) for n in range(4))
    assert ch.offsets == pytest.approx(want, abs=1e-15)
    assert all(0.0 < x < 1.0 for x in ch.offsets)
    shifted = SamplingScheme.chebyshev(3, 2, 1)
    assert shifted.s == 1


def test_polyphase_matrix_quartic_r1(q4, scheme_quartic_r1):
    psi = build_polyphase(q4, scheme_quartic_r1)
    assert psi.powers() == [0, 1]
    assert np.abs(psi.coeff(0) - QUARTIC_R1_PSI0).max() < 1e-12
    assert np.abs(psi.coeff(1) - QUARTIC_R1_PSI1).max() < 1e-12


def test_polyphase_matrix_hermite(q4, scheme_hermite):
    psi = build_polyphase(q4, scheme_hermite)
    assert psi.powers() == [0, 1]
    assert np.abs(psi.coeff(0) - HERMITE_PSI0).max() < 1e-12
    assert np.abs(psi.coeff(1) - HERMITE_PSI1).max() < 1e-12


def test_polyphase_matrix_cubic_split(q3, scheme_cubic_split):
    # first row of the split-cell counterexample: [1/8, 0, z/8, 3z/4]
    psi = build_polyphase(q3, scheme_cubic_split)
    assert psi.coeff(0)[0].tolist() == pytest.approx([1 / 8, 0, 0, 0], abs=1e-12)
    assert psi.coeff(1)[0].tolist() == pytest.approx([0, 0, 1 / 8, 3 / 4], abs=1e-12)


def test_polyphase_needs_regular_generator(q3):
    with pytest.raises(ValueError):
        build_polyphase(pp.BSplineGenerator(2), SamplingScheme((0.5, 0.75), 2))


def test_cis_determinant_quartic_r1(q4, scheme_quartic_r1):
    det_c = cis_determinant(q4, scheme_quartic_r1)
    assert det_c == pytest.approx(1 / 4096, rel=1e-9)
    # det Psi(x) = (-1)^(rho-1) z^(rho-s-1) det C
    psi = build_polyphase(q4, scheme_quartic_r1)
    for x in (0.0, 0.3, 0.71):
        z = np.exp(2j * np.pi * x)
        assert psi.det(x) == pytest.approx(-z ** 3 * det_c, abs=1e-12)


def test_cis_determinant_rejects_wide_or_split(db3, q3, scheme_cubic_split):
    with pytest.raises(ValueError):
        cis_determinant(db3, SamplingScheme((0.0, 0.5), 1))   # rho < mu
    with pytest.raises(ValueError):
        cis_determinant(q3, scheme_cubic_split)


def test_det_on_circle_quartic_r1(q4, scheme_quartic_r1):
    psi = build_polyphase(q4, scheme_quartic_r1)
    min_abs, _ = det_on_circle(psi)
    assert min_abs == pytest.approx(1 / 4096, rel=1e-9)
    with pytest.raises(ValueError):
        det_on_circle(psi, 16)


def test_det_on_circle_cubic_split(q3, scheme_cubic_split):
    # det Psi(x) = (9/64) z (z - 1): vanishes at z = 1, i.e. x = 0
    psi = build_polyphase(q3, scheme_cubic_split)
    min_abs, argmin = det_on_circle(psi)
    assert min_abs <= 1e-12
    assert argmin == 0.0
    for x in (0.1, 0.37, 0.5, 0.9):
        z = np.exp(2j * np.pi * x)
        assert psi.det(x) == pytest.approx(9 / 64 * z * (z - 1), abs=1e-12)


def test_det_on_circle_quartic_split(q4, scheme_cubic_split):
    # same offsets under Q4: det Psi(x) = -z (9 z^2 - 1426 z + 9) / 4096,
    # nonzero on the whole circle but not a monomial
    psi = build_polyphase(q4, scheme_cubic_split)
    min_abs, argmin = det_on_circle(psi)
    assert min_abs == pytest.approx(1408 / 4096, rel=1e-9)
    assert argmin == 0.0
    for x in (0.0, 0.3, 0.77):
        z = np.exp(2j * np.pi * x)
        expected = -z * (9 * z ** 2 - 1426 * z + 9) / 4096
        assert psi.det(x) == pytest.approx(expected, abs=1e-12)


def test_odd_circle_grid_samples_the_half_shift_zero(q4):
    # Q4 with the one offset 1/2 and r = 3: det Psi(1/2) = 0 by the symmetry
    # Q4(4 - t) = Q4(t); an odd grid k/33 alone never lands on x = 1/2
    psi = build_polyphase(q4, SamplingScheme((0.5,), 3))
    min_abs, argmin = det_on_circle(psi, 33)
    assert min_abs <= CIS_THRESHOLD
    assert argmin == 0.5
    phi_min, phi_max = pp.stability_bounds(q4)
    A, _ = frame_bounds(psi, phi_min, phi_max, 33)
    assert A <= 1e-12


def test_laurent_matrix_basics():
    ident = LaurentMatrix(2, {0: np.eye(2)})
    assert ident.powers() == [0]
    assert np.abs(ident(0.37) - np.eye(2)).max() < 1e-15
    assert ident.det(0.2) == pytest.approx(1.0)
    dropped = LaurentMatrix(2, {0: np.eye(2), 1: np.zeros((2, 2))})
    assert dropped.powers() == [0]
    with pytest.raises(ValueError):
        LaurentMatrix(2, {0: np.eye(3)})


def test_laurent_matrix_on_an_array_matches_pointwise(q4, scheme_hermite):
    psi = build_polyphase(q4, scheme_hermite)
    for n in (1, 5, 33, 256):
        xs = np.random.default_rng(n).uniform(-1.0, 2.0, n)
        stack = psi(xs)
        assert stack.shape == (n, 4, 4)
        assert np.array_equal(stack, np.stack([psi(x) for x in xs]))
    grid = np.arange(12).reshape(3, 4) / 12
    assert psi(grid).shape == (3, 4, 4, 4)


def test_circle_scans_match_the_pointwise_loop(q4, scheme_hermite,
                                               scheme_quartic_cheb):
    phi_min, phi_max = pp.stability_bounds(q4)
    for scheme in (scheme_hermite, scheme_quartic_cheb):
        psi = build_polyphase(q4, scheme)
        for n_grid in (33, 256):
            xs = np.arange(n_grid) / n_grid
            if n_grid % 2:
                xs = np.sort(np.append(xs, 0.5))
            vals = [abs(psi.det(x)) for x in xs]
            j = int(np.argmin(vals))
            assert det_on_circle(psi, n_grid) == (vals[j], xs[j])
            ev = [np.linalg.eigvalsh(psi(x).conj().T @ psi(x)) for x in xs]
            A, B = frame_bounds(psi, phi_min, phi_max, n_grid)
            assert A == pytest.approx(min(e[0] for e in ev) / phi_max, rel=1e-12)
            assert B == pytest.approx(max(e[-1] for e in ev) / phi_min, rel=1e-12)


def test_frame_bounds_identity():
    ident = LaurentMatrix(3, {0: np.eye(3)})
    A, B = frame_bounds(ident, 1.0, 1.0)
    assert A == pytest.approx(1.0)
    assert B == pytest.approx(1.0)


def test_frame_bounds_quartic_r1(q4, scheme_quartic_r1):
    psi = build_polyphase(q4, scheme_quartic_r1)
    phi_min, phi_max = pp.stability_bounds(q4)
    A, B = frame_bounds(psi, phi_min, phi_max)
    assert 0.0 < A <= B


def test_frame_bounds_collapse_for_singular_scheme(q3, scheme_cubic_split):
    psi = build_polyphase(q3, scheme_cubic_split)
    phi_min, phi_max = pp.stability_bounds(q3)
    A, B = frame_bounds(psi, phi_min, phi_max)
    assert A <= 1e-12
    assert B > 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-0.5, 0.5))
def test_zak_transform_quasi_periodicity(x, y):
    f = lambda t: pp.bspline_eval(4, 0, t)
    lhs = zak_transform(f, 1.0, x + 1.0, y, 8)
    rhs = np.exp(2j * np.pi * y) * zak_transform(f, 1.0, x, y, 8)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_zak_factorization_quartic_r1(q4, scheme_quartic_r1):
    # rho^rho det Psi(x) = det G(x) det B(x) on a coarse grid
    err = zak_factorization_error(q4, scheme_quartic_r1, 16)
    assert err < 1e-10


def zak_factorization_error(gen, scheme, n_grid):
    psi = build_polyphase(gen, scheme)
    rho = scheme.rho
    t, d = scheme.row_points, scheme.row_derivs
    lhs, rhs = [], []
    for x in np.arange(n_grid) / n_grid:
        G = np.zeros((rho, rho), dtype=complex)
        for i in range(rho):
            for j in range(rho):
                G[i, j] = zak_transform(
                    lambda u: gen.eval(float(u), int(d[i])),
                    1.0, float(t[i]), (-x + j) / rho, 8)
        B = np.exp(2j * np.pi * np.outer(np.arange(rho), x - np.arange(rho)) / rho)
        lhs.append(rho ** rho * psi.det(x))
        rhs.append(np.linalg.det(G) * np.linalg.det(B))
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())
