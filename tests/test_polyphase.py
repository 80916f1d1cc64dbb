from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnspredict as pp
from pnspredict.cli import load_config
from pnspredict.polyphase import (LaurentMatrix, SamplingScheme, _single_power,
                                  build_polyphase, cis_determinant,
                                  det_on_circle, frame_bounds, zak_transform)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    # det Psi(x) = (-1)^((s+1)(rho-1)) z^(rho-s-1) det C with s = 0, rho = 4
    psi = build_polyphase(q4, scheme_quartic_r1)
    for x in (0.0, 0.3, 0.71):
        z = np.exp(2j * np.pi * x)
        assert psi.det(x) == pytest.approx(-z ** 3 * det_c, abs=1e-12)


@pytest.mark.parametrize("order, offsets, r", [
    (4, (1.0, 1.25, 1.5, 1.75), 1),     # even rho: det Psi(0) = +det C
    (4, (1.5, 1.75), 2),                # even rho, with derivatives
    (3, (1.2, 1.5, 1.8), 1),            # odd rho
])
def test_cis_determinant_sign_in_cell_one(order, offsets, r):
    # det Psi(x) = (-1)^((s+1)(rho-1)) z^(rho-s-1) det C with s = 1: the
    # sign is + for every rho, where (-1)^(rho-1) would flip it for even rho
    gen = pp.BSplineGenerator(order)
    scheme = SamplingScheme(offsets, r)
    assert scheme.s == 1
    det_c = cis_determinant(gen, scheme)
    psi = build_polyphase(gen, scheme)
    for x in (0.0, 0.3, 0.71):
        z = np.exp(2j * np.pi * x)
        assert psi.det(x) == pytest.approx(z ** (scheme.rho - 2) * det_c,
                                           abs=1e-12 * abs(det_c))


def test_cis_determinant_rejects_wide_or_split(db3, q3, scheme_cubic_split):
    with pytest.raises(ValueError):
        cis_determinant(db3, SamplingScheme((0.0, 0.5), 1))   # rho < mu
    with pytest.raises(ValueError):
        cis_determinant(q3, scheme_cubic_split)


def test_det_on_circle_quartic_r1(q4, scheme_quartic_r1):
    psi = build_polyphase(q4, scheme_quartic_r1)
    min_abs, _ = det_on_circle(psi)
    assert min_abs == pytest.approx(1 / 4096, rel=1e-9)


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


class _CountingQ4(pp.BSplineGenerator):
    def __init__(self):
        super().__init__(4)
        self.points = 0

    def eval(self, t, s=0):
        self.points += np.size(t)
        return super().eval(t, s)


@pytest.mark.parametrize("offsets, r, n_powers", [
    ((0.0, 0.25, 0.5, 0.75), 1, 2),     # rho = mu = 4: k < 7/4
    ((0.25, 0.75), 2, 2),
    ((0.5, 2.5), 2, 2),                 # offsets in two cells
    ((0.1, 0.3, 0.5, 0.7, 0.9), 1, 2),  # rho = 5 > mu
    ((0.5,), 3, 2),                     # rho = 3: k < 2
    ((0.5,), 2, 3),                     # rho = 2: k < 5/2
    ((0.5,), 1, 4),                     # rho = 1: k < 4
])
def test_build_polyphase_evaluates_only_powers_below_its_bound(offsets, r, n_powers):
    # phi^(p)(t + rho k - q) vanishes once rho k - rho + 1 >= mu, so the
    # matrices stop at k < 1 + (mu - 1)/rho, one point per entry each
    gen = _CountingQ4()
    scheme = SamplingScheme(offsets, r)
    psi = build_polyphase(gen, scheme)
    assert gen.points == n_powers * scheme.rho ** 2
    assert psi.powers() == list(range(n_powers))


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


def test_circle_scans_match_the_pointwise_loop(q4, db3, scheme_cubic_split):
    # schemes with more than one power in a column, which are scanned
    xs = np.arange(256) / 256
    for gen, scheme in ((q4, scheme_cubic_split), (q4, SamplingScheme((0.5,), 3)),
                        (db3, SamplingScheme((0.0, 0.5)))):
        phi_min, phi_max = pp.stability_bounds(gen)
        psi = build_polyphase(gen, scheme)
        assert _single_power(psi) is None
        vals = [abs(psi.det(x)) for x in xs]
        j = int(np.argmin(vals))
        assert det_on_circle(psi) == (vals[j], xs[j])
        ev = [np.linalg.eigvalsh(psi(x).conj().T @ psi(x)) for x in xs]
        A, B = frame_bounds(psi, phi_min, phi_max)
        assert A == pytest.approx(max(min(e[0] for e in ev), 0.0) / phi_max,
                                  rel=1e-12)
        assert B == pytest.approx(max(e[-1] for e in ev) / phi_min, rel=1e-12)


_SINGLE_POWER = ("quartic_r1", "quartic_hermite", "quartic_r1_chebyshev", "db3_r1")


def _config_psi(name):
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    return build_polyphase(cfg.gen, cfg.scheme)


@pytest.mark.parametrize("name", _SINGLE_POWER)
def test_single_power_det_is_det_m_and_the_scan_agrees(name):
    # Psi(z) = M diag(z^e): |det Psi| is |det M| on the whole circle
    psi = _config_psi(name)
    M, e = _single_power(psi)
    assert np.array_equal(M, psi.coeff(0) + psi.coeff(1))
    assert sorted(set(e.tolist())) == [0, 1]
    det_m = abs(np.linalg.det(M))
    assert det_on_circle(psi) == (det_m, 0.0)
    dets = np.abs(np.linalg.det(psi(np.arange(256) / 256)))
    cond = np.linalg.cond(M)
    assert np.abs(dets - det_m).max() <= cond * np.finfo(float).eps * det_m


def _fraction_det(rows):
    """Exact determinant of a square matrix of Fractions (elimination)."""
    a = [list(row) for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@pytest.mark.parametrize("name", ("quartic_r1", "quartic_hermite",
                                  "quartic_r1_chebyshev"))
def test_single_power_frame_bound_brackets_the_exact_eigenvalue(name):
    # A = sigma_min(M)^2 with phi_max = 1.  det(M^T M - x I), exact, is
    # positive below the smallest eigenvalue and negative between it and the
    # next, so its signs at A (1 -+ 1e-12) bracket sigma_min^2 to 1e-12
    psi = _config_psi(name)
    M, _ = _single_power(psi)
    lam, _ = frame_bounds(psi, 1.0, 1.0)
    F = [[Fraction(v) for v in row] for row in M.tolist()]
    n = len(F)
    gram = [[sum(F[k][i] * F[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]

    def char(x):
        return _fraction_det([[g - (x if i == j else 0) for j, g in enumerate(row)]
                              for i, row in enumerate(gram)])
    assert char(Fraction(lam) * Fraction(1 - 1e-12)) > 0
    assert char(Fraction(lam) * Fraction(1 + 1e-12)) < 0


@pytest.mark.parametrize("name", _SINGLE_POWER)
def test_one_psi_is_split_once_with_the_bits_of_a_fresh_one(name, monkeypatch):
    # each question on a fresh Psi, then all three on one Psi, counting the
    # splits (each reads psi.powers() once)
    cfg = load_config(str(CONFIGS / f"{name}.cfg"))
    phi = pp.stability_bounds(cfg.gen)
    det = det_on_circle(_config_psi(name))
    frame = frame_bounds(_config_psi(name), *phi)
    inv = pp.invert_polyphase(_config_psi(name))
    psi = _config_psi(name)
    splits = []
    powers = LaurentMatrix.powers
    monkeypatch.setattr(LaurentMatrix, "powers",
                        lambda self: splits.append(self) or powers(self))
    assert det_on_circle(psi) == det
    assert frame_bounds(psi, *phi) == frame
    again = pp.invert_polyphase(psi)
    assert [m is psi for m in splits] == [True]
    assert again.coeffs.keys() == inv.coeffs.keys()
    for k, mat in inv.coeffs.items():
        assert again.coeffs[k].tobytes() == mat.tobytes()
    M, e = _single_power(psi)
    assert not M.flags.writeable and not e.flags.writeable


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


def test_frame_bounds_collapse_for_singular_scheme(q3, q4, scheme_cubic_split):
    # zeros of det Psi at x = 0 (Q3, split cells) and at x = 1/2 (Q4 with
    # the one offset 1/2 and r = 3, by the symmetry Q4(4 - t) = Q4(t))
    for gen, scheme in ((q3, scheme_cubic_split), (q4, SamplingScheme((0.5,), 3))):
        psi = build_polyphase(gen, scheme)
        phi_min, phi_max = pp.stability_bounds(gen)
        A, B = frame_bounds(psi, phi_min, phi_max)
        assert A <= 1e-12
        assert B > 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-0.5, 0.5))
def test_zak_transform_quasi_periodicity(x, y):
    f = pp.BSplineGenerator(4).eval
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
    # row i = n r + p reads derivative p at offset x_n
    t = np.repeat(scheme.offsets, scheme.r)
    d = np.tile(np.arange(scheme.r), scheme.L)
    # every x and j reads row i at the same points t_i - k: evaluate each once
    phi = lru_cache(maxsize=None)(gen.eval)
    lhs, rhs = [], []
    for x in np.arange(n_grid) / n_grid:
        G = np.zeros((rho, rho), dtype=complex)
        for i in range(rho):
            for j in range(rho):
                G[i, j] = zak_transform(
                    lambda u: phi(float(u), int(d[i])),
                    1.0, float(t[i]), (-x + j) / rho, 8)
        B = np.exp(2j * np.pi * np.outer(np.arange(rho), x - np.arange(rho)) / rho)
        lhs.append(rho ** rho * psi.det(x))
        rhs.append(np.linalg.det(G) * np.linalg.det(B))
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())
