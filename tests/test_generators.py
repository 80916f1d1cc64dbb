import gc
import tracemalloc
import weakref
from fractions import Fraction
from functools import cache
from math import ceil, comb, factorial, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnspredict import generators
from pnspredict.generators import (_BLOCK, BSplineGenerator, DaubechiesGenerator,
                                   Generator, _autocorrelation, _bspline_pieces,
                                   _circle_extremes, _daubechies_table, _expand,
                                   _refinement_fixed_point, _refinement_matrix,
                                   _refinement_residual, _tap_sum, daubechies_taps,
                                   generator_from_descriptor, stability_bounds)
from pnspredict.moments import reproduction_order

# published extremal-phase db3 filter
DB3_TAPS = (0.3326705529500825, 0.8068915093110924, 0.4598775021184914,
            -0.1350110200102546, -0.0854412738820267, 0.0352262918857095)


def test_bspline_partition_of_unity():
    for m in range(2, 7):
        ts = np.linspace(0.05, 0.95, 19)
        total = sum(BSplineGenerator(m).eval(ts + k) for k in range(m))
        assert np.abs(total - 1.0).max() < 1e-12


def test_bspline_known_values():
    assert BSplineGenerator(4).eval(1.0) == pytest.approx(1 / 6, abs=1e-14)
    assert BSplineGenerator(4).eval(2.0) == pytest.approx(2 / 3, abs=1e-14)
    assert BSplineGenerator(4).eval(3.0) == pytest.approx(1 / 6, abs=1e-14)
    assert BSplineGenerator(2).eval(1.0) == pytest.approx(1.0, abs=1e-14)
    assert BSplineGenerator(3).eval(1.5) == pytest.approx(3 / 4, abs=1e-14)


def test_bspline_symmetry():
    ts = np.linspace(-1.0, 5.0, 201)
    for m in (2, 3, 4, 5):
        gen = BSplineGenerator(m)
        assert np.abs(gen.eval(ts) - gen.eval(m - ts)).max() < 1e-12


def test_indicator_is_right_continuous():
    box = BSplineGenerator(1)
    vals = box.eval(np.array([-0.1, 0.0, 0.5, 1.0, 1.1]))
    assert vals.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]


def test_bspline_derivatives_match_finite_differences(q4):
    h = 1e-6
    ts = np.linspace(0.13, 3.87, 41)
    for s in (1, 2):
        fd = (q4.eval(ts + h, s - 1) - q4.eval(ts - h, s - 1)) / (2 * h)
        assert np.abs(q4.eval(ts, s) - fd).max() < 1e-5


@given(st.floats(min_value=-3.0, max_value=9.0))
def test_bspline_support(t):
    v = BSplineGenerator(4).eval(t)
    if t <= 0.0 or t >= 4.0:
        assert v == 0.0
    else:
        assert v >= 0.0


def test_bspline_eval_input_validation():
    with pytest.raises(ValueError):
        BSplineGenerator(1).eval(0.5, 1)
    with pytest.raises(ValueError):
        BSplineGenerator(4).eval(0.5, 4)
    with pytest.raises(ValueError):
        BSplineGenerator(0)


@pytest.mark.parametrize("m, s", [(1, -1), (1, 1), (4, -1), (4, 4)])
@pytest.mark.parametrize("reader", ["piece", "eval"])
def test_bspline_derivative_order_out_of_range(m, s, reader):
    # piece used to read s = -1 from the end of its table (Q_m^(m-1)) and
    # to fail s = m with an IndexError
    gen = BSplineGenerator(m)
    with pytest.raises(ValueError, match=f"derivative order {s} out of range "
                       f"for Q_{m}"):
        if reader == "piece":
            gen.piece(0, np.array([0.5]), s)
        else:
            gen.eval(np.array([0.5]), s)


def _truncated_power(m, s, t):
    """Q_m^(s)(t) in exact arithmetic from the truncated powers
    sum_j (-1)^j C(m, j) (t - j)_+^(m-1-s) / (m-1-s)!, where the power 0 is
    the right-continuous step."""
    t, p = Fraction(t), m - 1 - s
    return sum((-1) ** j * comb(m, j) * (t - j) ** p
               for j in range(m + 1) if t >= j) / factorial(p)


@pytest.mark.parametrize("m", range(1, 7))
def test_bspline_eval_matches_truncated_powers(m):
    gen = BSplineGenerator(m)
    knots = np.arange(-1.0, m + 2.0)
    ts = np.random.default_rng(m).uniform(-1.0, m + 1.0, 200)
    for s in range(m):
        # at the knots the piece tables hold the exact values rounded once
        want = [float(_truncated_power(m, s, t)) for t in knots]
        assert gen.eval(knots, s).tolist() == want
        want = np.array([float(_truncated_power(m, s, t)) for t in ts])
        scale = np.abs(want).max()
        assert np.abs(gen.eval(ts, s) - want).max() <= 4 * m * np.finfo(float).eps * scale
        off = gen.eval(np.array([-np.inf, np.inf, np.nan]), s)
        assert off[:2].tolist() == [0.0, 0.0] and np.isnan(off[2])


def test_generator_without_piece_raises():
    class Bare(Generator):
        mu = 2.0
        regularity = 0

    with pytest.raises(NotImplementedError):
        Bare().eval(np.linspace(-1.0, 3.0, 9))


def test_bspline_piece_tables_are_shared_and_read_only():
    tables = _bspline_pieces(4)
    assert _bspline_pieces(4) is tables
    assert len(tables) == 4 and tables[0].shape == (4, 4)
    with pytest.raises(ValueError):
        tables[0][0, 0] = 1.0
    # stability_bounds reads Q_2m for a(k); a second call builds no table
    stability_bounds(BSplineGenerator(3))
    misses = _bspline_pieces.cache_info().misses
    stability_bounds(BSplineGenerator(3))
    assert _bspline_pieces.cache_info().misses == misses


def test_autocorrelation_is_shared_per_kind_and_order():
    # two instances of one order read one entry; no generator is kept
    first, second = BSplineGenerator(4), BSplineGenerator(4)
    bounds = stability_bounds(first)
    corr = _autocorrelation("bspline", 4)
    sizes = _autocorrelation.cache_info().currsize, _circle_extremes.cache_info().currsize
    assert stability_bounds(second) == bounds
    assert _autocorrelation("bspline", 4) is corr
    assert (_autocorrelation.cache_info().currsize,
            _circle_extremes.cache_info().currsize) == sizes
    with pytest.raises(ValueError):
        corr[0] = 1.0
    for desc in ({"kind": "bspline", "order": 5},
                 {"kind": "daubechies", "order": 3, "level": 10}):
        gen = generator_from_descriptor(desc)
        stability_bounds(gen)
        ref = weakref.ref(gen)
        del gen
        gc.collect()
        assert ref() is None
    # the Daubechies entry is the one the generator's own taps give
    gen = DaubechiesGenerator(3)
    n = len(gen.taps) - 1
    own = _refinement_fixed_point(np.correlate(gen.taps, gen.taps, "full"),
                                  -n, 1 - n, n)[n - 1:]
    assert _autocorrelation("daubechies", 3).tobytes() == own.tobytes()


def test_bspline_generator_metadata(q4):
    assert q4.mu == 4.0
    assert q4.regularity == 2
    assert q4.kind == "bspline"
    assert BSplineGenerator(1).regularity == 0
    # evaluation one order past the continuous derivatives is allowed
    assert q4.eval(0.5, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        q4.eval(0.5, 4)


def test_daubechies_taps_match_published():
    h = daubechies_taps(3)
    assert np.abs(np.asarray(h) - DB3_TAPS).max() < 1e-10


def test_daubechies_taps_build_up_to_order_eleven():
    # one orthonormality check at 1e-10: polyroots' rounding passes it up to
    # d = 11 and fails it from d = 12
    for d in range(2, 12):
        assert len(daubechies_taps(d)) == 2 * d
    with pytest.raises(RuntimeError, match="filter orthonormality check failed"):
        daubechies_taps(12)


def test_daubechies_taps_orthonormal():
    for d in (2, 3, 4):
        h = np.asarray(daubechies_taps(d))
        assert len(h) == 2 * d
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert (h * h).sum() == pytest.approx(1.0, abs=1e-12)
        for shift in range(1, d):
            assert np.dot(h[2 * shift:], h[:len(h) - 2 * shift]) == \
                pytest.approx(0.0, abs=1e-12)


def test_daubechies_integer_values(db3):
    want = {0: 0.0, 1: 1.2863350694256972, 2: -0.3858369610458763,
            3: 0.09526754600378097, 4: 0.004234345616398095, 5: 0.0}
    for k, v in want.items():
        assert db3.eval(float(k)) == pytest.approx(v, abs=1e-9)
    assert sum(db3.eval(float(k)) for k in range(6)) == pytest.approx(1.0, abs=1e-12)
    # at an integer the piece is the refinement fixed point carried through
    # P_0 = T_0^n, which holds it fixed up to rounding; phi(0) = 0 exactly,
    # since row 0 of T_0 is (sqrt(2) h_0, 0, ..., 0)
    fixed = _daubechies_table(3, 0)[1]
    got = np.array([db3.eval(float(k)) for k in range(6)])
    assert np.abs(got - fixed).max() <= 1e-14
    assert got[0] == 0.0 and got[5] == 0.0


def test_daubechies_refinement_identity(db3):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 5.0, 50)
    direct = db3.eval(ts)
    refined = np.zeros_like(direct)
    for k, hk in enumerate(db3.taps):
        refined += np.sqrt(2.0) * hk * db3.eval(2.0 * ts - k)
    assert np.abs(direct - refined).max() < 1e-5


def test_daubechies_partition_of_unity(db3):
    ts = np.linspace(0.02, 0.98, 25)
    total = sum(db3.eval(ts + k) for k in range(5))
    assert np.abs(total - 1.0).max() < 1e-5


def test_daubechies_rejects_derivatives(db3):
    assert db3.regularity == 0
    for t in (0.5, -1.0, np.array([0.5, -1.0])):
        with pytest.raises(ValueError):
            db3.eval(t, 1)


@pytest.mark.parametrize("gen", [BSplineGenerator(m) for m in range(1, 7)]
                         + [DaubechiesGenerator(d) for d in range(2, 9)], ids=repr)
def test_scalar_eval_matches_the_array_path(gen):
    # a float is read as a 1-point array; it must agree bit for bit with the
    # same point in a batch, sign of zero included.  db5 to db8 sum mu >= 9
    # products per piece, where a pairwise sum would change with the batch.
    ts = np.concatenate([np.random.default_rng(7).uniform(-1.0, gen.mu + 1.0, 2000),
                         np.arange(-1.0, gen.mu + 2.0), [-0.0, np.nextafter(gen.mu, 0),
                                                          -np.inf, np.inf]])
    for s in range(getattr(gen, "m", 1)):
        want = gen.eval(ts, s)
        for t, w in zip(ts.tolist(), want):
            for point in (t, np.float64(t)):
                got = gen.eval(point, s)
                assert type(got) is float
                assert np.float64(got).tobytes() == w.tobytes(), (t, s)


def _product_gain(gen):
    """pi: the largest row-sum norm of a product of at most n = min(level, 8)
    refinement matrices T_b[i, j] = sqrt(2) h_(2i + b - j), and 1."""
    filt = sqrt(2.0) * gen.taps
    mu = len(filt) - 1
    T = np.stack([_refinement_matrix(filt, -b, 0, mu) for b in (0, 1)])
    prods, gain = np.eye(mu)[None], 1.0
    for _ in range(min(gen.level, generators._PRODUCT_BITS)):
        prods = (T[:, None] @ prods[None]).reshape(-1, mu, mu)
        gain = max(gain, float(np.abs(prods).sum(axis=2).max()))
    return gain


def _interp_bound(gen, table):
    """A bound on |piece - interpolated table| argued to first order.

    Both start from the same coarse values: the cascade's entries of level
    level - n, which the level-`level` table holds bit for bit.  From there
    each makes n refinement steps.  A step's value is a sum of at most 2d
    tap products, so it errs by at most gamma tau Phi, with
    gamma = 2d eps / (1 - 2d eps), tau = sum_k |sqrt(2) h_k| (the row sums
    of |T_b|) and Phi = max |phi|; each later step carries that error on
    with a gain of at most pi (`_product_gain`).
    - The table: n steps and one interpolation, n pi gamma tau Phi + 3 eps Phi.
    - The pieces: each of the n products that make P_p errs by gamma tau pi,
      carried on by pi, so P_p errs by n gamma tau pi^2; the interpolated
      rows err by 3 eps Phi, carried on by pi; the last sum of mu products
      errs by gamma pi Phi.
    With pi, tau >= 1 and 3 eps <= gamma, the two together stay below
    (2n + 3) gamma tau pi^2 Phi.
    """
    eps = np.finfo(float).eps
    n = min(gen.level, generators._PRODUCT_BITS)
    gamma = 2 * gen.d * eps / (1 - 2 * gen.d * eps)
    tau = float(np.abs(sqrt(2.0) * gen.taps).sum())
    return (2 * n + 3) * gamma * tau * _product_gain(gen) ** 2 * np.abs(table).max()


@pytest.mark.parametrize("d", range(2, 12))
def test_daubechies_eval_matches_interp_on_the_table(d):
    # linear interpolation of the dyadic table, read through pieces and
    # through eval, zero off (0, mu): db2-db4 at the default level 18;
    # db5-db11 at level 12, where the same 8 product bits meet a level-4
    # table, so that their reference tables are quick to build
    gen = DaubechiesGenerator(d, 18 if d <= 4 else 12)
    taps, table = _daubechies_table.__wrapped__(d, gen.level)
    assert taps.tobytes() == gen.taps.tobytes()
    # the coarse values both paths start from, as the bound assumes
    n = min(gen.level, generators._PRODUCT_BITS)
    assert table[::1 << n].tobytes() == _daubechies_table(d, gen.level - n)[1].tobytes()
    bound = _interp_bound(gen, table)
    # db2-db4 are the generators the configs use
    if d <= 4:
        bound = min(bound, 1e-14)
    rng = np.random.default_rng(d)
    u = rng.uniform(0.0, 1.0, 100_000)
    pos = u * 2.0 ** gen.level
    cell = np.floor(pos).astype(np.intp)
    # in the blocks _expand reads them in
    got = np.hstack([list(gen.pieces(u[a:a + gen._block]))
                     for a in range(0, len(u), gen._block)])
    for q, val in enumerate(got):
        lo = table[cell + (q << gen.level)]
        want = lo + (table[cell + (q << gen.level) + 1] - lo) * (pos - cell)
        assert np.abs(val - want).max() <= bound, q
    grid = np.arange(len(table)) * 2.0 ** (-gen.level)
    ts = np.concatenate([rng.uniform(-1.0, gen.mu + 1.0, 100_000),
                         np.linspace(-1.0, gen.mu + 1.0, 1601)])
    want = np.interp(ts, grid, table, left=0.0, right=0.0)
    got = gen.eval(ts)
    off = (ts <= 0.0) | (ts >= gen.mu)
    assert np.all(got[off] == 0.0)
    assert np.abs(got - want).max() <= bound
    assert np.isnan(gen.eval(np.nan))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_daubechies_arrays_stay_small(d):
    # the coarse table grows as 2^(level - 8), the products not at all; a
    # level-18 table held 6.3-14.7 MB for these orders
    def arrays(level):
        gen = DaubechiesGenerator(d, level)
        return {k: v.nbytes for k, v in vars(gen).items() if isinstance(v, np.ndarray)}
    at = {level: arrays(level) for level in (8, 12, 18)}
    assert sum(at[18].values()) < 256 * 1024
    for level in (12, 18):
        for name, nbytes in at[level].items():
            assert nbytes <= at[8][name] << (level - 8), (name, level)


def test_daubechies_level_controls_resolution():
    # off the dyadic grids the linear interpolation is all the error there is
    ts = np.linspace(0.0, 5.0, 1001)[1:-1] + 1e-3 / 3
    fine = DaubechiesGenerator(3, level=18).eval(ts)
    errs = [np.abs(DaubechiesGenerator(3, level=level).eval(ts) - fine).max()
            for level in (6, 10)]
    assert errs[0] > errs[1]


def test_descriptor_round_trip(q4, db3):
    for gen in (q4, db3):
        clone = generator_from_descriptor(gen.descriptor())
        ts = np.linspace(0.0, gen.mu, 41)
        assert np.array_equal(clone.eval(ts), gen.eval(ts))


def test_descriptor_without_level_uses_constructor_default(db3):
    desc = {"kind": "daubechies", "order": 3}
    assert generator_from_descriptor(desc).level == DaubechiesGenerator(3).level


@pytest.mark.parametrize("desc", [
    {"kind": "daubechies", "order": 3.7, "level": 12},
    {"kind": "daubechies", "order": 3, "level": 12.9},
    {"kind": "bspline", "order": 4.5},
    {"kind": "bspline", "order": "4"},
])
def test_descriptor_refuses_what_is_not_a_whole_number(desc):
    # int() used to truncate these to db3, level 12 and Q4
    with pytest.raises(ValueError, match="must be an integer"):
        generator_from_descriptor(desc)


def test_stability_bounds_quadratic_spline():
    lo, hi = stability_bounds(BSplineGenerator(2))
    assert lo == pytest.approx(1 / 3, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_stability_bounds_quartic_spline(q4):
    lo, hi = stability_bounds(q4)
    assert lo == pytest.approx(17 / 315, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < lo <= hi


def test_stability_bounds_box_spline():
    # Q1 is orthonormal: a(k) = delta_k
    assert stability_bounds(BSplineGenerator(1)) == (1.0, 1.0)


def _sinc_series(m, w):
    """sum_n sinc(w + n)^(2m), truncated where (pi n)^(-2m) drops below 1e-14."""
    n_max = int(np.ceil(10.0 ** (14.0 / (2 * m)) / np.pi)) + 1
    ns = np.arange(-n_max, n_max + 1)
    return (np.sinc(w[:, None] + ns[None, :]) ** (2 * m)).sum(axis=1)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_stability_bounds_match_sinc_series(m):
    # |phihat(w)|^2 = sinc(w)^(2m); the cosine sum must agree to the series'
    # own truncation error
    phi = _sinc_series(m, np.linspace(0.0, 1.0, 257))
    lo, hi = stability_bounds(BSplineGenerator(m))
    assert lo == pytest.approx(phi.min(), abs=1e-10)
    assert hi == pytest.approx(phi.max(), abs=1e-10)


def test_bspline_unit_integral():
    for m in range(2, 7):
        ts = np.linspace(0.0, m, 4001)
        total = np.trapezoid(BSplineGenerator(m).eval(ts), ts)
        assert total == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=3))
def test_bspline_derivative_sums_telescope(m, s):
    # d/dt sum_k Q_m(t - k) = 0 inside the overlap region
    if s == 0 or s > m - 1:
        return
    ts = np.linspace(0.05, 0.95, 11)
    total = sum(BSplineGenerator(m).eval(ts + k, s) for k in range(-1, m + 1))
    assert np.abs(total).max() < 1e-10


# Generators the piece-wise evaluator is checked on: Q2..Q6 (their piece
# polynomials) and db2..db4 (their dyadic-table path).
EVALUATOR_GENERATORS = ("Q2", "Q3", "Q4", "Q5", "Q6", "db2", "db3", "db4")
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 0.1)


@cache
def _generator(name):
    if name.startswith("Q"):
        return BSplineGenerator(int(name[1:]))
    return DaubechiesGenerator(int(name[2:]), level=12)


@cache
def _peak(name):
    gen = _generator(name)
    return float(np.abs(gen.eval(np.linspace(0.0, gen.mu, 4001))).max())


@pytest.mark.parametrize("name", EVALUATOR_GENERATORS)
def test_piece_matches_eval(name):
    gen = _generator(name)
    u = np.concatenate([np.linspace(0.0, 1.0, 257),
                        np.random.default_rng(5).uniform(0.0, 1.0, 200)])
    for q in range(ceil(gen.mu)):
        diff = np.abs(gen.piece(q, u) - gen.eval(u + q)).max()
        assert diff <= 1e-12 * _peak(name)


@pytest.mark.parametrize("name", ("Q3", "Q4", "Q5", "Q6", "db2", "db3", "db4"))
def test_pieces_are_the_pieces_bit_for_bit(name):
    gen = _generator(name)
    u = np.concatenate([np.linspace(0.0, 1.0, 257), [np.nan],
                        np.random.default_rng(6).uniform(0.0, 1.0, 200)])
    got = list(gen.pieces(u))
    assert len(got) == ceil(gen.mu)
    for q, val in enumerate(got):
        assert val.tobytes() == gen.piece(q, u).tobytes(), q


@pytest.mark.parametrize("name", ("Q5", "db3"))
def test_expand_columns_equal_single_columns_bit_for_bit(name):
    gen = _generator(name)
    coefs = np.random.default_rng(8).normal(size=(7, 3))
    nodes = np.array([4.0, 4.25, 4.5, 4.75, 5.1])
    weights = np.array([1.0, -2.0, 3.0, 0.5, -0.25])
    # more points than one block holds, as a 2-D grid
    x = _edge_points(gen.mu, infinite=False)[:2 * _BLOCK + 6].reshape(-1, 2)
    out = _expand(gen, coefs, -2, nodes, weights, x)
    assert out.shape == x.shape + (3,)
    for j in range(3):
        want = _expand(gen, coefs[:, j], -2, nodes, weights, x)
        assert out[..., j].tobytes() == want.tobytes(), j


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(EVALUATOR_GENERATORS),
       terms=st.lists(st.tuples(st.integers(-6, 6), st.sampled_from(FRACTIONS),
                                st.floats(-10.0, 10.0)), min_size=1, max_size=12),
       between=st.lists(st.floats(-9.0, 14.0), max_size=20))
@example(name="Q2", terms=[(0, 0.0, 5e-324), (0, 0.0, 5e-324)], between=[])
def test_expand_matches_direct_sum(name, terms, between):
    gen = _generator(name)
    shifts = np.array([k + d for k, d, _ in terms])
    coefs = np.array([c for _, _, c in terms])
    # points on the knots of every shift class, and between them
    knots = [k + d for k in range(-8, 14) for d in FRACTIONS]
    x = np.array(knots + between)
    direct = sum(c * gen.eval(x - s) for s, c in zip(shifts, coefs))
    # the absolute term keeps the bound above zero when every coefficient
    # is subnormal and the relative term underflows
    bound = 1e-12 * np.abs(coefs).sum() * _peak(name) + 4 * np.finfo(float).tiny
    assert np.abs(_expand(gen, [1.0], 0, shifts, coefs, x) - direct).max() <= bound


# Reference for the Daubechies table: the cascade as first written, with a
# boolean-mask gather per tap and the refinement residual read back through
# np.interp.  The strided-slice cascade must reproduce it bit for bit.
def _mask_cascade(d, level):
    h = daubechies_taps(d)
    mu = 2 * d - 1
    size = mu - 1
    T = np.zeros((size, size))
    for i in range(1, mu):
        for j in range(1, mu):
            k = 2 * i - j
            if 0 <= k < len(h):
                T[i - 1, j - 1] = sqrt(2.0) * h[k]
    evals, evecs = np.linalg.eig(T)
    v = np.real(evecs[:, int(np.argmin(np.abs(evals - 1.0)))])
    v /= v.sum()
    values = np.zeros(mu + 1)
    values[1:mu] = v
    for lev in range(1, level + 1):
        n_prev = len(values)
        fine = np.zeros(2 * (n_prev - 1) + 1)
        fine[::2] = values
        odd = np.arange(1, len(fine), 2)
        acc = np.zeros_like(odd, dtype=float)
        for k, hk in enumerate(h):
            src = odd - k * 2 ** (lev - 1)
            ok = (src >= 0) & (src < n_prev)
            acc[ok] += sqrt(2.0) * hk * values[src[ok]]
        fine[odd] = acc
        values = fine
    return h, values


def _interp_residual(h, values, level):
    step = 2.0 ** (-level)
    args = 2.0 * np.arange(len(values)) * step
    interp = np.zeros_like(values)
    for k, hk in enumerate(h):
        interp += sqrt(2.0) * hk * np.interp(args - k, np.arange(len(values)) * step,
                                             values, left=0.0, right=0.0)
    return float(np.abs(interp - values).max())


@pytest.mark.parametrize("d", (2, 3, 4))
def test_daubechies_table_matches_mask_cascade(d):
    # the dyadic values are exact at every level, the coarse ones included
    # levels 13 and 14 run over several blocks: 13's last level ends in a
    # partial one, 14's residual in a single entry
    for level in list(range(1, 11)) + ([18] if d == 3 else [13, 14]):
        h, want = _mask_cascade(d, level)
        taps, values = _daubechies_table.__wrapped__(d, level)
        assert np.array_equal(taps, h)
        assert np.array_equal(values, want)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_refinement_residual_matches_interp(d):
    h, values = _mask_cascade(d, 8)
    resid = _refinement_residual(h, values, 8)
    assert resid == _interp_residual(h, values, 8)
    assert resid < 1e-14


def _full_table_residual(h, values, level):
    """The residual over every table point, block by block through
    _tap_sum, as the check read it before it kept to the integer points."""
    even = values[::2]
    terms = [(sqrt(2.0) * hk, even, k << (level - 1)) for k, hk in enumerate(h)]
    acc, tmp = np.empty((2, _BLOCK))
    resid = 0.0
    for a in range(0, len(values), _BLOCK):
        interp = _tap_sum(terms, a, min(_BLOCK, len(values) - a), acc, tmp)
        interp -= values[a:a + len(interp)]
        resid = np.maximum(resid, np.abs(interp, out=interp).max())
    return float(resid)


@pytest.mark.parametrize("d", range(2, 7))
def test_refinement_residual_is_the_full_table_residual(d):
    # off the integers the cascade wrote each value as the residual would
    # recompute it, so reading the integer points alone loses nothing
    for level in (1, 2, 5, 12):
        h, values = _daubechies_table.__wrapped__(d, level)
        assert _refinement_residual(h, values, level) == _full_table_residual(
            h, values, level)


def test_refinement_residual_sees_a_perturbed_entry():
    h, values = _mask_cascade(3, 8)
    bad = values.copy()
    bad[3 * 2 ** 8] += 1e-6
    assert _refinement_residual(h, values, 8) < 1e-14
    assert _refinement_residual(h, bad, 8) > 1e-8


def test_refinement_residual_sees_every_integer_entry():
    h, values = _daubechies_table.__wrapped__(2, 14)
    assert _refinement_residual(h, values, 14) < 1e-14
    for j in range(4):
        bad = values.copy()
        bad[j << 14] += 1e-6
        assert _refinement_residual(h, bad, 14) > 1e-8, j


def test_a_broken_integer_value_stops_the_table(monkeypatch):
    def broken(*args):
        v = _refinement_fixed_point(*args)
        v[1] += 1e-6
        return v

    monkeypatch.setattr(generators, "_refinement_fixed_point", broken)
    with pytest.raises(RuntimeError, match="cascade failed to converge: "
                       "refinement residual"):
        _daubechies_table.__wrapped__(3, 8)


def _traced_peak(fn, *args):
    """(result, peak bytes traced while fn(*args) ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", (2, 3, 4))
def test_daubechies_table_needs_little_beyond_itself(d):
    (_, values), peak = _traced_peak(_daubechies_table.__wrapped__, d, 18)
    assert peak <= values.nbytes + 2 ** 20


@pytest.mark.parametrize("gen", [BSplineGenerator(5), DaubechiesGenerator(3)], ids=repr)
def test_expand_needs_little_beyond_its_points(gen):
    x = np.linspace(-3.0, 30.0, 200_000)
    nodes = np.array([4.0, 4.25, 4.5, 4.75])
    out, peak = _traced_peak(_expand, gen, np.arange(1.0, 8.0), -2, nodes,
                             np.array([1.0, -2.0, 3.0, 0.5]), x)
    assert peak <= out.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("args", [(3.7,), (3, 2.5), (3.0,), (3, 18.0), ("3",),
                                  (3, "18"), (3, 0), (1,)])
def test_daubechies_refuses_bad_arguments_before_the_table(args):
    # int() would truncate 3.7 to db3 and 2.5 to level 2
    def build():
        with pytest.raises(ValueError, match="must be an integer"):
            DaubechiesGenerator(*args)
    _, peak = _traced_peak(build)
    assert peak < 2 ** 20
    gen = DaubechiesGenerator(np.int64(2), np.int64(4))
    assert (gen.d, gen.level) == (2, 4) and type(gen.level) is int


# Points straddling the block edges, with the values that take special paths
# (knots, the support's ends, NaN and the infinities) at the edges.
_EDGE_N = 3 * _BLOCK + 5
_CUTS = (0, 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 2, _EDGE_N)


def _edge_points(mu, infinite=True):
    x = np.random.default_rng(11).uniform(-2.0, mu + 12.0, _EDGE_N)
    x[_BLOCK - 2:_BLOCK + 6] = [0.0, -0.0, mu, np.nextafter(mu, 0), 1.0, np.nan,
                                np.inf if infinite else 3.0, -np.inf if infinite else 0.5]
    x[-3:] = [2.0, 0.25, mu + 7.5]
    return x


def _slice_by_slice(fn, x):
    return np.concatenate([fn(x[a:b]) for a, b in zip(_CUTS, _CUTS[1:])])


@pytest.mark.parametrize("name", ("Q5", "db3"))
def test_expand_over_block_edges_matches_slices(name):
    gen = _generator(name)
    x = _edge_points(gen.mu, infinite=False)
    nodes = np.array([4.0, 4.25, 4.5, 4.75, 5.1])
    weights = np.array([1.0, -2.0, 3.0, 0.5, -0.25])

    def fn(pts):
        return _expand(gen, np.arange(1.0, 8.0), -2, nodes, weights, pts)
    assert fn(x).tobytes() == _slice_by_slice(fn, x).tobytes()


@pytest.mark.parametrize("fixture", ("kernels_hermite", "kernels_db3"))
def test_kernel_over_block_edges_matches_slices(request, fixture):
    ks = request.getfixturevalue(fixture)
    x = _edge_points(ks.support[1] - ks.support[0], infinite=False) + ks.support[0]
    for n in range(ks.scheme.L):
        for i in range(ks.scheme.r):
            def fn(pts):
                return ks.kernel(n, i, pts)
            assert fn(x).tobytes() == _slice_by_slice(fn, x).tobytes(), (n, i)


@pytest.mark.parametrize("gen", [BSplineGenerator(5), DaubechiesGenerator(3)], ids=repr)
def test_eval_over_block_edges_matches_slices(gen):
    x = _edge_points(gen.mu)
    for s in range(getattr(gen, "m", 1)):
        def fn(pts):
            return gen.eval(pts, s)
        want = _slice_by_slice(fn, x)
        assert fn(x).tobytes() == want.tobytes(), s
        # long double points less one shift a row, as the extended-precision
        # reference of test_moments passes them, are read as float64
        shifts = np.array([0.0, 1.5, -2.0])
        grid = x.astype(np.longdouble) - shifts[:, None]
        rows = [_slice_by_slice(fn, row.astype(float)) for row in grid]
        assert fn(grid).tobytes() == np.stack(rows).tobytes(), s


def _orthonormality_defect(h):
    n = len(h) - 1
    even = np.correlate(h, h, mode="full")[n::2]
    return float(np.abs(even - np.eye(len(even))[0]).max())


@pytest.mark.parametrize("d,level", [(2, 18), (2, 12)]
                         + [(d, lev) for d in (3, 4, 5, 6) for lev in (18, 6)])
def test_daubechies_stability_bounds_are_one(d, level):
    # an orthonormal scaling function has sum_n |phihat(w + n)|^2 = 1; the
    # bounds come from the taps, so they hold to the taps' own orthonormality
    # (3.4e-13 for db6, below 1e-13 up to db5) whatever the table level
    gen = DaubechiesGenerator(d, level)
    tol = max(1e-12, 8 * _orthonormality_defect(gen.taps))
    lo, hi = stability_bounds(gen)
    assert abs(lo - 1.0) <= tol and abs(hi - 1.0) <= tol


def _alternating_moments(h, count):
    k = np.arange(len(h), dtype=float)
    return [abs(float(np.sum((-1.0) ** k * k ** j * h))) for j in range(count)]


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
def test_daubechies_taps_strang_fix_order(d):
    # d vanishing moments of the wavelet: sum_k (-1)^k k^j h_k = 0 for j < d
    moments = _alternating_moments(daubechies_taps(d), d + 1)
    assert max(moments[:d]) <= 1e-10
    assert moments[d] >= 1.0


def _bspline_taps(m):
    # Q_m refines with h_k = sqrt(2) 2^-m C(m, k)
    return np.array([sqrt(2.0) * comb(m, k) / 2 ** m for k in range(m + 1)])


def _mask_order(taps):
    moments = _alternating_moments(taps, 9)
    return next(j for j, m in enumerate(moments) if m > 1e-10)


def test_reproduction_order_matches_strang_fix_order(kernels_db3,
                                                      kernels_quartic_r1):
    # approx_order, read off the refinement mask instead of stated
    for m in (3, 4, 5, 6):
        assert BSplineGenerator(m).approx_order == _mask_order(_bspline_taps(m)) == m
    for d in (2, 3, 4, 5, 6):
        gen = DaubechiesGenerator(d, level=6)
        assert gen.approx_order == _mask_order(daubechies_taps(d)) == d
    for taps, ks, tol, want in ((daubechies_taps(3), kernels_db3, 1e-6, 3),
                                (_bspline_taps(4), kernels_quartic_r1, 1e-8, 4)):
        order = _mask_order(taps)
        assert order == want
        assert reproduction_order(ks, tol=tol).kappa == order
