"""Generators for shift-invariant spaces.

A generator phi is a compactly supported function on [0, mu] whose integer
shifts span the space V(phi).  Two kinds are provided: cardinal B-splines
Q_m (exact piece polynomials) and Daubechies scaling functions (dyadic
refinement table).

Each generator reads phi one unit piece at a time: `piece(q, u, s)` is
phi^(s)(q + u) for an integer q and u in [0, 1].  Generators define only
`piece`, and `Generator.eval` reads every point through it.  `_expand`
builds on the pieces to evaluate a coefficient sequence against weighted nodes,
sum_m c_m sum_p w_p phi(x - eps_p - start - m), in one pass per class of
nodes that share a fractional part.  Everything is float64.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, comb, factorial, prod, sqrt

import numpy as np

from .polyphase import CIRCLE_GRID

__all__ = [
    "Generator",
    "BSplineGenerator",
    "DaubechiesGenerator",
    "daubechies_taps",
    "stability_bounds",
    "generator_from_descriptor",
]

# Entries per block (64 KiB of float64).  Passes over many points or over a
# Daubechies table run block by block, so their temporaries stay this small
# whatever the input size: below glibc's default mmap threshold (128 KiB),
# where malloc reuses freed memory instead of mapping fresh pages each time.
_BLOCK = 8192


def _integer_at_least(v, least: int, what: str) -> int:
    if not isinstance(v, (int, np.integer)) or v < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {v!r}")
    return int(v)


class Generator:
    """Base class: compact support [0, mu], derivatives up to `regularity`."""

    kind: str
    mu: float
    regularity: int
    approx_order: int   # Strang-Fix: the shifts reproduce degree < approx_order

    def eval(self, t, s: int = 0):
        """phi^(s)(t): piece(floor(t), t - floor(t), s) on [0, mu), zero off
        it.  Values at the knots are right-hand limits; NaN stays NaN."""
        arr = np.asarray(t)
        out = np.empty(arr.shape)
        flat, flat_out = arr.reshape(-1), out.reshape(-1)
        for a in range(0, arr.size, _BLOCK):
            tb = np.asarray(flat[a:a + _BLOCK], dtype=float)
            off = (tb < 0.0) | (tb >= self.mu)
            x = np.where(off, 0.0, tb)
            # fmax sends a NaN t to piece 0, where u = NaN carries it through
            q = np.fmax(np.floor(x), 0.0)
            flat_out[a:a + _BLOCK] = np.where(
                off, 0.0, self.piece(q.astype(np.intp), x - q, s))
        return float(out) if arr.ndim == 0 else out

    def piece(self, q, u, s: int = 0) -> np.ndarray:
        """phi^(s)(q + u) for integers q in [0, ceil(mu)) and u in [0, 1];
        q is an int or an integer array shaped like u."""
        raise NotImplementedError(f"{type(self).__name__} defines no piece")

    def pieces(self, u):
        """piece(q, u) for q = 0 .. ceil(mu) - 1 in turn, bit for bit: every
        piece phi(q + u) at the same u, each made when it is asked for."""
        for q in range(ceil(self.mu)):
            yield self.piece(q, u)

    def descriptor(self) -> dict:
        raise NotImplementedError


@lru_cache(maxsize=32)
def _bspline_pieces(m: int) -> tuple:
    """Table [s][k, q] with Q_m^(s)(q + u) = sum_k table[s][k, q] u^k on
    [q, q + 1), for s = 0..m-1; built once per order.

    Expanded exactly from the truncated powers
    Q_m(t) = sum_j (-1)^j C(m, j) (t - j)_+^(m-1) / (m-1)!,
    differentiated exactly, and rounded once: every coefficient is an
    integer over (m-1)!, and int / int is correctly rounded.
    """
    den = factorial(m - 1)
    num = [[comb(m - 1, k) * sum((-1) ** j * comb(m, j) * (q - j) ** (m - 1 - k)
                                 for j in range(q + 1))
            for q in range(m)] for k in range(m)]
    out = []
    for _ in range(m):
        table = np.array([[c / den for c in row] for row in num])
        table.flags.writeable = False     # shared by every Q_m
        out.append(table)
        # d/du sum_k c_k u^k = sum_k (k + 1) c_(k+1) u^k
        num = [[(k + 1) * c for c in row] for k, row in enumerate(num[1:])]
    return tuple(out)


class BSplineGenerator(Generator):
    """Cardinal B-spline Q_m: support [0, m], regularity m - 2."""

    kind = "bspline"

    def __init__(self, m: int):
        self.m = _integer_at_least(m, 1, "B-spline order")
        self.mu = float(m)
        self.regularity = max(self.m - 2, 0)
        self.approx_order = self.m

    def eval(self, t, s: int = 0):
        if not 0 <= s < self.m:     # also for an empty t, which reads no piece
            raise ValueError(f"derivative order {s} out of range for Q_{self.m}")
        return super().eval(t, s)

    def piece(self, q, u, s: int = 0) -> np.ndarray:
        """Q_m^(s)(q + u) by Horner on the local polynomial of piece q."""
        if not 0 <= s < self.m:
            raise ValueError(f"derivative order {s} out of range for Q_{self.m}")
        coef = _bspline_pieces(self.m)[s][:, q]
        # u * 0.0 carries a NaN u through the constant pieces of Q_m^(m-1)
        val = u * 0.0
        val += coef[-1]
        for c in coef[-2::-1]:
            val *= u
            val += c
        return val

    def descriptor(self) -> dict:
        return {"kind": "bspline", "order": self.m}

    def __repr__(self):
        return f"BSplineGenerator(m={self.m})"


def daubechies_taps(d: int) -> np.ndarray:
    """Orthogonal Daubechies filter taps (2d of them, extremal phase).

    Spectral factorization: the halfband polynomial P(y) = sum_k C(d-1+k, k) y^k
    with y = (2 - z - 1/z)/4 is lifted to q(z) = z^(d-1) P(y(z)); the taps keep
    the roots of q inside the unit disc together with a d-fold zero at z = -1.
    The result is checked for orthonormality before use.
    """
    d = _integer_at_least(d, 2, "Daubechies order")
    # q(z) = sum_k C(d-1+k, k) (-1/4)^k z^(d-1-k) (z-1)^(2k)
    q = np.zeros(2 * d - 1)
    for k in range(d):
        c = comb(d - 1 + k, k) * (-0.25) ** k
        piece = c * np.polynomial.polynomial.polypow([-1.0, 1.0], 2 * k)
        lo = d - 1 - k
        q[lo:lo + len(piece)] += piece
    roots = np.polynomial.polynomial.polyroots(q)
    inside = roots[np.abs(roots) < 1.0]
    if len(inside) != d - 1:
        raise RuntimeError("spectral factorization failed: wrong root split")
    h = np.array([1.0])
    for _ in range(d):
        h = np.convolve(h, [1.0, 1.0])
    for rt in inside:
        h = np.convolve(h, [-rt, 1.0])
    # extremal phase convention: energy at the front of the filter
    h = np.real(h)[::-1]
    h *= sqrt(2.0) / h.sum()
    # orthonormality, sum_n h_n h_(n+2j) = delta_j; a NaN fails it too
    for j in range(d):
        defect = abs(np.dot(h[2 * j:], h[:len(h) - 2 * j]) - (j == 0))
        if not (defect <= 1e-10):
            raise RuntimeError("filter orthonormality check failed")
    return h


@lru_cache(maxsize=8)
def _daubechies_table(d: int, level: int):
    """Values of the db_d scaling function on the dyadic grid 2^-level.

    Integer values come from the eigenvector (eigenvalue 1) of the refinement
    matrix; finer dyadic values follow exactly from the refinement equation.
    Returns (taps, values).

    The table is filled in place: with s = 2^(level - lev), level lev's new
    points are values[s::2s] and the points before it values[::2s].  Every
    product and sum goes through one scratch of _BLOCK entries per row.
    """
    h = daubechies_taps(d)
    mu = 2 * d - 1
    values = np.zeros((mu << level) + 1)
    # phi(i) for i = 1..mu-1 from T v = v, T[i, j] = sqrt(2) h[2i - j]
    values[::1 << level][1:mu] = _refinement_fixed_point(sqrt(2.0) * h, 0, 1, mu)
    acc, tmp = np.empty((2, _BLOCK))
    for lev in range(1, level + 1):
        s = 1 << (level - lev)
        prev, new = values[::2 * s], values[s::2 * s]
        # new point j reads prev[2j + 1 - k 2^(lev-1)]: a step-2 run, over
        # the odd entries once the shifts are even
        terms = []
        for k, hk in enumerate(h):
            shift = k << (lev - 1)
            terms.append((sqrt(2.0) * hk, prev[1::2] if shift % 2 == 0 else prev[::2],
                          shift // 2))
        for a in range(0, len(new), _BLOCK):
            block = _tap_sum(terms, a, min(_BLOCK, len(new) - a), acc, tmp)
            new[a:a + len(block)] = block
    # holds exactly by construction; guards against a broken filter
    resid = _refinement_residual(h, values, level)
    if resid > 1e-8:
        raise RuntimeError(f"cascade failed to converge: refinement residual {resid:.3e}")
    return h, values


def _tap_sum(terms, a: int, n: int, acc, tmp) -> np.ndarray:
    """acc[:n] with acc[j - a] = sum of c * src[j - off] over the (c, src, off)
    of terms, in order, for j = a..a+n-1 and only where j - off indexes src;
    tmp holds each product."""
    acc = acc[:n]
    acc[:] = 0.0
    for c, src, off in terms:
        lo, hi = max(a, off), min(a + n, off + len(src))
        if lo < hi:
            acc[lo - a:hi - a] += np.multiply(c, src[lo - off:hi - off],
                                              out=tmp[:hi - lo])
    return acc


def _refinement_residual(h, values, level: int) -> float:
    """sup |sqrt(2) sum_k h_k phi(2t - k) - phi(t)| over the table's t = i 2^-level.

    2t - k is the table point 2i - k 2^level, so no interpolation is needed.
    Only the integer t are read: the cascade wrote each point off the
    integers with the taps, entries and order of `_tap_sum` that the
    residual would use there, so its residual there is exactly 0.  At t = j
    the sum reads the integer values phi(2j - k), in the order of the taps.
    """
    ints = values[::1 << level]
    j = np.arange(len(ints))
    acc = np.zeros(len(ints))
    for k, hk in enumerate(h):
        src = 2 * j - k
        inside = (src >= 0) & (src < len(ints))
        acc[inside] += sqrt(2.0) * hk * ints[src[inside]]
    return float(np.abs(acc - ints).max())


def _refinement_fixed_point(filt, first: int, lo: int, hi: int) -> np.ndarray:
    """v_i on i = lo..hi-1 with v_i = sum_j f_(2i - j) v_j, f_m = filt[m - first],
    normalised to sum v = 1."""
    idx = np.arange(lo, hi)
    m = 2 * idx[:, None] - idx[None, :] - first
    T = np.where((m >= 0) & (m < len(filt)), filt.take(m, mode="clip"), 0.0)
    evals, evecs = np.linalg.eig(T)
    i = int(np.argmin(np.abs(evals - 1.0)))
    if abs(evals[i] - 1.0) > 1e-8:
        raise RuntimeError("refinement matrix has no unit eigenvalue")
    v = np.real(evecs[:, i])
    return v / v.sum()


class DaubechiesGenerator(Generator):
    """Daubechies scaling function of order d: support [0, 2d-1].

    Evaluation interpolates linearly between exact dyadic-grid values; the
    default depth keeps the interpolation error near 1e-6 despite the low
    Hoelder regularity.  Only function values are exposed (regularity 0).
    """

    kind = "daubechies"

    def __init__(self, d: int = 3, level: int = 18):
        # checked before the cached table, which int-valued floats would hit
        self.level = _integer_at_least(level, 1, "refinement level")
        self.d = _integer_at_least(d, 2, "Daubechies order")
        self.taps, self._values = _daubechies_table(self.d, self.level)
        self.mu = float(2 * self.d - 1)
        self.regularity = 0
        self.approx_order = self.d    # the wavelet's d vanishing moments

    def eval(self, t, s: int = 0):
        if s != 0:
            raise ValueError("Daubechies generator exposes function values only")
        return super().eval(t, s)

    def piece(self, q, u, s: int = 0) -> np.ndarray:
        """phi(q + u) straight from the dyadic table, as np.interp reads it.

        The table steps by 2^-level, so u * 2^level and the slope are exact
        and the linear interpolation rounds as np.interp's does.
        """
        if s != 0:
            raise ValueError("Daubechies generator exposes function values only")
        cell, frac = self._cell(u)
        return self._interp(cell + q * (1 << self.level), frac)

    def pieces(self, u):
        """Every piece at the same u, with the cell of u found once."""
        cell, frac = self._cell(u)
        for q in range(ceil(self.mu)):
            yield self._interp(cell + (q << self.level), frac)

    def _cell(self, u):
        """Table index of u's cell in piece 0, and u's fraction of it."""
        scale = 1 << self.level
        pos = u * scale
        # fmin/fmax clamp a NaN u to a valid cell; the NaN returns through frac
        cell = np.fmax(np.fmin(np.floor(pos), scale - 1), 0)
        return cell.astype(np.intp), pos - cell

    def _interp(self, idx, frac):
        lo = self._values[idx]
        return lo + (self._values[idx + 1] - lo) * frac

    def descriptor(self) -> dict:
        return {"kind": "daubechies", "order": self.d, "level": self.level}

    def __repr__(self):
        return f"DaubechiesGenerator(d={self.d}, level={self.level})"


def generator_from_descriptor(desc: dict) -> Generator:
    kind = desc.get("kind")
    if kind == "bspline":
        return BSplineGenerator(desc["order"])
    if kind == "daubechies":
        if "level" in desc:
            return DaubechiesGenerator(desc["order"], desc["level"])
        return DaubechiesGenerator(desc["order"])
    raise ValueError(f"unknown generator kind {kind!r}")


def _expand(gen: Generator, coefs, start, nodes, weights, x) -> np.ndarray:
    """sum_m coefs[m] sum_p weights[p] phi(x - nodes[p] - start - m) for an
    integer start, read through phi's unit pieces.

    coefs may hold one series per column: the result then has one column
    per series, shape x.shape + coefs.shape[1:], and each column equals
    the expansion of that column alone bit for bit.

    The nodes fall into classes by their fractional part delta, which
    nodes - floor(nodes) gives exactly.  Within a class the weights are
    added, at the nodes' integer parts, into one zero-padded copy b of
    coefs.  With y = x - delta, m = floor(y) and u = y - m, a point meets
    only the ceil(mu) pieces b[m - q] phi(q + u), q = 0 .. ceil(mu) - 1,
    which gen.pieces reads once per block for every column.

    Every point is computed from its own x with elementwise operations in a
    fixed order, so its value does not depend on the other points, and the
    points go through in blocks of _BLOCK entries.
    """
    x = np.asarray(x, dtype=float)
    coefs = np.asarray(coefs, dtype=float)
    cols = coefs.shape[1:]
    # one row per series, so that a single series is one contiguous row
    coefs = coefs.reshape(len(coefs), prod(cols)).T
    nodes = np.asarray(nodes, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    whole = np.floor(nodes)
    frac = nodes - whole
    n_pieces = ceil(gen.mu)
    classes = []
    for delta in sorted(set(frac.tolist())):
        cls = frac == delta
        ints = whole[cls].astype(np.int64)
        lo = int(ints.min()) - 1
        # b[:, 0] and b[:, -1] stay zero; indices off the rows clip onto them
        n_b = coefs.shape[1] + int(ints.max()) - lo + 1
        b = np.zeros((len(coefs), n_b))
        for e, w in zip(ints.tolist(), weights[cls]):
            b[:, e - lo:e - lo + coefs.shape[1]] += w * coefs
        classes.append((delta, start + lo, b))   # b[:, j] multiplies phi(y - k0 - j)
    out = np.zeros((len(coefs), x.size))
    flat = x.reshape(-1)
    step = max(_BLOCK // len(coefs), 1)
    for a in range(0, x.size, step):
        xb, ob = flat[a:a + step], out[:, a:a + step]
        for delta, k0, b in classes:
            y = xb - delta
            m = np.floor(y)
            u = y - m
            base = np.fmax(np.fmin(m - k0, b.shape[1] + n_pieces), -1).astype(np.intp)
            for q, val in enumerate(gen.pieces(u)):
                ob += b.take(base - q, axis=1, mode="clip") * val
    return out.T.reshape(x.shape + cols)


@lru_cache(maxsize=32)
def _autocorrelation(kind: str, order: int) -> np.ndarray:
    """Integer-lag autocorrelation a(k) = int phi(t) phi(t - k) dt,
    k = 0..ceil(mu)-1, of the generator of this kind and order; built once
    per order and shared read-only, like the B-spline piece tables.

    B-splines: a(k) = Q_2m(m + k), since Q_m * Q_m(-.) = Q_2m(. + m).
    Daubechies: a(k) = sum_m c_m a(2k - m) with c the taps' autocorrelation
    (Lawton 1991).
    """
    if kind == "bspline":
        corr = BSplineGenerator(2 * order).eval(order + np.arange(order, dtype=float))
    else:
        taps = daubechies_taps(order)
        n = len(taps) - 1
        corr = _refinement_fixed_point(np.correlate(taps, taps, "full"),
                                       -n, 1 - n, n)[n - 1:]
    corr.flags.writeable = False
    return corr


@lru_cache(maxsize=32)
def _circle_extremes(kind: str, order: int) -> tuple[float, float]:
    """min and max over CIRCLE_GRID of a(0) + 2 sum_k a(k) cos(2 pi k w)."""
    w = CIRCLE_GRID
    corr = _autocorrelation(kind, order)
    phi = np.full_like(w, corr[0])
    for k in range(1, len(corr)):
        phi += 2.0 * corr[k] * np.cos(2.0 * np.pi * k * w)
    return float(phi.min()), float(phi.max())


def stability_bounds(gen: Generator) -> tuple[float, float]:
    """Extremes of Phi(w) = sum_n |phihat(w + n)|^2 over CIRCLE_GRID of
    polyphase, which holds w = 0 and w = 1/2, from the finite cosine sum
    a(0) + 2 sum_k a(k) cos(2 pi k w) over the integer-lag autocorrelation a.

    Both depend on the generator's kind and order only, so each is computed
    once per order (`_autocorrelation`, `_circle_extremes`).
    """
    if isinstance(gen, BSplineGenerator):
        return _circle_extremes("bspline", gen.m)
    if isinstance(gen, DaubechiesGenerator):
        return _circle_extremes("daubechies", gen.d)
    raise TypeError(f"no autocorrelation for {type(gen).__name__}")
