"""Workload `design`: checking sampling schemes.

One op takes one scheme through build_polyphase -> cis_determinant ->
det_on_circle -> stability_bounds + frame_bounds -> invert_polyphase ->
build_kernels -> modify_kernels -> reproduction_order (causal kernels) ->
reconstruct of a seeded random member of V(phi), and stops at the first
documented rejection: not a CIS, an inverse that is not a Laurent
polynomial, or kernels without compact support.  Rejections are outcomes,
not failures.  A failure is a broken gate, an undocumented exception, or a
ResidualError from invert_polyphase on a scheme that passed det_on_circle
and whose determinant is a monomial (constant modulus on the circle): such
a scheme is a CIS with compact kernels, so refusing it is a defect.

A pass holds every (generator, r, offset family) stratum, with L the
smallest offset count that gives rho >= mu: the equally spaced and
Chebyshev offsets once, the jittered ones (uniform in the cell) in
JITTER_DRAWS draws; plus the six shipped configs and one fixed scheme that
the inversion refuses at the commit that defined the benchmark.  The
jittered draws come from a generator with the fixed seed SWEEP_SEED, so
that every run checks the same schemes and counts the same failures;
--seed draws the V(phi) member each scheme reconstructs and the op order.
Every pass of a run repeats the same ops.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

import pnspredict as pns
from pnspredict.cli import load_config

from common import CONFIGS, ERROR, MOMENT_TOL, WRONG

RECON_TOL = 1e-8
# Relative agreement of |det C| and min |det Psi| on single-cell schemes;
# both are the same determinant up to a unimodular factor.
DET_AGREE = 1e-8
CONFIG_NAMES = ("quartic_r1", "quartic_hermite", "quartic_r1_chebyshev",
                "db3_r1", "cubic_split_cells", "quartic_split_cells")
EXPECTED = {
    "cubic_split_cells": "not_cis",
    "quartic_split_cells": "non_compact",
}
EXPECTED_KAPPA = {"quartic_r1": 4, "quartic_hermite": 4, "db3_r1": 3}
FAMILIES = ("equally_spaced", "chebyshev", "jittered")
# Grid of invert_polyphase, on which it decides that det Psi is a monomial.
N_FFT = 64
# A CIS whose determinant is a monomial, yet the FFT inversion refuses it
# with ResidualError (imaginary part 4.8e-9 above its 1e-9 cut-off).  It
# fails in every pass until the inversion is fixed.
KNOWN_FAILURE = ("Q4", (0.262, 0.298), 2)
TINY_STRATA = (("Q3", 1), ("Q4", 2), ("db2", 1))
# The sweep's jittered offsets do not depend on --seed: a seeded draw
# decides whether some strata are a CIS (a 0.5-1.3 s op) or a ~7 ms
# rejection, so a per-seed sweep would make pass times and failure counts
# differ from run to run for reasons other than the program.
SWEEP_SEED = 0
JITTER_DRAWS = 3


def make_generators():
    gens = {f"Q{m}": pns.BSplineGenerator(m) for m in (3, 4, 5, 6)}
    gens.update({f"db{d}": pns.DaubechiesGenerator(d) for d in (2, 3, 4)})
    return gens


def strata(gens, tiny=False):
    """(generator, r, L) triples of the sweep."""
    pairs = TINY_STRATA if tiny else [
        (g, r) for g, gen in gens.items() for r in (1, 2)
        if r - 1 <= gen.regularity]
    return [(g, r, math.ceil(gens[g].mu / r)) for g, r in pairs]


def setup(tiny=False):
    gens = make_generators()
    configs = {name: load_config(str(CONFIGS / f"{name}.cfg"))
               for name in CONFIG_NAMES}
    state = {"gens": gens, "configs": configs, "strata": strata(gens, tiny)}
    rng = np.random.default_rng(12345)
    warm = make_op(rng, "warmup", gens["Q3"], pns.SamplingScheme.chebyshev(3),
                   None, None)
    check(state, warm, run_op(state, warm))
    return state


def offsets(family, L, s, rng):
    if family == "equally_spaced":
        return tuple(s + n / L for n in range(L))
    if family == "chebyshev":
        return tuple(s + 0.5 - 0.5 * math.cos((2 * n + 1) * math.pi / (2 * L))
                     for n in range(L))
    # jittered: uniform in the cell
    return tuple(float(s + u) for u in np.sort(rng.uniform(size=L)))


def causal_nodes(rho):
    """eps_p = rho (p + 1): the db3_r1 rule, with small binomial weights."""
    return tuple(float(rho * (p + 1)) for p in range(rho))


def make_op(rng, label, gen, scheme, epsilons, weights):
    """Inputs of one op: the scheme and a random member of V(phi)."""
    rho = scheme.rho
    if epsilons is None:
        epsilons = causal_nodes(rho)
    ks = np.arange(-8, 2 * rho + 9)
    coefs = rng.normal(size=len(ks))
    ts = np.sort(rng.uniform(0.0, 2.0 * rho, 32))
    width = gen.mu + rho
    samples = {}
    for l in range(math.floor(-width / rho) - 1, math.ceil((2 * rho + width) / rho) + 2):
        for n, x in enumerate(scheme.offsets):
            for i in range(scheme.r):
                vals = gen.eval(x + rho * l - ks, i)
                samples[n, i, l] = float(coefs @ vals)
    exact = np.array([coefs @ gen.eval(t - ks) for t in ts])
    return {"label": label, "gen": gen, "scheme": scheme,
            "epsilons": epsilons, "weights": weights, "samples": samples,
            "ts": ts, "exact": exact}


def sweep(gens, strata):
    """(label, generator, scheme) of every scheme of the seeded sweep."""
    rng = np.random.default_rng(SWEEP_SEED)
    out = []
    for j, (g, r, L) in enumerate(strata):
        for f, family in enumerate(FAMILIES):
            for d in range(JITTER_DRAWS if family == "jittered" else 1):
                s = (j + f + d) % 2
                label = f"{g}/r{r}/L{L}/{family}" + (
                    f"/{d}" if family == "jittered" else "")
                out.append((label, gens[g],
                            pns.SamplingScheme(offsets(family, L, s, rng), r)))
    return out


def make_ops(state, rng, tiny=False):
    """The ops of a run: the sweep, and unless tiny the configs and the
    refused scheme, each with a V(phi) member from rng, in rng's order."""
    gens = state["gens"]
    ops = [make_op(rng, label, gen, scheme, None, None)
           for label, gen, scheme in sweep(gens, state["strata"])]
    if not tiny:
        for name, cfg in state["configs"].items():
            ops.append(make_op(rng, name, cfg.gen, cfg.scheme, cfg.epsilons,
                               cfg.weights))
        g, offs, r = KNOWN_FAILURE
        ops.append(make_op(rng, "known/residual", gens[g],
                           pns.SamplingScheme(offs, r), None, None))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def make_pass(state, ops, k):
    return ops


def run_op(state, op):
    """Run the pipeline; returns the outcome and what the gates need."""
    gen, scheme = op["gen"], op["scheme"]
    psi = pns.build_polyphase(gen, scheme)
    res = {"outcome": None, "det_c": None, "psi": psi}
    if scheme.s is not None and scheme.rho >= gen.mu:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res["det_c"] = pns.cis_determinant(gen, scheme)
    res["min_abs"], _ = pns.det_on_circle(psi)
    if res["min_abs"] <= pns.CIS_THRESHOLD:
        res["outcome"] = "not_cis"
        return res
    phi_min, phi_max = pns.stability_bounds(gen)
    res["frame"] = pns.frame_bounds(psi, phi_min, phi_max)
    try:
        inv = pns.invert_polyphase(psi)
    except pns.SingularSamplePointError:
        res["outcome"] = "not_cis"
        return res
    except pns.ResidualError as exc:
        res["outcome"] = "residual"
        res["error"] = str(exc)
        return res
    try:
        ks = pns.build_kernels(gen, scheme, inv)
    except ValueError:
        res["outcome"] = "non_compact"
        return res
    ps = pns.modify_kernels(ks, op["epsilons"], op["weights"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res["kappa"] = pns.reproduction_order(ps, tol=MOMENT_TOL[gen.kind]).kappa
    res["recon"] = pns.reconstruct(ks, op["samples"], op["ts"])
    res["outcome"] = "accepted"
    return res


def monomial_det(psi) -> bool:
    """invert_polyphase's test: |det Psi| constant on its grid."""
    dets = np.array([abs(psi.det(j / N_FFT)) for j in range(N_FFT)])
    return bool(np.ptp(dets) <= 1e-8 * dets.max())


def check(state, op, res):
    """None when every gate that applies to this op holds, else a
    (kind, message) pair: WRONG for an output that breaks a gate, ERROR for
    a CIS with a monomial determinant that the inversion refused."""
    label = op["label"]
    det_c, min_abs = res["det_c"], res["min_abs"]
    if det_c is not None:
        cis_c = abs(det_c) > pns.CIS_THRESHOLD
        cis_psi = min_abs > pns.CIS_THRESHOLD
        if cis_c != cis_psi:
            return WRONG, (f"{label}: |det C| = {abs(det_c):.3e} but "
                           f"min |det Psi| = {min_abs:.3e}")
        if cis_c and abs(abs(det_c) - min_abs) > DET_AGREE * abs(det_c):
            return WRONG, (f"{label}: |det C| = {abs(det_c)!r} != "
                           f"min |det Psi| = {min_abs!r}")
    want = EXPECTED.get(label)
    if want is not None and res["outcome"] != want:
        return WRONG, f"{label}: expected {want}, got {res['outcome']}"
    if res["outcome"] == "residual" and monomial_det(res["psi"]):
        return ERROR, (f"{label} {op['scheme'].offsets}: ResidualError on a "
                       f"CIS with monomial determinant: {res['error']}")
    want = EXPECTED_KAPPA.get(label)
    if want is not None and res.get("kappa") != want:
        return WRONG, f"{label}: kappa {res.get('kappa')} != {want}"
    if res["outcome"] == "accepted":
        exact = op["exact"]
        err = float(np.abs(res["recon"] - exact).max())
        if not err <= RECON_TOL * float(np.abs(exact).max()):
            return WRONG, f"{label}: reconstruction error {err:.3e}"
    return None


def op_name(op) -> str:
    return op["label"]


def outcome(res) -> str:
    return res["outcome"]
