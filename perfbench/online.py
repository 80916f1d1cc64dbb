"""Workload `online`: causal prediction one point at a time.

Three predictors (the quartic_r1, quartic_hermite and db3_r1 configs) are
built once during set-up.  One op is one call predict(ps, samples, W, t),
round-robin over the predictors, at a seeded time t and W in {5, 20}.  The
samples come from a seeded polynomial of degree kappa - 1, which the
predictor reproduces exactly, so each output can be checked.
"""

from __future__ import annotations

from math import ceil, factorial, floor

import numpy as np

import pnspredict as pns
from pnspredict.cli import load_config

from common import CONFIGS, MOMENT_TOL, WRONG

PREDICTORS = ("quartic_r1", "quartic_hermite", "db3_r1")
# Reproduction order of each predictor; the design workload gates it.
KAPPA = {"quartic_r1": 4, "quartic_hermite": 4, "db3_r1": 3}
W_VALUES = (5.0, 20.0)
PASS_OPS = 600
TINY_PASS_OPS = 30
WARMUP_OPS = 12


def setup(tiny=False):
    """Load the configs and build the three predictors, then warm up."""
    state = {}
    for name in PREDICTORS:
        cfg = load_config(str(CONFIGS / f"{name}.cfg"))
        psi = pns.build_polyphase(cfg.gen, cfg.scheme)
        ks = pns.build_kernels(cfg.gen, cfg.scheme, pns.invert_polyphase(psi))
        state[name] = pns.modify_kernels(ks, cfg.epsilons, cfg.weights)
    rng = np.random.default_rng(12345)
    for k in range(WARMUP_OPS):
        run_op(state, make_op(state, rng, k))
    return state


def _poly_derivs(coefs, scale, y, i):
    """i-th derivative of sum_j c_j y^j with y = (W u - c0) / rho, in u."""
    total = 0.0
    for j in range(i, len(coefs)):
        total += coefs[j] * factorial(j) / factorial(j - i) * y ** (j - i)
    return total * scale ** i


def make_op(state, rng, k):
    name = PREDICTORS[k % len(PREDICTORS)]
    ps = state[name]
    scheme = ps.scheme
    rho = scheme.rho
    W = float(rng.choice(W_VALUES))
    t = float(rng.uniform(-8.0, 10.0))
    coefs = rng.normal(size=KAPPA[name])
    c0 = W * t + rng.uniform(-rho, rho)
    scale = W / rho
    lo, hi = ps.support
    samples = {}
    peak = abs(_poly_derivs(coefs, scale, (W * t - c0) / rho, 0))
    for l in range(ceil((W * t - hi) / rho), floor((W * t - lo) / rho) + 1):
        for n, x in enumerate(scheme.offsets):
            y = (x + rho * l - c0) / rho
            for i in range(scheme.r):
                samples[n, i, l] = _poly_derivs(coefs, scale, y, i)
            peak = max(peak, abs(samples[n, 0, l]))
    expected = _poly_derivs(coefs, scale, (W * t - c0) / rho, 0)
    return {"name": name, "W": W, "t": t, "samples": samples,
            "expected": expected, "peak": peak}


def make_ops(state, rng, tiny=False):
    return [make_op(state, rng, j)
            for j in range(TINY_PASS_OPS if tiny else PASS_OPS)]


def make_pass(state, ops, k):
    return ops


def run_op(state, op):
    return pns.predict(state[op["name"]], op["samples"], op["W"], op["t"])


def check(state, op, out):
    """None when the prediction reproduces the polynomial, else WRONG and
    a message."""
    tol = MOMENT_TOL[state[op["name"]].gen.kind]
    err = abs(out - op["expected"])
    if not err <= tol * op["peak"]:
        return WRONG, (f"{op['name']} W={op['W']} t={op['t']!r}: error "
                       f"{err:.3e} above {tol:g} x {op['peak']:.3e}")
    return None


def op_name(op) -> str:
    return op["name"]


def outcome(out) -> str:
    return "predicted"
