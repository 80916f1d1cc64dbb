"""Reconstruction and causal prediction in shift-invariant spaces from
periodic nonuniform samples (PNS) of a signal and its derivatives.

The pipeline: a compactly supported generator phi spans the space V(phi);
a PNS set {x_n + rho*l} with r derivative channels gives a rho x rho
polyphase matrix Psi(x) whose invertibility on the torus characterises
complete interpolation sets; inverting Psi yields compactly supported
interpolating kernels; shifting the kernels into the past with Lagrange
weights yields a causal predictor that keeps the polynomial reproduction
order of the original kernels.
"""

from .generators import (
    BSplineGenerator,
    DaubechiesGenerator,
    Generator,
    TabulatedGenerator,
    bspline_eval,
    daubechies_eval,
    generator_from_descriptor,
    stability_bounds,
)
from .polyphase import (
    CIS_THRESHOLD,
    LaurentMatrix,
    SamplingScheme,
    build_polyphase,
    cis_determinant,
    det_on_circle,
    frame_bounds,
    zak_transform,
)
from .kernels import (
    KernelSet,
    SingularSamplePointError,
    build_kernels,
    invert_polyphase,
    load_kernels,
    reconstruct,
    save_kernels,
)
from .moments import MomentReport, moment_defects, reproduction_order
from .prediction import (
    equally_spaced_weights,
    lagrange_weights,
    modify_kernels,
    past_window,
    predict,
    window_bound,
)
from .approximation import (
    ConvergenceReport,
    TestSignal,
    approx_operator,
    builtin_signal,
    convergence_study,
    lp_error,
    tau_modulus_estimate,
)

__all__ = [
    "BSplineGenerator",
    "CIS_THRESHOLD",
    "ConvergenceReport",
    "DaubechiesGenerator",
    "Generator",
    "KernelSet",
    "LaurentMatrix",
    "MomentReport",
    "SamplingScheme",
    "SingularSamplePointError",
    "TabulatedGenerator",
    "TestSignal",
    "approx_operator",
    "bspline_eval",
    "build_kernels",
    "build_polyphase",
    "builtin_signal",
    "cis_determinant",
    "convergence_study",
    "daubechies_eval",
    "det_on_circle",
    "equally_spaced_weights",
    "frame_bounds",
    "generator_from_descriptor",
    "invert_polyphase",
    "lagrange_weights",
    "load_kernels",
    "lp_error",
    "modify_kernels",
    "moment_defects",
    "past_window",
    "predict",
    "reconstruct",
    "reproduction_order",
    "save_kernels",
    "stability_bounds",
    "tau_modulus_estimate",
    "window_bound",
    "zak_transform",
]
