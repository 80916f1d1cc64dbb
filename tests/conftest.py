import numpy as np
import pytest

import pnspredict as pp


def build_kernel_set(gen, scheme):
    psi = pp.build_polyphase(gen, scheme)
    return pp.build_kernels(gen, scheme, pp.invert_polyphase(psi))


def random_spline(gen, coefs):
    """f = sum_k coefs[k] phi(. - k), with derivative channels."""
    coefs = np.asarray(coefs, dtype=float)

    def deriv(s):
        def f(t):
            t = np.asarray(t, dtype=float)
            # phi^(s)(t - k) for every k in one call, along the last axis
            vals = gen.eval(np.subtract.outer(t, np.arange(len(coefs))), s)
            out = np.zeros_like(t)
            for k, c in enumerate(coefs):
                out = out + c * vals[..., k]
            return out
        return f

    return deriv


@pytest.fixture(scope="session")
def q4():
    return pp.BSplineGenerator(4)


@pytest.fixture(scope="session")
def q3():
    return pp.BSplineGenerator(3)


@pytest.fixture(scope="session")
def db3():
    return pp.DaubechiesGenerator(3)


@pytest.fixture(scope="session")
def scheme_quartic_r1():
    return pp.SamplingScheme((0.0, 0.25, 0.5, 0.75), 1)


@pytest.fixture(scope="session")
def scheme_quartic_cheb():
    return pp.SamplingScheme.chebyshev(4, 1)


@pytest.fixture(scope="session")
def scheme_hermite():
    return pp.SamplingScheme((0.5, 0.75), 2)


@pytest.fixture(scope="session")
def scheme_db3_cheb():
    return pp.SamplingScheme.chebyshev(5, 1)


@pytest.fixture(scope="session")
def scheme_cubic_split():
    return pp.SamplingScheme((0.5, 2.5), 2)


@pytest.fixture(scope="session")
def kernels_quartic_r1(q4, scheme_quartic_r1):
    return build_kernel_set(q4, scheme_quartic_r1)


@pytest.fixture(scope="session")
def kernels_hermite(q4, scheme_hermite):
    return build_kernel_set(q4, scheme_hermite)


@pytest.fixture(scope="session")
def kernels_db3(db3, scheme_db3_cheb):
    return build_kernel_set(db3, scheme_db3_cheb)


@pytest.fixture(scope="session")
def pred_quartic_r1(kernels_quartic_r1):
    return pp.modify_kernels(kernels_quartic_r1, (4.0, 4.25, 4.5, 4.75))


@pytest.fixture(scope="session")
def pred_hermite(kernels_hermite):
    return pp.modify_kernels(kernels_hermite, (4.0, 4.25, 4.5, 4.75))


@pytest.fixture(scope="session")
def pred_db3(kernels_db3):
    return pp.modify_kernels(kernels_db3, (5.0, 10.0, 15.0, 20.0, 25.0))


@pytest.fixture(scope="session")
def pred_quartic_r1_nondyadic(kernels_quartic_r1):
    # nodes 4.1 + 0.3 p: no two share a fractional part, none is dyadic
    return pp.modify_kernels(kernels_quartic_r1,
                             tuple(4.1 + 0.3 * p for p in range(4)))
