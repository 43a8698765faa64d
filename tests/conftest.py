import warnings

import pytest
from scipy.integrate import IntegrationWarning

from ctent import (
    make_exponential,
    make_frechet,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_reflected_power,
    make_reverse_weibull,
)

with warnings.catch_warnings():
    # hypothesis imports libcst to report a failing example, and libcst's
    # import warns: under pyproject's error::DeprecationWarning that import
    # would end the session in an INTERNALERROR, so it is made here, once
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(autouse=True)
def _silence_quadrature_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        yield


def catalog_members():
    """One representative per analytic family plus parameter variety."""
    return [
        make_power_uniform(0.7), make_power_uniform(1.0), make_power_uniform(2.5),
        make_reflected_power(0.5), make_reflected_power(2.0),
        make_exponential(),
        make_lomax(1.5), make_lomax(3.0),
        make_negative_lomax(2.0), make_negative_lomax(4.0),
        make_negative_exponential(),
        make_frechet(1.6), make_frechet(3.0),
        make_reverse_weibull(0.8), make_reverse_weibull(2.5),
        make_gumbel(), make_logistic(),
    ]


TABLE_ORDERS = (-0.4, -0.1, 0.0, 0.5, 1.0, 2.0, 5.0)


def finite_order(d, s):
    thr = d.finiteness_threshold
    return thr is None or s > thr
