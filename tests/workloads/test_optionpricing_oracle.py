"""Oracle check of the option pricer's normal CDF: the stdlib
``math.erfc`` formulation must agree with ``scipy.stats.norm.cdf``
over the whole range where the CDF is a normal float, and so must the
Black-Scholes reference built on it.

scipy is a test-only oracle here; the module is skipped where it is
not installed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.optionpricing import (OptionConfig, _norm_cdf,
                                           black_scholes_price)

norm = pytest.importorskip("scipy.stats").norm

RTOL = 1e-12


def test_norm_cdf_matches_scipy_over_the_range():
    xs = np.linspace(-37.0, 8.0, 45_001)
    ours = np.array([_norm_cdf(float(x)) for x in xs])
    np.testing.assert_allclose(ours, norm.cdf(xs), rtol=RTOL, atol=0)


@given(st.floats(-37.0, 8.0))
def test_norm_cdf_matches_scipy_pointwise(x):
    assert math.isclose(_norm_cdf(x), float(norm.cdf(x)), rel_tol=RTOL)


def scipy_black_scholes(cfg: OptionConfig) -> float:
    s, k, r = cfg.spot, cfg.strike, cfg.rate
    sigma, t = cfg.volatility, cfg.maturity
    d1 = ((math.log(s / k) + (r + 0.5 * sigma ** 2) * t)
          / (sigma * math.sqrt(t)))
    d2 = d1 - sigma * math.sqrt(t)
    if cfg.option_type == "call":
        return float(s * norm.cdf(d1)
                     - k * math.exp(-r * t) * norm.cdf(d2))
    return float(k * math.exp(-r * t) * norm.cdf(-d2)
                 - s * norm.cdf(-d1))


@settings(max_examples=300, deadline=None)
@given(spot=st.floats(50.0, 150.0), strike=st.floats(50.0, 150.0),
       rate=st.floats(0.0, 0.1), volatility=st.floats(0.05, 0.8),
       maturity=st.floats(0.1, 5.0),
       option_type=st.sampled_from(["call", "put"]))
def test_black_scholes_matches_scipy(spot, strike, rate, volatility,
                                     maturity, option_type):
    cfg = OptionConfig(spot=spot, strike=strike, rate=rate,
                       volatility=volatility, maturity=maturity,
                       option_type=option_type)
    reference = scipy_black_scholes(cfg)
    # deep out-of-the-money prices cancel two near-equal terms; the
    # tolerance is relative to the terms, not to their difference
    scale = max(spot, strike)
    assert abs(black_scholes_price(cfg) - reference) <= RTOL * scale
