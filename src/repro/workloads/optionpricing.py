"""Stock-option pricing simulation (the paper's second motivation).

Section 1: "An example from another research area is the price
calculation of stock options [13].  To find the right model and
parameters, a large number of parameterised simulation runs is
required.  The results of these runs, which often depend on halve a
dozen of parameters, need to be stored for further evaluation."

This module *is* that simulation: a Monte-Carlo European option pricer
under geometric Brownian motion (with the Black-Scholes closed form as
reference), emitting an ASCII result file with half a dozen input
parameters (spot, strike, rate, volatility, maturity, paths) and result
values (price, standard error, analytic reference, absolute error).
Vectorised over numpy, so realistically-sized path counts stay fast.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["OptionConfig", "black_scholes_price", "MonteCarloPricer"]


@dataclass
class OptionConfig:
    """Parameters of one pricing run (the half-a-dozen of the paper)."""

    spot: float = 100.0          #: current underlying price S0
    strike: float = 105.0        #: strike K
    rate: float = 0.05           #: risk-free rate r (per year)
    volatility: float = 0.2      #: sigma (per sqrt(year))
    maturity: float = 1.0        #: T in years
    n_paths: int = 100_000
    option_type: str = "call"    #: "call" | "put"
    method: str = "montecarlo"   #: "montecarlo" | "antithetic"
    seed: int = 0

    def __post_init__(self):
        if self.option_type not in ("call", "put"):
            raise ValueError(f"unknown option type {self.option_type!r}")
        if self.method not in ("montecarlo", "antithetic"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.spot <= 0 or self.strike <= 0 or self.volatility <= 0
                or self.maturity <= 0 or self.n_paths < 2):
            raise ValueError("spot/strike/volatility/maturity must be "
                             "positive and n_paths >= 2")


def _norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function (the
    formulation of scipy's ``ndtr``, accurate in the lower tail)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_price(cfg: OptionConfig) -> float:
    """Black-Scholes closed form for a European option."""
    s, k, r = cfg.spot, cfg.strike, cfg.rate
    sigma, t = cfg.volatility, cfg.maturity
    d1 = ((math.log(s / k) + (r + 0.5 * sigma ** 2) * t)
          / (sigma * math.sqrt(t)))
    d2 = d1 - sigma * math.sqrt(t)
    if cfg.option_type == "call":
        return s * _norm_cdf(d1) - k * math.exp(-r * t) * _norm_cdf(d2)
    return k * math.exp(-r * t) * _norm_cdf(-d2) - s * _norm_cdf(-d1)


class MonteCarloPricer:
    """Monte-Carlo pricer under GBM, optionally with antithetic
    variates (the variance-reduced "new algorithm" one would tune with
    perfbase)."""

    def __init__(self, config: OptionConfig):
        self.config = config
        key = (f"{config.seed}:{config.method}:{config.n_paths}:"
               f"{config.spot}:{config.strike}:{config.volatility}")
        self._rng = np.random.default_rng(
            zlib.crc32(key.encode("ascii")))

    def price(self) -> tuple[float, float]:
        """Returns (price estimate, standard error)."""
        cfg = self.config
        n = cfg.n_paths
        drift = ((cfg.rate - 0.5 * cfg.volatility ** 2)
                 * cfg.maturity)
        diffusion = cfg.volatility * math.sqrt(cfg.maturity)
        if cfg.method == "antithetic":
            z = self._rng.standard_normal(n // 2)
            z = np.concatenate([z, -z])
        else:
            z = self._rng.standard_normal(n)
        terminal = cfg.spot * np.exp(drift + diffusion * z)
        if cfg.option_type == "call":
            payoff = np.maximum(terminal - cfg.strike, 0.0)
        else:
            payoff = np.maximum(cfg.strike - terminal, 0.0)
        discount = math.exp(-cfg.rate * cfg.maturity)
        values = discount * payoff
        if cfg.method == "antithetic":
            # the (z, -z) pairs are negatively correlated; the valid
            # i.i.d. sample for the error estimate is the pair means
            half = len(values) // 2
            pair_means = 0.5 * (values[:half] + values[half:])
            price = float(np.mean(pair_means))
            stderr = float(np.std(pair_means, ddof=1)
                           / math.sqrt(len(pair_means)))
        else:
            price = float(np.mean(values))
            stderr = float(np.std(values, ddof=1)
                           / math.sqrt(len(values)))
        return price, stderr

    def generate(self) -> str:
        """Render the ASCII result file of one pricing run."""
        cfg = self.config
        price, stderr = self.price()
        reference = black_scholes_price(cfg)
        lines = [
            "Option pricing simulation result",
            "================================",
            f"method      = {cfg.method}",
            f"option type = {cfg.option_type}",
            f"S0     = {cfg.spot:.4f}",
            f"K      = {cfg.strike:.4f}",
            f"r      = {cfg.rate:.4f}",
            f"sigma  = {cfg.volatility:.4f}",
            f"T      = {cfg.maturity:.4f}",
            f"paths  = {cfg.n_paths}",
            "",
            f"price          = {price:.6f}",
            f"standard error = {stderr:.6f}",
            f"analytic (BS)  = {reference:.6f}",
            f"abs error      = {abs(price - reference):.6f}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def filename(self) -> str:
        cfg = self.config
        return (f"option_{cfg.method}_{cfg.option_type}"
                f"_K{cfg.strike:g}_sigma{cfg.volatility:g}"
                f"_paths{cfg.n_paths}_seed{cfg.seed}.txt")
