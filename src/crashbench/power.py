"""Required-mileage power analysis for rate comparisons.

The driving question: how many ADS miles are needed before a two-sided
test of the ADS crash rate against a known human benchmark rate reaches
a target rejection probability?  The module provides

* ``power_curve`` - for each effect ratio, ``required_miles`` (the
  benchmark methodology's displayed formula, evaluated exactly as
  written) and ``target_power_miles`` (the conventional form that
  attains the target power under the test below); ``required_mileage``
  and ``mileage_for_power`` give one effect ratio's values,
* ``analytic_power`` / ``monte_carlo_power`` - normal-approximation and
  simulated power of the test at any mileage, the latter serving as an
  independent oracle for the closed forms.

The test throughout treats the benchmark as known: with X the observed
ADS crash count over m miles and lambda the benchmark rate per mile,
reject when |X - lambda*m| / sqrt(lambda*m) exceeds the two-sided
normal critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .model import CrashBenchError


class ZeroEffectError(CrashBenchError):
    """Effect ratio 1 makes the required-mileage denominator vanish."""


# Effect ratios evaluated by default: 25/50/75/90% reductions and
# 25/50% increases in the crash rate.
DEFAULT_EFFECT_RATIOS = (0.75, 0.5, 0.25, 0.1, 1.25, 1.5)
DEFAULT_ALPHA = 0.05
DEFAULT_POWER = 0.8


def _check_alpha(alpha: float) -> None:
    # ndtri returns nan outside (0, 1) rather than raising.
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class PowerQuery:
    """Inputs for one required-mileage evaluation.

    lambda_human is the benchmark rate in crashes per mile; effect_ratio
    is lambda_ads / lambda_human (0.75 means a 25% reduction).
    """

    lambda_human: float
    effect_ratio: float
    alpha: float = DEFAULT_ALPHA
    power: float = DEFAULT_POWER

    def __post_init__(self):
        if self.lambda_human <= 0:
            raise ValueError(f"lambda_human must be > 0, got {self.lambda_human}")
        if self.effect_ratio <= 0:
            raise ValueError(f"effect_ratio must be > 0, got {self.effect_ratio}")
        if self.effect_ratio == 1.0:
            raise ZeroEffectError("effect ratio 1 has nothing to detect")
        _check_alpha(self.alpha)
        if not 0.0 < self.power < 1.0:
            raise ValueError(f"power must be in (0, 1), got {self.power}")

    @property
    def lambda_ads(self) -> float:
        return self.effect_ratio * self.lambda_human


@dataclass(frozen=True)
class PowerResult:
    """Both mileages for one query: ``required_miles`` from the displayed
    formula, ``target_power_miles`` from the conventional form."""

    query: PowerQuery
    required_miles: float
    target_power_miles: float

    @property
    def expected_ads_crashes(self) -> float:
        return self.query.lambda_ads * self.required_miles


def _miles(query: PowerQuery, z_power: float, z_alpha: float) -> float:
    """The closed form both mileages share.

    m = (sqrt(lambda_ads) * z_power + sqrt(lambda_human) * z_alpha)^2
        / (lambda_ads - lambda_human)^2
    """
    lam_h = query.lambda_human
    lam_a = query.lambda_ads
    numerator = (math.sqrt(lam_a) * z_power + math.sqrt(lam_h) * z_alpha) ** 2
    return numerator / (lam_a - lam_h) ** 2


def power_curve(
    lambda_human: float,
    effects: tuple[float, ...] = DEFAULT_EFFECT_RATIOS,
    alpha: float = DEFAULT_ALPHA,
    power: float = DEFAULT_POWER,
) -> list[PowerResult]:
    """Both mileages for each effect ratio, with z_power = Phi^-1(power).

    ``required_miles`` takes z_alpha = Phi^-1(alpha/2) as displayed.  It
    is negative, so the numerator terms partially cancel and the result
    is about 4.8x smaller (at the default alpha and power) than
    ``target_power_miles``, whose z_alpha = Phi^-1(1 - alpha/2) reaches
    the target power.  The first reproduces the published formula's
    values, the second its published mileage charts.
    """
    queries = [PowerQuery(lambda_human, effect, alpha, power) for effect in effects]
    z_power = float(ndtri(power))
    z_lower = float(ndtri(alpha / 2.0))
    z_upper = float(ndtri(1.0 - alpha / 2.0))
    return [
        PowerResult(query, _miles(query, z_power, z_lower), _miles(query, z_power, z_upper))
        for query in queries
    ]


def required_mileage(query: PowerQuery) -> PowerResult:
    """Both mileages for one query (see ``power_curve``)."""
    (result,) = power_curve(query.lambda_human, (query.effect_ratio,), query.alpha, query.power)
    return result


def mileage_for_power(
    lambda_human: float,
    effect_ratio: float,
    alpha: float = DEFAULT_ALPHA,
    power: float = DEFAULT_POWER,
) -> float:
    """Miles at which the two-sided benchmark-known test attains the
    target power (``target_power_miles`` of ``power_curve``)."""
    query = PowerQuery(lambda_human, effect_ratio, alpha, power)
    return _miles(query, float(ndtri(power)), float(ndtri(1.0 - alpha / 2.0)))


def analytic_power(
    lambda_human: float,
    effect_ratio: float,
    miles: float,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Normal-approximation power of the benchmark-known test.

    Both rejection tails are included.  The ADS count is approximated as
    normal with mean and variance r*lambda*m, while the critical values
    use the null variance lambda*m, so the standardized statistic has
    mean (r-1)*sqrt(lambda*m) and standard deviation sqrt(r).
    """
    if miles <= 0:
        raise ValueError(f"miles must be > 0, got {miles}")
    _check_alpha(alpha)
    r = effect_ratio
    mu = (r - 1.0) * math.sqrt(lambda_human * miles)
    sd = math.sqrt(r)
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    lower = float(ndtr((-z_crit - mu) / sd))
    upper = 1.0 - float(ndtr((z_crit - mu) / sd))
    return lower + upper


def monte_carlo_power(
    lambda_human: float,
    effect_ratio: float,
    miles: float,
    alpha: float = DEFAULT_ALPHA,
    trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Simulated rejection fraction of the benchmark-known test.

    ADS counts are drawn Poisson(r * lambda * miles); each trial rejects
    when |count - lambda*miles| / sqrt(lambda*miles) exceeds the
    two-sided critical value.  Deterministic given the seed.  Unlike the
    closed forms, effect_ratio 1 is allowed here - it is the null
    calibration check and should reject at about alpha.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a stable estimate, got {trials}")
    if lambda_human <= 0 or miles <= 0 or effect_ratio < 0:
        raise ValueError("lambda_human and miles must be > 0, effect_ratio >= 0")
    _check_alpha(alpha)
    mu_null = lambda_human * miles
    mu_alt = effect_ratio * mu_null
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam=mu_alt, size=trials)
    z = (counts - mu_null) / math.sqrt(mu_null)
    return float(np.mean(np.abs(z) > z_crit))
