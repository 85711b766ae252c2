"""Required-mileage power analysis for rate comparisons.

The driving question: how many ADS miles are needed before a two-sided
test of the ADS crash rate against a known human benchmark rate reaches
a target rejection probability?  The module provides

* ``mileage_grid`` - for every (benchmark rate, effect ratio) pair,
  ``required_miles`` (the benchmark methodology's displayed formula,
  evaluated exactly as written) and ``target_power_miles`` (the
  conventional form that attains the target power under the test
  below), as arrays; ``power_curve`` (one rate), ``required_mileage``
  and ``mileage_for_power`` (one pair) wrap it,
* ``analytic_power`` / ``monte_carlo_power`` - normal-approximation and
  simulated power of the test at any mileage, the latter serving as an
  independent oracle for the closed forms.

The test throughout treats the benchmark as known: with X the observed
ADS crash count over m miles and lambda the benchmark rate per mile,
reject when |X - lambda*m| / sqrt(lambda*m) exceeds the two-sided
normal critical value.

A simulated fraction depends only on the two expected counts
lambda*m and r*lambda*m, alpha, the number of trials and the seed.  At
``target_power_miles`` the null count lambda*m is a function of the
effect ratio, alpha and power alone (lambda cancels out of the closed
form), so the rows of a power grid with many strata share a handful of
expected-count pairs, equal up to rounding in the last bits.
``monte_carlo_power`` therefore draws each distinct simulation once
per process and returns the kept fraction for every repeat.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .model import CrashBenchError, InvalidOptionError


class ZeroEffectError(CrashBenchError):
    """Effect ratio 1 makes the required-mileage denominator vanish."""


# Effect ratios evaluated by default: 25/50/75/90% reductions and
# 25/50% increases in the crash rate.
DEFAULT_EFFECT_RATIOS = (0.75, 0.5, 0.25, 0.1, 1.25, 1.5)
DEFAULT_ALPHA = 0.05
DEFAULT_POWER = 0.8

# Distinct simulations monte_carlo_power keeps per process.  A power grid
# fills a few dozen at most (see the module docstring); the bound caps
# the memory of a caller sweeping many mileages or seeds.
_FRACTION_CACHE_SIZE = 1024

# The largest mean numpy's Generator.poisson accepts (it raises "lam value
# too large" above it).
_POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def _check_value(name: str, value: float, allow_zero: bool = False) -> None:
    """A finite value > 0, or >= 0 with ``allow_zero``; NaN is neither."""
    if not (value >= 0.0 if allow_zero else value > 0.0):
        raise InvalidOptionError(f"{name} must be {'>= 0' if allow_zero else '> 0'}, got {value}")
    if value == math.inf:
        raise InvalidOptionError(f"{name} must be finite, got {value}")


def _null_mean(lambda_human: float, miles: float) -> float:
    """The expected crash count lambda_human * miles under the null, which
    must be a finite float > 0: the test divides by its square root."""
    _check_value("lambda_human", lambda_human)
    _check_value("miles", miles)
    mu_null = lambda_human * miles
    if not 0.0 < mu_null < math.inf:
        raise InvalidOptionError(
            f"lambda_human * miles must be a finite float > 0, got {mu_null} "
            f"from lambda_human {lambda_human} and miles {miles}"
        )
    return mu_null


def _check_alpha(alpha: float) -> None:
    # ndtri returns nan outside (0, 1) rather than raising.
    if not 0.0 < alpha < 1.0:
        raise InvalidOptionError(f"alpha must be in (0, 1), got {alpha}")


def _check_grid(lambdas: np.ndarray, effects: np.ndarray, alpha: float, power: float) -> None:
    """The domain of the closed forms: every rate and effect ratio
    finite and positive, the square of every lambda_human and
    lambda_ads finite (the forms square both rates), no effect ratio 1,
    the square of every rate gap lambda_ads - lambda_human a normal
    float (the forms divide by it, and one that underflows makes the
    mileage inf or inexact), alpha and power in (0, 1)."""
    for name, values in (("lambda_human", lambdas), ("effect_ratio", effects)):
        bad = values[~(values > 0) | np.isinf(values)]
        if bad.size:
            value = bad[0].item()
            raise InvalidOptionError(
                f"{name} must be {'finite' if value == math.inf else '> 0'}, got {value}"
            )
    if lambdas.size and effects.size:
        # Everything is positive here, so the largest rates decide.
        lam_h = lambdas.max().item()
        lam_a = lam_h * effects.max().item()
        for name, rate in (
            ("lambda_human", lam_h), ("lambda_ads (effect_ratio * lambda_human)", lam_a)
        ):
            if math.isinf(rate * rate):
                raise InvalidOptionError(f"{name} must have a finite square, got {rate}")
    if (effects == 1.0).any():
        raise ZeroEffectError("effect ratio 1 has nothing to detect")
    if lambdas.size and effects.size:
        # The smallest rate and the ratio nearest 1 make the smallest gap.
        lam_h = lambdas.min().item()
        ratio = effects[np.abs(effects - 1.0).argmin()].item()
        gap = lam_h * ratio - lam_h
        if gap * gap < sys.float_info.min:
            raise InvalidOptionError(
                f"lambda_human must leave a rate gap (effect_ratio - 1) * lambda_human whose "
                f"square does not underflow, got {lam_h} with effect_ratio {ratio}"
            )
    _check_alpha(alpha)
    if not 0.0 < power < 1.0:
        raise InvalidOptionError(f"power must be in (0, 1), got {power}")


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
        _check_grid(
            np.array([self.lambda_human]), np.array([self.effect_ratio]), self.alpha, self.power
        )

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


def mileage_grid(
    lambdas,
    effects,
    alpha: float = DEFAULT_ALPHA,
    power: float = DEFAULT_POWER,
) -> tuple[np.ndarray, np.ndarray]:
    """Both mileages for every (lambda_human, effect ratio) pair, as
    ``(required_miles, target_power_miles)`` arrays of shape
    ``(len(lambdas), len(effects))``.

    Each is the closed form

        m = (sqrt(lambda_ads) * z_power + sqrt(lambda_human) * z_alpha)^2
            / (lambda_ads - lambda_human)^2

    with lambda_ads = effect * lambda_human and z_power = Phi^-1(power).
    ``required_miles`` takes z_alpha = Phi^-1(alpha/2) as displayed.  It
    is negative, so the numerator terms partially cancel and the result
    is about 4.8x smaller (at the default alpha and power) than
    ``target_power_miles``, whose z_alpha = Phi^-1(1 - alpha/2) reaches
    the target power.  The first reproduces the published formula's
    values, the second its published mileage charts.  The three
    quantiles are computed once per grid, and squares are exact
    products ``t * t``.
    """
    lam_h = np.asarray(lambdas, dtype=float)
    ratios = np.asarray(effects, dtype=float)
    _check_grid(lam_h, ratios, alpha, power)
    lam_h = lam_h[:, np.newaxis]
    lam_a = ratios * lam_h
    power_term = np.sqrt(lam_a) * float(ndtri(power))
    root_h = np.sqrt(lam_h)
    gap = lam_a - lam_h
    gap_sq = gap * gap

    def miles(z_alpha: float) -> np.ndarray:
        t = power_term + root_h * z_alpha
        return t * t / gap_sq

    return miles(float(ndtri(alpha / 2.0))), miles(float(ndtri(1.0 - alpha / 2.0)))


def power_curve(
    lambda_human: float,
    effects: tuple[float, ...] = DEFAULT_EFFECT_RATIOS,
    alpha: float = DEFAULT_ALPHA,
    power: float = DEFAULT_POWER,
) -> list[PowerResult]:
    """Both mileages for each effect ratio: one row of ``mileage_grid``."""
    required, target = mileage_grid([lambda_human], effects, alpha, power)
    return [
        PowerResult(PowerQuery(lambda_human, effect, alpha, power), miles, target_miles)
        for effect, miles, target_miles in zip(effects, required[0].tolist(), target[0].tolist())
    ]


def required_mileage(query: PowerQuery) -> PowerResult:
    """Both mileages for one query (see ``mileage_grid``)."""
    required, target = mileage_grid(
        [query.lambda_human], [query.effect_ratio], query.alpha, query.power
    )
    return PowerResult(query, required.item(), target.item())


def mileage_for_power(
    lambda_human: float,
    effect_ratio: float,
    alpha: float = DEFAULT_ALPHA,
    power: float = DEFAULT_POWER,
) -> float:
    """Miles at which the two-sided benchmark-known test attains the
    target power (``target_power_miles`` of ``mileage_grid``)."""
    _, target = mileage_grid([lambda_human], [effect_ratio], alpha, power)
    return target.item()


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
    mu_null = _null_mean(lambda_human, miles)
    _check_value("effect_ratio", effect_ratio)
    _check_alpha(alpha)
    r = effect_ratio
    mu = (r - 1.0) * math.sqrt(mu_null)
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

    The fraction depends only on the null mean lambda*miles, the
    simulated mean r*lambda*miles, alpha, trials and seed, so each
    distinct simulation is drawn once per process and its fraction
    returned for every repeat (power-grid rows repeat these means; see
    the module docstring).  The inputs are checked before that lookup,
    and a call that raises is never kept.
    """
    if trials < 1000:
        raise InvalidOptionError(
            f"trials: need at least 1000 for a stable estimate, got {trials}"
        )
    mu_null = _null_mean(lambda_human, miles)
    _check_value("effect_ratio", effect_ratio, allow_zero=True)
    if seed < 0:
        raise InvalidOptionError(f"seed must be >= 0, got {seed}")
    _check_alpha(alpha)
    mu_alt = effect_ratio * mu_null
    if mu_alt > _POISSON_MEAN_MAX:
        raise InvalidOptionError(
            f"effect_ratio * lambda_human * miles must be at most numpy's Poisson limit "
            f"{_POISSON_MEAN_MAX!r}, got {mu_alt}"
        )
    return _rejection_fraction(mu_null, mu_alt, alpha, trials, seed)


# typed: a float ``trials`` must not hit an int's entry, since the draw
# refuses a float size.
@functools.lru_cache(maxsize=_FRACTION_CACHE_SIZE, typed=True)
def _rejection_fraction(
    mu_null: float, mu_alt: float, alpha: float, trials: int, seed: int
) -> float:
    """Share of ``trials`` Poisson(mu_alt) counts from ``default_rng(seed)``
    whose |count - mu_null| / sqrt(mu_null) exceeds the two-sided
    critical value at ``alpha``."""
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    rng = np.random.default_rng(seed)
    counts = rng.poisson(lam=mu_alt, size=trials)
    z = (counts - mu_null) / math.sqrt(mu_null)
    return float(np.mean(np.abs(z) > z_crit))
