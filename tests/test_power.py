import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from crashbench.model import InvalidOptionError
from crashbench.power import (
    _FRACTION_CACHE_SIZE,
    _POISSON_MEAN_MAX,
    DEFAULT_EFFECT_RATIOS,
    PowerQuery,
    ZeroEffectError,
    _rejection_fraction,
    analytic_power,
    mileage_for_power,
    mileage_grid,
    monte_carlo_power,
    power_curve,
    required_mileage,
)

ATLANTA_POLICE_RATE = 5.609e-6  # crashes per mile


class TestRequiredMileage:
    def test_atlanta_reference_value(self):
        # Frozen from independent evaluation of the displayed formula
        # with scipy quantiles.
        result = required_mileage(PowerQuery(ATLANTA_POLICE_RATE, 0.75))
        assert result.required_miles == pytest.approx(4323348.338954176, rel=1e-9)

    def test_zero_effect_rejected(self):
        with pytest.raises(ZeroEffectError):
            PowerQuery(ATLANTA_POLICE_RATE, 1.0)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            PowerQuery(0.0, 0.75)
        with pytest.raises(ValueError):
            PowerQuery(1e-6, -0.5)
        with pytest.raises(ValueError):
            PowerQuery(1e-6, 0.75, alpha=1.5)
        with pytest.raises(ValueError):
            PowerQuery(1e-6, 0.75, power=0.0)

    def test_inverse_lambda_scaling(self):
        base = required_mileage(PowerQuery(1e-6, 0.75)).required_miles
        for k in (0.001, 0.1, 10.0, 1000.0):
            scaled = required_mileage(PowerQuery(k * 1e-6, 0.75)).required_miles
            assert scaled * k == pytest.approx(base, rel=1e-9)

    def test_monotone_in_effect_magnitude(self):
        reductions = [0.9, 0.75, 0.5, 0.25, 0.1]
        miles = [required_mileage(PowerQuery(1e-6, r)).required_miles for r in reductions]
        assert miles == sorted(miles, reverse=True)
        increases = [1.1, 1.25, 1.5, 2.0]
        miles_up = [required_mileage(PowerQuery(1e-6, r)).required_miles for r in increases]
        assert miles_up == sorted(miles_up, reverse=True)

    def test_expected_crashes_invariant(self):
        query = PowerQuery(2e-6, 0.5)
        result = required_mileage(query)
        assert result.expected_ads_crashes == pytest.approx(
            0.5 * 2e-6 * result.required_miles, rel=1e-12
        )


class TestPowerCurve:
    def test_default_effect_list_shape(self):
        rows = power_curve(1e-6)
        assert len(rows) == len(DEFAULT_EFFECT_RATIOS) == 6

    def test_lower_rate_curve_dominates(self):
        # Phoenix fatal vs Atlanta fatal freeway rates (per mile).
        phoenix = power_curve(0.005e-6)
        atlanta = power_curve(0.014e-6)
        for low, high in zip(phoenix, atlanta):
            assert low.required_miles > high.required_miles

    def test_zero_effect_propagates(self):
        with pytest.raises(ZeroEffectError):
            power_curve(1e-6, effects=(0.75, 1.0))

    def test_rows_carry_both_mileages(self):
        lam_h, alpha, power = 2e-6, 0.1, 0.9
        z_power = float(ndtri(power))
        for row in power_curve(lam_h, alpha=alpha, power=power):
            lam_a = row.query.lambda_ads
            for z_alpha, miles in (
                (float(ndtri(alpha / 2)), row.required_miles),
                (float(ndtri(1 - alpha / 2)), row.target_power_miles),
            ):
                # Squares are exact products, not pow(x, 2).
                t = math.sqrt(lam_a) * z_power + math.sqrt(lam_h) * z_alpha
                gap = lam_a - lam_h
                assert miles == t * t / (gap * gap)
            assert row == required_mileage(row.query)
            assert row.target_power_miles == mileage_for_power(
                lam_h, row.query.effect_ratio, alpha, power
            )


class TestMileageGrid:
    @settings(max_examples=100, deadline=None)
    @given(
        lambdas=st.lists(st.floats(1e-12, 1e-2), min_size=1, max_size=12),
        effects=st.lists(
            st.floats(0.01, 5.0).filter(lambda e: e != 1.0), min_size=1, max_size=8
        ),
        alpha=st.floats(0.001, 0.5),
        power=st.floats(0.05, 0.99),
    )
    def test_rows_equal_power_curve(self, lambdas, effects, alpha, power):
        required, target = mileage_grid(lambdas, effects, alpha, power)
        assert required.shape == target.shape == (len(lambdas), len(effects))
        z_power = float(ndtri(power))
        z_alphas = (float(ndtri(alpha / 2)), float(ndtri(1 - alpha / 2)))
        for lam, required_row, target_row in zip(lambdas, required.tolist(), target.tolist()):
            # Each entry is the scalar closed form, evaluated on its own.
            for effect, *miles in zip(effects, required_row, target_row):
                lam_a = effect * lam
                gap = lam_a - lam
                for z_alpha, m in zip(z_alphas, miles):
                    t = math.sqrt(lam_a) * z_power + math.sqrt(lam) * z_alpha
                    assert m == t * t / (gap * gap)
            curve = power_curve(lam, tuple(effects), alpha, power)
            assert [r.required_miles for r in curve] == required_row
            assert [r.target_power_miles for r in curve] == target_row
            for row in curve:
                assert row == required_mileage(row.query)
                assert row.target_power_miles == mileage_for_power(
                    lam, row.query.effect_ratio, alpha, power
                )

    def test_empty_grid(self):
        required, target = mileage_grid([], DEFAULT_EFFECT_RATIOS)
        assert required.shape == target.shape == (0, len(DEFAULT_EFFECT_RATIOS))

    @pytest.mark.parametrize(
        "lambdas,effects,error,match",
        [
            ([1e-6, 0.0], (0.75,), ValueError, "lambda_human must be > 0, got 0.0"),
            ([1e-6, math.nan], (0.75,), ValueError, "lambda_human must be > 0, got nan"),
            ([1e-6], (0.75, -0.5), ValueError, "effect_ratio must be > 0, got -0.5"),
            ([1e-6], (0.75, 1.0), ZeroEffectError, "effect ratio 1"),
            ([math.inf], (0.75,), ValueError, "lambda_human must be finite, got inf"),
            ([1e-6], (0.75, math.inf), ValueError, "effect_ratio must be finite, got inf"),
            ([1e-6, 1e300], (0.75,), ValueError,
             r"lambda_human must have a finite square, got 1e\+300"),
            ([1e153], (0.75, 100.0), ValueError,
             r"lambda_ads \(effect_ratio \* lambda_human\) must have a finite square, "
             r"got 1e\+155"),
            ([1e-6, 1e-200], (0.75,), ValueError,
             r"lambda_human must leave a rate gap .* whose square does not underflow, "
             r"got 1e-200 with effect_ratio 0\.75"),
            ([1e-160], (0.5, 1.0000001), ValueError,
             r"lambda_human must leave a rate gap .* got 1e-160 with effect_ratio 1\.0000001"),
        ],
    )
    def test_validation(self, lambdas, effects, error, match):
        with pytest.raises(error, match=match):
            mileage_grid(lambdas, effects)


class TestMileageForPower:
    def test_conventional_reference_value(self):
        # Frozen from independent evaluation with scipy quantiles.
        miles = mileage_for_power(ATLANTA_POLICE_RATE, 0.75)
        assert miles == pytest.approx(20623436.022149596, rel=1e-9)

    def test_analytic_power_attained(self):
        miles = mileage_for_power(ATLANTA_POLICE_RATE, 0.75)
        assert analytic_power(ATLANTA_POLICE_RATE, 0.75, miles) == pytest.approx(0.8, abs=1e-6)

    def test_displayed_formula_sits_below_target_power(self):
        # The verbatim formula's mileage is ~4.77x smaller and the test
        # power there is far below the nominal target; both facts are
        # documented in the report's methodology notes.
        displayed = required_mileage(PowerQuery(ATLANTA_POLICE_RATE, 0.75)).required_miles
        conventional = mileage_for_power(ATLANTA_POLICE_RATE, 0.75)
        assert conventional / displayed == pytest.approx(4.770246, rel=1e-5)
        assert analytic_power(ATLANTA_POLICE_RATE, 0.75, displayed) == pytest.approx(
            0.2, abs=0.01
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            analytic_power(ATLANTA_POLICE_RATE, 0.75, 1e7, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be in"):
            monte_carlo_power(ATLANTA_POLICE_RATE, 0.75, 1e7, alpha=alpha, trials=1000)

    def test_results_are_python_floats(self):
        # A numpy scalar would print as np.float64(...) in the report files.
        (row,) = power_curve(ATLANTA_POLICE_RATE, (0.75,))
        assert type(row.required_miles) is float
        assert type(row.target_power_miles) is float
        assert type(mileage_for_power(ATLANTA_POLICE_RATE, 0.75)) is float
        assert type(analytic_power(ATLANTA_POLICE_RATE, 0.75, 1e7)) is float


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        kwargs = dict(trials=2000, seed=123)
        a = monte_carlo_power(1e-6, 0.75, 2e7, **kwargs)
        b = monte_carlo_power(1e-6, 0.75, 2e7, **kwargs)
        assert a == b

    def test_null_calibration(self):
        miles = mileage_for_power(1e-6, 0.75)
        fraction = monte_carlo_power(1e-6, 1.0, miles, trials=20000, seed=5)
        assert fraction == pytest.approx(0.05, abs=0.01)

    def test_huge_mileage_rejects_always(self):
        miles = 100.0 * mileage_for_power(1e-6, 0.75)
        fraction = monte_carlo_power(1e-6, 0.75, miles, trials=2000, seed=6)
        assert fraction > 0.999

    def test_agrees_with_analytic_power(self):
        miles = 0.6 * mileage_for_power(2e-6, 0.8)
        mc = monte_carlo_power(2e-6, 0.8, miles, trials=40000, seed=7)
        assert mc == pytest.approx(analytic_power(2e-6, 0.8, miles), abs=0.01)

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_power(1e-6, 0.75, 1e6, trials=10)

    @pytest.mark.parametrize(
        "args,match",
        [
            ((math.nan, 0.75, 1e7), "lambda_human must be > 0, got nan"),
            ((math.inf, 0.75, 1e7), "lambda_human must be finite, got inf"),
            ((-math.inf, 0.75, 1e7), "lambda_human must be > 0, got -inf"),
            ((1e-6, math.nan, 1e7), "effect_ratio must be >= 0, got nan"),
            ((1e-6, math.inf, 1e7), "effect_ratio must be finite, got inf"),
            ((1e-6, -0.5, 1e7), "effect_ratio must be >= 0, got -0.5"),
            ((1e-6, 0.75, math.nan), "miles must be > 0, got nan"),
            ((1e-6, 0.75, math.inf), "miles must be finite, got inf"),
            ((1e-6, 0.75, 0.0), "miles must be > 0, got 0.0"),
            # The null mean underflows to 0, which the test divides by.
            ((1e-300, 0.75, 1e-300),
             r"lambda_human \* miles must be a finite float > 0, got 0\.0 from lambda_human"),
            ((1e200, 0.75, 1e200), r"lambda_human \* miles must be a finite float > 0, got inf"),
            # A mean numpy's Poisson draw refuses.
            ((1e-6, 0.75, 1e30), r"effect_ratio \* lambda_human \* miles must be at most "
                                 r"numpy's Poisson limit"),
        ],
    )
    def test_inputs_outside_the_domain_name_the_argument(self, args, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidOptionError, match=match):
                monte_carlo_power(*args, trials=1000)
            # A refusal is never kept: the same call is refused again.
            with pytest.raises(InvalidOptionError, match=match):
                monte_carlo_power(*args, trials=1000)

    def test_poisson_limit_itself_is_drawn(self):
        assert 0.0 <= monte_carlo_power(1.0, 1.0, _POISSON_MEAN_MAX, trials=1000) <= 1.0


class TestAnalyticPowerDomain:
    @pytest.mark.parametrize(
        "args,match",
        [
            ((math.inf, 0.75, 1e6), "lambda_human must be finite, got inf"),
            ((1e-6, math.inf, 1e6), "effect_ratio must be finite, got inf"),
            ((1e-6, 0.75, math.inf), "miles must be finite, got inf"),
            ((math.nan, 0.75, 1e6), "lambda_human must be > 0, got nan"),
            ((1e-6, 0.0, 1e6), "effect_ratio must be > 0, got 0.0"),
            ((1e200, 0.75, 1e200), r"lambda_human \* miles must be a finite float > 0, got inf"),
        ],
    )
    def test_inputs_outside_the_domain_name_the_argument(self, args, match):
        with pytest.raises(InvalidOptionError, match=match):
            analytic_power(*args)


class TestMonteCarloCache:
    """``monte_carlo_power`` keeps each distinct simulation's fraction;
    what it returns must be what a fresh draw returns."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _rejection_fraction.cache_clear()
        yield
        _rejection_fraction.cache_clear()

    @staticmethod
    def fresh(lam, effect, miles, alpha=0.05, trials=10_000, seed=0):
        """The uncached draw, with monte_carlo_power's defaults."""
        mu_null = lam * miles
        return _rejection_fraction.__wrapped__(mu_null, effect * mu_null, alpha, trials, seed)

    def test_grid_rows_equal_fresh_draws_bit_for_bit(self):
        # Rates as a rate table gives them, count over VMT, for many strata.
        lambdas = [count / vmt for count in range(1, 41) for vmt in (3.1e6, 7.7e7, 2.9e9)]
        _, target = mileage_grid(lambdas, DEFAULT_EFFECT_RATIOS)
        rows = [
            (lam, effect, miles)
            for lam, row in zip(lambdas, target.tolist())
            for effect, miles in zip(DEFAULT_EFFECT_RATIOS, row)
        ]
        for lam, effect, miles in rows:
            cached = monte_carlo_power(lam, effect, miles, trials=1000, seed=11)
            assert repr(cached) == repr(self.fresh(lam, effect, miles, trials=1000, seed=11))
        info = _rejection_fraction.cache_info()
        # The rows share few expected-count pairs, which is why the cache pays.
        assert info.hits + info.misses == len(rows) == 720
        assert info.currsize == info.misses < len(rows) / 4

    def test_calls_differing_in_one_input_are_drawn_afresh(self):
        lam, effect = 2e-6, 0.8
        miles = 0.6 * mileage_for_power(lam, effect)
        calls = [
            dict(seed=1), dict(seed=2), dict(trials=1001), dict(trials=2000),
            dict(alpha=0.1), dict(alpha=0.01), dict(seed=1),
        ]
        for kwargs in calls:
            assert monte_carlo_power(lam, effect, miles, **kwargs) == self.fresh(
                lam, effect, miles, **kwargs
            )
        assert len({monte_carlo_power(lam, effect, miles, **kwargs) for kwargs in calls}) > 1

    def test_float_trials_does_not_hit_an_int_entry(self):
        # The draw refuses a float size, cached or not, and the refusal is
        # raised again on repeat.
        lam, effect, miles = 1e-6, 0.75, 2e7
        monte_carlo_power(lam, effect, miles, trials=1000)
        with pytest.raises(TypeError):
            self.fresh(lam, effect, miles, trials=1000.0)
        for _ in range(2):
            with pytest.raises(TypeError):
                monte_carlo_power(lam, effect, miles, trials=1000.0)
        assert _rejection_fraction.cache_info().currsize == 1

    def test_cache_holds_at_most_its_bound(self):
        for seed in range(_FRACTION_CACHE_SIZE + 5):
            monte_carlo_power(1e-6, 0.75, 2e7, trials=1000, seed=seed)
        info = _rejection_fraction.cache_info()
        assert info.maxsize == info.currsize == _FRACTION_CACHE_SIZE


def test_null_count_at_target_power_does_not_depend_on_lambda():
    # target_power_miles = (sqrt(r) z_power + z_alpha)^2 / ((r - 1)^2 lambda),
    # so lambda * miles is one value per effect ratio: many strata share it.
    lambdas = np.geomspace(1e-8, 1e-4, 97)
    _, target = mileage_grid(lambdas, DEFAULT_EFFECT_RATIOS)
    counts = lambdas[:, np.newaxis] * target
    np.testing.assert_allclose(counts, np.broadcast_to(counts[0], counts.shape), rtol=1e-12)
