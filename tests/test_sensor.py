"""Sensor rules: quantization, channel laws, repair, admissibility."""

import math

import numpy as np
import pytest

from robust_fusion.distributions import DiscretePmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import (
    CdfMember,
    EpsContaminationClass,
    GaussianBandClass,
    gaussian_band_lfd,
    huber_clipped_lfd,
    kl_dabak_lfd,
)
from robust_fusion.ordering import CdfView, dominates
from robust_fusion.sensor import (
    Quantizer,
    RandomizedBinaryRule,
    SensorChannel,
    attach_repair,
    block_sensor_llr,
    channel_from_pmfs,
    channel_from_quantizer,
    default_quantizer,
    level_boundaries,
    llr_monotone_check,
    member_channel,
    permutation_repair,
    quantize,
    randomized_binary_admissible,
)

from _oracles import density_integral, normal_cdf_quadrature

EXAMPLE_PAIR = gaussian_band_lfd(
    GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
)
# Frozen from the quadrature oracle: standard normal cdf at 0.5.
PHI_HALF = 0.6914624612740131


class TestQuantize:
    def test_single_threshold(self):
        q = Quantizer((1.0,))
        assert quantize(q, 0.5) == 0
        assert quantize(q, 1.5) == 1

    def test_interval_convention_left_closed(self):
        q = Quantizer((1.0, 2.0, 3.0))
        assert quantize(q, 2.0) == 2
        assert quantize(q, 2.9) == 2
        assert quantize(q, 3.0) == 3

    def test_boundary_goes_up(self):
        q = Quantizer((1.0,))
        assert quantize(q, 1.0) == 1

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            Quantizer((1.0, 1.0))


class TestChannelFromQuantizer:
    def test_single_threshold_at_unit_lr(self):
        """Threshold at LR 1 splits N(0,1)/N(1,1) at y = 0.5."""
        assert abs(normal_cdf_quadrature(0.5) - PHI_HALF) < 1e-12
        ch = channel_from_quantizer(Quantizer((1.0,)), EXAMPLE_PAIR)
        assert np.allclose(ch.pmf0.probs, [PHI_HALF, 1.0 - PHI_HALF], atol=1e-12)
        assert np.allclose(ch.pmf1.probs, [1.0 - PHI_HALF, PHI_HALF], atol=1e-12)

    def test_no_thresholds_gives_uninformative_level(self):
        ch = channel_from_quantizer(Quantizer(()), EXAMPLE_PAIR)
        assert ch.levels == (0,)
        assert ch.llr[0] == 0.0

    def test_random_quantizer_matches_quadrature(self):
        """Interval masses agree with direct density integration."""
        rng = np.random.default_rng(15)
        thresholds = tuple(np.exp(np.sort(rng.uniform(-2.0, 2.0, size=3))))
        q = Quantizer(thresholds)
        ch = channel_from_quantizer(q, EXAMPLE_PAIR)
        bounds = [-13.0] + level_boundaries(EXAMPLE_PAIR, q) + [14.0]
        for logpdf, pmf in ((EXAMPLE_PAIR.q0_logpdf, ch.pmf0), (EXAMPLE_PAIR.q1_logpdf, ch.pmf1)):
            for d in range(len(bounds) - 1):
                mass = density_integral(
                    lambda y: math.exp(float(logpdf(y))), bounds[d], bounds[d + 1]
                )
                assert abs(mass - pmf.probs[d]) < 1e-9
        assert np.all(np.diff(ch.llr) > 0)

    def test_sandwich_property(self):
        """exp(llr[d]) is the conditional LR mean, inside [t_{d-1}, t_d]."""
        rng = np.random.default_rng(16)
        for _ in range(50):
            d_count = int(rng.integers(1, 5))
            thresholds = tuple(np.exp(np.sort(rng.uniform(-4.0, 4.0, size=d_count))))
            ch = channel_from_quantizer(Quantizer(thresholds), EXAMPLE_PAIR)
            bounds = (0.0,) + thresholds + (math.inf,)
            for level, llr in zip(ch.levels, ch.llr):
                assert bounds[level] - 1e-8 <= math.exp(llr) <= bounds[level + 1] + 1e-8

    def test_ordering_transport_through_quantizer(self):
        """Band members ordered on the LR axis stay ordered after quantizing."""
        band0 = GaussianBandClass(-1.0, 0.0, 1.0)
        band1 = GaussianBandClass(1.0, 2.0, 1.0)
        pair = gaussian_band_lfd(band0, band1)
        q = Quantizer((0.5, 1.0, 2.0))
        lfd0 = member_channel(GaussianSpec(0.0, 1.0), pair, q)
        lfd1 = member_channel(GaussianSpec(1.0, 1.0), pair, q)
        grid = np.arange(-1.0, 5.0, 0.5)
        for mu in np.linspace(-1.0, 0.0, 7):
            member = member_channel(GaussianSpec(float(mu), 1.0), pair, q)
            report = dominates(CdfView.from_pmf(lfd0), CdfView.from_pmf(member), grid)
            assert report.dominates
        for mu in np.linspace(1.0, 2.0, 7):
            member = member_channel(GaussianSpec(float(mu), 1.0), pair, q)
            report = dominates(CdfView.from_pmf(member), CdfView.from_pmf(lfd1), grid)
            assert report.dominates

    def test_huber_channel_exact(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(GaussianSpec(0.0, 1.0), 0.05),
            EpsContaminationClass(GaussianSpec(1.0, 1.0), 0.05),
        )
        ch = channel_from_quantizer(Quantizer((0.8, 1.25)), pair)
        assert llr_monotone_check(ch)
        assert abs(float(np.sum(ch.pmf0.probs)) - 1.0) < 1e-12

    def test_threshold_at_upper_clip_level_takes_whole_stretch(self):
        """A threshold at exp(log c_hi) puts the clipped top stretch in level 1.

        For this pair log(exp(log c_hi)) rounds one ulp above the clip
        level, so the boundary search must allow for that rounding.
        """
        pair = huber_clipped_lfd(
            EpsContaminationClass(GaussianSpec(0.0, 1.0), 0.08),
            EpsContaminationClass(GaussianSpec(1.0, 1.0), 0.08),
        )
        log_c_hi = float(pair.log_lr(pair.support[1]))
        ch = channel_from_quantizer(Quantizer((math.exp(log_c_hi),)), pair)
        y_hi = pair.meta["breakpoints"][-1]
        assert abs(ch.pmf0.probs[0] - pair.q0_cdf(y_hi)) < 1e-12
        assert abs(ch.pmf1.probs[0] - pair.q1_cdf(y_hi)) < 1e-12
        assert abs(ch.pmf0.probs[1] - (1.0 - pair.q0_cdf(y_hi))) < 1e-12
        assert abs(ch.pmf1.probs[1] - (1.0 - pair.q1_cdf(y_hi))) < 1e-12

    def test_zero_mass_levels_dropped_with_warning(self):
        """Thresholds beyond the support leave empty levels behind."""
        q = Quantizer((math.exp(-40.0), math.exp(-39.0), 1.0))
        with pytest.warns(RuntimeWarning, match="zero mass"):
            ch = channel_from_quantizer(q, EXAMPLE_PAIR)
        assert len(ch.levels) < 4

    def test_non_monotone_log_lr_fallback_exact(self):
        """Quadratic log-LR (unequal variances): crossing-cut masses.

        The oracle finds the threshold crossings independently (dense scan
        plus brentq) and integrates each piece with adaptive quadrature.
        The second pair (sigma 1.01) has its vertex far outside the
        support: monotone there but not affine, so it is cut at grid
        crossings too.
        """
        from scipy.integrate import quad
        from scipy.optimize import brentq

        curved = kl_dabak_lfd(
            GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03
        )
        nearly_affine = kl_dabak_lfd(
            GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.01), 0.03, 0.03
        )
        q = Quantizer((0.5, 1.0, 2.0))
        assert not bool(np.all(np.diff(np.asarray(curved.log_lr(curved.grid()))) >= 0))
        assert bool(np.all(np.diff(np.asarray(nearly_affine.log_lr(nearly_affine.grid()))) > 0))
        with pytest.warns(RuntimeWarning, match="zero mass"):
            curved_ch = channel_from_quantizer(q, curved)
        cases = ((curved, curved_ch), (nearly_affine, channel_from_quantizer(q, nearly_affine)))
        for pair, ch in cases:
            assert llr_monotone_check(ch)
            lo, hi = -14.0, 15.0
            ys = np.linspace(lo, hi, 20001)
            cuts = [lo, hi]
            for t in q.thresholds:
                g = lambda y, lt=math.log(t): float(pair.log_lr(y)) - lt
                vals = np.array([g(y) for y in ys])
                for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
                    cuts.append(brentq(g, ys[i], ys[i + 1], xtol=1e-14))
            cuts = sorted(set(cuts))
            for logpdf, pmf in ((pair.q0_logpdf, ch.pmf0), (pair.q1_logpdf, ch.pmf1)):
                oracle = np.zeros(q.num_levels)
                for a, b in zip(cuts, cuts[1:]):
                    level = quantize(q, math.exp(float(pair.log_lr(0.5 * (a + b)))))
                    oracle[level] += quad(
                        lambda y: math.exp(float(logpdf(y))), a, b, limit=200
                    )[0]
                for level, prob in zip(ch.levels, pmf.probs):
                    assert abs(prob - oracle[level]) < 1e-10

    def test_lfd_as_member_reproduces_non_monotone_channel(self):
        """member_channel cuts a non-monotone log-LR where the channel does."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        q = Quantizer((0.5, 1.0, 2.0))
        with pytest.warns(RuntimeWarning, match="zero mass"):
            ch = channel_from_quantizer(q, pair)
        for cdf, pmf in ((pair.q0_cdf, ch.pmf0), (pair.q1_cdf, ch.pmf1)):
            member = member_channel(CdfMember(cdf), pair, q, levels=ch.levels)
            assert np.max(np.abs(member.probs - pmf.probs)) < 1e-12

    def test_level_boundaries_reject_double_crossing(self):
        """Without a closed-form inverse, each threshold must cross once."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        with pytest.raises(ValueError, match="other than once upward"):
            level_boundaries(pair, Quantizer((2.0,)))


class TestLlrMonotoneCheck:
    def test_channel_from_quantizer_passes(self):
        ch = channel_from_quantizer(Quantizer((1.0,)), EXAMPLE_PAIR)
        assert llr_monotone_check(ch)

    def test_decreasing_llr_fails(self):
        ch = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.5, 0.5]), pmf_from_weights([0, 1], [0.8, 0.2])
        )
        assert not llr_monotone_check(ch)

    def test_single_level_vacuous(self):
        ch = channel_from_pmfs(
            pmf_from_weights([0], [1.0]), pmf_from_weights([0], [1.0])
        )
        assert llr_monotone_check(ch)


class TestPermutationRepair:
    def test_swapped_binary_labels(self):
        ch = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.2, 0.8]), pmf_from_weights([0, 1], [0.8, 0.2])
        )
        rho, repaired = permutation_repair(ch)
        assert rho == {0: 1, 1: 0}
        assert llr_monotone_check(repaired)

    def test_identity_on_monotone_channel(self):
        ch = channel_from_quantizer(Quantizer((0.5, 2.0)), EXAMPLE_PAIR)
        rho, repaired = permutation_repair(ch)
        assert rho == {0: 0, 1: 1, 2: 2}
        assert np.array_equal(repaired.llr, ch.llr)

    def test_attach_repair_keeps_labels(self):
        ch = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.2, 0.8]), pmf_from_weights([0, 1], [0.8, 0.2])
        )
        attached = attach_repair(ch)
        assert attached.levels == ch.levels
        assert attached.repair == {0: 1, 1: 0}


class TestRandomizedBinaryAdmissible:
    def test_admissible_case(self):
        pmf0 = pmf_from_weights([0, 1], [0.7, 0.3])
        pmf1 = pmf_from_weights([0, 1], [0.3, 0.7])
        assert randomized_binary_admissible(pmf0, pmf1)

    def test_inadmissible_case(self):
        pmf0 = pmf_from_weights([0, 1], [0.5, 0.5])
        pmf1 = pmf_from_weights([0, 1], [0.6, 0.4])
        assert not randomized_binary_admissible(pmf0, pmf1)

    def test_boundary_is_strict(self):
        pmf0 = pmf_from_weights([0, 1], [0.5, 0.5])
        pmf1 = pmf_from_weights([0, 1], [0.5, 0.5])
        assert not randomized_binary_admissible(pmf0, pmf1)

    def test_level_set_validation(self):
        pmf = pmf_from_weights([0, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            randomized_binary_admissible(pmf, pmf)


class TestRandomizedBinaryRule:
    def test_hard_threshold_matches_quantizer_channel(self):
        """A 0/1 accept probability reproduces the deterministic split.

        The jump limits trapezoid accuracy to the grid step; smooth rules
        integrate to near machine precision.
        """
        rule = RandomizedBinaryRule.from_accept_prob(
            lambda y: 1.0 if y >= 0.5 else 0.0, EXAMPLE_PAIR
        )
        assert abs(rule.pmf0.probs[1] - (1.0 - PHI_HALF)) < 2e-3
        assert abs(rule.pmf1.probs[1] - PHI_HALF) < 2e-3
        assert rule.admissible()

    def test_smooth_randomized_rule_admissible(self):
        rule = RandomizedBinaryRule.from_accept_prob(
            lambda y: 1.0 / (1.0 + math.exp(-2.0 * (y - 0.5))), EXAMPLE_PAIR
        )
        assert rule.admissible()

    def test_constant_half_rule_not_admissible(self):
        """A coin flip induces q1(0) + q0(1) = 1 exactly: excluded."""
        rule = RandomizedBinaryRule.from_accept_prob(lambda y: 0.5, EXAMPLE_PAIR)
        assert not rule.admissible()

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RandomizedBinaryRule.from_accept_prob(lambda y: 1.5, EXAMPLE_PAIR)


class TestBlockSensor:
    def test_single_observation(self):
        y = 0.8
        expected = float(EXAMPLE_PAIR.log_lr(y))
        assert block_sensor_llr(EXAMPLE_PAIR, [y]) == expected

    def test_repeated_observation_triples(self):
        y = -0.3
        single = float(EXAMPLE_PAIR.log_lr(y))
        assert abs(block_sensor_llr(EXAMPLE_PAIR, [y, y, y]) - 3.0 * single) < 1e-12

    def test_huber_pair_allowed(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(GaussianSpec(0.0, 1.0), 0.05),
            EpsContaminationClass(GaussianSpec(1.0, 1.0), 0.05),
        )
        assert math.isfinite(block_sensor_llr(pair, [0.1, 4.0, -3.0]))

    def test_divergence_ball_pair_rejected(self):
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.0), 0.05, 0.05)
        with pytest.raises(ValueError, match="product rule invalid"):
            block_sensor_llr(pair, [0.1])


class TestDefaultQuantizer:
    def test_quantile_placement(self):
        """With one threshold the split lands at the mixture median."""
        q = default_quantizer(EXAMPLE_PAIR, 1)
        assert len(q.thresholds) == 1
        y = 0.5  # symmetric pair: mixture median is the midpoint
        assert abs(q.thresholds[0] - math.exp(float(EXAMPLE_PAIR.log_lr(y)))) < 1e-9

    def test_zero_levels(self):
        assert default_quantizer(EXAMPLE_PAIR, 0).thresholds == ()


class TestSensorChannelValidation:
    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share"):
            SensorChannel(
                pmf_from_weights([0, 1], [0.5, 0.5]), pmf_from_weights([0, 2], [0.5, 0.5])
            )

    def test_inf_sentinels(self):
        pmf0 = DiscretePmf((0, 1, 2), np.array([0.5, 0.5, 0.0]))
        pmf1 = DiscretePmf((0, 1, 2), np.array([0.0, 0.5, 0.5]))
        ch = SensorChannel(pmf0, pmf1)
        assert ch.llr[0] == -math.inf
        assert ch.llr[2] == math.inf
        assert llr_monotone_check(ch)
