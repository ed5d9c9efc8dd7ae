"""LFD constructions: mean bands, KL balls, contamination, boundedness."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from robust_fusion._roots import bernoulli_kl_root
from robust_fusion.distributions import GaussianSpec
from robust_fusion.lfd import (
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    QuadraticLlr,
    _kl_gaussians,
    cut_log_lr,
    gaussian_band_lfd,
    huber_clipped_lfd,
    joint_boundedness_check,
    kl_dabak_lfd,
    level_masses,
)

from _oracles import (
    ContaminatedGaussian,
    affinity_fit,
    band_members,
    bernoulli_kl_root_reference,
    contamination_members,
    density_integral,
    gaussian_kl,
    huber_clip_reference,
    joint_boundedness_reference,
    lfd_logpdfs,
    probe_below,
    probe_boundedness_check,
    probe_level_masses,
    probe_members,
)

BAND0 = GaussianBandClass(-1.0, 0.0, 1.0)
BAND1 = GaussianBandClass(1.0, 2.0, 1.0)
STD = GaussianSpec(0.0, 1.0)
SHIFTED = GaussianSpec(1.0, 1.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def pair_identity_residual(pair, points=2001):
    """Largest |log_lr - (log q1 - log q0)| on the support, the densities
    from :func:`lfd_logpdfs`."""
    xs = np.linspace(*pair.support, points)
    logpdf0, logpdf1 = lfd_logpdfs(pair)
    direct = np.asarray(pair.log_lr(xs))
    derived = np.asarray(logpdf1(xs)) - np.asarray(logpdf0(xs))
    finite = np.isfinite(direct) & np.isfinite(derived)
    return float(np.max(np.abs(direct[finite] - derived[finite])))


def total_mass_residuals(pair):
    """|Q_j(+inf) - 1| of each law's closed-form cdf, as ``cli lfd`` reports."""
    return tuple(abs(law.cdf(math.inf) - 1.0) for law in (pair.q0, pair.q1))


def density_masses(pair, lo, hi, points=None):
    """Each law's density (:func:`lfd_logpdfs`) integrated over [lo, hi]."""
    return tuple(
        density_integral(lambda y: math.exp(float(logpdf(y))), lo, hi, points=points)
        for logpdf in lfd_logpdfs(pair)
    )


class TestGaussianBandLfd:
    def test_example_construction(self):
        """Separated bands push toward each other: N(0,1) vs N(1,1)."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        assert pair.q0 == GaussianSpec(0.0, 1.0)
        assert pair.q1 == GaussianSpec(1.0, 1.0)

    def test_zero_width_bands_reduce_to_nominals(self):
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        assert pair.q0.mean == 0.0
        assert pair.q1.mean == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="classes overlap"):
            gaussian_band_lfd(
                GaussianBandClass(-1.0, 0.5, 1.0), GaussianBandClass(0.4, 2.0, 1.0)
            )

    def test_sigma_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_band_lfd(BAND0, GaussianBandClass(1.0, 2.0, 2.0))

    def test_log_lr_affine_increasing(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        xs = np.linspace(*pair.support, 2001)
        vals = np.asarray(pair.log_lr(xs))
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(slopes, slopes[0], atol=1e-9)

    def test_normalization_and_identity(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        assert total_mass_residuals(pair) == (0.0, 0.0)
        for mass in density_masses(pair, -13.0, 14.0):
            assert abs(mass - 1.0) < 1e-8
        assert pair_identity_residual(pair) < 1e-12


class TestKlDivergence:
    """The closed-form Gaussian KL that the tilt solve inverts."""

    def test_identical_gaussians(self):
        assert _kl_gaussians(STD, STD) == 0.0

    def test_equal_variance_analytic(self):
        """Equal-sigma Gaussian KL is (delta mean)^2 / (2 sigma^2)."""
        assert abs(_kl_gaussians(GaussianSpec(0.4, 1.0), STD) - 0.08) < 1e-10
        assert abs(_kl_gaussians(SHIFTED, STD) - 0.5) < 1e-10

    def test_grid_density_matches_analytic(self):
        """Trapezoid integral of q log(q/p) on mean +/- 8 sigma agrees,
        also for unequal variances."""
        for q, p in ((SHIFTED, STD), (GaussianSpec(0.3, 0.7), GaussianSpec(-0.2, 1.4))):
            xs = np.linspace(-12.0, 12.0, 4001)
            integrand = np.exp(q.logpdf(xs)) * (q.logpdf(xs) - p.logpdf(xs))
            assert abs(trapezoid(integrand, xs) - _kl_gaussians(q, p)) < 1e-6


class TestKlDabakLfd:
    def test_symmetric_tenths_case(self):
        """eps = 0.08 on N(0,1)/N(1,1): u = v = sigma*sqrt(2 eps)/dmu = 0.4."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        assert abs(pair.meta["u"] - 0.4) < 1e-6
        assert abs(pair.meta["v"] - 0.4) < 1e-6
        assert abs(pair.q0.mean - 0.4) < 1e-6
        assert abs(pair.q1.mean - 0.6) < 1e-6
        assert pair.q0.sigma == 1.0

    def test_equal_variance_tilts_are_closed_form(self):
        """Equal sigmas: u = sigma*sqrt(2 eps0)/|dmu| and v alike, exactly,
        for either mean order; identical nominals reach no positive radius."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        assert pair.meta["u"] == pair.meta["v"] == 0.4
        rng = np.random.default_rng(16)
        for _ in range(20):
            sigma, gap = rng.uniform(0.5, 2.0, size=2)
            eps0, eps1 = rng.uniform(1e-4, 0.1, size=2) * gap * gap / (sigma * sigma)
            p0 = GaussianSpec(0.3, float(sigma))
            p1 = GaussianSpec(0.3 + float(rng.choice([-1.0, 1.0]) * gap), float(sigma))
            pair = kl_dabak_lfd(p0, p1, float(eps0), float(eps1))
            dmu = abs(p1.mean - p0.mean)
            assert pair.meta["u"] == sigma * math.sqrt(2.0 * eps0) / dmu
            assert pair.meta["v"] == sigma * math.sqrt(2.0 * eps1) / dmu
        with pytest.raises(ValueError, match="too large"):
            kl_dabak_lfd(STD, STD, 0.01, 0.0)

    def test_zero_radii_give_nominals(self):
        pair = kl_dabak_lfd(STD, SHIFTED, 0.0, 0.0)
        assert pair.meta["u"] == 0.0
        assert pair.meta["v"] == 0.0
        assert pair.q0 == STD
        assert pair.q1 == SHIFTED

    def test_radii_too_large(self):
        """eps = 0.2 gives u = v = sqrt(0.4) and u + v > 1."""
        with pytest.raises(ValueError, match="too large"):
            kl_dabak_lfd(STD, SHIFTED, 0.2, 0.2)

    def test_round_trip_matches_radii(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            eps0, eps1 = rng.uniform(1e-4, 0.1, size=2)
            pair = kl_dabak_lfd(STD, SHIFTED, float(eps0), float(eps1))
            assert abs(gaussian_kl(pair.q0, STD) - eps0) < 1e-8
            assert abs(gaussian_kl(pair.q1, SHIFTED) - eps1) < 1e-8

    def test_normalization_and_identity(self):
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        assert total_mass_residuals(pair) == (0.0, 0.0)
        for mass in density_masses(pair, -13.0, 14.0):
            assert abs(mass - 1.0) < 1e-8
        assert pair_identity_residual(pair) < 1e-12


class TestHuberClippedLfd:
    def test_zero_contamination_is_nominal_test(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.0), EpsContaminationClass(SHIFTED, 0.0)
        )
        assert pair.meta["c_lo"] == 0.0
        assert pair.meta["c_hi"] == math.inf
        xs = np.linspace(*pair.support, 2001)
        nominal = SHIFTED.logpdf(xs) - STD.logpdf(xs)
        assert np.max(np.abs(np.asarray(pair.log_lr(xs)) - nominal)) < 1e-12

    def test_densities_normalize(self):
        """Clip constants solved so both densities integrate to one."""
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.05)
        )
        assert math.isfinite(pair.meta["c_hi"])
        y_lo, y_hi = pair.meta["y_lo"], pair.meta["y_hi"]
        for mass in density_masses(pair, -13.0, 14.0, points=[y_lo, y_hi]):
            assert abs(mass - 1.0) < 1e-8
        r0, r1 = total_mass_residuals(pair)
        assert r0 < 1e-13 and r1 < 1e-13

    def test_total_mass_is_one_in_closed_form(self):
        """|Q_j(+inf) - 1| of the closed-form cdfs stays below 1e-13 on
        seeded radii, zero radii on either or both sides included: the
        clip constants solve the normalization equations to rounding."""
        rng = np.random.default_rng(20261019)
        zero_sides = 0
        for index in range(200):
            sigma = float(rng.uniform(0.3, 3.0))
            mean1 = sigma * float(rng.uniform(0.2, 4.0))
            eps = [float(e) for e in rng.uniform(0.0, 0.2, size=2)]
            if index % 4 == 1:
                eps[0] = 0.0
            elif index % 4 == 2:
                eps[1] = 0.0
            elif index % 4 == 3:
                eps = [0.0, 0.0]
            c0 = EpsContaminationClass(GaussianSpec(0.0, sigma), eps[0])
            c1 = EpsContaminationClass(GaussianSpec(mean1, sigma), eps[1])
            try:
                pair = huber_clipped_lfd(c0, c1)
            except ValueError:
                continue
            zero_sides += 0.0 in eps
            r0, r1 = total_mass_residuals(pair)
            assert r0 <= 1e-13 and r1 <= 1e-13, (sigma, mean1, eps, r0, r1)
        assert zero_sides >= 100

    def test_log_lr_monotone_for_random_valid_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu1 = rng.uniform(0.3, 3.0)
            sigma = rng.uniform(0.4, 2.0)
            eps0, eps1 = rng.uniform(0.0, 0.12, size=2)
            pair = huber_clipped_lfd(
                EpsContaminationClass(GaussianSpec(0.0, sigma), float(eps0)),
                EpsContaminationClass(GaussianSpec(mu1, sigma), float(eps1)),
            )
            vals = np.asarray(pair.log_lr(np.linspace(*pair.support, 2001)))
            assert np.all(np.diff(vals) >= 0.0)

    def test_identity_with_asymmetric_eps(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.03), EpsContaminationClass(SHIFTED, 0.08)
        )
        assert pair_identity_residual(pair) < 1e-12

    def test_clip_constants_match_numpy_scalar_reference(self):
        """The float-speed clip solve reproduces the numpy-scalar equations.

        Same specs raise; otherwise log c agrees within the bisection's
        1e-13 bracket on y times the slope. math.exp and numpy's exp differ
        by one ulp on a few percent of arguments, which can flip one
        bisection step, so exact equality is required only of most specs.
        """
        rng = np.random.default_rng(20261102)
        raised = identical = 0
        specs = 400
        for _ in range(specs):
            sigma = float(rng.uniform(0.1, 3.0))
            mean0 = float(rng.uniform(-3.0, 3.0))
            mean1 = mean0 + float(rng.uniform(0.05, 40.0)) * sigma
            eps0, eps1 = (0.0 if rng.random() < 0.1 else float(e) for e in rng.uniform(0.0, 0.4, 2))
            c0 = EpsContaminationClass(GaussianSpec(mean0, sigma), eps0)
            c1 = EpsContaminationClass(GaussianSpec(mean1, sigma), eps1)
            try:
                reference = huber_clip_reference(c0, c1)
            except ValueError:
                with pytest.raises(ValueError, match="contamination too large"):
                    huber_clipped_lfd(c0, c1)
                raised += 1
                continue
            pair = huber_clipped_lfd(c0, c1)
            got = (pair.meta["c_lo"], pair.meta["c_hi"])
            identical += got == reference
            slope = (mean1 - mean0) / sigma**2
            for c, ref in zip(got, reference):
                if ref in (0.0, math.inf):
                    assert c == ref
                else:
                    assert abs(math.log(c) - math.log(ref)) <= 1e-12 * slope
        assert 0 < raised < specs
        assert identical >= 0.95 * (specs - raised)

    def test_contamination_too_large(self):
        with pytest.raises(ValueError, match="contamination too large"):
            huber_clipped_lfd(
                EpsContaminationClass(STD, 0.45), EpsContaminationClass(SHIFTED, 0.45)
            )

    def test_unequal_variance_rejected(self):
        with pytest.raises(ValueError, match="equal-variance"):
            huber_clipped_lfd(
                EpsContaminationClass(STD, 0.05),
                EpsContaminationClass(GaussianSpec(1.0, 2.0), 0.05),
            )

    def test_cdf_matches_quadrature(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.05)
        )
        y_lo, y_hi = pair.meta["y_lo"], pair.meta["y_hi"]
        for x in (-1.0, 0.2, y_hi, 2.5):
            for law, logpdf in zip((pair.q0, pair.q1), lfd_logpdfs(pair)):
                integral = density_integral(
                    lambda y: math.exp(float(logpdf(y))),
                    -13.0,
                    x,
                    points=[y for y in (y_lo, y_hi) if y < x],
                )
                assert abs(law.cdf(x) - integral) < 1e-10


class TestUpperLevelBoundary:
    def test_clip_levels_read_off_asymmetric_huber_pairs(self):
        """At the pair's own clip levels the flat stretches land correctly.

        With eps0 != eps1 the log-LR carries an offset; cut at the levels
        read off the log-LR at the support ends, {log_lr < bottom} is empty
        (its cut is the support's lower end) and {log_lr < top} ends where
        the top stretch starts.
        """
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            sigma = rng.uniform(0.4, 2.0)
            mu1 = sigma * rng.uniform(0.8, 3.0)
            eps0, eps1 = rng.uniform(0.01, 0.1, size=2)
            assert eps0 != eps1
            pair = huber_clipped_lfd(
                EpsContaminationClass(GaussianSpec(0.0, sigma), float(eps0)),
                EpsContaminationClass(GaussianSpec(mu1, sigma), float(eps1)),
            )
            lo, hi = pair.support
            assert lo < pair.meta["y_lo"] and pair.meta["y_hi"] < hi
            cuts, _ = cut_log_lr(pair, [float(pair.log_lr(lo)), float(pair.log_lr(hi))])
            assert cuts[0] == lo
            assert abs(cuts[1] - pair.meta["y_hi"]) < 1e-9


class TestJointBoundedness:
    def test_band_classes_hold(self):
        """The mean-band pair dominates every member on both sides."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        t_grid = np.linspace(-8.0, 8.0, 101)
        report = joint_boundedness_check(
            pair, band_members(BAND0, 21), band_members(BAND1, 21), t_grid
        )
        assert report.holds
        assert report.worst_violation <= 1e-9

    def test_lfd_member_gap_is_zero(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        report = joint_boundedness_check(
            pair, [pair.q0], [pair.q1], np.linspace(-8.0, 8.0, 101)
        )
        assert report.holds
        assert report.worst_violation == 0.0

    def test_kl_ball_pair_violated_with_witness(self):
        """No pair is jointly bounded for KL balls; tilted probes find it."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        members0 = KlBallClass(STD, 0.08).members(11, SHIFTED)
        members1 = KlBallClass(SHIFTED, 0.08).members(11, STD)
        report = joint_boundedness_check(
            pair, members0, members1, np.linspace(-2.5, 2.5, 101)
        )
        assert not report.holds
        assert report.worst_violation > 1e-3
        assert report.witness is not None
        assert report.witness.gap == report.worst_violation

    def test_mean_only_tilts_cannot_violate(self):
        """Pure mean tilts are ordered by mean, so no violation appears."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        mean_members0 = [GaussianSpec(m, 1.0) for m in np.linspace(-0.4, 0.4, 15)]
        mean_members1 = [GaussianSpec(m, 1.0) for m in np.linspace(0.6, 1.4, 15)]
        report = joint_boundedness_check(
            pair, mean_members0, mean_members1, np.linspace(-2.5, 2.5, 101)
        )
        assert report.holds

    def test_contamination_pair_holds(self):
        """Censored-LR pairs stay bounded under point contaminations."""
        cls0 = EpsContaminationClass(STD, 0.05)
        cls1 = EpsContaminationClass(SHIFTED, 0.05)
        pair = huber_clipped_lfd(cls0, cls1)
        atoms = np.linspace(-6.0, 7.0, 9)
        report = probe_boundedness_check(
            pair,
            contamination_members(cls0, atoms),
            contamination_members(cls1, atoms),
            np.linspace(-1.5, 1.5, 101),
        )
        assert report.holds

    def test_example_tail_probability_monotone_in_mean(self):
        """P[log LR < t] under a band member falls as the mean rises."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        cuts, segment_levels = cut_log_lr(pair, np.linspace(-4.0, 4.0, 9))
        previous = None
        for mu in np.linspace(-1.0, 0.0, 11):
            member = GaussianSpec(float(mu), 1.0)
            vals = np.cumsum(level_masses([member], cuts, segment_levels, 10)[0])[:-1]
            if previous is not None:
                assert np.all(vals <= previous + 1e-12)
            previous = vals

    def test_matches_per_threshold_reference(self):
        """One cut at the t grid and one mass function give the per-threshold
        route's verdict, witness and worst violation, on seeded band,
        contamination and equal- and unequal-variance KL sensors, on the
        CLI's t grid and on one past the log-LR range at both ends."""
        from robust_fusion.scenario import build_sensor
        from test_fusion import _random_spec

        rng = np.random.default_rng(20261018)
        kinds = ("gaussian-band", "eps-contamination", "kl-ball", "kl-unequal")
        seen = {"violated": 0, "holds": 0}
        for index in range(320):
            kind = kinds[index % 4]
            spec = _random_spec(rng, "kl-ball" if kind == "kl-unequal" else kind, 2)
            if kind == "kl-unequal":
                spec["nominal1"]["sigma"] *= float(rng.choice([rng.uniform(0.6, 0.9), rng.uniform(1.1, 1.6)]))
            built = build_sensor(spec, 0)
            n = (1, 5, 11)[index % 3]
            members0, members1 = probe_members(built, 0, n), probe_members(built, 1, n)
            # contaminated probes are read by the oracle's mirror of the check
            check = probe_boundedness_check if kind == "eps-contamination" else joint_boundedness_check
            t_min, t_max = built.pair.log_lr_range()
            grids = (
                np.unique(np.linspace(t_min, t_max, 101)),
                np.linspace(t_min - 2.0, t_max + 2.0, 101),
            )
            for t_grid in grids:
                report = check(built.pair, members0, members1, t_grid)
                holds, worst, witness = joint_boundedness_reference(
                    built.pair, members0, members1, t_grid
                )
                case = (spec, n)
                assert report.holds == holds, case
                assert abs(report.worst_violation - worst) < 1e-13, case
                if witness is None:
                    assert report.witness is None, case
                else:
                    w = report.witness
                    assert (w.side, w.member_index, w.t) == witness[:3], case
                seen["holds" if holds else "violated"] += 1
        assert min(seen.values()) >= 50, seen

    def test_t_grid_must_be_strictly_increasing_without_nan(self):
        """A NaN t used to be skipped silently; it now raises, as does a
        grid that repeats or decreases."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        members0, members1 = band_members(BAND0, 3), band_members(BAND1, 3)
        for t_grid in ([math.nan, 0.0], [math.nan], [0.0, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                joint_boundedness_check(pair, members0, members1, t_grid)
        for t_grid in ([0.0, 0.0], [1.0, 0.0], [0.0, math.inf, math.inf]):
            with pytest.raises(ValueError, match="strictly increasing"):
                joint_boundedness_check(pair, members0, members1, t_grid)

    def test_empty_member_lists_add_nothing(self):
        """An empty side adds no gap; with both empty the sandwich holds."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        members0 = KlBallClass(STD, 0.08).members(11, SHIFTED)
        members1 = KlBallClass(SHIFTED, 0.08).members(11, STD)
        t_grid = np.linspace(-2.5, 2.5, 101)
        both = joint_boundedness_check(pair, members0, members1, t_grid)
        for side, only0, only1 in (("h0", members0, []), ("h1", [], members1)):
            report = joint_boundedness_check(pair, only0, only1, t_grid)
            holds, worst, witness = joint_boundedness_reference(pair, only0, only1, t_grid)
            assert report.holds == holds
            assert abs(report.worst_violation - worst) < 1e-13
            assert report.worst_violation <= both.worst_violation
            if witness is not None:
                assert (report.witness.side, report.witness.member_index) == (side, witness[1])
        report = joint_boundedness_check(pair, [], [], t_grid)
        assert report.holds and report.worst_violation == 0.0 and report.witness is None


class TestExactBoundedness:
    """``joint_boundedness_check`` given band and contamination classes:
    each class whole, in closed form, against the probe families that
    certified them before (``_oracles.probe_members``)."""

    @staticmethod
    def _gap_rows(built, t):
        """Each side's closed-form gap row and its probes' gap rows (LFD
        minus probe under H0, probe minus LFD under H1) at the t grid."""
        below = lambda laws: probe_below(built.pair, laws, t)
        rows = []
        for side, sign in ((0, 1.0), (1, -1.0)):
            exact = built.classes[side].boundedness_gaps(side, built.pair, t, below)
            probes = probe_members(built, side, 11) + probe_members(built, side, 1)
            read = probe_below(built.pair, [(built.pair.q0, built.pair.q1)[side], *probes], t)
            rows.append((exact, sign * (read[0] - read[1:])))
        return rows

    def test_no_probe_beats_the_exact_verdict(self):
        """On seeded band and contamination specs, on the CLI's t grid and on
        one past the log-LR range at both ends: the closed-form gap is at
        least every probe's (the class's extreme is at least as bad as any
        probe), and within 1e-14 of 0 (the extreme is the LFD's), so the
        check holds with a worst violation of at most 1e-14."""
        from robust_fusion.scenario import _t_grid, build_sensor
        from test_fusion import _random_spec

        rng = np.random.default_rng(20261124)
        largest = {"gaussian-band": 0.0, "eps-contamination": 0.0}
        for index in range(80):
            kind = ("gaussian-band", "eps-contamination")[index % 2]
            built = build_sensor(_random_spec(rng, kind, int(rng.integers(2, 5))), 0)
            t_min, t_max = built.pair.log_lr_range()
            for t in (_t_grid(built.pair), np.linspace(t_min - 2.0, t_max + 2.0, 101)):
                for exact, probes in self._gap_rows(built, t):
                    assert np.all(exact >= probes - 1e-14), (kind, index)
                    largest[kind] = max(largest[kind], float(np.max(np.abs(exact))))
                report = joint_boundedness_check(built.pair, *built.classes, t)
                assert report.holds and report.worst_violation <= 1e-14
                assert report.witness is None
        assert largest["gaussian-band"] == 0.0
        assert 0.0 < largest["eps-contamination"] <= 1e-14

    def test_band_reads_nothing(self, monkeypatch):
        """The band's extreme member is its LFD law: no law is read, and
        the log-LR is not cut."""
        import robust_fusion.lfd as lfd

        reads, cuts = [], []
        original, cut = lfd.level_masses, lfd.cut_log_lr
        monkeypatch.setattr(lfd, "level_masses", lambda *a: reads.append(1) or original(*a))
        monkeypatch.setattr(lfd, "cut_log_lr", lambda *a: cuts.append(1) or cut(*a))
        pair = gaussian_band_lfd(BAND0, BAND1)
        report = joint_boundedness_check(pair, BAND0, BAND1, np.linspace(-8.0, 8.0, 101))
        assert report.holds and report.worst_violation == 0.0
        assert reads == [] and cuts == []
        cls0, cls1 = EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.05)
        joint_boundedness_check(huber_clipped_lfd(cls0, cls1), cls0, cls1, np.linspace(-1.5, 1.5, 101))
        assert len(reads) == 2  # the nominal and the LFD, once per side

    def test_band_wider_than_its_pair_is_violated(self):
        """A pair built from a narrower H0 band leaves the class's endpoint
        worse than its q0: the check reads the endpoint, reports the largest
        probe gap (the endpoint is the last probe) and names the class."""
        narrow = GaussianBandClass(-1.0, -0.3, 1.0)
        pair = gaussian_band_lfd(narrow, BAND1)
        t_grid = np.linspace(*pair.log_lr_range(), 101)
        report = joint_boundedness_check(pair, BAND0, BAND1, t_grid)
        probes = probe_boundedness_check(pair, band_members(BAND0, 11), band_members(BAND1, 11), t_grid)
        assert not report.holds and not probes.holds
        assert report.worst_violation == probes.worst_violation
        assert probes.witness.member_index == 10
        w = report.witness
        assert (w.side, w.member_index, w.member, w.t) == ("h0", 0, BAND0, probes.witness.t)

    def test_empty_and_whole_events_read_zero_gaps(self):
        """Past the clip levels {log_lr < t} is empty or the whole line, and
        every law reads 0 or 1 there: the gaps are 0.0, although the cut
        is clamped to the support end."""
        cls0, cls1 = EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.08)
        pair = huber_clipped_lfd(cls0, cls1)
        llr = pair.log_lr
        bottom, top = llr.offset + llr.lo, llr.offset + llr.hi
        t = np.array([bottom - 1.0, bottom, top + 1e-9, top + 1.0])
        below = lambda laws: probe_below(pair, laws, t)
        for side, cls in enumerate((cls0, cls1)):
            assert np.array_equal(cls.boundedness_gaps(side, pair, t, below), np.zeros(4))

    def test_t_grid_is_validated(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        with pytest.raises(ValueError, match="NaN"):
            joint_boundedness_check(pair, BAND0, BAND1, [0.0, math.nan])
        with pytest.raises(ValueError, match="strictly increasing"):
            joint_boundedness_check(pair, BAND0, BAND1, [1.0, 0.0])

    def test_a_class_side_mixes_with_a_probe_side(self):
        """H0 given whole and H1 by probes of a wider band than the pair's:
        the class adds a zero row, so the probes' witness (index and all)
        is the report of the probes alone."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        probes = band_members(GaussianBandClass(0.5, 2.0, 1.0), 11)
        t_grid = np.linspace(*pair.log_lr_range(), 101)
        alone = joint_boundedness_check(pair, [], probes, t_grid)
        assert not alone.holds and alone.witness.side == "h1"
        assert joint_boundedness_check(pair, BAND0, probes, t_grid) == alone


class TestKlBallBoundedness:
    """``joint_boundedness_check`` given KL balls: each ball whole, its
    extreme P(E) the Bernoulli KL root above the nominal's, against the
    probe family that certified it before (``KlBallClass.members``) and a
    decimal brentq reference."""

    @staticmethod
    def _kl_sensors(count: int = 12):
        """Seeded KL sensors, alternately with equal and unequal nominal
        variances, each side's radius tiny (1e-150 to 1e-8), moderate
        (1e-3 to 0.3) or large (1 to 7); the nominal gap is drawn wide
        enough for the radii, and widened until the LFD pair exists. Every
        third H1 nominal lies below H0's, so the log-LR falls in y (with
        an explicit LR threshold, as default quantizers may refuse it)."""
        from robust_fusion.scenario import build_sensor

        rng = np.random.default_rng(20261020)
        scales = ((-150.0, -8.0), (-3.0, math.log10(0.3)), (0.0, math.log10(7.0)))
        sensors = []
        while len(sensors) < count:
            radii = [10.0 ** rng.uniform(*scales[int(k)]) for k in rng.integers(0, 3, size=2)]
            sigma1 = 1.0 if len(sensors) % 2 == 0 else float(rng.uniform(0.6, 1.8))
            gap = (math.sqrt(2.0 * radii[0]) + math.sqrt(2.0 * radii[1])) * max(1.0, sigma1)
            gap = max(0.5, gap * float(rng.uniform(1.2, 2.0)))
            falling = len(sensors) % 3 == 2
            quantizer = {"thresholds": [1.0]} if falling else {"num_thresholds": int(rng.integers(1, 4))}
            for _ in range(8):
                spec = {
                    "kind": "kl-ball",
                    "nominal0": {"mean": 0.0, "sigma": 1.0},
                    "nominal1": {"mean": -gap if falling else gap, "sigma": sigma1},
                    "eps0": radii[0], "eps1": radii[1],
                    "quantizer": quantizer,
                }
                try:
                    sensors.append(build_sensor(spec, 0))
                    break
                except ValueError:
                    gap *= 1.5
        return sensors

    @staticmethod
    def _t_grids(pair):
        """The CLI's t grid, and one reaching 2 past the log-LR range at both ends."""
        from robust_fusion.scenario import _t_grid

        t_min, t_max = pair.log_lr_range()
        return _t_grid(pair), np.linspace(t_min - 2.0, t_max + 2.0, 101)

    @staticmethod
    def _gap_rows(built, t):
        """Each side's whole-ball gap row, and its ``KlBallClass.members``
        probes' rows read as the member-list path reads them (LFD minus
        probe under H0, probe minus LFD under H1)."""
        below = lambda laws, tails=False: probe_below(built.pair, laws, t, tails)
        for side, sign in ((0, 1.0), (1, -1.0)):
            exact = built.classes[side].boundedness_gaps(side, built.pair, t, below)
            lfd = (built.pair.q0, built.pair.q1)[side]
            read = probe_below(built.pair, [lfd, *built.members(side, 11)], t)
            yield exact, sign * (read[0] - read[1:])

    def test_no_probe_beats_the_whole_ball(self):
        """On seeded KL specs and both t grids, the ball's gap row is at
        least every ``KlBallClass.members`` probe's, and so is the check's
        worst violation over the member lists."""
        for index, built in enumerate(self._kl_sensors()):
            for t in self._t_grids(built.pair):
                for exact, probes in self._gap_rows(built, t):
                    assert np.all(exact >= probes - 1e-14), index
                whole = joint_boundedness_check(built.pair, *built.classes, t)
                probed = joint_boundedness_check(
                    built.pair, built.members(0, 11), built.members(1, 11), t
                )
                assert whole.worst_violation >= probed.worst_violation - 1e-14, index

    def test_roots_match_the_decimal_reference(self):
        """Each side's extreme is the Bernoulli KL root above the nominal's
        P(E), within 1e-12 of ``bernoulli_kl_root_reference``, on the
        seeded specs' wider grid; and at the ends: p for a radius of 0 or
        p = 0, and 1 where the ball reaches it."""
        for built in self._kl_sensors(6):
            t = self._t_grids(built.pair)[1]
            for side, cls in enumerate(built.classes):
                p = probe_below(built.pair, [cls.nominal], t, tails=True)[1 - side][0]
                want = [bernoulli_kl_root_reference(x, cls.radius) for x in p]
                assert np.max(np.abs(bernoulli_kl_root(p, cls.radius) - want)) <= 1e-12
        p = np.array([0.0, 1e-320, 1e-20, 0.3, 1.0 - 1e-16, 1.0])
        assert np.array_equal(bernoulli_kl_root(p, 0.0), p)
        for eps in (1e-150, 0.08, 7.0):
            roots = bernoulli_kl_root(p, eps)
            assert (roots[0], roots[-1]) == (0.0, 1.0)
            assert np.max(np.abs(roots - [bernoulli_kl_root_reference(x, eps) for x in p])) <= 1e-12
        assert bernoulli_kl_root([0.5], 7.0)[0] == 1.0  # -log 0.5 < 7

    def test_kl_ball_value_matches_an_independent_scan(self):
        """kl_ball.json on its t grid, read independently: the log-LR's
        crossing of each t by brentq on scipy's log-densities, the laws by
        scipy's normal cdf and the roots by the decimal reference. The
        largest gap, 0.051273 (the probes found 0.02510), is the check's
        within 1e-9, at the same t, and the witness is the ball."""
        from scipy.optimize import brentq
        from scipy.stats import norm

        from robust_fusion.scenario import _t_grid, build_sensor, load_scenario

        built = build_sensor(load_scenario(SCENARIOS / "kl_ball.json").sensors[0], 0)
        pair, (c0, c1) = built.pair, built.classes
        t = _t_grid(pair)
        report = joint_boundedness_check(pair, c0, c1, t)
        law = lambda g: norm(g.mean, g.sigma)
        llr = lambda y: law(pair.q1).logpdf(y) - law(pair.q0).logpdf(y)
        gaps = [[], []]
        for s in t:
            y = brentq(lambda v: llr(v) - s, -50.0, 50.0, xtol=1e-14)
            high0 = bernoulli_kl_root_reference(law(c0.nominal).sf(y), c0.radius)
            high1 = bernoulli_kl_root_reference(law(c1.nominal).cdf(y), c1.radius)
            gaps[0].append(high0 - law(pair.q0).sf(y))
            gaps[1].append(high1 - law(pair.q1).cdf(y))
        worst = max(map(max, gaps))
        assert abs(report.worst_violation - worst) <= 1e-9
        assert round(worst, 5) == 0.05127
        w = report.witness
        assert (w.side, w.member_index, w.member) == ("h0", 0, c0)
        assert w.t == t[int(np.argmax(gaps[0]))]

    def test_tail_exact_masses(self):
        """``level_masses`` with ``tails``: every Gaussian level mass, down
        to 1e-300 in either tail, is scipy's cdf difference below the mean
        and sf difference above it, to 1e-12 relative. Without ``tails``
        the upper masses are cdf differences near 1, and the far ones read 0."""
        from scipy.stats import norm

        laws = [STD, GaussianSpec(1.5, 0.7)]
        cuts = np.array([-37.0, -20.0, -8.0, -1.0, 0.3, 2.0, 9.0, 21.0, 37.0])
        levels = np.arange(len(cuts) + 1)
        ends = np.concatenate(([-np.inf], cuts, [np.inf]))
        mass = level_masses(laws, cuts, levels, len(levels), tails=True)
        for row, g in zip(mass, laws):
            law = norm(g.mean, g.sigma)
            below, above = law.cdf(ends[1:]) - law.cdf(ends[:-1]), law.sf(ends[:-1]) - law.sf(ends[1:])
            want = np.where(ends[:-1] >= g.mean, above, below)
            assert np.all(np.abs(row - want) <= 1e-12 * want), g
        assert np.all(mass[0, -2:] > 0.0)
        assert np.all(level_masses(laws, cuts, levels, len(levels))[0, -2:] == 0.0)

    def test_check_reads_two_laws_per_side(self, monkeypatch):
        """``certify`` on kl_ball.json: the boundedness check reads the LFD
        and the nominal once per side, and ``KlBallClass.members`` is
        called once per side, by the saddle pass alone."""
        import robust_fusion.lfd as lfd
        from robust_fusion import scenario as scenario_module
        from robust_fusion.fusion import NetworkModel

        built = scenario_module.build_sensors(scenario_module.load_scenario(SCENARIOS / "kl_ball.json"))
        net = NetworkModel(tuple(b.channel for b in built), 0.5)
        reads, probes, checking = [], [], []
        read, probe = lfd.level_masses, lfd.KlBallClass.members
        check = scenario_module.joint_boundedness_check
        monkeypatch.setattr(lfd, "level_masses", lambda laws, *a: reads.append(len(laws)) or read(laws, *a))
        monkeypatch.setattr(
            lfd.KlBallClass, "members", lambda cls, *a: probes.append(bool(checking)) or probe(cls, *a)
        )

        def checked(*args):
            checking.append(1)
            try:
                return check(*args)
            finally:
                checking.pop()

        monkeypatch.setattr(scenario_module, "joint_boundedness_check", checked)
        cert = scenario_module.certify(built, net, 11)
        assert not cert.boundedness[0][1].holds
        assert reads == [2, 2]
        assert probes == [False, False]


class TestNonMonotoneLogLr:
    """Unequal-variance KL nominals give a Gaussian LFD pair whose log-LR is
    a quadratic with its minimum inside the support, so {log_lr <= t} is
    empty, a bounded interval (two crossings) or a half-line
    (one crossing), depending on t."""

    PAIR = kl_dabak_lfd(STD, GaussianSpec(1.0, 1.6), 0.03, 0.03)

    @staticmethod
    def _closed_form(pair, member, t):
        """P_member[log q1(Y) - log q0(Y) <= t] from the quadratic's roots."""
        q0, q1 = pair.q0, pair.q1
        a = 0.5 / q0.sigma**2 - 0.5 / q1.sigma**2
        b = q1.mean / q1.sigma**2 - q0.mean / q0.sigma**2
        c = (
            math.log(q0.sigma / q1.sigma)
            + 0.5 * (q0.mean / q0.sigma) ** 2
            - 0.5 * (q1.mean / q1.sigma) ** 2
        )
        disc = b * b - 4.0 * a * (c - t)
        if disc <= 0.0:
            return 0.0
        lo = (-b - math.sqrt(disc)) / (2.0 * a)
        hi = (-b + math.sqrt(disc)) / (2.0 * a)
        return member.cdf(hi) - member.cdf(lo)

    def test_robust_lr_cdf_matches_quadratic_roots(self):
        pair = self.PAIR
        lo, hi = pair.support
        (t_min, _), t_left = pair.log_lr_range(), float(pair.log_lr(lo))
        assert pair.q1.sigma > pair.q0.sigma
        assert lo < pair.log_lr.vertex() < hi
        t_grid = np.linspace(t_min - 1.0, float(pair.log_lr(hi)) + 1.0, 121)
        # empty, two-crossing and one-crossing regimes all sampled
        assert np.sum(t_grid < t_min) >= 5
        assert np.sum((t_grid > t_min) & (t_grid < t_left)) >= 50
        assert np.sum(t_grid > t_left) >= 30
        cuts, segment_levels = cut_log_lr(pair, t_grid)
        members = (pair.q0, pair.q1, GaussianSpec(0.4, 0.8))
        for member in members:
            below = np.cumsum(level_masses([member], cuts, segment_levels, len(t_grid) + 1)[0])
            for t, got in zip(t_grid, below[:-1]):
                assert abs(got - self._closed_form(pair, member, float(t))) < 1e-9

    def test_lfds_bound_themselves(self):
        pair = self.PAIR
        report = joint_boundedness_check(
            pair, [pair.q0], [pair.q1], np.linspace(*pair.log_lr_range(), 101)
        )
        assert report.holds
        assert report.worst_violation == 0.0


class TestLogLrRange:
    """``LfdPair.log_lr_range``: the log-LR at the support ends and at a
    quadratic's vertex inside the support."""

    def test_clipped_affine_range_is_the_grid_range(self):
        """Band, contamination and equal-variance KL pairs: the grid's min
        and max over 2001 support points, bit for bit."""
        from test_fusion import _random_spec

        from robust_fusion.scenario import build_lfd_pair

        rng = np.random.default_rng(20261021)
        kinds = ("gaussian-band", "eps-contamination", "kl-ball")
        for index in range(150):
            pair = build_lfd_pair(_random_spec(rng, kinds[index % 3], 2), 0)
            assert not isinstance(pair.log_lr, QuadraticLlr)
            llr = pair.log_lr(np.linspace(*pair.support, 2001))
            assert pair.log_lr_range() == (float(np.min(llr)), float(np.max(llr)))

    def test_quadratic_range_covers_a_dense_scan(self):
        """Seeded unequal-variance KL pairs, vertex inside and outside the
        support: the range holds every value of a dense scan, and the
        bound it adds at an inside vertex is attained there."""
        rng = np.random.default_rng(20261022)
        seen = {"inside": 0, "outside": 0}
        for _ in range(200):
            ratio = float(
                rng.choice([rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0), 1.0 + rng.uniform(1e-4, 2e-2)])
            )
            p1 = GaussianSpec(float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), ratio)
            try:
                pair = kl_dabak_lfd(STD, p1, *(float(e) for e in rng.uniform(0.0, 0.04, size=2)))
            except ValueError:
                continue
            assert isinstance(pair.log_lr, QuadraticLlr)
            lo, hi = pair.support
            t_min, t_max = pair.log_lr_range()
            scan = np.asarray(pair.log_lr(np.linspace(lo, hi, 200001)))
            assert t_min <= np.min(scan) and np.max(scan) <= t_max
            vertex = pair.log_lr.vertex()
            inside = lo < vertex < hi
            seen["inside" if inside else "outside"] += 1
            ends = (float(pair.log_lr(lo)), float(pair.log_lr(hi)))
            if inside:
                assert float(pair.log_lr(vertex)) in (t_min, t_max)
            else:
                assert (t_min, t_max) == (min(ends), max(ends))
        assert min(seen.values()) >= 30, seen


class TestAffinity:
    def test_dabak_pair_is_affine_in_nominal_llr(self):
        """Geometric-mixture log-LR = (1 - u - v) * nominal log-LR + const."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        slope, residual = affinity_fit(pair, STD, SHIFTED)
        assert residual < 1e-8
        assert abs(slope - 0.2) < 1e-6

    def test_zero_radius_slope_one(self):
        pair = kl_dabak_lfd(STD, SHIFTED, 0.0, 0.0)
        slope, residual = affinity_fit(pair, STD, SHIFTED)
        assert abs(slope - 1.0) < 1e-12
        assert residual < 1e-12

    def test_clipped_pair_not_affine(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.05)
        )
        _, residual = affinity_fit(pair, STD, SHIFTED)
        assert residual > 1e-3


class TestMembers:
    def test_band_members_cover_endpoints(self):
        members = band_members(BAND0, 21)
        assert len(members) == 21
        assert members[0].mean == -1.0
        assert members[-1].mean == 0.0

    def test_kl_ball_members_inside_ball(self):
        members = KlBallClass(STD, 0.08).members(11, SHIFTED)
        assert len(members) > 20
        for m in members:
            assert gaussian_kl(m, STD) <= 0.08 + 1e-9

    def test_kl_ball_below_float_resolution_gives_the_nominal(self):
        """A radius too small for any variance scale on the grid (1e-31,
        1e-150) gives the nominal alone, as radius 0 does: the nominal is in
        every ball. Radii just above keep their grid members."""
        for radius in (0.0, 1e-31, 1e-150):
            assert KlBallClass(STD, radius).members(11, SHIFTED) == [STD]
        assert len(KlBallClass(STD, 1e-30).members(11, SHIFTED)) == 11
        assert len(KlBallClass(STD, 1e-20).members(11, SHIFTED)) == 88

    def test_kl_ball_members_for_large_radii_stay_inside(self):
        """Radii past the old fixed variance-scale brackets (6.41 nats for
        the lower, 29.42 for the upper) still give probes, each inside its
        ball; a radius whose smallest scale underflows raises, naming it."""
        for radius in (6.5, 7.0, 30.0, 100.0, 700.0):
            members = KlBallClass(STD, radius).members(11, SHIFTED)
            assert len(members) > 20, radius
            for m in members:
                assert gaussian_kl(m, STD) <= radius * (1.0 + 1e-12), (radius, m)
        with pytest.raises(ValueError, match=r"^KL radius 1e\+300 is too large"):
            KlBallClass(STD, 1e300).members(11, SHIFTED)

    def test_kl_ball_members_reach_the_smallest_scale_at_large_radii(self):
        """Past 6.41 nats the lower variance scale is solved in ln tau: at
        radii 40 and 100 the smallest probe scale is the ball's own,
        exp(-radius - 1/2) (tau^2 is below 1e-35 there), to 1e-11, where an
        absolute 1e-13 in tau stopped at 2.84e-14; every probe stays inside."""
        for radius in (40.0, 100.0):
            members = KlBallClass(STD, radius).members(11, SHIFTED)
            smallest = min(m.sigma for m in members) / STD.sigma
            assert abs(smallest / math.exp(-radius - 0.5) - 1.0) < 1e-11, radius
            for m in members:
                assert gaussian_kl(m, STD) <= radius * (1.0 + 1e-12), (radius, m)

    def test_kl_ball_members_keep_the_fixed_brackets_where_they_hold(self, monkeypatch):
        """Up to 6.4 nats the radius-derived brackets solve the same scales
        as the fixed [1e-3, 1] and [1, 8]: the probes are == to those the
        fixed brackets give."""
        from robust_fusion import lfd

        radii = (1e-20, 0.01, 0.08, 0.5, 2.0, 6.4)
        derived = [KlBallClass(STD, r).members(11, SHIFTED) for r in radii]

        def pinned(solve, bracket):
            return lambda f, lo, hi, target, **kw: solve(f, *bracket, target, **kw)

        monkeypatch.setattr(lfd, "solve_increasing", pinned(lfd.solve_increasing, (1.0, 8.0)))
        monkeypatch.setattr(lfd, "solve_decreasing", pinned(lfd.solve_decreasing, (1e-3, 1.0)))
        assert [KlBallClass(STD, r).members(11, SHIFTED) for r in radii] == derived

    def test_classes_reject_nan(self):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianBandClass(math.nan, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            GaussianBandClass(-1.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            KlBallClass(STD, math.nan)
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            kl_dabak_lfd(STD, SHIFTED, math.nan, 0.05)
        with pytest.raises(ValueError, match="eps must be in"):
            EpsContaminationClass(STD, math.nan)

    def test_contaminated_member_cdf(self):
        """P(Y < x) of a point-contaminated member, read off level masses:
        the atom at 0.5 joins the segment above a cut through it."""
        member = ContaminatedGaussian(STD, 0.1, 0.5)
        levels = np.arange(2)
        at_atom = probe_level_masses([member], (0.5,), levels, 2)[0]
        past_atom = probe_level_masses([member], (0.5 + 1e-9,), levels, 2)[0]
        assert abs(at_atom.sum() - 1.0) < 1e-12
        assert abs(at_atom[0] - 0.9 * STD.cdf(0.5)) < 1e-15
        assert abs(past_atom[0] - at_atom[0] - 0.1) < 1e-6
