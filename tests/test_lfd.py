"""LFD constructions: mean bands, KL balls, contamination, boundedness."""

import math

import numpy as np
import pytest

from robust_fusion.distributions import GaussianSpec, trapezoid
from robust_fusion.lfd import (
    CdfMember,
    ContaminatedGaussian,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    _kl_gaussians,
    cut_log_lr,
    gaussian_band_lfd,
    huber_clipped_lfd,
    joint_boundedness_check,
    kl_dabak_lfd,
    level_masses,
)

from _oracles import (
    affinity_fit,
    density_integral,
    gaussian_kl,
    huber_clip_reference,
    joint_boundedness_reference,
)

BAND0 = GaussianBandClass(-1.0, 0.0, 1.0)
BAND1 = GaussianBandClass(1.0, 2.0, 1.0)
STD = GaussianSpec(0.0, 1.0)
SHIFTED = GaussianSpec(1.0, 1.0)


def pair_identity_residual(pair, points=2001):
    xs = pair.grid(points)
    direct = np.asarray(pair.log_lr(xs))
    derived = np.asarray(pair.q1_logpdf(xs)) - np.asarray(pair.q0_logpdf(xs))
    finite = np.isfinite(direct) & np.isfinite(derived)
    return float(np.max(np.abs(direct[finite] - derived[finite])))


class TestGaussianBandLfd:
    def test_example_construction(self):
        """Separated bands push toward each other: N(0,1) vs N(1,1)."""
        pair = gaussian_band_lfd(BAND0, BAND1)
        assert pair.meta["q0"] == GaussianSpec(0.0, 1.0)
        assert pair.meta["q1"] == GaussianSpec(1.0, 1.0)

    def test_zero_width_bands_reduce_to_nominals(self):
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        assert pair.meta["q0"].mean == 0.0
        assert pair.meta["q1"].mean == 1.0

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
        xs = pair.grid()
        vals = np.asarray(pair.log_lr(xs))
        slopes = np.diff(vals) / np.diff(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(slopes, slopes[0], atol=1e-9)

    def test_normalization_and_identity(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        r0, r1 = pair.normalization_residuals()
        assert r0 < 1e-8 and r1 < 1e-8
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
            integrand = q.pdf(xs) * (q.logpdf(xs) - p.logpdf(xs))
            assert abs(trapezoid(xs, integrand) - _kl_gaussians(q, p)) < 1e-6


class TestKlDabakLfd:
    def test_symmetric_tenths_case(self):
        """eps = 0.08 on N(0,1)/N(1,1): u = v = sigma*sqrt(2 eps)/dmu = 0.4."""
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        assert abs(pair.meta["u"] - 0.4) < 1e-6
        assert abs(pair.meta["v"] - 0.4) < 1e-6
        assert abs(pair.meta["q0"].mean - 0.4) < 1e-6
        assert abs(pair.meta["q1"].mean - 0.6) < 1e-6
        assert pair.meta["q0"].sigma == 1.0

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
        assert pair.meta["q0"] == STD
        assert pair.meta["q1"] == SHIFTED

    def test_radii_too_large(self):
        """eps = 0.2 gives u = v = sqrt(0.4) and u + v > 1."""
        with pytest.raises(ValueError, match="too large"):
            kl_dabak_lfd(STD, SHIFTED, 0.2, 0.2)

    def test_round_trip_matches_radii(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            eps0, eps1 = rng.uniform(1e-4, 0.1, size=2)
            pair = kl_dabak_lfd(STD, SHIFTED, float(eps0), float(eps1))
            assert abs(gaussian_kl(pair.meta["q0"], STD) - eps0) < 1e-8
            assert abs(gaussian_kl(pair.meta["q1"], SHIFTED) - eps1) < 1e-8

    def test_normalization_and_identity(self):
        pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
        r0, r1 = pair.normalization_residuals()
        assert r0 < 1e-8 and r1 < 1e-8
        assert pair_identity_residual(pair) < 1e-12


class TestHuberClippedLfd:
    def test_zero_contamination_is_nominal_test(self):
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.0), EpsContaminationClass(SHIFTED, 0.0)
        )
        assert pair.meta["c_lo"] == 0.0
        assert pair.meta["c_hi"] == math.inf
        xs = pair.grid()
        nominal = SHIFTED.logpdf(xs) - STD.logpdf(xs)
        assert np.max(np.abs(np.asarray(pair.log_lr(xs)) - nominal)) < 1e-12

    def test_densities_normalize(self):
        """Clip constants solved so both densities integrate to one."""
        pair = huber_clipped_lfd(
            EpsContaminationClass(STD, 0.05), EpsContaminationClass(SHIFTED, 0.05)
        )
        assert math.isfinite(pair.meta["c_hi"])
        y_lo, y_hi = pair.meta["y_lo"], pair.meta["y_hi"]
        for logpdf in (pair.q0_logpdf, pair.q1_logpdf):
            mass = density_integral(
                lambda y: math.exp(float(logpdf(y))), -13.0, 14.0, points=[y_lo, y_hi]
            )
            assert abs(mass - 1.0) < 1e-8
        r0, r1 = pair.normalization_residuals()
        assert r0 < 1e-8 and r1 < 1e-8

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
            vals = np.asarray(pair.log_lr(pair.grid()))
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
            direct = pair.q0_cdf(x)
            integral = density_integral(
                lambda y: math.exp(float(pair.q0_logpdf(y))), -13.0, x, points=[y_lo]
            )
            assert abs(direct - integral) < 1e-10


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
            pair, BAND0.members(21), BAND1.members(21), t_grid
        )
        assert report.holds
        assert report.worst_violation <= 1e-9

    def test_lfd_member_gap_is_zero(self):
        pair = gaussian_band_lfd(BAND0, BAND1)
        report = joint_boundedness_check(
            pair,
            [CdfMember(pair.q0_cdf)],
            [CdfMember(pair.q1_cdf)],
            np.linspace(-8.0, 8.0, 101),
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
        report = joint_boundedness_check(
            pair,
            cls0.members(atoms),
            cls1.members(atoms),
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
            members0, members1 = built.members(0, n), built.members(1, n)
            llr = built.pair.log_lr(built.pair.grid())
            t_min, t_max = float(np.min(llr)), float(np.max(llr))
            grids = (
                np.unique(np.linspace(t_min, t_max, 101)),
                np.linspace(t_min - 2.0, t_max + 2.0, 101),
            )
            for t_grid in grids:
                report = joint_boundedness_check(built.pair, members0, members1, t_grid)
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
        members0, members1 = BAND0.members(3), BAND1.members(3)
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


class TestNonMonotoneLogLr:
    """Unequal-variance KL nominals give a Gaussian LFD pair whose log-LR is
    a quadratic with its minimum inside the support, so {log_lr <= t} is
    empty, a bounded interval (two crossings) or a half-line
    (one crossing), depending on t."""

    PAIR = kl_dabak_lfd(STD, GaussianSpec(1.0, 1.6), 0.03, 0.03)

    @staticmethod
    def _closed_form(pair, member, t):
        """P_member[log q1(Y) - log q0(Y) <= t] from the quadratic's roots."""
        q0, q1 = pair.meta["q0"], pair.meta["q1"]
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
        fx = pair.log_lr(pair.grid())
        t_min, t_left = float(np.min(fx)), float(pair.log_lr(lo))
        assert pair.meta["q1"].sigma > pair.meta["q0"].sigma
        assert lo < pair.grid()[np.argmin(fx)] < hi
        t_grid = np.linspace(t_min - 1.0, float(pair.log_lr(hi)) + 1.0, 121)
        # empty, two-crossing and one-crossing regimes all sampled
        assert np.sum(t_grid < t_min) >= 5
        assert np.sum((t_grid > t_min) & (t_grid < t_left)) >= 50
        assert np.sum(t_grid > t_left) >= 30
        cuts, segment_levels = cut_log_lr(pair, t_grid)
        members = (pair.meta["q0"], pair.meta["q1"], GaussianSpec(0.4, 0.8))
        for member in members:
            below = np.cumsum(level_masses([member], cuts, segment_levels, len(t_grid) + 1)[0])
            for t, got in zip(t_grid, below[:-1]):
                assert abs(got - self._closed_form(pair, member, float(t))) < 1e-9

    def test_lfds_bound_themselves(self):
        pair = self.PAIR
        fx = pair.log_lr(pair.grid())
        report = joint_boundedness_check(
            pair,
            [pair.meta["q0"]],
            [pair.meta["q1"]],
            np.linspace(float(np.min(fx)), float(np.max(fx)), 101),
        )
        assert report.holds
        assert report.worst_violation == 0.0


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
        members = BAND0.members(21)
        assert len(members) == 21
        assert members[0].mean == -1.0
        assert members[-1].mean == 0.0

    def test_kl_ball_members_inside_ball(self):
        members = KlBallClass(STD, 0.08).members(11, SHIFTED)
        assert len(members) > 20
        for m in members:
            assert gaussian_kl(m, STD) <= 0.08 + 1e-9

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
        at_atom = level_masses([member], (0.5,), levels, 2)[0]
        past_atom = level_masses([member], (0.5 + 1e-9,), levels, 2)[0]
        assert abs(at_atom.sum() - 1.0) < 1e-12
        assert abs(at_atom[0] - 0.9 * STD.cdf(0.5)) < 1e-15
        assert abs(past_atom[0] - at_atom[0] - 0.1) < 1e-6
