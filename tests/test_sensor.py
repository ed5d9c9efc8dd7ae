"""Sensor rules: quantization, channel laws, LLR order, admissibility."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from robust_fusion.distributions import AtomPmf, DiscretePmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import (
    CdfMember,
    ClippedAffineLlr,
    ContaminatedGaussian,
    EpsContaminationClass,
    GaussianBandClass,
    QuadraticLlr,
    cut_log_lr,
    gaussian_band_lfd,
    huber_clipped_lfd,
    kl_dabak_lfd,
    level_masses,
)
from robust_fusion.scenario import build_lfd_pair, build_sensor
from robust_fusion.sensor import (
    Quantizer,
    RandomizedBinaryRule,
    SensorChannel,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    default_quantizer,
    llr_monotone_check,
    member_channel,
    member_laws,
    randomized_binary_admissible,
)

from _oracles import (
    atoms_stochastically_larger,
    density_integral,
    level_set_masses,
    log_density_crossing_cuts,
    lower_level_sets,
    lr_level,
    member_channel_reference,
    normal_cdf_quadrature,
    quad_level_masses,
)
from test_fusion import _random_spec

EXAMPLE_PAIR = gaussian_band_lfd(
    GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
)
# Frozen from the quadrature oracle: standard normal cdf at 0.5.
PHI_HALF = 0.6914624612740131


def lr_level_of(q: Quantizer, lr: float) -> int:
    """Level that ``SensorRule`` gives the observation whose EXAMPLE_PAIR
    likelihood ratio is ``lr`` (log-LR y - 1/2, inverted as the rule does):
    where the rule's mass function puts a point atom at that observation."""
    rule, nominal = SensorRule(EXAMPLE_PAIR, q), GaussianSpec(0.0, 1.0)
    member = ContaminatedGaussian(nominal, 0.5, 0.5 + math.log(lr))
    return int(np.argmax(rule.masses(member) - 0.5 * rule.masses(nominal)))


class TestQuantize:
    def test_single_threshold(self):
        q = Quantizer((1.0,))
        assert lr_level_of(q, 0.5) == 0
        assert lr_level_of(q, 1.5) == 1

    def test_interval_convention_left_closed(self):
        q = Quantizer((1.0, 2.0, 3.0))
        assert lr_level_of(q, 2.0) == 2
        assert lr_level_of(q, 2.9) == 2
        assert lr_level_of(q, 3.0) == 3

    def test_boundary_goes_up(self):
        q = Quantizer((1.0,))
        assert lr_level_of(q, 1.0) == 1

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            Quantizer((1.0, 1.0))

    def test_nan_threshold_rejected(self):
        for thresholds in ((math.nan,), (math.nan, 2.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                Quantizer(thresholds)


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
        bounds = [-13.0, *SensorRule(EXAMPLE_PAIR, q).cuts, 14.0]
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

        def level_atoms(mean):
            law = member_channel(GaussianSpec(float(mean), 1.0), SensorRule(pair, q))
            return AtomPmf(np.asarray(law.levels, dtype=float), law.probs)

        lfd0, lfd1 = level_atoms(0.0), level_atoms(1.0)
        for mu in np.linspace(-1.0, 0.0, 7):
            assert atoms_stochastically_larger(lfd0, level_atoms(mu))[0]
        for mu in np.linspace(1.0, 2.0, 7):
            assert atoms_stochastically_larger(level_atoms(mu), lfd1)[0]

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
        support: monotone there but not affine, and cut in closed form
        like the first.
        """
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
            oracle = quad_level_masses(pair, q)
            for h, pmf in enumerate((ch.pmf0, ch.pmf1)):
                for level, prob in zip(ch.levels, pmf.probs):
                    assert abs(prob - oracle[h, level]) < 1e-10

    def test_grid_argument_is_refused(self):
        """No log-LR is cut on a grid: a grid passed in raises."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        with pytest.raises(ValueError, match="grid must be None"):
            channel_from_quantizer(Quantizer((1.0,)), pair, pair.grid())

    def test_lfd_as_member_reproduces_non_monotone_channel(self):
        """member_channel cuts a non-monotone log-LR where the channel does."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        q = Quantizer((0.5, 1.0, 2.0))
        with pytest.warns(RuntimeWarning, match="zero mass"):
            ch = channel_from_quantizer(q, pair)
        for cdf, pmf in ((pair.q0_cdf, ch.pmf0), (pair.q1_cdf, ch.pmf1)):
            member = member_channel(CdfMember(cdf), SensorRule(pair, q), levels=ch.levels)
            assert np.max(np.abs(member.probs - pmf.probs)) < 1e-12


def _random_member_spec(rng, kind: str, levels: int) -> dict:
    """A random band, contamination or KL spec with ``levels`` levels: its
    default quantizer, or thresholds read off the log-LR at random points."""
    spec = _random_spec(rng, kind, levels)
    if rng.random() < 0.5:
        pair = build_lfd_pair(spec, 0)
        lo, hi = pair.support
        ys = np.sort(rng.uniform(lo + 0.35 * (hi - lo), hi - 0.35 * (hi - lo), size=levels - 1))
        thresholds = [math.exp(float(pair.log_lr(y))) for y in ys]
        if all(b > a for a, b in zip(thresholds, thresholds[1:])):
            spec["quantizer"] = {"thresholds": thresholds}
    return spec


class TestSensorRule:
    CONTAMINATION = huber_clipped_lfd(
        EpsContaminationClass(GaussianSpec(-0.5, 1.0), 0.05),
        EpsContaminationClass(GaussianSpec(0.5, 1.0), 0.05),
    )

    def test_threshold_above_upper_clip_level_leaves_an_empty_level(self):
        """No observation reaches an LR threshold above the upper clip
        level, so its boundary stays +inf and the level above is empty and
        dropped, instead of taking the cancelling tail beyond the support."""
        pair = self.CONTAMINATION
        q = Quantizer((1.0, 20.0))
        assert math.log(20.0) > pair.log_lr.offset + pair.log_lr.hi
        bounds = SensorRule(pair, q).cuts
        assert pair.support[0] < bounds[0] < pair.support[1]
        assert bounds[1] == math.inf
        with pytest.warns(RuntimeWarning, match=r"dropping levels \[2\]"):
            ch = channel_from_quantizer(q, pair)
        assert ch.levels == (0, 1)
        assert llr_monotone_check(ch)
        member = ContaminatedGaussian(GaussianSpec(-0.5, 1.0), 0.05, pair.support[1])
        law = member_channel(member, SensorRule(pair, q), levels=ch.levels)
        assert law.levels == (0, 1)

    def test_atom_on_flat_top_stretch_follows_the_cuts(self):
        """A threshold within _LLR_SLACK above the upper clip level gives the
        flat top stretch to level 2; a point atom on that stretch goes
        there too (quantizing its LR value put it in level 1)."""
        pair = self.CONTAMINATION
        top = pair.log_lr.offset + pair.log_lr.hi
        q = Quantizer((0.5, math.exp(top + 2e-13)))
        rule = SensorRule(pair, q)
        atom = pair.support[1] - 0.5
        assert float(pair.log_lr(atom)) == top
        nominal = GaussianSpec(-0.5, 1.0)
        law = member_channel(ContaminatedGaussian(nominal, 0.05, atom), rule)
        stretch = 0.95 * rule.masses(nominal)
        assert np.array_equal(law.probs, stretch + np.array([0.0, 0.0, 0.05]))

    def test_member_laws_match_per_member_reference(self):
        """One rule per sensor gives the per-member route's laws bit for bit,
        one C-ordered row per member on the channel's levels."""
        rng = np.random.default_rng(20261018)
        kinds = ("gaussian-band", "kl-ball", "eps-contamination")
        for index in range(300):
            kind = kinds[index % 3]
            spec = _random_member_spec(rng, kind, int(rng.integers(2, 5)))
            n = (3, 7, 11)[int(rng.integers(3))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                built = build_sensor(spec, 0)
            ch, pair, q = built.channel, built.pair, built.quantizer
            for side in (0, 1):
                members = built.members(side, n)
                laws = built.member_laws(side, members)
                assert laws.shape == (len(members), len(ch.levels))
                assert laws.flags.c_contiguous
                for row, member in zip(laws, members):
                    ref = member_channel_reference(member, pair, q, ch.levels)
                    assert ref.levels == ch.levels
                    assert np.array_equal(row, ref.probs), (spec, side, n, member)

    @pytest.mark.parametrize(
        ("kind", "counted"),
        [
            ("gaussian-band", "boundary"),
            ("eps-contamination", "boundary"),
            ("kl-ball", "boundary"),
            ("kl-ball", "crossings"),
        ],
    )
    def test_member_laws_reuse_the_sensors_cuts(self, monkeypatch, kind, counted):
        """The axis is cut once, in build_sensor; member_laws never cuts it."""
        spec = _random_member_spec(np.random.default_rng(7), kind, 4)
        spec["quantizer"] = {"num_thresholds": 3}
        if counted == "crossings":  # unequal variances: a quadratic log-LR
            spec["nominal1"]["sigma"] *= 1.3
        built = build_sensor(spec, 0)
        assert isinstance(built.pair.log_lr, ClippedAffineLlr) == (counted == "boundary")
        owner = QuadraticLlr if counted == "crossings" else ClippedAffineLlr
        calls = []
        original = getattr(owner, counted)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, counted, counting)
        for n in (3, 7, 11):
            for side in (0, 1):
                calls.clear()
                laws = built.member_laws(side, built.members(side, n))
                assert len(laws) >= n - 1
                assert len(calls) == 0


def _one_law_reference(law, cuts, segment_levels, num_levels):
    """A law's masses by scalar cdf calls only: a Gaussian (or a
    contaminated member's nominal) is read through ``CdfMember(cdf)``, and
    a point atom joins the level of the segment past every cut <= atom."""
    base = law.nominal if isinstance(law, ContaminatedGaussian) else law
    mass = level_masses([CdfMember(base.cdf)], cuts, segment_levels, num_levels)[0]
    if isinstance(law, ContaminatedGaussian):
        mass = (1.0 - law.eps) * mass
        mass[segment_levels[sum(c <= law.atom for c in cuts)]] += law.eps
    return mass


class TestBatchedLevelMasses:
    """``level_masses`` reads a whole member list at once; each row must be
    that law's one-law read and its scalar-cdf read, bit for bit."""

    @staticmethod
    def _check(laws, cuts, segment_levels, num_levels, case):
        rows = level_masses(laws, cuts, segment_levels, num_levels)
        assert rows.shape == (len(laws), num_levels), case
        assert rows.flags.c_contiguous, case
        for row, law in zip(rows, laws):
            one = level_masses([law], cuts, segment_levels, num_levels)
            assert one.shape == (1, num_levels)
            assert np.array_equal(row, one[0]), (case, law)
            reference = _one_law_reference(law, cuts, segment_levels, num_levels)
            assert np.array_equal(row, reference), (case, law)

    @staticmethod
    def _probes(built, side, rng):
        """The class probes of one side, the LFD as a CdfMember, and for a
        contamination class point atoms on each finite cut, between cuts
        and outside the support, in shuffled order."""
        laws = built.members(side, int(rng.integers(2, 12))) + built.members(side, 1)
        cls = built.classes[side]
        if isinstance(cls, EpsContaminationClass):
            finite = [c for c in built.rule.cuts if math.isfinite(c)]
            lo, hi = built.pair.support
            edges = [lo, *finite, hi]
            between = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
            atoms = finite + between + [lo - 1.0, hi + 1.0]
            laws += cls.members(atoms)
        return [laws[i] for i in rng.permutation(len(laws))]

    def test_rows_match_one_law_reads_on_seeded_sensors(self):
        """Band, contamination and equal- and unequal-variance KL sensors,
        with default or log-LR-read thresholds."""
        rng = np.random.default_rng(20261120)
        kinds = ("gaussian-band", "eps-contamination", "kl-ball", "kl-unequal")
        two_segment_levels = 0
        for index in range(160):
            kind = kinds[index % 4]
            levels = int(rng.integers(2, 5))
            spec = _random_member_spec(rng, "kl-ball" if kind == "kl-unequal" else kind, levels)
            if kind == "kl-unequal":
                spec["nominal1"]["sigma"] *= float(rng.choice([0.7, 1.3]))
                spec["quantizer"] = {"num_thresholds": int(rng.integers(1, 4))}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    built = build_sensor(spec, 0)
                except ValueError:  # no increasing default thresholds on this quadratic
                    continue
            rule = built.rule
            assert isinstance(rule.pair.log_lr, QuadraticLlr) == (kind == "kl-unequal")
            num_levels = rule.quantizer.num_levels
            segments = np.bincount(rule.segment_levels, minlength=num_levels)
            two_segment_levels += bool(np.any(segments >= 2))
            for side in (0, 1):
                laws = self._probes(built, side, rng)
                self._check(laws, rule.cuts, rule.segment_levels, num_levels, (spec, side))
        assert two_segment_levels >= 10

    def test_infinite_cuts_and_mixed_lists(self):
        """LR thresholds at 0 and above the upper clip level cut at -inf and
        +inf; one list may mix Gaussians, contaminated members (sharing and
        not sharing a nominal), repeats and cdf-only laws."""
        pair = TestSensorRule.CONTAMINATION
        rule = SensorRule(pair, Quantizer((0.0, 1.0, 20.0)))
        assert rule.cuts[0] == -math.inf and rule.cuts[-1] == math.inf
        nominal, other = GaussianSpec(-0.5, 1.0), GaussianSpec(0.3, 0.8)
        laws = [
            ContaminatedGaussian(nominal, 0.05, 0.2),
            GaussianSpec(1.0, 2.0),
            CdfMember(pair.q1_cdf),
            nominal,
            ContaminatedGaussian(other, 0.1, -40.0),
            ContaminatedGaussian(nominal, 0.05, 40.0),
            nominal,
            CdfMember(pair.q0_cdf),
        ]
        self._check(laws, rule.cuts, rule.segment_levels, 4, "mixed")
        self._check(laws[:2] + laws[3:5], rule.cuts, rule.segment_levels, 4, "gaussian-based")
        cuts = (-math.inf, -0.3, 0.4, math.inf)
        self._check(laws, cuts, np.arange(5), 5, "explicit infinite cuts")

    def test_empty_member_list(self):
        rule = SensorRule(EXAMPLE_PAIR, Quantizer((0.5, 2.0)))
        assert level_masses([], rule.cuts, rule.segment_levels, 3).shape == (0, 3)
        assert member_laws([], rule).shape == (0, 3)


class TestEqualVarianceKlRule:
    """Equal-variance KL pairs have an affine log-LR and are cut in closed form."""

    def test_closed_form_cuts_match_log_density_crossings(self):
        rng = np.random.default_rng(20261101)
        for _ in range(120):
            spec = _random_member_spec(rng, "kl-ball", int(rng.integers(2, 5)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                built = build_sensor(spec, 0)
            pair, q = built.pair, built.quantizer
            assert isinstance(pair.log_lr, ClippedAffineLlr)
            rule = SensorRule(pair, q)
            reference = log_density_crossing_cuts(pair, q)
            assert len(rule.cuts) == len(reference) == len(q.thresholds), spec
            assert np.max(np.abs(np.subtract(rule.cuts, reference))) < 1e-12, spec
            for cdf in (pair.q0_cdf, pair.q1_cdf):
                ref_mass = np.diff([0.0, *(cdf(c) for c in reference), 1.0])
                assert np.max(np.abs(rule.masses(CdfMember(cdf)) - ref_mass)) < 1e-14, spec

    def test_unequal_variance_pair_is_cut_at_crossings(self, monkeypatch):
        """sigma1/sigma0 = 1.01: the vertex lies far outside the support, so
        each threshold has one crossing there and one far out, both closed
        form; the one in the support is the grid bisection's cut."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.01), 0.03, 0.03)
        assert isinstance(pair.log_lr, QuadraticLlr)
        calls = []
        original = QuadraticLlr.crossings

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(QuadraticLlr, "crossings", counting)
        q = Quantizer((0.5, 1.0, 2.0))
        rule = SensorRule(pair, q)
        assert len(calls) == len(q.thresholds)
        assert len(rule.cuts) == 2 * len(q.thresholds)
        lo, hi = pair.support
        inside = [c for c in rule.cuts if lo <= c <= hi]
        reference = log_density_crossing_cuts(pair, q)
        assert len(inside) == len(reference) == len(q.thresholds)
        assert np.max(np.abs(np.subtract(inside, reference))) < 1e-12
        for cdf in (pair.q0_cdf, pair.q1_cdf):
            ref_mass = np.diff([0.0, *(cdf(c) for c in reference), 1.0])
            assert np.max(np.abs(rule.masses(CdfMember(cdf)) - ref_mass)) < 1e-14


class TestQuadraticLlrRule:
    """KL pairs other than equal-variance mean0 < mean1 carry a quadratic
    log-LR and are cut at its closed-form roots."""

    @staticmethod
    def _cell_mass(pair, law, t):
        """law's mass between the two roots of log q1 - log q0 = log t
        (sigma1 > sigma0), the roots in 40-digit decimal arithmetic."""
        q0, q1 = pair.meta["q0"], pair.meta["q1"]
        with localcontext() as ctx:
            ctx.prec = 40
            m0, s0, m1, s1 = (Decimal(x) for x in (q0.mean, q0.sigma, q1.mean, q1.sigma))
            a = 1 / (2 * s0 * s0) - 1 / (2 * s1 * s1)
            b = m1 / (s1 * s1) - m0 / (s0 * s0)
            c = (s0 / s1).ln() + m0 * m0 / (2 * s0 * s0) - m1 * m1 / (2 * s1 * s1)
            root = (b * b - 4 * a * (c - Decimal(t).ln())).sqrt()
            z = [
                float((r - Decimal(law.mean)) / (Decimal(law.sigma) * Decimal(2).sqrt()))
                for r in ((-b - root) / (2 * a), (-b + root) / (2 * a))
            ]
        return 0.5 * (math.erf(z[1]) - math.erf(z[0]))

    def test_narrow_cell_is_kept(self):
        """A log threshold 1e-6 above the quadratic's minimum leaves an H0
        cell of mass 1.4e-3, narrower than a cell of the pair's grid; the
        channel keeps it as level 0, and the cut at s itself (no exp/log
        round trip) reads it as P(log_lr < s)."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        q0, q1 = pair.meta["q0"], pair.meta["q1"]
        a = 0.5 / q0.sigma**2 - 0.5 / q1.sigma**2
        b = q1.mean / q1.sigma**2 - q0.mean / q0.sigma**2
        vertex = -b / (2.0 * a)
        t = math.exp(float(pair.log_lr(vertex)) + 1e-6)
        reference = self._cell_mass(pair, q0, t)
        assert 1.39e-3 < reference < 1.40e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ch = channel_from_quantizer(Quantizer((t,)), pair)
        assert ch.levels == (0, 1)
        assert abs(ch.pmf0.probs[0] - reference) < 1e-13
        cuts, segment_levels = cut_log_lr(pair, [math.log(t)])
        assert abs(level_masses([q0], cuts, segment_levels, 2)[0, 0] - reference) < 1e-13

    def test_cuts_and_masses_match_references(self):
        """Seeded unequal-variance pairs (sigma1/sigma0 in [0.5, 2] and
        1 + 1e-6, both mean orders), a decreasing affine pair and a
        constant one: the cuts the grid sees are the grid bisection's to
        1e-12, the level masses are the quadrature's, and the reference's
        level sets {log_lr <= log t_d} hold the masses of levels 0..d."""
        rng = np.random.default_rng(20261018)
        cases = []
        for ratio in [*rng.uniform(0.5, 2.0, size=24), 1.0 + 1e-6, 1.0 + 1e-6, 1.0, 1.0]:
            gap = rng.uniform(0.8, 2.0) * (1.0 if len(cases) % 2 else -1.0)
            radii = rng.uniform(0.005, 0.04, size=2)
            if ratio == 1.0:  # equal variances, mean0 > mean1: decreasing affine
                gap = -abs(gap)
            cases.append((GaussianSpec(0.0, 1.0), GaussianSpec(gap, ratio), *radii))
        cases.append((GaussianSpec(0.3, 1.2), GaussianSpec(0.3, 1.2), 0.0, 0.0))  # constant
        for p0, p1, eps0, eps1 in cases:
            pair = kl_dabak_lfd(p0, p1, eps0, eps1)
            llr = pair.log_lr
            assert isinstance(llr, QuadraticLlr)
            lo, hi = pair.support
            if llr.q0 == llr.q1:
                log_t = np.sort(rng.uniform(-1.0, 1.0, size=2))
            else:
                ys = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo), size=3)
                log_t = np.unique(np.asarray(llr(ys), dtype=float))
            q = Quantizer(tuple(math.exp(s) for s in log_t))
            rule = SensorRule(pair, q)
            reference = log_density_crossing_cuts(pair, q)
            seen = [c for c in rule.cuts if lo <= c <= hi]
            assert len(seen) == len(reference), (p0, p1)
            if reference:
                assert np.max(np.abs(np.subtract(seen, reference))) < 1e-12, (p0, p1)
            oracle = quad_level_masses(pair, q, lo, hi)
            level_sets = lower_level_sets(pair, log_t)
            for h, cdf in enumerate((pair.q0_cdf, pair.q1_cdf)):
                masses = rule.masses(CdfMember(cdf))
                assert np.max(np.abs(masses - oracle[h])) < 1e-11, (p0, p1, h)
                below = level_set_masses(cdf, level_sets)
                assert np.max(np.abs(np.subtract(below, np.cumsum(masses)[:-1]))) < 1e-14


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
