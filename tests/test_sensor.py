"""Sensor rules: quantization, channel laws, LLR order."""

import math
import warnings
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

from robust_fusion._roots import solve_newton
from robust_fusion.distributions import AtomPmf, DiscretePmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import (
    CensoredGaussian,
    ClippedAffineLlr,
    EpsContaminationClass,
    GaussianBandClass,
    LfdPair,
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
    SensorChannel,
    SensorRule,
    _channel,
    _rule_channel,
    _sensor_part,
    channel_from_pmfs,
    channel_from_quantizer,
    channel_from_rule,
    default_quantizer,
    member_laws,
)

from _oracles import (
    ContaminatedGaussian,
    atoms_stochastically_larger,
    batch_channels_reference,
    contamination_members,
    density_integral,
    level_set_masses,
    llr_monotone_check,
    log_density_crossing_cuts,
    lower_level_sets,
    lr_level,
    member_channel_reference,
    mixture_quantile_reference,
    normal_cdf_quadrature,
    probe_level_masses,
    probe_member_laws,
    probe_members,
    quad_level_masses,
    randomized_binary_laws,
)
from test_fusion import FALLING_KL_SPEC, _random_spec, member_law

EXAMPLE_PAIR = gaussian_band_lfd(
    GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
)
# Frozen from the quadrature oracle: standard normal cdf at 0.5.
PHI_HALF = 0.6914624612740131


def rule_masses(rule: SensorRule, law) -> np.ndarray:
    """A law's per-level mass under the rule: its one-row level_masses read
    (through the probe oracle's, for a point-contaminated member)."""
    return probe_level_masses([law], rule.cuts, rule.segment_levels, rule.quantizer.num_levels)[0]


def probe_reader(kind: str):
    """The member-law reader of a sensor kind's probes: the oracle's for
    point-contaminated ones, the library's otherwise."""
    return probe_member_laws if kind == "eps-contamination" else member_laws


def lr_level_of(q: Quantizer, lr: float) -> int:
    """Level that ``SensorRule`` gives the observation whose EXAMPLE_PAIR
    likelihood ratio is ``lr`` (log-LR y - 1/2, inverted as the rule does):
    where the rule's mass function puts a point atom at that observation."""
    rule, nominal = SensorRule(EXAMPLE_PAIR, q), GaussianSpec(0.0, 1.0)
    member = ContaminatedGaussian(nominal, 0.5, 0.5 + math.log(lr))
    return int(np.argmax(rule_masses(rule, member) - 0.5 * rule_masses(rule, nominal)))


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
        for logpdf, pmf in ((EXAMPLE_PAIR.q0.logpdf, ch.pmf0), (EXAMPLE_PAIR.q1.logpdf, ch.pmf1)):
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
            law = member_law(GaussianSpec(float(mean), 1.0), SensorRule(pair, q))
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
        y_hi = pair.meta["y_hi"]
        assert abs(ch.pmf0.probs[0] - pair.q0.cdf(y_hi)) < 1e-12
        assert abs(ch.pmf1.probs[0] - pair.q1.cdf(y_hi)) < 1e-12
        assert abs(ch.pmf0.probs[1] - (1.0 - pair.q0.cdf(y_hi))) < 1e-12
        assert abs(ch.pmf1.probs[1] - (1.0 - pair.q1.cdf(y_hi))) < 1e-12

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
        for pair, rising in ((curved, False), (nearly_affine, True)):
            llr = np.asarray(pair.log_lr(np.linspace(*pair.support, 2001)))
            assert bool(np.all(np.diff(llr) > 0)) == rising
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
            channel_from_quantizer(Quantizer((1.0,)), pair, np.linspace(*pair.support, 2001))

    def test_lfd_as_member_reproduces_non_monotone_channel(self):
        """member_laws cuts a non-monotone log-LR where the channel does."""
        pair = kl_dabak_lfd(GaussianSpec(0.0, 1.0), GaussianSpec(1.0, 1.6), 0.03, 0.03)
        q = Quantizer((0.5, 1.0, 2.0))
        with pytest.warns(RuntimeWarning, match="zero mass"):
            ch = channel_from_quantizer(q, pair)
        laws = member_laws([pair.q0, pair.q1], SensorRule(pair, q), levels=ch.levels)
        for law, pmf in zip(laws, (ch.pmf0, ch.pmf1)):
            assert np.max(np.abs(law - pmf.probs)) < 1e-12


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
        law = member_law(member, SensorRule(pair, q), levels=ch.levels)
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
        law = member_law(ContaminatedGaussian(nominal, 0.05, atom), rule)
        stretch = 0.95 * rule_masses(rule, nominal)
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
                members = probe_members(built, side, n)
                laws = probe_reader(kind)(members, built.rule, ch.levels)
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
                laws = probe_reader(kind)(probe_members(built, side, n), built.rule)
                assert len(laws) >= n - 1
                assert len(calls) == 0


def _one_law_reference(law, cuts, segment_levels, num_levels):
    """A law's masses by scalar cdf calls only: the differences of its cdf
    (or a contaminated member's nominal's) at the cuts, exactly 0 at -inf
    and 1 at +inf, summed by segment level; a point atom joins the level of
    the segment past every cut <= atom."""
    base = law.nominal if isinstance(law, ContaminatedGaussian) else law
    at = [1.0 if c == math.inf else 0.0 if c == -math.inf else base.cdf(c) for c in cuts]
    mass = np.bincount(segment_levels, np.diff([0.0, *at, 1.0]), num_levels)
    if isinstance(law, ContaminatedGaussian):
        mass = (1.0 - law.eps) * mass
        mass[segment_levels[sum(c <= law.atom for c in cuts)]] += law.eps
    return mass


class TestBatchedLevelMasses:
    """``level_masses`` reads a whole member list at once; each row must be
    that law's one-law read and its scalar-cdf read, bit for bit."""

    @staticmethod
    def _check(laws, cuts, segment_levels, num_levels, case):
        rows = probe_level_masses(laws, cuts, segment_levels, num_levels)
        assert rows.shape == (len(laws), num_levels), case
        assert rows.flags.c_contiguous, case
        for row, law in zip(rows, laws):
            one = probe_level_masses([law], cuts, segment_levels, num_levels)
            assert one.shape == (1, num_levels)
            assert np.array_equal(row, one[0]), (case, law)
            reference = _one_law_reference(law, cuts, segment_levels, num_levels)
            assert np.array_equal(row, reference), (case, law)

    @staticmethod
    def _probes(built, side, rng):
        """The class probes of one side, the LFD law, and for a
        contamination class point atoms on each finite cut, between cuts
        and outside the support, in shuffled order."""
        laws = probe_members(built, side, int(rng.integers(2, 12))) + probe_members(built, side, 1)
        cls = built.classes[side]
        if isinstance(cls, EpsContaminationClass):
            finite = [c for c in built.rule.cuts if math.isfinite(c)]
            lo, hi = built.pair.support
            edges = [lo, *finite, hi]
            between = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
            atoms = finite + between + [lo - 1.0, hi + 1.0]
            laws += contamination_members(cls, atoms)
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
        not sharing a nominal), repeats and the contamination pair's own
        laws, which only have a cdf."""
        pair = TestSensorRule.CONTAMINATION
        rule = SensorRule(pair, Quantizer((0.0, 1.0, 20.0)))
        assert rule.cuts[0] == -math.inf and rule.cuts[-1] == math.inf
        nominal, other = GaussianSpec(-0.5, 1.0), GaussianSpec(0.3, 0.8)
        laws = [
            ContaminatedGaussian(nominal, 0.05, 0.2),
            GaussianSpec(1.0, 2.0),
            pair.q1,
            nominal,
            ContaminatedGaussian(other, 0.1, -40.0),
            ContaminatedGaussian(nominal, 0.05, 40.0),
            nominal,
            pair.q0,
        ]
        self._check(laws, rule.cuts, rule.segment_levels, 4, "mixed")
        self._check(laws[:2] + laws[3:5], rule.cuts, rule.segment_levels, 4, "gaussian-based")
        cuts = (-math.inf, -0.3, 0.4, math.inf)
        self._check(laws, cuts, np.arange(5), 5, "explicit infinite cuts")

    def test_every_gaussian_read_takes_the_batch(self, monkeypatch):
        """A read of Gaussians takes the batched erfc map at every size, one
        law and one cut included, and gives the scalar reference's bits,
        infinite cuts included; a read with a contamination LFD (a censored
        law) takes the same one batch and calls no cdf."""
        import robust_fusion.lfd as lfd

        batched, cdf_calls = [], []
        original, cdf = lfd._erfc_weights, CensoredGaussian.cdf
        monkeypatch.setattr(lfd, "_erfc_weights", lambda *a: batched.append(1) or original(*a))
        monkeypatch.setattr(CensoredGaussian, "cdf", lambda law, x: cdf_calls.append(x) or cdf(law, x))
        rng = np.random.default_rng(20261023)
        censored = huber_clipped_lfd(
            EpsContaminationClass(GaussianSpec(0.0, 1.0), 0.05),
            EpsContaminationClass(GaussianSpec(1.0, 1.0), 0.05),
        ).q0
        for num_cuts in (1, 2, 3, 5, 8, 16, 31, 32, 33, 101):
            cuts = sorted(rng.uniform(-3.0, 3.0, size=num_cuts))
            if rng.random() < 0.3:
                cuts[0] = -math.inf
            if rng.random() < 0.3:
                cuts[-1] = math.inf
            segment_levels = np.arange(num_cuts + 1)
            for n in (1, 2, 3, 5, 11, 16, 49):
                laws = [
                    GaussianSpec(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0)))
                    for _ in range(n)
                ]
                for read in (laws, [*laws, censored]):
                    batched.clear()
                    cdf_calls.clear()
                    level_masses(read, cuts, segment_levels, num_cuts + 1)
                    assert (len(batched), cdf_calls) == (1, []), (n, num_cuts)
                    self._check(read, cuts, segment_levels, num_cuts + 1, (n, num_cuts))

    def test_censored_rows_match_scalar_reads(self):
        """Censored laws with no upper clip (eps0 = 0: split +inf, hi_div
        inf) or no lower one (eps1 = 0: split -inf, lo_weight 0), cut
        exactly at a split and at interior -inf and +inf cuts (empty
        levels included), alone and mixed with Gaussians: each row is the
        scalar cdf read's, bit for bit."""
        rng = np.random.default_rng(20261208)
        nominal0, nominal1 = GaussianSpec(-0.3, 1.2), GaussianSpec(0.9, 1.2)
        pairs = [
            huber_clipped_lfd(EpsContaminationClass(nominal0, e0), EpsContaminationClass(nominal1, e1))
            for e0, e1 in ((0.0, 0.07), (0.04, 0.0), (0.0, 0.0), (0.03, 0.1))
        ]
        assert pairs[0].q0.split == math.inf and pairs[0].q0.hi_div == math.inf
        assert pairs[1].q1.split == -math.inf and pairs[1].q1.lo_weight == 0.0
        censored = [law for pair in pairs for law in (pair.q0, pair.q1)]
        splits = sorted({law.split for law in censored if math.isfinite(law.split)})
        inf = math.inf
        for case in range(40):
            inner = sorted([*rng.choice(splits, 2), *rng.uniform(-4.0, 4.0, size=3)])
            cuts = [-inf] * int(rng.integers(3)) + inner + [inf] * int(rng.integers(3))
            if case % 2:  # a quadratic-like cut: levels out of segment order
                num_levels = 4
                segment_levels = rng.integers(num_levels, size=len(cuts) + 1)
            else:
                num_levels = len(cuts) + 1
                segment_levels = np.arange(num_levels)
            laws = [censored[i] for i in rng.permutation(len(censored))]
            if case % 3:
                laws += [nominal0, GaussianSpec(float(rng.uniform(-2.0, 2.0)), 0.7), nominal1]
                laws = [laws[i] for i in rng.permutation(len(laws))]
            self._check(laws, cuts, segment_levels, num_levels, (case, cuts))
            rows = level_masses(laws, cuts, segment_levels, num_levels)
            if cuts[-1] == inf and segment_levels[-1] not in segment_levels[:-1]:
                assert np.all(rows[:, segment_levels[-1]] == 0.0)  # the empty top level

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
            for law in (pair.q0, pair.q1):
                ref_mass = np.diff([0.0, *(law.cdf(c) for c in reference), 1.0])
                assert np.max(np.abs(rule_masses(rule, law) - ref_mass)) < 1e-14, spec

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
        for law in (pair.q0, pair.q1):
            ref_mass = np.diff([0.0, *(law.cdf(c) for c in reference), 1.0])
            assert np.max(np.abs(rule_masses(rule, law) - ref_mass)) < 1e-14


class TestQuadraticLlrRule:
    """KL pairs other than equal-variance mean0 < mean1 carry a quadratic
    log-LR and are cut at its closed-form roots."""

    @staticmethod
    def _cell_mass(pair, law, t):
        """law's mass between the two roots of log q1 - log q0 = log t
        (sigma1 > sigma0), the roots in 40-digit decimal arithmetic."""
        q0, q1 = pair.q0, pair.q1
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
        q0, q1 = pair.q0, pair.q1
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
            for h, law in enumerate((pair.q0, pair.q1)):
                masses = rule_masses(rule, law)
                assert np.max(np.abs(masses - oracle[h])) < 1e-11, (p0, p1, h)
                below = level_set_masses(law.cdf, level_sets)
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

    def test_falling_rule_builds_none(self):
        """A rule whose per-level LLR falls (log LR thresholds (4.48, 4.49)
        on a KL tail) builds None, and the rules around it the channels
        ``channel_from_rule`` builds, bit for bit; ``channel_from_rule``
        refuses the falling rule."""
        pair = build_lfd_pair(FALLING_KL_SPEC, 0)
        logs = [(-1.0, 0.5), (4.48, 4.49), (0.0, 4.0), (-3.0, -2.5)]
        rules = [SensorRule(pair, Quantizer(tuple(math.exp(t) for t in c))) for c in logs]
        got = [_rule_channel(pair, rule.quantizer.thresholds) for rule in rules]
        assert got[1] is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="per-level LLR is not nondecreasing"):
                channel_from_rule(rules[1])
            for rule, ch in zip(rules[:1] + rules[2:], got[:1] + got[2:]):
                alone = channel_from_rule(rule)
                assert _same_channel(ch, alone)
                assert np.array_equal(ch.part.finite.masses, alone.part.finite.masses)


class TestRandomizedBinaryRule:
    """The laws a randomized binary rule induces under the LFDs, integrated
    by the tests' quadrature oracle: informative (a strictly rising LLR,
    q1(0) + q0(1) < 1) unless the rule ignores the observation."""

    def test_hard_threshold_matches_quantizer_channel(self):
        """A 0/1 accept probability reproduces the deterministic split."""
        pmf0, pmf1 = randomized_binary_laws(
            lambda y: 1.0 if y >= 0.5 else 0.0, EXAMPLE_PAIR, jumps=(0.5,)
        )
        ch = channel_from_quantizer(Quantizer((1.0,)), EXAMPLE_PAIR)
        assert np.max(np.abs(pmf0.probs - ch.pmf0.probs)) < 1e-10
        assert np.max(np.abs(pmf1.probs - ch.pmf1.probs)) < 1e-10
        assert abs(pmf1.probs[1] - PHI_HALF) < 1e-10
        assert pmf1.probs[0] + pmf0.probs[1] < 1.0
        assert np.all(np.diff(channel_from_pmfs(pmf0, pmf1).llr) > 0.0)

    def test_smooth_randomized_rule_admissible(self):
        pmf0, pmf1 = randomized_binary_laws(
            lambda y: 1.0 / (1.0 + math.exp(-2.0 * (y - 0.5))), EXAMPLE_PAIR
        )
        assert pmf1.probs[0] + pmf0.probs[1] < 1.0
        assert np.all(np.diff(channel_from_pmfs(pmf0, pmf1).llr) > 0.0)

    def test_constant_half_rule_not_admissible(self):
        """A coin flip induces q1(0) + q0(1) = 1 exactly: equal laws, an
        uninformative channel whose LLR is 0 at both levels."""
        pmf0, pmf1 = randomized_binary_laws(lambda y: 0.5, EXAMPLE_PAIR)
        assert pmf1.probs[0] + pmf0.probs[1] == 1.0
        assert np.array_equal(channel_from_pmfs(pmf0, pmf1).llr, [0.0, 0.0])


class TestDefaultQuantizer:
    def test_quantile_placement(self):
        """With one threshold the split lands at the mixture median."""
        q = default_quantizer(EXAMPLE_PAIR, 1)
        assert len(q.thresholds) == 1
        y = 0.5  # symmetric pair: mixture median is the midpoint
        assert abs(q.thresholds[0] - math.exp(float(EXAMPLE_PAIR.log_lr(y)))) < 1e-9

    def test_zero_levels(self):
        assert default_quantizer(EXAMPLE_PAIR, 0).thresholds == ()

    @staticmethod
    def _seeded_pairs():
        """Band, equal- and unequal-variance KL and contamination pairs whose
        nominal means are 0.5 to 3 sigma apart, after a KL pair whose log-LR
        turns between its quantiles and a contamination pair whose clipped
        stretch holds two of them."""
        std = GaussianSpec(0.0, 1.0)
        pairs = [
            kl_dabak_lfd(std, GaussianSpec(0.3, 2.0), 0.01, 0.01),
            huber_clipped_lfd(
                EpsContaminationClass(std, 0.2), EpsContaminationClass(GaussianSpec(1.0, 1.0), 0.2)
            ),
        ]
        rng = np.random.default_rng(24)
        for _ in range(6):
            sigma, center = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            lo, hi = center + np.array([-0.5, 0.5]) * rng.uniform(0.5, 3.0) * sigma
            p0, p1 = GaussianSpec(lo, sigma), GaussianSpec(hi, sigma)
            eps0, eps1 = rng.uniform(0.002, 0.04, size=2)
            pairs += [
                gaussian_band_lfd(
                    GaussianBandClass(lo - rng.uniform(0.0, 1.0), lo, sigma),
                    GaussianBandClass(hi, hi + rng.uniform(0.0, 1.0), sigma),
                ),
                kl_dabak_lfd(p0, p1, eps0, eps1),
                kl_dabak_lfd(p0, GaussianSpec(hi, sigma * rng.uniform(0.5, 2.0)), eps0, eps1),
                huber_clipped_lfd(
                    EpsContaminationClass(p0, 2.0 * eps0), EpsContaminationClass(p1, 2.0 * eps1)
                ),
            ]
        return pairs

    def test_quantiles_match_adjacent_float_bisection(self, monkeypatch):
        """Each mixture quantile is within 1e-13 * max(1, |y|) of the
        bisection to adjacent floats; the thresholds rise strictly, or
        default_quantizer raises the ValueError that the reference
        quantiles call for."""
        import robust_fusion.sensor as sensor

        solved, sensor_solve = [], sensor.solve_newton

        def recording(f, df, lo, hi, targets):
            roots = sensor_solve(f, df, lo, hi, targets)
            solved.extend(zip(targets, roots))
            return roots

        monkeypatch.setattr(sensor, "solve_newton", recording)
        raised = set()
        for pair in self._seeded_pairs():
            for num in range(1, 5):
                solved.clear()
                try:
                    got = default_quantizer(pair, num).thresholds
                except ValueError as exc:
                    got = exc
                assert [target for target, _ in solved] == [d / (num + 1.0) for d in range(1, num + 1)]
                ys = [mixture_quantile_reference(pair, target) for target, _ in solved]
                for (_, y), ref in zip(solved, ys):
                    assert abs(y - ref) <= 1e-13 * max(1.0, abs(ref)), (pair.meta["kind"], num)
                want = [math.exp(float(pair.log_lr(y))) for y in ys]
                steps = list(zip(want, want[1:]))
                if any(b < a for a, b in steps):
                    assert isinstance(got, ValueError) and "not monotone" in str(got)
                    raised.add("not monotone")
                elif any(b == a for a, b in steps):
                    assert isinstance(got, ValueError) and "flat LR region" in str(got)
                    raised.add("flat")
                else:
                    assert not isinstance(got, ValueError), got
                    assert all(b > a for a, b in zip(got, got[1:]))
        assert raised == {"not monotone", "flat"}

    def test_at_most_eight_cdf_reads_per_threshold(self):
        """The mixture cdf is read at most 8 times per threshold (a bisection
        of the support to 1e-12 reads it about 46 times)."""

        class Counting:
            def __init__(self, law):
                self.law, self.reads = law, 0

            def cdf(self, x):
                self.reads += 1
                return self.law.cdf(x)

            def pdf(self, x):
                return self.law.pdf(x)

        for pair in self._seeded_pairs():
            for num in range(1, 5):
                q0 = Counting(pair.q0)
                counted = LfdPair(q0, pair.q1, pair.log_lr, pair.support, pair.meta)
                try:
                    default_quantizer(counted, num)
                except ValueError:
                    pass
                assert q0.reads <= 8 * num, (pair.meta["kind"], num, q0.reads)


class TestSolveNewton:
    def test_bisects_where_newton_leaves_the_bracket(self):
        """From the midpoint 5 of [-10, 20] a Newton step on atan lands
        near -30.7, outside the bracket [-10, 5] it has shrunk to, so the
        safeguard bisects to -2.5 instead; a zero slope at the start bisects
        too. Each root is still found to 1e-12."""
        reads = []

        def atan(y):
            reads.append(y)
            return math.atan(y)

        roots = solve_newton(atan, lambda y: 1.0 / (1.0 + y * y), -10.0, 20.0, [0.0, 1.0])
        assert reads[:2] == [5.0, -2.5]
        assert abs(roots[0]) <= 1e-12 and abs(roots[1] - math.tan(1.0)) <= 1e-12
        cube, slope = (lambda y: y**3), (lambda y: 3.0 * y * y)
        (root,) = solve_newton(cube, slope, -1.0, 1.0, [0.5])  # zero slope at y = 0
        assert abs(root - 0.5 ** (1.0 / 3.0)) <= 1e-12


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


def _public_channel(levels, masses) -> SensorChannel:
    """The channel of ``masses`` (an H0 and an H1 row) through the public
    constructors, each with its checks: the rows clipped at 0, the levels
    with zero mass under both dropped, ``DiscretePmf`` for each row in turn,
    then ``SensorChannel``."""
    masses = np.maximum(np.asarray(masses, dtype=float), 0.0)
    keep = ~((masses[0] == 0.0) & (masses[1] == 0.0))
    kept = tuple(int(level) for level, k in zip(levels, keep) if k)
    return SensorChannel(DiscretePmf(kept, masses[0][keep]), DiscretePmf(kept, masses[1][keep]))


def _same_channel(got: SensorChannel, want: SensorChannel) -> bool:
    return (
        got.levels == want.levels == got.pmf1.levels
        and all(np.array_equal(a, b) for a, b in (
            (got.pmf0.probs, want.pmf0.probs), (got.pmf1.probs, want.pmf1.probs),
            (got.llr, want.llr),
        ))
    )


class TestChannelBuild:
    """``_channel`` checks the two mass rows once and skips the
    constructors' checks; what it builds and refuses is what the public
    constructors build and refuse, and it never warns."""

    def test_matches_public_constructors_on_seeded_rules(self):
        """Bit-identical pmf0, pmf1 and llr on seeded band, KL and
        contamination rules, also with levels dropped and ±inf LLRs."""
        rng = np.random.default_rng(20261203)
        seen = {"dropped": 0, "infinite": 0}
        for n in range(120):
            kind = ("gaussian-band", "kl-ball", "eps-contamination")[n % 3]
            rule = build_sensor(_random_member_spec(rng, kind, int(rng.integers(2, 6))), 0).rule
            lfds = [rule.pair.q0, rule.pair.q1]
            masses = level_masses(lfds, rule.cuts, rule.segment_levels, rule.quantizer.num_levels)
            levels = range(masses.shape[1])
            if rng.random() < 0.5:  # a level of no mass under one law, or under both
                at = int(rng.integers(len(levels)))
                masses[int(rng.integers(2)) if rng.random() < 0.5 else slice(None), at] = 0.0
                masses /= masses.sum(axis=1, keepdims=True)
            want = _public_channel(levels, masses)
            dropped = len(want.levels) < len(levels)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _channel(levels, masses, ordered=False)
            assert not caught
            assert _same_channel(got, want)
            seen["dropped"] += dropped
            seen["infinite"] += bool(np.any(np.isinf(got.llr)))
        assert min(seen.values()) >= 10

    def test_rule_build_matches_the_batch_read(self):
        """The per-rule build gives the bits of the batch read it replaced
        (``batch_channels_reference``: one padded read of all the rules of a
        pair, Gaussian laws through one erfc array): the same masses, LLRs,
        cached part, dropped levels and None on a falling LLR, on seeded
        rules of band, contamination and quadratic-KL pairs. It never warns;
        ``channel_from_rule`` warns exactly where levels are dropped."""
        rng = np.random.default_rng(20261205)
        seen = Counter()
        for n in range(60):
            kind = ("gaussian-band", "eps-contamination", "kl-quadratic")[n % 3]
            spec = _random_spec(rng, "kl-ball" if kind == "kl-quadratic" else kind, 3)
            if kind == "kl-quadratic":
                spec["nominal1"]["sigma"] *= float(rng.choice([0.7, 1.3]))
            falling = n % 15 == 0  # a KL tail, cut once where its LLR falls
            pair = build_lfd_pair(FALLING_KL_SPEC if falling else spec, 0)
            lo, hi = pair.log_lr_range()
            count, size = 2 if falling else int(rng.integers(1, 4)), int(rng.choice([1, 3, 12]))
            logs = [np.sort(rng.uniform(lo - 1.0, hi + 1.0, count)) for _ in range(size)]
            logs += [(4.48, 4.49)] if falling else []
            thresholds = [tuple(math.exp(t) for t in c) for c in logs]
            thresholds += [(0.0, *t[1:]) for t in thresholds[:1] if rng.random() < 0.3]
            rules = [SensorRule(pair, Quantizer(t)) for t in thresholds]
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                got = [_rule_channel(pair, t) for t in thresholds]
            assert not warned
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = batch_channels_reference(rules)
            for rule, a, b in zip(rules, got, want):
                seen[kind] += 1
                if b is None:
                    assert a is None
                    seen["falling"] += 1
                    continue
                assert _same_channel(a, b)
                assert ("part" in a.__dict__) == ("part" in b.__dict__)
                for x, y in (
                    (a.part.finite.atoms, b.part.finite.atoms),
                    (a.part.finite.masses, b.part.finite.masses),
                    (a.part.no_minus, b.part.no_minus),
                    (a.part.finite_mass, b.part.finite_mass),
                ):
                    assert np.array_equal(x, y)
                dropped = len(a.levels) < rule.quantizer.num_levels
                with warnings.catch_warnings(record=True) as warned:
                    warnings.simplefilter("always")
                    assert _same_channel(channel_from_rule(rule), a)
                assert len(warned) == dropped
                seen["dropped"] += dropped
                seen["cached"] += "part" in a.__dict__
                seen["batched"] += 2 * len(rules) * max(len(r.cuts) for r in rules) >= 32
        assert min(seen.values()) >= 3 and len(seen) == 7, seen

    @pytest.mark.parametrize(
        ("masses", "message"),
        [
            ([[0.5, math.nan], [0.5, 0.5]], "probabilities must be nonnegative"),
            ([[0.5, 0.5], [math.nan, 1.0]], "probabilities must be nonnegative"),
            ([[0.7, 0.7], [math.nan, 0.5]], "probabilities must sum to 1 within 1e-12, got 1.4"),
            ([[0.9, -0.3], [0.5, 0.5]], "probabilities must sum to 1 within 1e-12, got 0.9"),
            ([[0.5, 0.5], [0.5, 0.5 + 1e-9]], "probabilities must sum to 1 within 1e-12"),
        ],
        ids=["nan-h0", "nan-h1", "unnormalized-before-nan", "negative", "unnormalized-h1"],
    )
    def test_invalid_masses_raise_the_public_errors(self, masses, message):
        """NaN, negative (clipped to 0) and unnormalized masses raise the
        ValueError the public constructors raise, row 0 checked first."""
        with pytest.raises(ValueError) as want:
            _public_channel(range(2), masses)
        with pytest.raises(ValueError) as got:
            _channel(range(2), masses, ordered=False)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)

    def test_rounding_below_zero_is_clipped(self):
        masses = [[0.5, 0.5, -1e-18], [0.25, 0.25, 0.5]]
        assert _same_channel(_channel(range(3), masses), _public_channel(range(3), masses))

    def test_part_is_the_two_row_sensor_part(self):
        """``ch.part`` is ``_sensor_part`` of the channel's two rows bit for
        bit, built once, with C-contiguous rows; the unsorted gather of
        strictly rising LLRs equals the validating constructor's sort, also
        on channels out of LLR order and with ±inf levels."""
        rng = np.random.default_rng(20261204)
        unordered = 0
        for n in range(90):
            if n % 2:
                kind = ("gaussian-band", "kl-ball", "eps-contamination")[n % 3]
                spec = _random_member_spec(rng, kind, int(rng.integers(2, 6)))
                ch = build_sensor(spec, 0).channel
            else:
                levels = list(range(int(rng.integers(1, 6))))
                w0, w1 = rng.dirichlet([1.0] * len(levels)), rng.dirichlet([1.0] * len(levels))
                if len(levels) > 2:
                    w0[0], w1[-1] = 0.0, 0.0
                ch = channel_from_pmfs(pmf_from_weights(levels, w0), pmf_from_weights(levels, w1))
            rows = np.array([ch.pmf0.probs, ch.pmf1.probs])
            part, ref = ch.part, _sensor_part(ch.llr, rows)
            assert ch.part is part
            assert np.array_equal(part.finite.atoms, ref.finite.atoms)
            assert np.array_equal(part.finite.masses, ref.finite.masses)
            assert np.array_equal(part.no_minus, ref.no_minus)
            assert np.array_equal(part.finite_mass, ref.finite_mass)
            assert part.finite.masses.flags.c_contiguous
            finite = np.isfinite(ch.llr)
            sorted_law = AtomPmf(ch.llr[finite], rows[:, finite])
            assert np.array_equal(part.finite.atoms, sorted_law.atoms)
            assert np.array_equal(part.finite.masses, sorted_law.masses)
            assert np.array_equal(part.finite_mass, sorted_law.total_mass)
            unordered += not np.all(np.diff(ch.llr[finite]) > 0)
        assert unordered >= 10
