"""Fusion center: decisions, exact errors, saddle, optimizer, sweeps."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from robust_fusion import fusion, ordering
from robust_fusion.ordering import convolve_many
from robust_fusion.distributions import AtomPmf, DiscretePmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import GaussianBandClass, gaussian_band_lfd
from robust_fusion.fusion import (
    TIE_TOL,
    NetworkModel,
    exact_error,
    k_sweep,
    monte_carlo,
    optimize_thresholds,
    saddle_verify,
)
from robust_fusion.scenario import build_lfd_pair, build_sensor, build_sensors, load_scenario
from robust_fusion.sensor import (
    Quantizer,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    default_quantizer,
    member_laws,
)

from _oracles import (
    ContaminatedGaussian,
    atoms_stochastically_larger,
    band_members,
    best_fusion_threshold,
    best_threshold,
    binomial_majority_error,
    clamped,
    decide_one_enumeration,
    enumerate_error_probs,
    envelope_cuts_loop,
    exact_error_reference,
    finite_sum,
    fold_laws,
    full_rebuild_objective,
    fuse,
    grid_search_thresholds,
    joint_llr_sums,
    law_reference,
    llr_monotone_check,
    member_error,
    plain_person_by_person,
    probe_laws,
    probe_member_laws,
    probe_members,
    saddle_grid_reference,
    saddle_verify_reference,
    saddle_verify_rebuild,
    tail_mass,
    threshold_errors,
    threshold_scan_reference,
)

SYM02 = channel_from_pmfs(
    pmf_from_weights([0, 1], [0.8, 0.2]), pmf_from_weights([0, 1], [0.2, 0.8])
)
BAND0 = GaussianBandClass(-1.0, 0.0, 1.0)
BAND1 = GaussianBandClass(1.0, 2.0, 1.0)
BAND_PAIR = gaussian_band_lfd(BAND0, BAND1)


def _nominal_spec(kind: str, mean0: float, mean1: float, sigma: float, eps0: float, eps1: float):
    """Scenario spec of a KL-ball or contamination sensor, without a quantizer."""
    return {
        "kind": kind,
        "nominal0": {"mean": mean0, "sigma": sigma},
        "nominal1": {"mean": mean1, "sigma": sigma},
        "eps0": eps0,
        "eps1": eps1,
    }


# its channel at the log LR thresholds (4.48, 4.49) has a falling per-level
# LLR (a KL tail at extreme thresholds), so that quantizer is invalid
FALLING_KL_SPEC = _nominal_spec("kl-ball", -0.5, 0.5, 1.0, 0.02, 0.02)


def _enumerated(channels, laws, tau) -> float:
    """P[decide 1] under one list of laws, by the numpy enumeration oracle."""
    return float(decide_one_enumeration(channels, laws, [tau])[0])


class TestFuse:
    def test_single_sensor_lr_test(self):
        llr = math.log(0.8 / 0.2)
        net = NetworkModel((SYM02,), 0.5, 0.0)
        assert fuse(net, [1]) == 1
        assert fuse(net, [0]) == 0

    def test_tie_decides_null(self):
        net = NetworkModel((SYM02, SYM02), 0.5, 0.0)
        assert fuse(net, [0, 1]) == 0
        assert fuse(net, [1, 0]) == 0

    def test_sum_within_tie_band_decides_null(self):
        llr = math.log(0.8 / 0.2)
        assert fuse(NetworkModel((SYM02,), 0.5, llr - 0.5 * TIE_TOL), [1]) == 0
        assert fuse(NetworkModel((SYM02,), 0.5, llr - 2.0 * TIE_TOL), [1]) == 1

    def test_majority_of_three(self):
        net = NetworkModel((SYM02,) * 3, 0.5, 0.0)
        assert fuse(net, [1, 1, 0]) == 1
        assert fuse(net, [0, 0, 1]) == 0

    def test_invalid_level_rejected(self):
        net = NetworkModel((SYM02,), 0.5)
        with pytest.raises(ValueError, match="level"):
            fuse(net, [2])

    def test_nan_log_threshold_rejected(self):
        """A NaN threshold fails; an infinite one is a forced decision."""
        with pytest.raises(ValueError, match="NaN"):
            NetworkModel((SYM02,), 0.5, math.nan)
        assert fuse(NetworkModel((SYM02,), 0.5, math.inf), [1]) == 0
        assert fuse(NetworkModel((SYM02,), 0.5, -math.inf), [0]) == 1

    def test_product_form_equivalence(self):
        """Sum-of-logs decision equals the product-of-ratios decision."""
        q = Quantizer((0.6, 1.4))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, ch, ch), 0.5)
        t = math.exp(net.log_threshold)
        for combo in np.ndindex(3, 3, 3):
            product = 1.0
            for sensor, level in zip(net.channels, combo):
                product *= sensor.pmf1.probs[level] / sensor.pmf0.probs[level]
            assert fuse(net, list(combo)) == (1 if product > t else 0)


# (pmf0, pmf1) of three binary sensors from a person-by-person design of
# three copies of one contamination spec: at prior0 STRADDLING_PRIOR0 and
# log threshold STRADDLING_TAU three LLR sums sit at tau - 2.74e-10,
# tau - 1.37e-10 and tau + 2.05e-10, closer than a merge width of 1e-9
STRADDLING_SENSORS = (
    ((0.7573573659886131, 0.24264263401138686), (0.2043425934929321, 0.7956574065070678)),
    ((0.7573573910068232, 0.2426426089931768), (0.20434261565000966, 0.7956573843499903)),
    ((0.7573573038889415, 0.2426426961110585), (0.20434253849512327, 0.7956574615048767)),
)
STRADDLING_PRIOR0, STRADDLING_TAU = 0.4393241623908117, -1.4324956488079787


class TestExactError:
    def test_merged_sums_do_not_straddle_the_threshold(self):
        """The three straddling sensors and 17 binary ones, the threshold
        moved by 17 log 0.5: 2^20 joint levels, past the cross-check, and
        the convolution equals an enumeration of every joint level (summed
        by fsum) within 1e-12. A merge width of 1e-9 merged the three sums
        and missed 2.36e-5 of P_F."""
        pmfs = [*STRADDLING_SENSORS, *[((0.6, 0.4), (0.3, 0.7))] * 17]
        channels = tuple(
            channel_from_pmfs(pmf_from_weights([0, 1], p0), pmf_from_weights([0, 1], p1))
            for p0, p1 in pmfs
        )
        net = NetworkModel(channels, STRADDLING_PRIOR0, STRADDLING_TAU + 17 * math.log(0.5))
        report = exact_error(net)
        for side, p_one in ((0, report.p_false_alarm), (1, 1.0 - report.p_miss)):
            sums, probs, _, _ = joint_llr_sums(channels, [ch.pmf1 if side else ch.pmf0 for ch in channels])
            assert len(sums) == 2**20
            assert abs(p_one - math.fsum(probs[sums > net.log_threshold + TIE_TOL])) < 1e-12
        assert abs(report.p_false_alarm - 0.9990459945511427) < 1e-12

    def test_near_identical_sensors_agree_at_every_atom(self):
        """K=2-6 sensors whose LLRs differ by 1e-8 to 1e-6 (log-uniform) put
        sums closer than 1e-9 to each other; with the threshold at every
        atom of their folded law, the convolution's P(decide 1) under each
        hypothesis equals an enumeration's within the cross-check's 1e-10.
        A merge width of 1e-9 broke this on 3 of these 300 networks."""
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            levels, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
            pmf0 = rng.dirichlet([2.0] * levels)
            llr = np.sort(rng.uniform(-1.5, 1.5, levels))
            channels = []
            for _ in range(k):
                shift = 10.0 ** rng.uniform(-8.0, -6.0, levels) * rng.choice([-1.0, 1.0], levels)
                pmf1 = pmf0 * np.exp(llr + shift)
                channels.append(channel_from_pmfs(
                    pmf_from_weights(list(range(levels)), pmf0),
                    pmf_from_weights(list(range(levels)), pmf1 / pmf1.sum()),
                ))
            laws = [c.pmf0 for c in channels], [c.pmf1 for c in channels]
            law = fold_laws(channels, *laws)
            taus = finite_sum(law).atoms
            convolved = law.prob_decide_one(taus)
            for side in (0, 1):
                enumerated = decide_one_enumeration(channels, laws[side], taus)
                assert np.abs(convolved[side] - enumerated).max() <= 1e-10
            checked += len(taus)
        assert checked > 30000

    def test_sums_one_merge_width_apart_are_decided_apart(self):
        """LLRs perturbed by 1e-11 to 1e-6 (log-uniform) put sums a few
        1e-11 apart, inside the tie band; with the threshold at every atom
        of the designer's fold (left to right in sensor order), the
        convolution's P(decide 1) equals an enumeration's within the
        cross-check's 1e-10. The draws are replayed from seeds 11 and 13
        (200 draws each): on these four a merge width of 5e-11 merged a
        pair across the band's upper edge and decided it as one."""
        for seed, picked in ((11, (18, 100, 184)), (13, (148,))):
            rng = np.random.default_rng(seed)
            for draw in range(max(picked) + 1):
                levels, k = int(rng.integers(2, 4)), int(rng.integers(2, 8))
                pmf0 = rng.dirichlet([2.0] * levels)
                llr = np.sort(rng.uniform(-1.5, 1.5, levels))
                shifts = [
                    10.0 ** rng.uniform(-11.0, -6.0, levels) * rng.choice([-1.0, 1.0], levels)
                    for _ in range(k)
                ]
                if draw not in picked:
                    continue
                channels = []
                for shift in shifts:
                    pmf1 = pmf0 * np.exp(llr + shift)
                    channels.append(channel_from_pmfs(
                        pmf_from_weights(list(range(levels)), pmf0),
                        pmf_from_weights(list(range(levels)), pmf1 / pmf1.sum()),
                    ))
                laws = [c.pmf0 for c in channels], [c.pmf1 for c in channels]
                taus = convolve_many([c.part.finite for c in channels]).atoms
                convolved = fold_laws(channels, *laws).prob_decide_one(taus)
                for side in (0, 1):
                    enumerated = decide_one_enumeration(channels, laws[side], taus)
                    assert np.abs(convolved[side] - enumerated).max() <= 1e-10

    def test_majority_three_sensors(self):
        """K=3 binary sensors with 0.2 symmetric error: P_E = 0.104."""
        net = NetworkModel((SYM02,) * 3, 0.5)
        report = exact_error(net, method="enumeration")
        assert abs(report.p_error - 0.104) < 1e-12
        conv = exact_error(net, method="convolution")
        assert abs(conv.p_error - report.p_error) < 1e-10
        assert abs(conv.p_false_alarm - binomial_majority_error(3, 0.2)) < 1e-13

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="unknown method 'fft'"):
            exact_error(NetworkModel((SYM02,), 0.5), method="fft")

    def test_enumeration_above_limit_refused_before_enumerating(self, monkeypatch):
        """Two 4-level sensors have 16 joint levels: with a limit of 10 the
        enumeration method raises without visiting one, and the convolution
        method skips its cross-check."""
        net = _explicit_network(np.random.default_rng(20261203), 2)

        def refuse(*args):
            raise AssertionError("enumerated above the limit")

        monkeypatch.setattr(fusion, "_enumerate_decide_one", refuse)
        with pytest.raises(ValueError, match="too large for enumeration"):
            exact_error(net, method="enumeration", enumeration_limit=10)
        assert exact_error(net, enumeration_limit=10) == exact_error(net, cross_check=False)

    def test_disagreement_refused(self, monkeypatch):
        """An enumeration that moves P(decide 1) by 1e-9 under both
        hypotheses fails the cross-check, from either primary path."""
        enumerate_ = fusion._enumerate_decide_one
        monkeypatch.setattr(
            fusion, "_enumerate_decide_one", lambda *a: [p + 1e-9 for p in enumerate_(*a)]
        )
        net = NetworkModel((SYM02,) * 3, 0.5)
        for method in ("convolution", "enumeration"):
            with pytest.raises(RuntimeError, match="disagree beyond 1e-10"):
                exact_error(net, method=method)
        assert exact_error(net, cross_check=False).method == "exact-convolution"

    def test_single_sensor_reduction(self):
        net = NetworkModel((SYM02,), 0.5)
        report = exact_error(net)
        assert abs(report.p_error - 0.2) < 1e-12

    def test_uninformative_sensors_decide_by_prior(self):
        flat = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.6, 0.4]), pmf_from_weights([0, 1], [0.6, 0.4])
        )
        for prior0 in (0.3, 0.5, 0.8):
            report = exact_error(NetworkModel((flat, flat), prior0))
            assert abs(report.p_error - min(prior0, 1.0 - prior0)) < 1e-12

    def test_decomposition_identity(self):
        net = NetworkModel((SYM02,) * 3, 0.37)
        report = exact_error(net)
        recomposed = 0.37 * report.p_false_alarm + 0.63 * report.p_miss
        assert report.p_error == recomposed

    def test_matches_independent_enumeration_oracle(self):
        q = Quantizer((0.5, 1.0, 2.0))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, SYM02), 0.4)
        report = exact_error(net)
        p_f, p_m, p_e = enumerate_error_probs(
            [c.levels for c in net.channels],
            [c.llr for c in net.channels],
            [c.pmf0.probs for c in net.channels],
            [c.pmf1.probs for c in net.channels],
            net.log_threshold,
            0.4,
        )
        assert abs(report.p_false_alarm - p_f) < 1e-12
        assert abs(report.p_miss - p_m) < 1e-12
        assert abs(report.p_error - p_e) < 1e-12

    def test_eq16_transport_on_member_grid(self):
        """LFD sum-laws dominate member sum-laws at every threshold."""
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, ch), 0.5)
        lfd0 = finite_sum(fold_laws(net.channels, [ch.pmf0, ch.pmf0]))
        lfd1 = finite_sum(fold_laws(net.channels, [ch.pmf1, ch.pmf1]))
        for mu in np.linspace(-1.0, 0.0, 5):
            law = member_law(GaussianSpec(float(mu), 1.0), SensorRule(BAND_PAIR, q))
            member = finite_sum(fold_laws(net.channels, [law, law]))
            assert atoms_stochastically_larger(lfd0, member)[0]
        for mu in np.linspace(1.0, 2.0, 5):
            law = member_law(GaussianSpec(float(mu), 1.0), SensorRule(BAND_PAIR, q))
            member = finite_sum(fold_laws(net.channels, [law, law]))
            assert atoms_stochastically_larger(member, lfd1)[0]

    def test_permutation_invariance(self):
        """Relabeling any sensor leaves the exact errors unchanged."""
        q = Quantizer((0.5, 1.0, 2.0))
        ch = channel_from_quantizer(q, BAND_PAIR)
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(ch.levels))
        permuted = channel_from_pmfs(
            pmf_from_weights(range(len(perm)), ch.pmf0.probs[perm]),
            pmf_from_weights(range(len(perm)), ch.pmf1.probs[perm]),
        )
        base = exact_error(NetworkModel((ch, SYM02), 0.5))
        mixed = exact_error(NetworkModel((permuted, SYM02), 0.5))
        assert abs(base.p_false_alarm - mixed.p_false_alarm) < 1e-14
        assert abs(base.p_miss - mixed.p_miss) < 1e-14

    def test_label_order_is_free(self):
        """A network whose channels are relabeled by random permutations
        evaluates like the original: exact errors (with the enumeration
        cross-check), the saddle certificate on members permuted the same
        way, K sweeps of each channel and fused decisions on mapped level
        vectors. Channels are seeded quantizer and explicit ones, with
        ±inf and tied LLRs."""
        rng = np.random.default_rng(20261030)
        # levels in decreasing-LLR order, with a tie and both infinities
        reversed_ties = channel_from_pmfs(
            pmf_from_weights(range(5), [0.0, 0.1, 0.2, 0.2, 0.5]),
            pmf_from_weights(range(5), [0.3, 0.2, 0.2, 0.2, 0.0]),
        )
        net = NetworkModel((reversed_ties, SYM02), 0.4)
        cases = [(net, [[ch.pmf0] for ch in net.channels], [[ch.pmf1] for ch in net.channels])]
        cases += [_random_saddle_network(rng, bool(rng.integers(2))) for _ in range(30)]

        def relabel(law, perm):
            return pmf_from_weights(range(len(perm)), law.probs[perm])

        for net, laws0, laws1 in cases:
            perms = [rng.permutation(len(ch.levels)) for ch in net.channels]
            channels = tuple(
                channel_from_pmfs(relabel(ch.pmf0, perm), relabel(ch.pmf1, perm))
                for ch, perm in zip(net.channels, perms)
            )
            moved = NetworkModel(channels, net.prior0, net.log_threshold)
            want, got = exact_error(net), exact_error(moved)
            for name in ("p_false_alarm", "p_miss", "p_error"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14

            want = saddle_verify(net, _rows(laws0), _rows(laws1))
            got = saddle_verify(
                moved,
                _rows([[relabel(m, perm) for m in ms] for ms, perm in zip(laws0, perms)]),
                _rows([[relabel(m, perm) for m in ms] for ms, perm in zip(laws1, perms)]),
            )
            assert (got.holds, got.dominance_ok, got.n_checked) == (
                want.holds, want.dominance_ok, want.n_checked
            )
            for name in ("worst_gap", "p_false_alarm_lfd", "p_miss_lfd"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14

            for ch, twin in zip(net.channels, moved.channels):
                if np.max(np.abs(ch.pmf0.probs - ch.pmf1.probs)) <= 1e-12:
                    continue
                sweeps = (k_sweep(c, [1, 2, 5, 9], net.prior0) for c in (ch, twin))
                for (_, want), (_, got) in zip(*sweeps):
                    assert abs(got.p_error - want.p_error) <= 1e-14

            for _ in range(20):
                idx = [int(rng.integers(len(ch.levels))) for ch in net.channels]
                u = [ch.levels[i] for ch, i in zip(net.channels, idx)]
                # original index i sits at new label argsort(perm)[i]
                mapped = [int(np.argsort(perm)[i]) for perm, i in zip(perms, idx)]
                assert fuse(moved, mapped) == fuse(net, u)

    def test_repair_check_with_tied_infinite_llrs_is_warning_free(self):
        """Two -inf and one +inf level out of LLR order: building and
        evaluating the network never computes inf - inf."""
        ch = channel_from_pmfs(
            pmf_from_weights(range(4), [0.3, 0.2, 0.0, 0.5]),
            pmf_from_weights(range(4), [0.0, 0.0, 0.6, 0.4]),
        )
        assert not llr_monotone_check(ch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = NetworkModel((ch, SYM02), 0.5)
            report = exact_error(net)  # enumeration cross-check runs inside
        # H0: level 2 never occurs, levels 0-1 force 0, and level 3
        # (LLR log 0.8) decides 1 only with SYM02's level 1 (log 4).
        assert abs(report.p_false_alarm - 0.5 * 0.2) < 1e-14

    def test_infinite_llr_sentinels(self):
        """Levels impossible under one hypothesis force the decision."""
        from robust_fusion.distributions import DiscretePmf
        from robust_fusion.sensor import SensorChannel

        ch = SensorChannel(
            DiscretePmf((0, 1, 2), np.array([0.5, 0.5, 0.0])),
            DiscretePmf((0, 1, 2), np.array([0.0, 0.5, 0.5])),
        )
        net = NetworkModel((ch, SYM02), 0.5, 0.0)
        assert fuse(net, [2, 0]) == 1  # +inf level forces 1
        assert fuse(net, [0, 1]) == 0  # -inf level forces 0
        report = exact_error(net)  # enumeration cross-check runs inside
        # P[decide 1 | H0]: level 2 is impossible, level 1 ties with either
        # partner level (sum 0 + a or 0 - a), so only (1, 1) decides 1.
        assert abs(report.p_false_alarm - 0.5 * 0.2) < 1e-14
        # P[decide 0 | H1]: level 0 impossible; (1, b) decides 1 iff b = 1.
        assert abs(report.p_miss - 0.5 * 0.2) < 1e-14

    def test_homogeneous_band_networks_agree_at_ties(self):
        """Identical band sensors put LLR sums on the threshold up to float
        noise; convolution and enumeration must still agree."""
        rng = np.random.default_rng(20261018)
        for _ in range(150):
            sigma = float(rng.uniform(0.5, 2.0))
            lo0, w0, gap, w1 = rng.uniform([-2.0, 0.0, 0.2, 0.0], [0.0, 1.0, 2.0, 1.0])
            pair = gaussian_band_lfd(
                GaussianBandClass(lo0, lo0 + w0, sigma),
                GaussianBandClass(lo0 + w0 + gap, lo0 + w0 + gap + w1, sigma),
            )
            q = default_quantizer(pair, int(rng.integers(1, 4)))
            ch = channel_from_quantizer(q, pair)
            exact_error(NetworkModel((ch,) * int(rng.integers(2, 7)), 0.5))

    def test_merged_law_agrees_with_enumeration_at_every_sum(self):
        """Atom merging never moves mass across the tie band: thresholds at
        every raw LLR sum of the enumeration, 5e-13 either side of each,
        and at 0 give the same decide-1 probability on both paths."""
        rng = np.random.default_rng(20261019)
        for _ in range(60):
            net = _random_tie_network(rng)
            laws = [ch.pmf0 if rng.random() < 0.5 else ch.pmf1 for ch in net.channels]
            sums, probs = np.zeros(1), np.ones(1)
            has_pos, has_neg = np.zeros(1, dtype=bool), np.zeros(1, dtype=bool)
            for ch, law in zip(net.channels, laws):
                sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
                probs = np.multiply.outer(probs, law.probs).ravel()
                has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
                has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
            finite = ~has_pos & ~has_neg
            raw = np.unique(sums[finite])
            taus = np.concatenate([raw, raw - 5e-13, raw + 5e-13, [0.0]])

            def above(atoms, masses):
                """Mass strictly above each tau + TIE_TOL."""
                order = np.argsort(atoms, kind="stable")
                tail = np.r_[np.cumsum(masses[order][::-1])[::-1], 0.0]
                return tail[np.searchsorted(atoms[order], taus + TIE_TOL, side="right")]

            enumerated = np.sum(probs[has_pos & ~has_neg]) + above(sums[finite], probs[finite])
            law = fold_laws(net.channels, laws)
            finite = finite_sum(law)
            convolved = law.forced_one + above(finite.atoms, finite.masses)
            assert np.max(np.abs(convolved - enumerated)) <= 1e-12
            for tau in rng.choice(taus, size=5):
                assert abs(
                    law.prob_decide_one(tau)
                    - _enumerated(net.channels, laws, tau)
                ) <= 1e-12

    def test_split_law_matches_enumeration_at_ties(self):
        """The meet-in-the-middle tail of the split law equals enumeration
        and the full convolution at every raw LLR sum, 5e-13 either side of
        each, and at 0, on 1-10 sensors, all one channel or each its own."""
        rng = np.random.default_rng(20261023)
        taus_checked = 0
        for k in [1] * 4 + [None] * 60 + [8, 9, 10] * 3:
            net = _random_tie_network(rng, k)
            laws = [ch.pmf0 if rng.random() < 0.5 else ch.pmf1 for ch in net.channels]
            sums, _, has_pos, has_neg = joint_llr_sums(net.channels, laws)
            raw = np.unique(sums[~has_pos & ~has_neg])
            taus = np.concatenate([raw, raw - 5e-13, raw + 5e-13, [0.0]])
            law = fold_laws(net.channels, laws)
            split = np.array([law.prob_decide_one(tau) for tau in taus])
            enumerated = decide_one_enumeration(net.channels, laws, taus)
            assert np.max(np.abs(split - enumerated)) <= 1e-12
            finite = finite_sum(law)
            convolved = [law.forced_one + tail_mass(finite, tau + TIE_TOL) for tau in taus]
            assert np.max(np.abs(split - convolved)) <= 1e-12
            for tau in rng.choice(taus, size=3):
                assert abs(
                    law.prob_decide_one(tau)
                    - _enumerated(net.channels, laws, tau)
                ) <= 1e-12
            taus_checked += len(taus)
        assert taus_checked >= 10**4

    def test_sum_on_tie_band_edge_decides_null(self):
        """A sum that equals tau + TIE_TOL in float is a tie and decides 0:
        the split law must not count a right atom equal to its search key.
        Two sensors, so each half holds one sensor's raw LLRs. Only edges
        where every pair's a + b > edge agrees with b > edge - a in float
        are well-posed; the others are skipped."""
        rng = np.random.default_rng(20261024)
        edges = 0
        for _ in range(30):
            net = _random_tie_network(rng, 2)
            laws = [ch.pmf0 if rng.random() < 0.5 else ch.pmf1 for ch in net.channels]
            law = fold_laws(net.channels, laws)
            a_all, b_all = np.meshgrid(law.left.atoms, law.right.atoms, indexing="ij")
            for a, b in zip(a_all.ravel(), b_all.ravel()):
                edge = a + b
                if edge - a != b or np.any((a_all + b_all > edge) != (b_all > edge - a_all)):
                    continue
                tau = edge - TIE_TOL
                for _ in range(4):  # step tau until tau + TIE_TOL rounds to the sum
                    if tau + TIE_TOL == edge:
                        break
                    tau = np.nextafter(tau, edge if tau + TIE_TOL < edge else -math.inf)
                if tau + TIE_TOL != edge:
                    continue
                edges += 1
                assert abs(
                    law.prob_decide_one(tau)
                    - _enumerated(net.channels, laws, tau)
                ) <= 1e-12
        assert edges >= 100

    def test_array_thresholds_match_float_thresholds(self):
        """``prob_decide_one`` on an array of thresholds gives each float
        threshold's value, on split laws of 1-6 sensors."""
        rng = np.random.default_rng(20261106)
        for _ in range(40):
            net = _random_tie_network(rng, int(rng.integers(1, 7)))
            law = fold_laws(net.channels, [ch.pmf0 for ch in net.channels])
            atoms = finite_sum(law).atoms
            taus = np.concatenate([atoms, atoms - 5e-13, [0.0]])
            values = law.prob_decide_one(taus)
            assert values.shape == taus.shape
            assert np.max(np.abs(values - [law.prob_decide_one(float(t)) for t in taus])) <= 1e-15


def _record_convolutions(monkeypatch) -> list[int]:
    """Output sizes of every convolution the library runs from now on."""
    sizes = []
    original = ordering.convolve

    def recording(a, b):
        out = original(a, b)
        sizes.append(len(out.atoms))
        return out

    monkeypatch.setattr(ordering, "convolve", recording)
    monkeypatch.setattr(fusion, "convolve", recording)
    return sizes


def _explicit_network(rng, k: int) -> NetworkModel:
    """K explicit 4-level sensors, each its own channel with four distinct
    finite LLRs, so the K sensors have 4^K distinct sums."""
    channels = []
    for _ in range(k):
        pmf0 = rng.dirichlet([2.0] * 4)
        pmf1 = pmf0 * np.exp(np.cumsum(rng.uniform(0.3, 1.2, 4)))
        pmf1 /= pmf1.sum()
        lv = list(range(4))
        channels.append(channel_from_pmfs(pmf_from_weights(lv, pmf0), pmf_from_weights(lv, pmf1)))
    return NetworkModel(tuple(channels), float(rng.uniform(0.3, 0.7)))


class TestSplitLawSize:
    def test_k16_builds_no_law_above_half_size(self, monkeypatch):
        """K=16 heterogeneous 4-level sensors: 4^16 distinct sums, but no
        atom law with more than 4^8 atoms is built."""
        net = _explicit_network(np.random.default_rng(20261025), 16)
        sizes = _record_convolutions(monkeypatch)
        report = exact_error(net)
        assert report.method == "exact-convolution"
        assert 0.0 < report.p_error < 0.5
        assert 4**7 < max(sizes) <= 4**8  # the halves have 4^8 sums each

    def test_k10_matches_numpy_enumeration(self):
        """K=10 heterogeneous 4-level sensors against all 4^10 joint levels,
        at the network threshold and at 50 thresholds across the sums."""
        rng = np.random.default_rng(20261026)
        net = _explicit_network(rng, 10)
        report = exact_error(net, cross_check=False)
        for laws, p_one in (
            ([ch.pmf0 for ch in net.channels], report.p_false_alarm),
            ([ch.pmf1 for ch in net.channels], 1.0 - report.p_miss),
        ):
            sums = joint_llr_sums(net.channels, laws)[0]
            taus = np.r_[net.log_threshold, rng.uniform(sums.min() - 1.0, sums.max(), 50)]
            enumerated = decide_one_enumeration(net.channels, laws, taus)
            assert abs(p_one - enumerated[0]) <= 1e-12
            law = fold_laws(net.channels, laws)
            split = [law.prob_decide_one(tau) for tau in taus]
            assert np.max(np.abs(split - enumerated)) <= 1e-12


# a sensor that always knows: LLR -inf or +inf, no finite level
_SURE = channel_from_pmfs(
    pmf_from_weights([0, 1], [1.0, 0.0]), pmf_from_weights([0, 1], [0.0, 1.0])
)


def _colliding_network(rng):
    """(net, members0, members1): K = 1-7 explicit sensors whose LLR sums
    collide. A sensor repeats one base channel (exactly duplicated sums),
    moves the base's LLRs by less than 4e-13 (sums closer than
    ATOM_BIN_WIDTH, which merge) or is a channel of its own; ±inf levels
    come with the explicit channels, and a few sensors have no finite level
    at all. Each sensor has its LFD and up to three members per hypothesis,
    as (members x levels) rows."""
    base, b0, b1 = _explicit_saddle_sensor(rng, int(rng.integers(2, 5)), 3, True)
    channels, members0, members1 = [], [], []
    for _ in range(int(rng.integers(1, 8))):
        u = rng.random()
        if u < 0.4:
            ch, m0, m1 = base, b0, b1
        elif u < 0.7:
            moved = base.pmf1.probs * np.exp(rng.uniform(1e-13, 4e-13, len(base.levels)))
            ch, m0, m1 = channel_from_pmfs(base.pmf0, pmf_from_weights(base.levels, moved)), b0, b1
        elif u < 0.75:
            ch, m0, m1 = _SURE, [], []
        else:
            ch, m0, m1 = _explicit_saddle_sensor(rng, int(rng.integers(2, 5)), 3, True)
        channels.append(ch)
        members0.append(np.array([ch.pmf0.probs] + [m.probs for m in m0]))
        members1.append(np.array([ch.pmf1.probs] + [m.probs for m in m1]))
    return NetworkModel(tuple(channels), float(rng.uniform(0.3, 0.7))), members0, members1


def _rows_of(pmf, rows: int) -> np.ndarray:
    """The masses of an atom law as ``rows`` mass rows (a 1-D law serves all)."""
    return np.broadcast_to(pmf.masses, (rows, len(pmf.atoms)))


class TestTwoRowFold:
    """One fold with an H0 and an H1 mass row equals the per-hypothesis
    folds of ``_oracles`` bit for bit: every comparison is ``==``."""

    def test_rows_match_per_hypothesis_folds(self):
        """Halves, whole sum, forced-1 mass and P(decide 1) at float and
        array thresholds, of the two-row law and of each one-row law, on
        networks with ±inf levels, exact duplicate sums and merged sums."""
        rng = np.random.default_rng(20261107)
        stats = Counter()
        infinite = 0
        for _ in range(150):
            net = _colliding_network(rng)[0]
            infinite += any(np.any(np.isinf(ch.llr)) for ch in net.channels)
            laws = ([ch.pmf0 for ch in net.channels], [ch.pmf1 for ch in net.channels])
            law = fold_laws(net.channels, *laws)
            atoms = finite_sum(law).atoms
            taus = np.concatenate([atoms, atoms - 5e-13, atoms - TIE_TOL, [0.0, net.log_threshold]])
            p_two = law.prob_decide_one(taus)
            assert p_two.shape == (2, len(taus))
            for h in (0, 1):
                ref = law_reference(net.channels, laws[h], stats)
                one = fold_laws(net.channels, laws[h])
                ref_finite = ref.finite(stats)
                for got, rows in ((law, 2), (one, 1)):
                    for half, ref_half in ((got.left, ref.left), (got.right, ref.right)):
                        assert np.array_equal(half.atoms, ref_half[0])
                        assert np.array_equal(_rows_of(half, rows)[min(h, rows - 1)], ref_half[1])
                    finite = finite_sum(got)
                    assert np.array_equal(finite.atoms, ref_finite[0])
                    assert np.array_equal(_rows_of(finite, rows)[min(h, rows - 1)], ref_finite[1])
                assert law.forced_one[h] == one.forced_one == ref.forced_one
                want = ref.prob_decide_one(taus)
                assert np.array_equal(p_two[h], want)
                assert np.array_equal(one.prob_decide_one(taus), want)
                for t in rng.choice(taus, size=4):
                    got = law.prob_decide_one(float(t))
                    assert got[h] == one.prob_decide_one(float(t)) == ref.prob_decide_one(float(t))
        assert infinite >= 30
        assert stats["duplicates"] >= 100 and stats["merges"] >= 100

    def test_reports_match_per_hypothesis_folds(self):
        """``exact_error`` (LFD laws), ``member_error`` (member laws through
        the library's fold), ``saddle_verify`` and ``best_fusion_threshold``
        equal their per-hypothesis references."""
        rng = np.random.default_rng(20261108)
        stats = Counter()
        for _ in range(60):
            net, members0, members1 = _colliding_network(rng)
            assert exact_error(net, cross_check=False) == exact_error_reference(net, stats)
            picked = [
                [pmf_from_weights(ch.levels, m[int(rng.integers(len(m)))]) for ch, m in zip(
                    net.channels, members)]
                for members in (members0, members1)
            ]
            assert member_error(net, *picked) == exact_error_reference(net, stats, *picked)
            got = saddle_verify(net, members0, members1)
            assert got == saddle_verify_reference(net, members0, members1, stats)
            laws = ([ch.pmf0 for ch in net.channels], [ch.pmf1 for ch in net.channels])
            refs = [law_reference(net.channels, laws[h], stats) for h in (0, 1)]
            assert best_fusion_threshold(
                *(fold_laws(net.channels, laws[h]) for h in (0, 1)), net.prior0
            ) == threshold_scan_reference(*refs, net.prior0, stats)
        assert stats["duplicates"] >= 100 and stats["merges"] >= 100

    def test_k_sweep_matches_per_hypothesis_folds(self):
        """Each count's report equals the per-hypothesis ``exact_error`` of
        the K-sensor network, on templates with ±inf and equal-LLR levels."""
        rng = np.random.default_rng(20261109)
        stats = Counter()
        templates = [
            _explicit_saddle_sensor(rng, int(rng.integers(2, 5)), 1, True)[0] for _ in range(12)
        ]
        ks = [5, 1, 12, 3, 12, 2, 8, 7]
        for template in [SYM02, *templates]:
            prior0 = float(rng.uniform(0.3, 0.7))
            for k, report in k_sweep(template, ks, prior0):
                assert report == exact_error_reference(
                    NetworkModel((template,) * k, prior0), stats
                )
        assert stats["duplicates"] >= 50 and stats["merges"] >= 10

    def test_objective_matches_per_hypothesis_folds(self):
        """``_ThresholdObjective.evaluate`` equals the threshold scan of the
        two laws folded one at a time over the union of their supports."""
        rng = np.random.default_rng(20261110)
        stats = Counter()
        checked = 0
        for _ in range(40):
            pairs, prior0, conf, _ = _random_design(rng)
            got = fusion._ThresholdObjective(pairs, prior0).evaluate(conf)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    channels = [
                        channel_from_quantizer(Quantizer(tuple(math.exp(t) for t in c)), pair)
                        for pair, c in zip(pairs, conf)
                    ]
                except RuntimeError:  # a per-level LLR falls: an invalid quantizer
                    assert got == (math.inf, 0.0)
                    continue
            refs = [law_reference(channels, [ch.pmf0 for ch in channels], stats, split=False),
                    law_reference(channels, [ch.pmf1 for ch in channels], stats, split=False)]
            tau, p_e = threshold_scan_reference(*refs, prior0, stats)
            assert got == (p_e, tau)
            checked += 1
        assert checked >= 30


def _enumeration_network(rng):
    """K = 1-5 explicit channels of 1-4 levels, so one-level sensors and
    mixed level counts, some with a +inf and a -inf level and a few with no
    finite level."""
    channels = []
    for _ in range(int(rng.integers(1, 6))):
        levels = int(rng.integers(1, 5))
        if levels == 2 and rng.random() < 0.15:
            channels.append(_SURE)
            continue
        pmf0, pmf1 = rng.dirichlet([1.0] * levels), rng.dirichlet([1.0] * levels)
        if levels > 1 and rng.random() < 0.5:
            plus, minus = rng.choice(levels, size=2, replace=False)
            pmf0[plus] = 0.0  # LLR +inf
            if rng.random() < 0.6:
                pmf1[minus] = 0.0  # LLR -inf
        lv = list(range(levels))
        channels.append(channel_from_pmfs(pmf_from_weights(lv, pmf0), pmf_from_weights(lv, pmf1)))
    return tuple(channels)


class TestEnumeration:
    def test_matches_oracles_at_ties(self):
        """The contracted enumeration equals the numpy and the pure-Python
        oracle enumerations within 1e-12 on seeded networks with ±inf
        levels, K = 1, one-level sensors and mixed level counts, at
        thresholds on finite joint sums and within TIE_TOL below them."""
        rng = np.random.default_rng(20261201)
        seen = Counter()
        for _ in range(120):
            channels = _enumeration_network(rng)
            laws0, laws1 = [ch.pmf0 for ch in channels], [ch.pmf1 for ch in channels]
            seen["k1"] += len(channels) == 1
            seen["one-level"] += any(len(ch.levels) == 1 for ch in channels)
            seen["mixed"] += len({len(ch.levels) for ch in channels}) > 1
            seen["infinite"] += any(np.any(np.isinf(ch.llr)) for ch in channels)
            sums, _, has_pos, has_neg = joint_llr_sums(channels, laws0)
            finite = np.unique(sums[~has_pos & ~has_neg])
            picked = rng.choice(finite, size=min(3, len(finite)), replace=False)
            taus = [0.0, *(s + off for s in picked for off in (0.0, -0.5 * TIE_TOL, -1.5 * TIE_TOL))]
            for n, tau in enumerate(taus):
                got = fusion._enumerate_decide_one(channels, float(tau))
                for h, laws in enumerate((laws0, laws1)):
                    assert abs(got[h] - decide_one_enumeration(channels, laws, [tau])[0]) <= 1e-12
                if n % 3 == 2:  # the sum in the tie band: the pure-Python oracle too
                    p_f, p_m, _ = enumerate_error_probs(
                        [ch.levels for ch in channels], [ch.llr for ch in channels],
                        [law.probs for law in laws0], [law.probs for law in laws1],
                        float(tau) + TIE_TOL, 0.5,
                    )
                    assert abs(got[0] - p_f) <= 1e-12 and abs(1.0 - got[1] - p_m) <= 1e-12
                    below = fusion._enumerate_decide_one(channels, float(tau) - TIE_TOL)
                    seen["tie moves"] += got != below
            net = NetworkModel(channels, 0.5, float(taus[-1]))
            report = exact_error(net, method="enumeration", cross_check=False)
            got = fusion._enumerate_decide_one(channels, float(taus[-1]))
            assert (report.p_false_alarm, report.p_miss) == (clamped(got[0]), clamped(1.0 - got[1]))
        assert min(seen["k1"], seen["one-level"], seen["infinite"]) >= 15, seen
        assert seen["mixed"] >= 60 and seen["tie moves"] >= 60, seen

    def test_cross_check_builds_no_joint_probability_array(self, monkeypatch):
        """``exact_error`` on K=9 sensors of 4 levels, cross-checked over all
        4^9 joint levels, peaks below 2 MB of traced memory (building the
        per-law joint arrays took about 5 MB)."""
        net = _explicit_network(np.random.default_rng(20261202), 9)
        calls = []
        enumerate_ = fusion._enumerate_decide_one
        monkeypatch.setattr(
            fusion, "_enumerate_decide_one", lambda *a: calls.append(1) or enumerate_(*a)
        )
        tracemalloc.start()
        try:
            report = exact_error(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [1] and report.method == "exact-convolution"
        assert peak < 2_000_000


def test_unique_rows_match_numpy_unique():
    """``_unique_rows`` gives ``np.unique(a, axis=0)``'s rows in its order,
    on seeded rows with repeats, ties in leading columns and zeros."""
    rng = np.random.default_rng(20261111)
    for _ in range(200):
        values = [0.0, 0.25, 0.5, 1.0, float(rng.random())]
        pool = rng.choice(values, size=(int(rng.integers(1, 6)), int(rng.integers(1, 7))))
        a = pool[rng.integers(len(pool), size=int(rng.integers(1, 40)))]
        got = fusion._unique_rows(a)
        assert got.shape == np.unique(a, axis=0).shape
        assert np.array_equal(got, np.unique(a, axis=0))


def test_design_evaluate_and_saddle_leave_numpy_ma_unimported():
    """A threshold design, a CLI evaluate and a CLI saddle run in a fresh
    interpreter never import numpy.ma (np.unique without return_inverse
    does, at about 9 ms on its first call)."""
    root = Path(__file__).resolve().parents[1]
    path = str(root / "scenarios" / "composite.json")
    script = f"""
import contextlib, io, sys, warnings
from robust_fusion import cli, fusion
from robust_fusion.scenario import build_lfd_pair, load_scenario
scenario = load_scenario({path!r})
pairs = [build_lfd_pair(spec, i) for i, spec in enumerate(scenario.sensors[:2])]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    fusion.optimize_thresholds(pairs, [2, 2], 0.5)
for argv in (["evaluate"], ["saddle", "--members", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([argv[0], "--scenario", {path!r}, *argv[1:]]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


class TestSaddleVerify:
    def _member_laws(self, pair, q, n):
        laws0 = member_laws(band_members(BAND0, n), SensorRule(pair, q))
        laws1 = member_laws(band_members(BAND1, n), SensorRule(pair, q))
        return laws0, laws1

    def test_band_lfds_are_saddle_point(self):
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, ch), 0.5)
        laws0, laws1 = self._member_laws(BAND_PAIR, q, 11)
        report = saddle_verify(net, [laws0, laws0], [laws1, laws1])
        assert report.holds
        assert report.worst_gap >= -1e-9
        assert report.dominance_ok

    def test_lfd_only_members_zero_gap(self):
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, ch), 0.5)
        law0 = member_laws([BAND_PAIR.q0], SensorRule(BAND_PAIR, q))
        law1 = member_laws([BAND_PAIR.q1], SensorRule(BAND_PAIR, q))
        report = saddle_verify(net, [law0, law0], [law1, law1])
        assert report.holds
        assert report.worst_gap == 0.0

    def test_own_law_sensors_fold_nothing(self, monkeypatch):
        """A sensor whose only member on both sides is its channel's own law
        (an exactly certified or explicit-pmf sensor) skips its fold of the
        others, and the report still equals the per-hypothesis reference
        with ``==``: on seeded colliding networks with about half of the
        sensors reduced to their own law and some to one other member, the
        others are folded once per sensor that is not its own law alone,
        and a network of own-law sensors costs the LFD fold alone."""
        folds = []
        original = fusion._fuse_one_given_level
        monkeypatch.setattr(
            fusion, "_fuse_one_given_level", lambda *a: folds.append(1) or original(*a)
        )
        rng = np.random.default_rng(20261125)
        stats = Counter()
        skipped = lone = 0
        for _ in range(60):
            net, members0, members1 = _colliding_network(rng)
            for i, ch in enumerate(net.channels):
                u = rng.random()
                if u < 0.5:
                    members0[i], members1[i] = ch.pmf0.probs[None, :], ch.pmf1.probs[None, :]
                elif u < 0.75 and len(members0[i]) > 1:  # one member, not the channel's law
                    members0[i], members1[i] = members0[i][-1:], members1[i][-1:]
            # a sensor with no finite level (_SURE) already has its own law alone
            alone = [
                len(m0) == len(m1) == 1
                and np.array_equal(m0[0], ch.pmf0.probs)
                and np.array_equal(m1[0], ch.pmf1.probs)
                for ch, m0, m1 in zip(net.channels, members0, members1)
            ]
            folds.clear()
            got = saddle_verify(net, members0, members1)
            assert got == saddle_verify_reference(net, members0, members1, stats)
            assert len(folds) == alone.count(False)
            skipped += alone.count(True)
            lone += sum(len(m) == 1 for m in members0) - alone.count(True)
        assert skipped >= 60 and lone >= 20
        ch = channel_from_quantizer(Quantizer((0.5, 2.0)), BAND_PAIR)
        net = NetworkModel((ch, SYM02, ch), 0.5)
        laws0 = [c.pmf0.probs[None, :] for c in net.channels]
        laws1 = [c.pmf1.probs[None, :] for c in net.channels]
        folds.clear()
        fold_calls = []
        fold = fusion._fold
        monkeypatch.setattr(fusion, "_fold", lambda parts: fold_calls.append(1) or fold(parts))
        report = saddle_verify(net, laws0, laws1)
        assert (folds, len(fold_calls)) == ([], 1)
        assert report.holds and report.worst_gap == 0.0 and report.worst_combo == (0, 0, 0)
        assert report == saddle_verify_reference(net, laws0, laws1, stats)

    def test_witness_ignores_rounding_noise(self):
        """A member whose gap is below the least only by rounding noise does
        not take the witness: the first member within WITNESS_TOL does."""
        ch = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.6, 0.4]), pmf_from_weights([0, 1], [0.3, 0.7])
        )
        net = NetworkModel((ch,), 0.5)
        noisy = DiscretePmf((0, 1), np.array([0.6 - 2e-16, 0.4 + 2e-16]))
        report = saddle_verify(net, _rows([[ch.pmf0, noisy]]), _rows([[ch.pmf1]]))
        assert report.worst_gap == 0.0
        assert report.worst_combo == (0,)
        report = saddle_verify(net, _rows([[noisy, ch.pmf0]]), _rows([[ch.pmf1]]))
        assert report.worst_combo == (0,)
        assert 0.0 < -report.worst_gap < fusion.WITNESS_TOL

    def test_midpoint_imposters_fail(self):
        """Band midpoints are not least favorable; a member beats them."""
        wrong_pair = gaussian_band_lfd(
            GaussianBandClass(-0.5, -0.5, 1.0), GaussianBandClass(1.5, 1.5, 1.0)
        )
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, wrong_pair)
        net = NetworkModel((ch, ch), 0.5)
        laws0 = member_laws(band_members(BAND0, 11), SensorRule(wrong_pair, q))
        laws1 = member_laws(band_members(BAND1, 11), SensorRule(wrong_pair, q))
        report = saddle_verify(net, [laws0, laws0], [laws1, laws1])
        assert not report.holds
        assert report.worst_gap < -1e-3

    def test_k5_band_certifies_whole_grid(self):
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch,) * 5, 0.5)
        laws0, laws1 = self._member_laws(BAND_PAIR, q, 11)
        report = saddle_verify(net, [laws0] * 5, [laws1] * 5)
        assert report.n_checked == 2 * 11**5
        assert report.holds
        assert report.worst_gap == 0.0
        assert report.worst_combo == (10,) * 5

    def test_empty_member_list_rejected(self):
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch, ch), 0.5)
        laws0, laws1 = self._member_laws(BAND_PAIR, q, 3)
        with pytest.raises(ValueError, match="at least one member"):
            saddle_verify(net, [laws0, []], [laws1, laws1])
        with pytest.raises(ValueError, match="at least one member"):
            saddle_verify(net, [laws0, laws0], [laws1, []])

    def test_member_row_layout_does_not_change_the_report(self):
        """F-ordered rows (as ``rows[:, levels]`` gives) read as C-ordered
        ones: on the unequal-variance KL scenario an F-ordered matrix would
        move the last bits of worst_gap through the dot product's order."""
        root = Path(__file__).resolve().parent.parent
        scenario = load_scenario(root / "scenarios" / "kl_unequal_variance.json")
        built = build_sensors(scenario)
        net = NetworkModel(tuple(b.channel for b in built), scenario.prior0, scenario.log_threshold)
        laws0 = [probe_laws(b, 0, 11) for b in built]
        laws1 = [probe_laws(b, 1, 11) for b in built]
        assert all(rows.flags.c_contiguous for rows in laws0 + laws1)
        fortran0 = [np.asfortranarray(rows) for rows in laws0]
        fortran1 = [np.asfortranarray(rows) for rows in laws1]
        assert not any(rows.flags.c_contiguous for rows in fortran0 + fortran1)
        report = saddle_verify(net, laws0, laws1)
        assert saddle_verify(net, fortran0, fortran1) == report
        assert saddle_verify(net, [rows.tolist() for rows in laws0], laws1) == report
        assert not report.holds

    def test_member_rows_are_validated(self):
        """Rows must match the channel's level count and be laws: finite,
        nonnegative and summing to 1 within MASS_TOL, at least one per
        sensor and hypothesis."""
        q = Quantizer((1.0,))
        ch = channel_from_quantizer(q, BAND_PAIR)
        net = NetworkModel((ch,), 0.5)
        laws0, laws1 = self._member_laws(BAND_PAIR, q, 3)
        assert saddle_verify(net, [laws0], [laws1]).holds
        bad = {
            "levels": np.hstack([laws0, np.zeros((3, 1))]),
            "nonnegative": np.array([[1.2, -0.2], [0.5, 0.5]]),
            "finite": np.where(laws0 > 0.5, np.nan, laws0),
            "sum to 1": laws0 * (1.0 + 1e-10),
            "at least one member": np.zeros((0, 2)),
        }
        for match, rows in bad.items():
            with pytest.raises(ValueError, match=match):
                saddle_verify(net, [rows], [laws1])
            with pytest.raises(ValueError, match=match):
                saddle_verify(net, [laws0], [rows])
        with pytest.raises(ValueError, match="at least one member"):
            saddle_verify(net, [[]], [laws1])
        with pytest.raises(ValueError, match="one member-law array per sensor"):
            saddle_verify(net, [laws0, laws0], [laws1])

    def test_matches_full_grid_reference(self):
        """Per-sensor certificate and one-pass worst member against the
        full member grid, on random networks of every sensor kind whose
        member lists hold the LFD law. The one-pass search is exact when
        each sensor's members are totally ordered (not so for KL probes
        with more than two levels); otherwise its combo is a true witness."""
        rng = np.random.default_rng(20261018)
        exact = 0
        for _ in range(100):
            net, laws0, laws1 = _random_saddle_network(rng)
            report = saddle_verify(net, _rows(laws0), _rows(laws1))
            holds, dominance_ok, gaps = saddle_grid_reference(net, laws0, laws1)
            assert report.holds == holds
            assert report.dominance_ok == dominance_ok
            assert report.n_checked == len(gaps)
            at_combo = gaps[report.worst_side, report.worst_combo]
            assert abs(report.worst_gap - at_combo) <= 1e-12
            if all(
                _totally_ordered(ch, m0) and _totally_ordered(ch, m1)
                for ch, m0, m1 in zip(net.channels, laws0, laws1)
            ):
                exact += 1
                assert abs(at_combo - min(gaps.values())) <= 1e-12
        assert exact >= 50

    def test_certificate_implies_grid_dominance(self):
        """With arbitrary members the certificate may refuse a grid that
        holds (it speaks for the whole classes), but never passes one
        that fails."""
        rng = np.random.default_rng(20261020)
        for _ in range(40):
            net, laws0, laws1 = _random_saddle_network(rng, comparable=False)
            report = saddle_verify(net, _rows(laws0), _rows(laws1))
            holds, dominance_ok, gaps = saddle_grid_reference(net, laws0, laws1)
            assert dominance_ok or not report.dominance_ok
            assert holds or not report.holds
            at_combo = gaps[report.worst_side, report.worst_combo]
            assert abs(report.worst_gap - at_combo) <= 1e-12

    def test_matches_per_member_rebuild_reference(self):
        """The one-fold-per-sensor pass gives the verdicts, witness and side
        of the reference that folds a new LLR-sum law for every member
        trial, and its gap within 1e-14, on networks with +inf, -inf and
        tied LLRs, with and without comparable member lists."""
        rng = np.random.default_rng(20261118)
        seen = {"+inf": 0, "-inf": 0, "tie": 0, "violated": 0, "refused": 0}
        for comparable in (True, False):
            for _ in range(120):
                net, laws0, laws1 = _random_saddle_network(rng, comparable)
                got = saddle_verify(net, _rows(laws0), _rows(laws1))
                want = saddle_verify_rebuild(net, laws0, laws1)
                for name in ("holds", "dominance_ok", "worst_side", "worst_combo", "n_checked"):
                    assert getattr(got, name) == getattr(want, name), name
                for name in ("p_false_alarm_lfd", "p_miss_lfd"):
                    assert getattr(got, name) == clamped(getattr(want, name))
                assert abs(got.worst_gap - want.worst_gap) <= 1e-14
                llrs = np.concatenate([ch.llr for ch in net.channels])
                seen["+inf"] += bool(np.any(llrs == math.inf))
                seen["-inf"] += bool(np.any(llrs == -math.inf))
                seen["tie"] += any(len(np.unique(ch.llr)) < len(ch.llr) for ch in net.channels)
                seen["violated"] += got.worst_gap < -got.tol
                seen["refused"] += not got.dominance_ok
        assert min(seen.values()) >= 10, seen

    def test_dominance_rows_match_pairwise_check(self):
        """Each member's row of ``_dominance_gaps`` is the worst cdf gap of
        the pairwise check on signed LLR ranks, within 1e-14."""
        rng = np.random.default_rng(20261119)
        verdicts = set()
        for _ in range(60):
            net, laws0, laws1 = _random_saddle_network(rng, comparable=bool(rng.integers(2)))
            for ch, m0, m1 in zip(net.channels, laws0, laws1):
                rank = np.unique(ch.llr, return_inverse=True)[1]
                for sign, lfd_law, members in ((1, ch.pmf0, m0), (-1, ch.pmf1, m1)):
                    probs = np.array([m.probs for m in members])
                    gaps = fusion._dominance_gaps(sign * rank, lfd_law.probs, probs)
                    assert gaps.shape == (len(members),)
                    for gap, member in zip(gaps, members):
                        ok, worst = atoms_stochastically_larger(
                            AtomPmf(sign * rank, lfd_law.probs), AtomPmf(sign * rank, member.probs)
                        )
                        assert abs(gap - worst) <= 1e-14
                        verdicts.add(ok)
        assert verdicts == {True, False}


def _totally_ordered(ch, laws) -> bool:
    """Whether the member laws form a chain in LLR order."""
    rank = np.unique(ch.llr, return_inverse=True)[1]
    atoms = [AtomPmf(rank, law.probs) for law in laws]
    return all(
        atoms_stochastically_larger(a, b)[0] or atoms_stochastically_larger(b, a)[0]
        for a, b in itertools.combinations(atoms, 2)
    )


def _shift_mass(rng, probs, upward: bool):
    """Move random mass fractions up (or down) the levels: a law
    stochastically above (below) ``probs``."""
    out = probs.copy()
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(rng.choice(len(out), size=2, replace=False))
        src, dst = (i, j) if upward else (j, i)
        moved = out[src] * rng.uniform(0.0, 1.0)
        out[src] -= moved
        out[dst] += moved
    return out


def _explicit_saddle_sensor(rng, levels: int, n: int, comparable: bool):
    """Explicit channel with two equal-LLR levels, ±inf LLRs or levels out
    of LLR order at random; a finite-LLR level always keeps mass under both
    hypotheses. Members are the LFD law shifted step by step, mostly
    toward the safe side and sometimes the other way, so they are totally
    ordered; unless ``comparable``, some are arbitrary laws instead."""
    pmf0 = rng.dirichlet([2.0] * levels)
    pmf1 = pmf0 * np.exp(np.cumsum(rng.uniform(0.3, 1.2, levels)))
    if levels > 2 and rng.random() < 0.3:
        j = int(rng.integers(1, levels))  # levels j - 1 and j share one LLR
        pmf0[j], pmf1[j] = pmf0[j - 1], pmf1[j - 1]
    if levels > 2 and rng.random() < 0.3:
        pmf0[-1] = 0.0  # LLR +inf
    if levels > 2 and rng.random() < 0.3:
        pmf1[0] = 0.0  # LLR -inf
    pmf0, pmf1 = pmf0 / pmf0.sum(), pmf1 / pmf1.sum()

    def members(lfd, safe_upward):
        out, safe, unsafe = [], lfd, lfd
        while len(out) < n:
            if not comparable and rng.random() < 0.3:
                out.append(rng.dirichlet([1.0] * levels))
            elif rng.random() < 0.9:
                safe = _shift_mass(rng, safe, safe_upward)
                out.append(safe)
            else:
                unsafe = _shift_mass(rng, unsafe, not safe_upward)
                out.append(unsafe)
        return out

    m0, m1 = members(pmf0, False), members(pmf1, True)
    perm = rng.permutation(levels) if rng.random() < 0.3 else np.arange(levels)
    lv = list(range(levels))
    ch = channel_from_pmfs(pmf_from_weights(lv, pmf0[perm]), pmf_from_weights(lv, pmf1[perm]))
    return ch, [pmf_from_weights(lv, m[perm]) for m in m0], [
        pmf_from_weights(lv, m[perm]) for m in m1
    ]


def member_law(member, rule, levels=None) -> DiscretePmf:
    """One member's output law through ``rule``: the one-row case of
    ``member_laws`` (the probe oracle's, for a point-contaminated member),
    on ``levels`` (default all of the rule's levels)."""
    read = probe_member_laws if isinstance(member, ContaminatedGaussian) else member_laws
    row = read([member], rule, levels)[0]
    return DiscretePmf(tuple(range(len(row))) if levels is None else tuple(levels), row)


def _random_spec(rng, kind: str, levels: int) -> dict:
    """Scenario spec of a band, contamination or KL sensor with a default
    quantizer of ``levels`` levels."""
    sigma = float(rng.uniform(0.7, 1.4))
    gap = float(rng.uniform(0.6, 2.0)) * sigma
    if kind == "gaussian-band":
        widths = rng.uniform(0.2, 1.0, size=2)
        spec = {
            "kind": kind,
            "band0": {"mu_lo": -0.5 * gap - float(widths[0]), "mu_hi": -0.5 * gap},
            "band1": {"mu_lo": 0.5 * gap, "mu_hi": 0.5 * gap + float(widths[1])},
            "sigma": sigma,
        }
    else:
        radius = (0.01, 0.08) if kind == "eps-contamination" else (0.005, 0.04)
        spec = {
            "kind": kind,
            "nominal0": {"mean": -0.5 * gap, "sigma": sigma},
            "nominal1": {"mean": 0.5 * gap, "sigma": sigma},
            "eps0": float(rng.uniform(*radius)),
            "eps1": float(rng.uniform(*radius)),
        }
    spec["quantizer"] = {"num_thresholds": levels - 1}
    return spec


def _design_spec(rng, n: int) -> dict:
    """Cycles through band, contamination and KL specs of ``_random_spec``,
    a KL pair of unequal variances (quadratic log-LR) and a KL pair whose
    log-LR falls in y (nominal1 below nominal0)."""
    kind = ("gaussian-band", "eps-contamination", "kl-ball", "kl-quadratic", "kl-falling")[n % 5]
    if kind in ("gaussian-band", "eps-contamination", "kl-ball"):
        return _random_spec(rng, kind, 3)
    mean, sigma = float(rng.uniform(0.6, 1.6)), 1.0
    if kind == "kl-quadratic":
        sigma = float(rng.uniform(1.2, 2.0))
    else:
        mean = -mean
    return {
        "kind": "kl-ball",
        "nominal0": {"mean": 0.0, "sigma": 1.0},
        "nominal1": {"mean": mean, "sigma": sigma},
        "eps0": float(rng.uniform(0.005, 0.04)),
        "eps1": float(rng.uniform(0.005, 0.04)),
    }


def _random_tie_network(rng, k: int | None = None) -> NetworkModel:
    """K (2-7 unless given) band, contamination or explicit sensors with
    2-4 levels, all one channel (LLR sums tie up to float noise) or each
    its own."""

    def channel():
        levels = int(rng.integers(2, 5))
        if rng.random() < 0.3:
            ch, _, _ = _explicit_saddle_sensor(rng, levels, 1, True)
            return ch
        kind = ("gaussian-band", "eps-contamination")[int(rng.integers(2))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return build_sensor(_random_spec(rng, kind, levels), 0).channel

    k = int(rng.integers(2, 8)) if k is None else k
    if rng.random() < 0.5:
        return NetworkModel((channel(),) * k, 0.5)
    return NetworkModel(tuple(channel() for _ in range(k)), float(rng.uniform(0.3, 0.7)))


def _rows(laws_per_sensor):
    """Per-sensor lists of DiscretePmf member laws as the (members x levels)
    arrays that ``saddle_verify`` reads."""
    return [np.array([law.probs for law in laws]) for laws in laws_per_sensor]


def _random_saddle_network(rng, comparable: bool = True):
    """(net, laws0, laws1): K 1-3 sensors of any kind, 2-4 levels, 3-11
    members per sensor and hypothesis. With ``comparable`` every member
    list also holds the sensor's LFD law, at a random position."""
    kinds = ("gaussian-band", "kl-ball", "eps-contamination", "explicit-pmf")
    channels, laws0, laws1 = [], [], []
    for index in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(len(kinds)))]
        levels = int(rng.integers(2, 5))
        n = int(rng.integers(3, 12))
        if kind == "explicit-pmf":
            ch, m0, m1 = _explicit_saddle_sensor(rng, levels, n, comparable)
        else:
            spec = _random_spec(rng, kind, levels)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                built = build_sensor(spec, index)
                ch = built.channel
                m0, m1 = [], []
                for side, laws in enumerate((m0, m1)):
                    members = probe_members(built, side, n)
                    # KL probes are an n x (n - 2) family; keep at most n
                    keep = rng.choice(len(members), size=min(n, len(members)), replace=False)
                    laws += [member_law(members[j], built.rule, ch.levels) for j in np.sort(keep)]
        if comparable:
            m0.insert(int(rng.integers(len(m0) + 1)), ch.pmf0)
            m1.insert(int(rng.integers(len(m1) + 1)), ch.pmf1)
        channels.append(ch)
        laws0.append(m0)
        laws1.append(m1)
    return NetworkModel(tuple(channels), float(rng.uniform(0.3, 0.7))), laws0, laws1


class TestBestFusionThreshold:
    def test_sum_supports_identical_across_hypotheses(self):
        """Both hypotheses' LLR-sum laws share byte-identical atom arrays.

        Regression guard: a mass-dependent atom merge once placed the
        merged bulk atom of the H0 and H1 convolutions at positions
        differing by ~1e-34, and the threshold scan exploited that phantom
        separation to report a P_E far below the information-theoretic
        floor of the instance.
        """
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        chans = tuple(
            channel_from_quantizer(Quantizer((math.exp(s * 5.1),)), pair)
            for s in (-1.0, 1.0)
        )
        law0 = fold_laws(chans, [c.pmf0 for c in chans])
        law1 = fold_laws(chans, [c.pmf1 for c in chans])
        atoms = finite_sum(law0).atoms
        assert np.array_equal(atoms, finite_sum(law1).atoms)
        # the two-row fold carries that one support with a row per hypothesis
        law = fold_laws(chans, [c.pmf0 for c in chans], [c.pmf1 for c in chans])
        assert np.array_equal(finite_sum(law).atoms, atoms)
        assert finite_sum(law).masses.shape == (2, len(atoms))
        _, pe = best_fusion_threshold(law0, law1, 0.5)
        assert best_threshold(law, 0.5)[1] == pe
        # no quantized rule can beat the full-observation Bayes error
        bayes_floor = 1.0 - GaussianSpec(0.0, 1.0).cdf(0.5)
        assert pe >= bayes_floor - 1e-12

    def test_sum_without_finite_atom_has_one_candidate(self):
        """When some sensor has only ±inf levels the LLR sum has no finite
        atom; the scan and the designer's candidates are then 0.0 alone, and
        P_E is that of the forced decisions (here 0)."""
        for channels in ((_SURE,), (_SURE, _SURE), (SYM02, _SURE), (_SURE, SYM02, SYM02)):
            laws = ([ch.pmf0 for ch in channels], [ch.pmf1 for ch in channels])
            law0, law1 = (fold_laws(channels, laws[h]) for h in (0, 1))
            assert len(finite_sum(law0).atoms) == 0
            assert best_fusion_threshold(law0, law1, 0.3) == (0.0, 0.0)
            law = fold_laws(channels, *laws)
            candidates, p_e = threshold_errors(law, 0.3)
            assert candidates.tolist() == [0.0] and p_e.tolist() == [0.0]
            ((candidates, p_e),) = fusion._scan_rows(finite_sum(law), law.forced_one[None], 0.3)
            assert candidates.tolist() == [0.0] and p_e.tolist() == [0.0]
            assert exact_error(NetworkModel(channels, 0.3, 0.0)).p_error == 0.0

    def test_scan_steps_past_atoms_inside_the_tie_band(self):
        """Atoms within TIE_TOL of a candidate are ties and decide 0, so the
        scan's per-law search steps past them: a K=1 law with LLRs 5e-11
        apart and a merged K=2 law, scanned alone and as one batch. Every
        candidate's P_E equals ``prob_decide_one`` of its law."""
        rng = np.random.default_rng(20261019)
        single = AtomPmf(np.array([-0.7, 0.3, 0.3 + 5e-11, 1.2]), rng.random((2, 4)))
        a = AtomPmf(np.array([0.0, 1.0]), rng.random((2, 2)))
        b = AtomPmf(np.array([0.0, 1.0 + 5e-13, 2.0 + 1e-10]), rng.random((2, 3)))
        merged = ordering.convolve(a, b)  # 1 and 1 + 5e-13 merge; 2 + 5e-13 and 2 + 1e-10 stay
        assert len(merged.atoms) == 5
        prior0 = 0.4
        laws = (single, merged)
        for law in laws:
            assert np.diff(law.atoms).min() < TIE_TOL
        forced = rng.uniform(0.0, 0.1, (len(laws), 2))
        batch = AtomPmf._from_sorted(
            np.concatenate([law.atoms for law in laws]),
            np.concatenate([law.masses for law in laws], axis=1),
            np.repeat(np.arange(len(laws)), [len(law.atoms) for law in laws]),
        )
        scans = [fusion._scan_rows(law, f[None], prior0)[0] for law, f in zip(laws, forced)]
        for (candidates, p_e), (batched_candidates, batched_p_e) in zip(
            scans, fusion._scan_rows(batch, forced, prior0)
        ):
            assert np.array_equal(candidates, batched_candidates)
            assert np.array_equal(p_e, batched_p_e)
        for law, f, (candidates, p_e) in zip(laws, forced, scans):
            assert sorted(candidates) == [law.atoms[0] - 1.0, *law.atoms]
            for tau, got in zip(candidates, p_e):
                p_one = fusion.LlrSumLaw(fusion._POINT_ZERO, law, f).prob_decide_one(tau)
                assert got == prior0 * p_one[0] + (1.0 - prior0) * (1.0 - p_one[1])

    def test_scan_reads_each_law_as_llr_sum_law(self):
        """The one read of the tie-to-null rule: on seeded batches of ragged
        laws (no atom for a sensor with only ±inf levels, atoms within
        TIE_TOL of each other), each law's scan, batched or alone, equals
        ``LlrSumLaw(_POINT_ZERO, law, forced[r]).prob_decide_one`` at its
        candidates (its atoms and one below, 0.0 without atoms), in the same
        stable order, bit for bit."""
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            laws = []
            for _ in range(int(rng.integers(1, 7))):
                base = rng.integers(-12, 13, size=int(rng.integers(0, 20))) * 0.25
                n = min(len(base), 3)
                near = rng.choice(base, n) + rng.uniform(0.01, 1.5, n) * TIE_TOL
                atoms = np.unique(np.concatenate([base, near]))
                laws.append(AtomPmf(atoms, rng.random((2, len(atoms))) / max(len(atoms), 1)))
            forced = rng.uniform(0.0, 0.2, (len(laws), 2))
            prior0 = float(rng.uniform(0.2, 0.8))
            batch = AtomPmf._from_sorted(
                np.concatenate([law.atoms for law in laws]),
                np.concatenate([law.masses for law in laws], axis=1),
                np.repeat(np.arange(len(laws)), [len(law.atoms) for law in laws]),
            )
            scans = fusion._scan_rows(batch, forced, prior0)
            assert len(scans) == len(laws)
            for law, f, scan in zip(laws, forced, scans):
                alone = fusion._scan_rows(law, f[None], prior0)[0]
                candidates = np.r_[law.atoms[:1] - 1.0, law.atoms] if len(law.atoms) else np.zeros(1)
                p_one = fusion.LlrSumLaw(fusion._POINT_ZERO, law, f).prob_decide_one(candidates)
                p_e = prior0 * p_one[0] + (1.0 - prior0) * (1.0 - p_one[1])
                order = p_e.argsort(kind="stable")[: fusion._REPLY_TAUS]
                for got in (scan, alone):
                    assert np.array_equal(got[0], candidates[order])
                    assert np.array_equal(got[1], p_e[order])

    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ch = channel_from_pmfs(
                pmf_from_weights([0, 1, 2], rng.uniform(0.05, 1.0, 3)),
                pmf_from_weights([0, 1, 2], rng.uniform(0.05, 1.0, 3)),
            )
            prior0 = float(rng.uniform(0.2, 0.8))
            law0 = fold_laws((ch, ch), [ch.pmf0, ch.pmf0])
            law1 = fold_laws((ch, ch), [ch.pmf1, ch.pmf1])
            tau, pe = best_fusion_threshold(law0, law1, prior0)
            atoms = finite_sum(law0).atoms
            brute = min(
                exact_error(NetworkModel((ch, ch), prior0, float(t)), cross_check=False).p_error
                for t in np.concatenate([[atoms[0] - 1.0], atoms])
            )
            assert abs(pe - brute) < 1e-14
            report = exact_error(NetworkModel((ch, ch), prior0, tau))
            assert abs(report.p_error - pe) < 1e-14


class TestOptimizeThresholds:
    def test_single_sensor_symmetric_bayes(self):
        """One binary sensor on N(0,1)/N(1,1): threshold at LR = 1."""
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        result = optimize_thresholds([pair], [1], 0.5)
        assert result.converged
        assert abs(result.quantizers[0].thresholds[0] - 1.0) < 1e-3
        expected = 1.0 - GaussianSpec(0.0, 1.0).cdf(0.5)
        assert abs(result.report.p_error - expected) < 1e-9

    def test_matches_grid_search_oracle(self):
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        _, _, grid_pe = grid_search_thresholds([pair], [1], 0.5, points=101)
        result = optimize_thresholds([pair], [1], 0.5)
        assert result.report.p_error <= grid_pe + 1e-6

    def test_two_identical_sensors_symmetric_optimum(self):
        """The K=2 grid optimum takes equal thresholds on both sensors."""
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        conf, tau, grid_pe = grid_search_thresholds([pair, pair], [1, 1], 0.5, points=41)
        assert abs(conf[0][0] - conf[1][0]) < 1e-9
        assert grid_pe < 0.3085  # two designed sensors beat one
        result = optimize_thresholds([pair, pair], [1, 1], 0.5)
        assert result.report.p_error <= grid_pe + 1e-6
        t0, t1 = (q.thresholds[0] for q in result.quantizers)
        assert abs(t0 - t1) < 5e-3

    def test_dominant_prior_decides_blind(self):
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(0.2, 0.2, 1.0)
        )
        result = optimize_thresholds([pair], [1], 0.999)
        assert result.report.p_error <= 0.001 + 1e-12

    def test_scale_limits_enforced(self):
        pair = gaussian_band_lfd(
            GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0)
        )
        with pytest.raises(ValueError):
            optimize_thresholds([pair], [5], 0.5)

    def test_inputs_validated_before_designing(self, monkeypatch):
        """No sensors, threshold counts that are not whole numbers in 1..4,
        a count list of the wrong length and a prior outside (0, 1) each
        raise ValueError before any start descends."""

        def no_design(*args):
            raise AssertionError("designed before validating")

        monkeypatch.setattr(fusion, "_descend", no_design)
        cases = [
            ([], [], "at least one sensor"),
            ([BAND_PAIR], [], "one threshold count per sensor"),
            ([BAND_PAIR], [-1], "1 to 4 thresholds each"),
            ([BAND_PAIR], [0], "1 to 4 thresholds each"),
            ([BAND_PAIR], [1.5], "whole numbers"),
            ([BAND_PAIR], [math.nan], "whole numbers"),
            ([BAND_PAIR], ["2"], "whole numbers"),
        ]
        for pairs, num_levels, match in cases:
            with pytest.raises(ValueError, match=match):
                optimize_thresholds(pairs, num_levels, 0.5)
        for prior0 in (0.0, 1.0, -0.2, math.nan):
            with pytest.raises(ValueError, match="prior0"):
                optimize_thresholds([BAND_PAIR], [1], prior0)

    def test_sweep_limit_returns_the_best_found(self, monkeypatch):
        """With the sweep limit at 1, every start stops unconverged: the
        design warns how many starts hit the limit, reports
        ``converged=False`` and returns the lowest-P_E start, as the
        starts' own descents find it."""
        pairs = [BAND_PAIR, gaussian_band_lfd(BAND0, GaussianBandClass(0.5, 1.5, 1.0))]
        monkeypatch.setattr(fusion, "_MAX_SWEEPS", 1)
        objective = fusion._ThresholdObjective(pairs, 0.5)
        descents = [fusion._descend(objective, conf) for conf in fusion._starts(objective, [2, 1])]
        assert not any(descent.converged for descent in descents)
        best = min(descents, key=lambda descent: descent.p_error)
        message = f"hit the sweep limit on {len(descents)} of {len(descents)} starts"
        with pytest.warns(UserWarning, match=message):
            result = optimize_thresholds(pairs, [2, 1], 0.5)
        assert not result.converged
        assert result.sweeps == len(descents)
        assert result.log_threshold == best.tau
        assert result.report.p_error == pytest.approx(best.p_error, abs=1e-12)
        for q, coords in zip(result.quantizers, best.conf):
            assert q.thresholds == tuple(math.exp(t) for t in coords)
        assert result.best_response_gain >= 0.0


def _random_design(rng):
    """(pairs, prior0, conf, brackets): K 1-4 band, contamination or KL
    sensors with 2-4 levels, and sorted random log thresholds inside each
    sensor's log-LR range (its bracket, as in ``optimize_thresholds``)."""
    kinds = ("gaussian-band", "eps-contamination", "kl-ball")
    pairs, conf, brackets = [], [], []
    for index in range(int(rng.integers(1, 5))):
        kind = kinds[int(rng.integers(len(kinds)))]
        levels = int(rng.integers(2, 5))
        pair = build_lfd_pair(_random_spec(rng, kind, levels), index)
        lo, hi = pair.log_lr_range()
        pairs.append(pair)
        conf.append(sorted(float(v) for v in rng.uniform(lo, hi, size=levels - 1)))
        brackets.append((lo, hi))
    return pairs, float(rng.uniform(0.3, 0.7)), conf, brackets


def _rising(values) -> bool:
    """True when ``values`` increase strictly, as a quantizer's thresholds must."""
    return all(a < b for a, b in zip(values, values[1:]))


class TestThresholdObjective:
    def test_matches_full_rebuild_reference(self):
        """The memoized objective equals a from-scratch rebuild bit for
        bit along probe sequences that move one coordinate at a time, jump
        between sensors, repeat a configuration, break a sensor's threshold
        order or build a channel whose per-level LLR falls (a KL tail at
        extreme thresholds); an invalid quantizer of either kind gives inf."""
        rng = np.random.default_rng(20261021)
        kinds, invalid, unbuildable, probes = set(), 0, 0, 0
        for _ in range(24):
            pairs, prior0, conf, brackets = _random_design(rng)
            kinds.update(pair.meta["kind"] for pair in pairs)
            objective = fusion._ThresholdObjective(pairs, prior0)
            i = 0
            for _ in range(30):
                trial = [list(c) for c in conf]
                if rng.random() < 0.6:
                    i = int(rng.integers(len(pairs)))  # jump to another sensor
                d = int(rng.integers(len(trial[i])))
                u = rng.random()
                if u < 0.15 and d > 0:
                    trial[i][d] = trial[i][d - 1] - float(rng.uniform(0.0, 0.5))
                elif u > 0.1:
                    lo = trial[i][d - 1] if d > 0 else brackets[i][0]
                    hi = trial[i][d + 1] if d + 1 < len(trial[i]) else brackets[i][1]
                    trial[i][d] = float(rng.uniform(lo, hi))
                got = objective.evaluate(trial)
                assert got == full_rebuild_objective(pairs, prior0, trial)
                probes += 1
                if got[0] == math.inf:
                    invalid += 1
                    unbuildable += all(_rising([math.exp(t) for t in c]) for c in trial)
                elif rng.random() < 0.3:
                    conf = trial
        assert kinds == {"gaussian-band", "huber", "kl-dabak"}
        assert invalid >= 20 and probes - invalid >= 500
        assert unbuildable >= 1

    def test_each_sensor_design_is_built_once_per_call(self, monkeypatch):
        """One ``optimize_thresholds`` call builds each distinct (sensor,
        thresholds) channel at most once, the returned design's included:
        later sweeps, later starts and the certificate sweep reuse them.
        Every build of the designer goes through the per-rule builder."""
        rng = np.random.default_rng(20261022)
        original = fusion._rule_channel
        builds = {}

        def counting(pair, thresholds):
            key = (id(pair), thresholds)
            builds[key] = builds.get(key, 0) + 1
            return original(pair, thresholds)

        monkeypatch.setattr(fusion, "_rule_channel", counting)
        for kinds, num_levels in (
            (("gaussian-band", "eps-contamination", "gaussian-band"), [2, 2, 2]),
            (("eps-contamination", "gaussian-band"), [3, 1]),
        ):
            pairs = [build_lfd_pair(_random_spec(rng, kind, 3), i) for i, kind in enumerate(kinds)]
            builds.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = optimize_thresholds(pairs, num_levels, 0.5)
            assert len(builds) > 3 * len(pairs)
            assert max(builds.values()) == 1
            for pair, q in zip(pairs, result.quantizers):
                assert builds[(id(pair), q.thresholds)] == 1


    def test_batched_replies_equal_one_at_a_time(self):
        """Every scan of a reply batch equals the full rebuild of its
        configuration (best P_E and threshold), and its whole reply list the
        scan of its two-row law folded alone; every batched channel and its
        part equal ``channel_from_quantizer``'s bit for bit. K = 1-5 band,
        contamination and KL sensors (affine log-LR, quadratic, and
        decreasing in y), with replies whose LR thresholds round to one
        value, that drop a zero-mass level, that have a +inf or a -inf LLR
        level, or whose per-level LLR falls (that reply alone scores None, as
        an invalid quantizer)."""
        rng = np.random.default_rng(20261201)
        seen = Counter()
        for n in range(60):
            k = 1 + n % 5
            specs = [_design_spec(rng, 4 * n + j) for j in range(k)]
            if n % 4 == 0:  # a KL sensor whose reply (4.48, 4.49) has LLRs out of order
                specs[0] = FALLING_KL_SPEC
            pairs = [build_lfd_pair(spec, j) for j, spec in enumerate(specs)]
            seen.update(pair.meta["kind"] + type(pair.log_lr).__name__ for pair in pairs)
            prior0 = float(rng.uniform(0.3, 0.7))
            brackets = [pair.log_lr_range() for pair in pairs]
            conf = [sorted(rng.uniform(lo, hi, size=2).tolist()) for lo, hi in brackets]
            if full_rebuild_objective(pairs, prior0, conf)[0] == math.inf:
                continue
            i = 0 if n % 4 == 0 else int(rng.integers(k))
            (lo, hi), pair = brackets[i], pairs[i]
            x = y = 0.0
            while math.exp(y) != math.exp(x) or x == y:  # two log thresholds, one LR
                x = float(rng.uniform(max(lo, -1.0), min(hi, 1.0)))
                y = float(np.nextafter(x, math.inf))
            replies = [tuple(sorted(rng.uniform(lo, hi, size=2).tolist())) for _ in range(4)]
            replies += [(x, y), (0.0, hi + 3.0), (lo - 3.0, 0.0), (lo + 0.01, 0.0)]
            replies += [(4.48, 4.49)] if n % 4 == 0 else []
            want = []
            for reply in replies:
                trial = [list(c) for c in conf]
                trial[i] = list(reply)
                want.append(full_rebuild_objective(pairs, prior0, trial))
            objective = fusion._ThresholdObjective(pairs, prior0)
            lrs = [tuple(math.exp(t) for t in c) for c in conf]
            reply_lrs = [tuple(math.exp(t) for t in reply) for reply in replies]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                scans = objective._score(i, lrs, reply_lrs)
            parts = [objective.build(j, c).part for j, c in enumerate(conf)]
            for j, scan in enumerate(scans):
                if scan is None:
                    assert want[j] == (math.inf, 0.0)
                    seen["unbuildable" if _rising(reply_lrs[j]) else "invalid"] += 1
                    continue
                assert (float(scan[1][0]), float(scan[0][0])) == want[j]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    alone = channel_from_quantizer(Quantizer(reply_lrs[j]), pair)
                got = objective._built[i, reply_lrs[j]]
                assert got.levels == alone.levels
                for a, b in ((got.pmf0.probs, alone.pmf0.probs), (got.pmf1.probs, alone.pmf1.probs),
                             (got.llr, alone.llr)):
                    assert np.array_equal(a, b)
                for a, b in (
                    (got.part.finite.atoms, alone.part.finite.atoms),
                    (got.part.finite.masses, alone.part.finite.masses),
                    (got.part.no_minus, alone.part.no_minus),
                    (got.part.finite_mass, alone.part.finite_mass),
                ):
                    assert np.array_equal(a, b)
                trial = parts[:i] + [alone.part] + parts[i + 1 :]
                law = fusion.LlrSumLaw(
                    fusion._POINT_ZERO, convolve_many([p.finite for p in trial]), fusion._forced_one(trial)
                )
                taus, p_e = threshold_errors(law, prior0)
                order = np.argsort(p_e, kind="stable")[: fusion._REPLY_TAUS]
                assert np.array_equal(scan[0], taus[order]) and np.array_equal(scan[1], p_e[order])
                seen["dropped"] += len(got.levels) < 3
                seen["+inf"] += bool(np.any(got.llr == math.inf))
                seen["-inf"] += bool(np.any(got.llr == -math.inf))
                seen[f"K={k}"] += 1
        assert all(seen[f"K={k}"] >= 20 for k in range(1, 6)), seen
        assert min(seen[key] for key in ("invalid", "dropped", "+inf", "-inf", "unbuildable")) >= 3, seen
        kinds = ("gaussian-bandClippedAffineLlr", "huberClippedAffineLlr", "kl-dabakClippedAffineLlr")
        assert all(seen[kind] for kind in kinds) and seen["kl-dabakQuadraticLlr"], seen

    def test_best_response_scores_its_replies_in_one_batch(self, monkeypatch):
        """A best response with R new replies builds each once, carries them
        through the left fold as one batch and reads all R scans in one
        pass: the work does not grow with R."""
        rng = np.random.default_rng(20261202)
        kinds = ("gaussian-band", "eps-contamination", "gaussian-band", "kl-ball")
        pairs = [build_lfd_pair(_random_spec(rng, kind, 3), j) for j, kind in enumerate(kinds)]
        conf = [[-0.5, 0.5] for _ in pairs]
        counts = Counter()

        def counting(name, fn, size):
            def wrapped(*args):
                counts[name] += 1
                counts[name + " rows"] += size(*args)
                return fn(*args)

            return wrapped

        originals = (fusion._rule_channel, fusion._scan_rows, ordering.convolve)
        for i in range(len(pairs)):
            objective = fusion._ThresholdObjective(pairs, 0.5)
            objective.evaluate(conf)
            with monkeypatch.context() as patch:
                patch.setattr(fusion, "_rule_channel", counting("build", originals[0], lambda *_: 1))
                scan = counting("scan", originals[1], lambda fold, forced, prior0: len(forced))
                patch.setattr(fusion, "_scan_rows", scan)
                batch = lambda a, b: int(a.rows is not None or b.rows is not None)
                convolve = counting("convolve", originals[2], batch)
                patch.setattr(fusion, "convolve", convolve)
                patch.setattr(ordering, "convolve", convolve)
                counts.clear()
                objective.best_response(i, conf)
            assert counts["scan rows"] >= 2
            assert counts["scan"] == 1
            assert counts["build"] == counts["scan rows"]  # every new reply is built, once
            # the batch joins the fold of the sensors before i, then each later one
            assert counts["convolve rows"] == len(pairs) - max(i, 1)

    def test_forced_one_over_a_batch_part(self):
        """``_forced_one`` with a batch part (``_batch_part``) at any
        position gives each reply's forced-1 masses bit for bit as its part
        alone, and the batch's finite law holds each reply's atoms and mass
        rows as law r; explicit sensors with +inf and -inf levels, batches
        of 1-5 replies among 0-3 other sensors."""
        rng = np.random.default_rng(20261206)

        def part():
            return _explicit_saddle_sensor(rng, int(rng.integers(2, 5)), 1, True)[0].part

        forced = 0
        for _ in range(200):
            others = [part() for _ in range(int(rng.integers(0, 4)))]
            replies = [part() for _ in range(int(rng.integers(1, 6)))]
            i = int(rng.integers(len(others) + 1))
            batch = fusion._batch_part(replies)
            got = fusion._forced_one(others[:i] + [batch] + others[i:])
            assert got.shape == (len(replies), 2)
            for r, reply in enumerate(replies):
                assert np.array_equal(got[r], fusion._forced_one(others[:i] + [reply] + others[i:]))
                mine = slice(None) if batch.finite.rows is None else batch.finite.rows == r
                assert np.array_equal(batch.finite.atoms[mine], reply.finite.atoms)
                assert np.array_equal(batch.finite.masses[:, mine], reply.finite.masses)
            forced += bool(np.any(got > 0.0))
        assert forced >= 20

    def test_level_rows_match_enumeration(self):
        """a[h, t, d] = P_h(fuse 1 | sensor i sends level d) equals enumeration
        with sensor i pinned at level d, on explicit channels with +inf and
        -inf levels mixed with band and contamination sensors, at every raw
        sum, 5e-13 either side of it and inside its tie band."""
        rng = np.random.default_rng(20261105)
        columns = {-math.inf: 0, math.inf: 0}
        for _ in range(80):
            channels = []
            for _ in range(int(rng.integers(1, 5))):
                levels = int(rng.integers(2, 5))
                if rng.random() < 0.6:
                    channels.append(_explicit_saddle_sensor(rng, levels, 1, True)[0])
                    continue
                kind = ("gaussian-band", "eps-contamination")[int(rng.integers(2))]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    channels.append(build_sensor(_random_spec(rng, kind, levels), 0).channel)
            i = int(rng.integers(len(channels)))
            llr = channels[i].llr
            others = [ch.part for j, ch in enumerate(channels) if j != i]  # an H0 and an H1 row
            for h in (0, 1):
                laws = [ch.pmf0 if h == 0 else ch.pmf1 for ch in channels]
                sums, _, has_pos, has_neg = joint_llr_sums(channels, laws)
                raw = np.unique(sums[~has_pos & ~has_neg])
                taus = np.concatenate(
                    [raw, raw - 5e-13, raw + 5e-13, raw - 0.5 * TIE_TOL, raw - 1.5 * TIE_TOL]
                )
                a = fusion._fuse_one_given_level(others, llr, taus)
                assert a.shape == (2, len(taus), len(llr))
                a = a[h]
                for d in range(len(llr)):
                    pinned = list(laws)
                    pinned[i] = pmf_from_weights(channels[i].levels, np.eye(len(llr))[d])
                    want = decide_one_enumeration(channels, pinned, taus)
                    assert np.max(np.abs(a[:, d] - want)) <= 1e-12
                    for t in rng.choice(len(taus), size=3):
                        assert abs(
                            a[t, d] - _enumerated(channels, pinned, taus[t])
                        ) <= 1e-12
                    if llr[d] in columns:
                        columns[llr[d]] += 1
        assert min(columns.values()) >= 10


def _line_argmin_changes(a0, a1, prior0, xs):
    """Where on the log-LR grid ``xs`` the cheapest level changes."""
    cost = prior0 * a0[None, :] - (1.0 - prior0) * np.exp(xs)[:, None] * a1[None, :]
    best = np.argmin(cost, axis=1)
    return xs[1:][best[1:] != best[:-1]]


def _design_problems() -> list[tuple[str, list, list[int], float, float]]:
    """(id, pairs, num_levels, prior0, recorded P_E) of the 16 fixed design
    problems of perfbench's design workload (prior 0.5)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "design_problems.json"
    problems = json.loads(path.read_text(encoding="utf-8"))
    return [
        (
            problem["id"],
            [build_lfd_pair(s, i) for i, s in enumerate(problem["sensors"])],
            problem["num_levels"],
            0.5,
            problem["p_error"],
        )
        for shape in problems.values()
        for problem in shape
    ]


def _seeded_designs() -> list[tuple[str, list, list[int], float, float]]:
    """Eight K=1-4 band, contamination and KL networks of ``_random_design``,
    drawn once from a fixed seed, each in the form of ``_design_problems``
    with no recorded P_E."""
    rng = np.random.default_rng(20261106)
    designs = []
    for n in range(8):
        pairs, prior0, conf, _ = _random_design(rng)
        designs.append((f"seeded-{n}", pairs, [len(c) for c in conf], prior0, math.inf))
    return designs


def _record_design(monkeypatch, pairs, num_levels, prior0):
    """(result, starts): ``optimize_thresholds`` with ``_descend``, ``_sweep``
    and the objective's ``evaluate`` wrapped. Each start is (the objective's
    brackets, events): ("evaluate", configuration, P_E) for an evaluation
    outside a sweep (the start itself, then the Anderson candidates; P_E is
    inf for an invalid configuration) and ("sweep", P_E in, P_E out)."""
    descend, sweep, evaluate = fusion._descend, fusion._sweep, fusion._ThresholdObjective.evaluate
    starts = []
    inside = []  # non-empty while a sweep runs or after the start returned

    def recording_descend(objective, conf):
        starts.append((objective.brackets, []))
        inside.clear()
        out = descend(objective, conf)
        inside.append("done")
        return out

    def recording_sweep(objective, conf):
        pe_in = evaluate(objective, conf)[0]
        inside.append("sweep")
        try:
            pe_out, tau = sweep(objective, conf)
        finally:
            inside.pop()
        if not inside:
            starts[-1][1].append(("sweep", pe_in, pe_out))
        return pe_out, tau

    def recording_evaluate(objective, conf):
        if inside:
            return evaluate(objective, conf)
        event = ["evaluate", [list(c) for c in conf], math.inf]
        starts[-1][1].append(event)
        out = evaluate(objective, conf)
        event[2] = out[0]
        return out

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setattr(fusion, "_descend", recording_descend)
        patch.setattr(fusion, "_sweep", recording_sweep)
        patch.setattr(fusion._ThresholdObjective, "evaluate", recording_evaluate)
        result = optimize_thresholds(pairs, num_levels, prior0)
    return result, starts


def _check_descents(result, starts) -> tuple[int, int]:
    """Asserts that every start's accepted iterates never rise in P_E, that
    each sweep starts from the last accepted iterate, and that every
    evaluated candidate keeps each sensor's log thresholds strictly
    increasing inside its bracket; returns (accepted, rejected) candidates.
    The result's counters must match the recording."""
    sweeps = accepted = rejected = 0
    for brackets, events in starts:
        kind, _, current = events[0]  # the start itself
        assert kind == "evaluate"
        for kind, a, b in events[1:]:
            if kind == "sweep":
                assert a == current
                assert b <= a
                current = b
                sweeps += 1
                continue
            for coords, (lo, hi) in zip(a, brackets):
                assert lo < coords[0] and coords[-1] < hi
                assert all(x < y for x, y in zip(coords, coords[1:]))
            if b < current:
                current = b
                accepted += 1
            else:
                rejected += 1
    assert (result.sweeps, result.accelerated) == (sweeps, accepted)
    return accepted, rejected


class TestPersonByPerson:
    BAND = gaussian_band_lfd(GaussianBandClass(0.0, 0.0, 1.0), GaussianBandClass(1.0, 1.0, 1.0))

    def test_envelope_cuts_match_grid_argmin(self):
        """Without the escape (num=0) the cuts are exactly where the
        cheapest level changes on a fine log-LR grid."""
        rng = np.random.default_rng(20261101)
        xs = np.linspace(-3.0, 3.0, 60001)
        for _ in range(200):
            levels = int(rng.integers(2, 6))
            a0 = np.sort(rng.uniform(0.0, 1.0, levels))
            a1 = np.sort(rng.uniform(0.0, 1.0, levels))
            prior0 = float(rng.uniform(0.2, 0.8))
            (cuts,) = fusion._envelope_cuts(np.array([[a0, a1]]), prior0, (-3.0, 3.0), 0)
            changes = _line_argmin_changes(a0, a1, prior0, xs)
            assert len(cuts) == len(changes)
            assert np.all(np.abs(np.array(cuts) - changes) <= 1e-4 + 1e-12)

    @pytest.mark.parametrize("levels", [2, 3, 4, 5])
    def test_envelope_kernel_matches_the_row_loop(self, levels):
        """All maps at once give, bit for bit, the replies of the row-by-row
        loop: seeded rows with ties in a1, equal a0 (NaN crossings),
        unsorted rows, and brackets that drop crossings (the fill path)."""
        rng = np.random.default_rng(20261112 + levels)
        filled = 0
        for _ in range(300):
            rows = int(rng.integers(1, 17))
            if rng.random() < 0.5:
                a = rng.integers(0, 4, size=(rows, 2, levels)) / 4.0
            else:
                a = rng.uniform(0.0, 1.0, size=(rows, 2, levels))
            if rng.random() < 0.7:
                a.sort(axis=2)
            prior0 = float(rng.uniform(0.1, 0.9))
            lo = float(rng.uniform(-4.0, 0.0))
            bracket = (lo, lo + float(rng.uniform(0.1, 5.0)))
            num = int(rng.integers(0, levels))
            got = fusion._envelope_cuts(a, prior0, bracket, num)
            assert len(got) == rows
            for r in range(rows):
                want = envelope_cuts_loop(a[r, 0], a[r, 1], prior0, bracket, num)
                assert got[r] == want
                filled += len(envelope_cuts_loop(a[r, 0], a[r, 1], prior0, bracket, 0)) < num
        assert filled > 0

    def test_repeated_best_response_is_memoized(self, monkeypatch):
        """A repeated best response runs no scan and no envelope kernel, and
        equals the reply of a fresh objective."""
        pairs = [self.BAND, BAND_PAIR]
        conf = [[-0.4, 0.3], [0.2]]
        objective = fusion._ThresholdObjective(pairs, 0.5)
        first = objective.best_response(0, conf)
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(fusion, "_envelope_cuts", counting("kernel", fusion._envelope_cuts))
        monkeypatch.setattr(objective, "_score", counting("scan", objective._score))
        again = objective.best_response(0, [list(c) for c in conf])
        assert not counts
        assert again == first
        monkeypatch.undo()
        assert fusion._ThresholdObjective(pairs, 0.5).best_response(0, conf) == first

    def test_design_brackets_hold_a_quadratic_vertex(self):
        """An unequal-variance KL sensor's bracket is its whole log-LR range,
        up to the quadratic's vertex, not the log-LR at the support ends
        (there the KL sensor was designed useless, at P_E 0.30854)."""
        scenario = load_scenario(
            Path(__file__).resolve().parent.parent / "scenarios" / "kl_unequal_variance.json"
        )
        pairs = [built.pair for built in build_sensors(scenario)]
        result = optimize_thresholds(pairs, [1, 1], scenario.prior0)
        assert result.converged
        assert result.report.p_error <= 0.2808

    def test_refused_quantile_start_is_skipped(self):
        """When the log-LR turns between two equal-mixture quantiles,
        ``default_quantizer`` refuses them; the design runs from the other
        two starts instead of raising."""
        pair = build_lfd_pair(
            {
                "kind": "kl-ball",
                "nominal0": {"mean": 0.0, "sigma": 1.0},
                "nominal1": {"mean": 1.0, "sigma": 2.0},
                "eps0": 0.03,
                "eps1": 0.03,
            },
            0,
        )
        with pytest.raises(ValueError, match="could not place increasing default thresholds"):
            default_quantizer(pair, 4)
        objective = fusion._ThresholdObjective([pair], 0.5)
        assert len(fusion._starts(objective, [4])) == 2
        result = optimize_thresholds([pair], [4], 0.5)
        assert result.converged and result.best_response_gain < 1e-12
        centered, _ = fusion._starts(objective, [4])
        assert result.report.p_error <= objective.evaluate(centered)[0]

    @pytest.mark.parametrize(
        ("specs", "num_levels", "prior0", "p_error", "cause"),
        [
            (
                [
                    _nominal_spec("kl-ball", -0.0445, 0.5684, 1.3365, 0.0168, 0.0207),
                    _nominal_spec("kl-ball", -0.1145, 1.4169, 0.7706, 0.0224, 0.008),
                    _nominal_spec("eps-contamination", -0.5657, 1.2749, 1.2769, 0.007, 0.0285),
                ],
                [2, 3, 4],
                0.2228,
                0.115345,
                "unbuildable",
            ),
            (
                [
                    {
                        "kind": "gaussian-band",
                        "band0": {"mu_lo": -0.779, "mu_hi": -0.479},
                        "band1": {"mu_lo": 2.013, "mu_hi": 2.313},
                        "sigma": 1.017,
                    },
                    _nominal_spec("kl-ball", -0.282, 0.301, 1.324, 0.024, 0.024),
                ],
                [3, 4],
                0.635,
                0.104570,
                "narrow",
            ),
        ],
        ids=["unbuildable-kl-reply", "narrow-kl-bracket"],
    )
    def test_design_finishes(self, monkeypatch, specs, num_levels, prior0, p_error, cause):
        """Designs that once stopped: a reply batch that holds a KL channel
        whose per-level LLR falls (it scores inf, the batch's other replies
        are scored), and a KL sensor whose log-LR bracket is narrower than
        the random start's 0.1 margins (the margin shrinks to a quarter of
        the bracket). Each converges, certified, at or below every start."""
        pairs = [build_lfd_pair(spec, j) for j, spec in enumerate(specs)]
        build, unbuildable = fusion._rule_channel, []

        def counting(pair, thresholds):
            channel = build(pair, thresholds)
            if channel is None and all(b > a for a, b in zip(thresholds, thresholds[1:])):
                unbuildable.append(thresholds)
            return channel

        monkeypatch.setattr(fusion, "_rule_channel", counting)
        result, starts = _record_design(monkeypatch, pairs, num_levels, prior0)
        _check_descents(result, starts)
        assert result.converged and result.best_response_gain < 1e-12
        assert result.report.p_error == pytest.approx(p_error, abs=1e-6)
        for _, events in starts:
            kind, _, start_pe = events[0]
            assert kind == "evaluate" and result.report.p_error <= start_pe + 1e-12
        widths = [hi - lo for lo, hi in starts[0][0]]
        assert bool(unbuildable) == (cause == "unbuildable")
        assert (min(widths) < 0.2) == (cause == "narrow")

    def test_invalid_start_ends_at_once(self, monkeypatch):
        """A start whose channel is unbuildable scores inf and ends with no
        sweep; added to the starts, it changes nothing in the design."""
        pairs = [BAND_PAIR, build_lfd_pair(FALLING_KL_SPEC, 1)]
        unbuildable = [[-0.5, 0.5], [0.0, 4.48, 4.49]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            objective = fusion._ThresholdObjective(pairs, 0.5)
            assert fusion._descend(objective, unbuildable) == (unbuildable, math.inf, 0.0, True, 0, 0)
            want = optimize_thresholds(pairs, [2, 3], 0.5)
            starts = fusion._starts
            monkeypatch.setattr(fusion, "_starts", lambda *args: [unbuildable, *starts(*args)])
            assert optimize_thresholds(pairs, [2, 3], 0.5) == want

    def test_dropped_level_warns_nothing(self, monkeypatch):
        """A contamination pair whose log LR is clipped at +/-0.265 has no
        mass above the LR = 1 start's top threshold (log LR 0.5): that
        build drops its top level, and no warning escapes the design, which
        converges. (Replies lie inside the clip levels and keep theirs.)"""
        pair = build_lfd_pair(_nominal_spec("eps-contamination", -0.3, 0.3, 1.0, 0.1, 0.1), 0)
        build, dropped = fusion._rule_channel, []

        def counting(pair, thresholds):
            channel = build(pair, thresholds)
            if channel is not None and len(channel.levels) <= len(thresholds):
                dropped.append(thresholds)
            return channel

        monkeypatch.setattr(fusion, "_rule_channel", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = optimize_thresholds([pair], [3], 0.5)
        assert not caught
        assert dropped == [tuple(math.exp(t) for t in (-0.5, 0.0, 0.5))]
        assert result.converged and result.best_response_gain < 1e-12

    @pytest.mark.parametrize("prior0", [0.3, 0.5, 0.7])
    def test_collapse_escape_keeps_every_level(self, prior0):
        """Two thresholds never do worse than one: a reply that collapses
        to one breakpoint gets its second threshold back by a split."""
        contamination = build_lfd_pair(
            {
                "kind": "eps-contamination",
                "nominal0": {"mean": 0.0, "sigma": 1.0},
                "nominal1": {"mean": 1.0, "sigma": 1.0},
                "eps0": 0.05,
                "eps1": 0.05,
            },
            0,
        )
        for pair in (self.BAND, BAND_PAIR, contamination):
            one = optimize_thresholds([pair], [1], prior0)
            two = optimize_thresholds([pair], [2], prior0)
            assert len(two.quantizers[0].thresholds) == 2
            assert two.report.p_error <= one.report.p_error + 1e-12

    def test_sweeps_never_raise_error(self):
        """P_E never rises from one sweep to the next, on random band,
        contamination and KL networks from random thresholds."""
        rng = np.random.default_rng(20261102)
        sweeps = 0
        while sweeps < 60:
            pairs, prior0, conf, _ = _random_design(rng)
            if len(pairs) > 3:
                continue
            objective = fusion._ThresholdObjective(pairs, prior0)
            pe, _ = objective.evaluate(conf)
            if pe == math.inf:
                continue
            for _ in range(4):
                swept, _ = fusion._sweep(objective, conf)
                assert swept <= pe
                assert objective.evaluate(conf)[0] == swept
                pe = swept
                sweeps += 1

    def test_certificate_sees_a_perturbed_design(self):
        """A returned design has no person-by-person gain left; shifting one
        of its thresholds by 0.05 in log-LR leaves a gain one sweep finds."""
        rng = np.random.default_rng(20261103)
        kinds = ("gaussian-band", "eps-contamination")
        pairs = [build_lfd_pair(_random_spec(rng, kind, 3), i) for i, kind in enumerate(kinds)]
        result = optimize_thresholds(pairs, [2, 1], 0.5)
        assert result.converged
        assert 0.0 <= result.best_response_gain < 1e-12
        for i, d in ((0, 0), (0, 1), (1, 0)):
            conf = [[math.log(t) for t in q.thresholds] for q in result.quantizers]
            conf[i][d] += 0.05
            objective = fusion._ThresholdObjective(pairs, 0.5)
            pe, _ = objective.evaluate(conf)
            swept, _ = fusion._sweep(objective, conf)
            assert pe - swept > 1e-6

    def test_reply_set_is_bounded_and_holds_the_current_test(self, monkeypatch):
        """However many atoms the sum has, a best response scores at most
        _REPLY_TAUS replies, and one is the reply to the current best
        fusion threshold (the person-by-person step proper)."""
        rng = np.random.default_rng(20261104)
        kinds = ("gaussian-band", "eps-contamination") * 3
        pairs = [build_lfd_pair(_random_spec(rng, kind, 3), i) for i, kind in enumerate(kinds)]
        conf = [[-0.5, 0.5] for _ in pairs]
        objective = fusion._ThresholdObjective(pairs, 0.5)
        score = objective._score
        scored = []

        def recording(i, conf, replies):
            scored.extend(replies)
            return score(i, conf, replies)

        monkeypatch.setattr(objective, "_score", recording)
        for i in range(len(pairs)):
            _, tau = objective.evaluate(conf)
            builds = [objective.build(j, coords) for j, coords in enumerate(conf)]
            laws = ([b.pmf0 for b in builds], [b.pmf1 for b in builds])
            atoms = finite_sum(fold_laws(builds, *laws)).atoms  # one support, both rows
            assert len(atoms) > 4 * fusion._REPLY_TAUS
            others = [b.part for b in builds[:i] + builds[i + 1 :]]
            a = fusion._fuse_one_given_level(others, builds[i].llr, np.array([tau]))[:, 0]
            (current,) = fusion._envelope_cuts(a[None], 0.5, objective.brackets[i], len(conf[i]))
            scored.clear()
            _, _, coords = objective.best_response(i, conf)
            assert len(scored) <= 1 + fusion._REPLY_TAUS  # the start, then the replies
            assert tuple(math.exp(t) for t in current) in scored  # scored as LR thresholds
            conf[i] = list(coords)

    def test_design_problems_at_or_below_recorded(self, monkeypatch):
        """The 16 fixed benchmark design problems end at or below their
        recorded P_E, their quantile start and the plain person-by-person
        loop (within 1e-12), converged with the certificate below 1e-12, in
        at most 350 sweeps in all where the plain loop takes 496, and with
        the safeguard's invariants kept."""
        problems = _design_problems()
        sweeps = plain_sweeps = 0
        for name, pairs, d, prior0, recorded in problems:
            result, starts = _record_design(monkeypatch, pairs, d, prior0)
            _check_descents(result, starts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                start = [
                    [math.log(t) for t in default_quantizer(p, n).thresholds]
                    for p, n in zip(pairs, d)
                ]
                start_pe, _ = fusion._ThresholdObjective(pairs, prior0).evaluate(start)
                _, _, plain_pe, _, plain = plain_person_by_person(pairs, d, prior0)
            assert result.report.p_error <= recorded + 1e-12, name
            assert result.report.p_error <= start_pe + 1e-12, name
            assert result.report.p_error <= plain_pe + 1e-12, name
            assert result.converged and result.best_response_gain < 1e-12, name
            sweeps += result.sweeps
            plain_sweeps += plain
        assert len(problems) == 16
        assert plain_sweeps == 496 and sweeps <= 350


class TestAndersonDesign:
    def test_step_lands_on_fixed_point_of_rank_one_affine_map(self):
        """On x -> A x + b with A = c u v^T a contraction, the iterates
        after one map lie on the line through the fixed point along u, so
        one step from two pairs lands on the fixed point."""
        rng = np.random.default_rng(20261107)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            u, v, b = rng.normal(size=(3, n))
            a = float(rng.uniform(-0.95, 0.95)) / (u @ v) * np.outer(u, v)
            fixed = np.linalg.solve(np.eye(n) - a, b)
            x1 = a @ rng.normal(size=n) + b
            x2 = a @ x1 + b
            step = fusion._anderson_step([x1, x2], [x2, a @ x2 + b])
            assert np.max(np.abs(step - fixed)) <= 1e-12 * max(1.0, np.max(np.abs(fixed)))

    def test_zero_residual_difference_gives_no_step(self):
        """Two pairs with one residual leave nothing to extrapolate from:
        no step, and no division by zero."""
        x, d, f = np.array([0.1, 0.4]), np.array([0.3, -0.2]), np.array([0.05, 0.02])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fusion._anderson_step([x, x + d], [x + f, x + d + f]) is None
            assert fusion._anderson_step([x, x], [x, x]) is None

    def test_screen_scores_only_ordered_buildable_candidates(self, monkeypatch):
        """A candidate is scored only when every sensor's log thresholds rise
        strictly inside its bracket, and one whose channel is unbuildable (a
        KL tail out of LLR order) scores inf, as the objective scores it,
        while ``channel_from_quantizer`` still refuses that channel."""
        kl = build_lfd_pair(FALLING_KL_SPEC, 0)
        pairs = [BAND_PAIR, kl]
        brackets = [pair.log_lr_range() for pair in pairs]
        (lo, hi), (kl_lo, kl_hi) = brackets
        objective = fusion._ThresholdObjective(pairs, 0.5)
        evaluate = objective.evaluate
        scored = []

        def recording(conf):
            scored.append(conf)
            return evaluate(conf)

        monkeypatch.setattr(objective, "evaluate", recording)
        valid = [[-0.5, 0.5], [-1.0, 0.0, 1.0]]
        assert fusion._screened_error(objective, valid) == evaluate(valid)
        for conf in (
            [[lo, 0.5], [-1.0, 0.0, 1.0]],
            [[-0.5, hi], [-1.0, 0.0, 1.0]],
            [[-0.5, 0.5], [kl_lo - 1.0, 0.0, 1.0]],
            [[-0.5, 0.5], [-1.0, 1.0, kl_hi + 1.0]],
            [[0.5, -0.5], [-1.0, 0.0, 1.0]],
            [[-0.5, 0.5], [-1.0, 0.0, 0.0]],
        ):
            scored.clear()
            assert fusion._screened_error(objective, conf) == (math.inf, 0.0)
            assert not scored
        unbuildable = [[-0.5, 0.5], [0.0, 4.48, 4.49]]
        assert evaluate(unbuildable) == (math.inf, 0.0)
        scored.clear()
        assert fusion._screened_error(objective, unbuildable) == (math.inf, 0.0)
        assert scored == [unbuildable]
        q = Quantizer(tuple(math.exp(t) for t in unbuildable[1]))
        with pytest.raises(RuntimeError, match="per-level LLR is not nondecreasing"):
            channel_from_quantizer(q, kl)

    def test_seeded_networks_converge_under_the_safeguard(self, monkeypatch):
        """Seeded K=1-4 band, contamination and KL networks: every design
        converges with a certificate below 1e-12, the P_E of accepted
        iterates never rises and no candidate leaves its bracket or breaks
        threshold order."""
        accepted = rejected = 0
        kinds = set()
        for name, pairs, num_levels, prior0, _ in _seeded_designs():
            kinds.update(pair.meta["kind"] for pair in pairs)
            result, starts = _record_design(monkeypatch, pairs, num_levels, prior0)
            assert result.converged and result.best_response_gain < 1e-12, name
            counts = _check_descents(result, starts)
            accepted += counts[0]
            rejected += counts[1]
        assert kinds == {"gaussian-band", "huber", "kl-dabak"}
        assert accepted > 0 and rejected > 0


class TestKSweep:
    def test_binomial_tail_values(self):
        """Odd-K majority errors: 0.2, 0.104, 0.05792, 0.033344."""
        results = k_sweep(SYM02, [1, 3, 5, 7], 0.5)
        expected = [0.2, 0.104, 0.05792, 0.033344]
        for (k, report), value in zip(results, expected):
            assert abs(report.p_error - value) < 1e-12

    def test_single_sensor_is_template_bayes_error(self):
        results = k_sweep(SYM02, [1], 0.5)
        assert abs(results[0][1].p_error - 0.2) < 1e-12

    def test_nonincreasing_over_odd_k(self):
        results = k_sweep(SYM02, [1, 3, 5, 7, 9, 11, 13, 15], 0.5)
        errors = [r.p_error for _, r in results]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_matches_per_k_exact_error(self):
        """Unsorted counts with a repeat equal one exact_error per K, for a
        4-level band template and a template with ±inf LLR levels."""
        band = channel_from_quantizer(default_quantizer(BAND_PAIR, 3), BAND_PAIR)
        sentinel = channel_from_pmfs(
            pmf_from_weights([0, 1, 2, 3], [0.3, 0.4, 0.3, 0.0]),
            pmf_from_weights([0, 1, 2, 3], [0.0, 0.3, 0.4, 0.3]),
        )
        ks = [7, 1, 40, 3, 40, 2]
        for template, prior0, log_threshold in ((band, 0.4, None), (sentinel, 0.5, 0.1)):
            results = k_sweep(template, ks, prior0, log_threshold)
            assert [k for k, _ in results] == ks
            for k, report in results:
                net = NetworkModel((template,) * k, prior0, log_threshold)
                expected = exact_error(net, cross_check=False)
                assert report.method == expected.method
                for name in ("p_false_alarm", "p_miss", "p_error"):
                    assert abs(getattr(report, name) - getattr(expected, name)) <= 1e-12

    def test_running_products_equal_forced_one(self, monkeypatch):
        """For K = 1..200 the forced-1 mass equals ``_forced_one`` of K
        copies of the template's part, with ==, for SYM02, a template with
        ±inf LLR levels and a 4-level band template."""
        built, law = [], fusion.LlrSumLaw

        def recording(left, right, forced_one):
            built.append(forced_one)
            return law(left, right, forced_one)

        monkeypatch.setattr(fusion, "LlrSumLaw", recording)
        band = channel_from_quantizer(default_quantizer(BAND_PAIR, 3), BAND_PAIR)
        sentinel = channel_from_pmfs(
            pmf_from_weights([0, 1, 2, 3], [0.3, 0.4, 0.3, 0.0]),
            pmf_from_weights([0, 1, 2, 3], [0.0, 0.3, 0.4, 0.3]),
        )
        for template in (SYM02, band, sentinel):
            built.clear()
            k_sweep(template, range(200, 0, -1), 0.5)
            assert len(built) == 200
            for k, forced_one in enumerate(built, start=1):
                assert np.array_equal(forced_one, fusion._forced_one([template.part] * k)), k

    def test_folds_once_for_all_counts(self, monkeypatch):
        """K = 1..200 costs one fold, for both hypotheses, up to K = 100."""
        sizes = _record_convolutions(monkeypatch)
        results = k_sweep(SYM02, range(1, 201), 0.5)
        assert len(results) == 200
        assert len(sizes) <= 100

    def test_counts_validated_before_folding(self, monkeypatch):
        sizes = _record_convolutions(monkeypatch)
        with pytest.raises(ValueError, match=">= 1"):
            k_sweep(SYM02, [3, 40, 0], 0.5)
        for ks in ([2.7], [3, 2.5], [math.nan], ["4"]):
            with pytest.raises(ValueError, match="whole numbers"):
                k_sweep(SYM02, ks, 0.5)
        assert sizes == []
        assert k_sweep(SYM02, [2.0, np.int64(3)], 0.5) == k_sweep(SYM02, [2, 3], 0.5)

    def test_uninformative_template_rejected(self):
        flat = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.5, 0.5]), pmf_from_weights([0, 1], [0.5, 0.5])
        )
        with pytest.raises(ValueError, match="uninformative"):
            k_sweep(flat, [1, 3], 0.5)


class TestMonteCarlo:
    def test_agrees_with_exact_at_binomial_scale(self):
        net = NetworkModel((SYM02,) * 3, 0.5)
        report = monte_carlo(net, 10**6, 20260809)
        assert abs(report.p_error - 0.104) < 0.0013
        assert report.ci_halfwidth < 0.002

    def test_same_seed_identical_reports(self):
        net = NetworkModel((SYM02,) * 3, 0.5)
        a = monte_carlo(net, 10**4, 7)
        b = monte_carlo(net, 10**4, 7)
        assert a == b

    def test_halfwidth_scales_with_sqrt_n(self):
        net = NetworkModel((SYM02,) * 3, 0.5)
        small = monte_carlo(net, 10**4, 1)
        large = monte_carlo(net, 10**6, 1)
        ratio = small.ci_halfwidth / large.ci_halfwidth
        assert 7.0 < ratio < 14.0

    def test_sample_floor_enforced(self):
        net = NetworkModel((SYM02,), 0.5)
        with pytest.raises(ValueError):
            monte_carlo(net, 100, 0)


def _in_unit_interval(*probabilities) -> bool:
    return all(0.0 <= p <= 1.0 for p in probabilities)


class TestOneReport:
    """``exact_error``, ``k_sweep``, ``monte_carlo`` and the LFD fields of
    ``saddle_verify`` form P_F, P_M and P_E in one place: both errors in
    [0, 1], and P_E their prior-weighted sum."""

    def test_k_sweep_stays_in_unit_interval_at_large_k(self):
        """The (0.8, 0.2) / (0.2, 0.8) template at prior0 0.5: from K = 130
        on, P(decide 1 | H1) rounds above 1 (unclamped P_M -1.15e-14 at
        K = 200), yet every P_F, P_M and P_E lies in [0, 1]."""
        for k, report in k_sweep(SYM02, [150, 199, 200, 400], 0.5):
            assert _in_unit_interval(report.p_false_alarm, report.p_miss, report.p_error), k

    def test_colliding_networks_stay_in_unit_interval(self):
        """On 60 networks with ±inf levels and colliding sums, where the
        forced-1 mass, a difference of two products, can round below 0
        (unclamped P_F -2.2e-16), every field of ``exact_error`` (both
        readers), ``k_sweep`` of the first sensor and ``monte_carlo``, and
        the LFD fields of ``saddle_verify``, lie in [0, 1]."""
        rng = np.random.default_rng(20261108)
        for _ in range(60):
            net, members0, members1 = _colliding_network(rng)
            reports = [
                exact_error(net),
                exact_error(net, method="enumeration"),
                monte_carlo(net, 10**4, 1),
                *(r for _, r in k_sweep(net.channels[0], [1, 2, 7], net.prior0)),
            ]
            for r in reports:
                assert _in_unit_interval(r.p_false_alarm, r.p_miss, r.p_error), r
            got = saddle_verify(net, members0, members1)
            assert _in_unit_interval(got.p_false_alarm_lfd, got.p_miss_lfd), got

    def test_error_is_the_prior_weighted_sum(self):
        """On seeded networks with ±inf and tied LLRs, with ==: P_E is
        prior0 * P_F + (1 - prior0) * P_M for ``exact_error`` (both
        readers), ``k_sweep`` and ``monte_carlo``, and the LFD P_F and P_M
        of ``saddle_verify`` are those of ``exact_error``."""
        rng = np.random.default_rng(20261301)
        seen = Counter()
        for _ in range(40):
            net, members0, members1 = _colliding_network(rng)
            llrs = np.concatenate([ch.llr for ch in net.channels])
            seen["infinite"] += bool(np.any(np.isinf(llrs)))
            seen["tie"] += len(np.unique(llrs)) < len(llrs)
            exact = exact_error(net, cross_check=False)
            reports = [
                exact,
                exact_error(net, method="enumeration", cross_check=False),
                monte_carlo(net, 10**4, int(rng.integers(1000))),
                *(r for _, r in k_sweep(net.channels[0], [1, 3, 6], net.prior0, net.log_threshold)),
            ]
            for r in reports:
                assert r.p_error == net.prior0 * r.p_false_alarm + (1.0 - net.prior0) * r.p_miss
            got = saddle_verify(net, members0, members1)
            assert (got.p_false_alarm_lfd, got.p_miss_lfd) == (exact.p_false_alarm, exact.p_miss)
        assert min(seen.values()) >= 10, seen
