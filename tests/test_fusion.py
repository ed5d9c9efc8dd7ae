"""Fusion center: decisions, exact errors, saddle, optimizer, sweeps."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from robust_fusion import fusion, ordering
from robust_fusion.distributions import AtomPmf, DiscretePmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import CdfMember, GaussianBandClass, gaussian_band_lfd
from robust_fusion.fusion import (
    TIE_TOL,
    NetworkModel,
    _prob_decide_one_enumeration,
    best_fusion_threshold,
    exact_error,
    fuse,
    k_sweep,
    llr_sum_law,
    monte_carlo,
    optimize_thresholds,
    saddle_verify,
)
from robust_fusion.scenario import build_lfd_pair, build_sensor
from robust_fusion.sensor import (
    Quantizer,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    default_quantizer,
    llr_monotone_check,
    member_channel,
)

from _oracles import (
    atoms_stochastically_larger,
    binomial_majority_error,
    decide_one_enumeration,
    enumerate_error_probs,
    full_rebuild_objective,
    grid_search_thresholds,
    joint_llr_sums,
    saddle_grid_reference,
    saddle_verify_rebuild,
    tail_mass,
)

SYM02 = channel_from_pmfs(
    pmf_from_weights([0, 1], [0.8, 0.2]), pmf_from_weights([0, 1], [0.2, 0.8])
)
BAND0 = GaussianBandClass(-1.0, 0.0, 1.0)
BAND1 = GaussianBandClass(1.0, 2.0, 1.0)
BAND_PAIR = gaussian_band_lfd(BAND0, BAND1)


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


class TestExactError:
    def test_majority_three_sensors(self):
        """K=3 binary sensors with 0.2 symmetric error: P_E = 0.104."""
        net = NetworkModel((SYM02,) * 3, 0.5)
        report = exact_error(net, method="enumeration")
        assert abs(report.p_error - 0.104) < 1e-12
        conv = exact_error(net, method="convolution")
        assert abs(conv.p_error - report.p_error) < 1e-10
        assert abs(conv.p_false_alarm - binomial_majority_error(3, 0.2)) < 1e-13

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
        lfd0 = llr_sum_law(net.channels, [ch.pmf0, ch.pmf0]).finite
        lfd1 = llr_sum_law(net.channels, [ch.pmf1, ch.pmf1]).finite
        for mu in np.linspace(-1.0, 0.0, 5):
            law = member_channel(GaussianSpec(float(mu), 1.0), SensorRule(BAND_PAIR, q))
            member = llr_sum_law(net.channels, [law, law]).finite
            assert atoms_stochastically_larger(lfd0, member)[0]
        for mu in np.linspace(1.0, 2.0, 5):
            law = member_channel(GaussianSpec(float(mu), 1.0), SensorRule(BAND_PAIR, q))
            member = llr_sum_law(net.channels, [law, law]).finite
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

            want = saddle_verify(net, laws0, laws1)
            got = saddle_verify(
                moved,
                [[relabel(m, perm) for m in ms] for ms, perm in zip(laws0, perms)],
                [[relabel(m, perm) for m in ms] for ms, perm in zip(laws1, perms)],
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
            law = llr_sum_law(net.channels, laws)
            convolved = law.forced_one + above(law.finite.atoms, law.finite.masses)
            assert np.max(np.abs(convolved - enumerated)) <= 1e-12
            for tau in rng.choice(taus, size=5):
                assert abs(
                    law.prob_decide_one(tau)
                    - _prob_decide_one_enumeration(net.channels, laws, tau)
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
            law = llr_sum_law(net.channels, laws)
            split = np.array([law.prob_decide_one(tau) for tau in taus])
            enumerated = decide_one_enumeration(net.channels, laws, taus)
            assert np.max(np.abs(split - enumerated)) <= 1e-12
            finite = law.finite
            convolved = [law.forced_one + tail_mass(finite, tau + TIE_TOL) for tau in taus]
            assert np.max(np.abs(split - convolved)) <= 1e-12
            for tau in rng.choice(taus, size=3):
                assert abs(
                    law.prob_decide_one(tau)
                    - _prob_decide_one_enumeration(net.channels, laws, tau)
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
            law = llr_sum_law(net.channels, laws)
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
                    - _prob_decide_one_enumeration(net.channels, laws, tau)
                ) <= 1e-12
        assert edges >= 100

    def test_array_thresholds_match_float_thresholds(self):
        """``prob_decide_one`` on an array of thresholds gives each float
        threshold's value, on split laws of 1-6 sensors."""
        rng = np.random.default_rng(20261106)
        for _ in range(40):
            net = _random_tie_network(rng, int(rng.integers(1, 7)))
            law = llr_sum_law(net.channels, [ch.pmf0 for ch in net.channels])
            taus = np.concatenate([law.finite.atoms, law.finite.atoms - 5e-13, [0.0]])
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
            law = llr_sum_law(net.channels, laws)
            split = [law.prob_decide_one(tau) for tau in taus]
            assert np.max(np.abs(split - enumerated)) <= 1e-12


class TestSaddleVerify:
    def _member_laws(self, pair, q, n):
        laws0 = [member_channel(m, SensorRule(pair, q)) for m in BAND0.members(n)]
        laws1 = [member_channel(m, SensorRule(pair, q)) for m in BAND1.members(n)]
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
        law0 = [member_channel(CdfMember(BAND_PAIR.q0_cdf), SensorRule(BAND_PAIR, q))]
        law1 = [member_channel(CdfMember(BAND_PAIR.q1_cdf), SensorRule(BAND_PAIR, q))]
        report = saddle_verify(net, [law0, law0], [law1, law1])
        assert report.holds
        assert report.worst_gap == 0.0

    def test_witness_ignores_rounding_noise(self):
        """A member whose gap is below the least only by rounding noise does
        not take the witness: the first member within WITNESS_TOL does."""
        ch = channel_from_pmfs(
            pmf_from_weights([0, 1], [0.6, 0.4]), pmf_from_weights([0, 1], [0.3, 0.7])
        )
        net = NetworkModel((ch,), 0.5)
        noisy = DiscretePmf((0, 1), np.array([0.6 - 2e-16, 0.4 + 2e-16]))
        report = saddle_verify(net, [[ch.pmf0, noisy]], [[ch.pmf1]])
        assert report.worst_gap == 0.0
        assert report.worst_combo == (0,)
        report = saddle_verify(net, [[noisy, ch.pmf0]], [[ch.pmf1]])
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
        laws0 = [member_channel(m, SensorRule(wrong_pair, q)) for m in BAND0.members(11)]
        laws1 = [member_channel(m, SensorRule(wrong_pair, q)) for m in BAND1.members(11)]
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
            report = saddle_verify(net, laws0, laws1)
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
            report = saddle_verify(net, laws0, laws1)
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
                got = saddle_verify(net, laws0, laws1)
                want = saddle_verify_rebuild(net, laws0, laws1)
                for name in ("holds", "dominance_ok", "worst_side", "worst_combo", "n_checked"):
                    assert getattr(got, name) == getattr(want, name), name
                for name in ("p_false_alarm_lfd", "p_miss_lfd"):
                    assert getattr(got, name) == getattr(want, name)
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
                    members = built.members(side, n)
                    # KL probes are an n x (n - 2) family; keep at most n
                    keep = rng.choice(len(members), size=min(n, len(members)), replace=False)
                    laws += [member_channel(members[j], built.rule, ch.levels) for j in np.sort(keep)]
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
        law0 = llr_sum_law(chans, [c.pmf0 for c in chans])
        law1 = llr_sum_law(chans, [c.pmf1 for c in chans])
        assert np.array_equal(law0.finite.atoms, law1.finite.atoms)
        _, pe = best_fusion_threshold(law0, law1, 0.5)
        # no quantized rule can beat the full-observation Bayes error
        bayes_floor = 1.0 - GaussianSpec(0.0, 1.0).cdf(0.5)
        assert pe >= bayes_floor - 1e-12

    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ch = channel_from_pmfs(
                pmf_from_weights([0, 1, 2], rng.uniform(0.05, 1.0, 3)),
                pmf_from_weights([0, 1, 2], rng.uniform(0.05, 1.0, 3)),
            )
            prior0 = float(rng.uniform(0.2, 0.8))
            law0 = llr_sum_law((ch, ch), [ch.pmf0, ch.pmf0])
            law1 = llr_sum_law((ch, ch), [ch.pmf1, ch.pmf1])
            tau, pe = best_fusion_threshold(law0, law1, prior0)
            atoms = law0.finite.atoms
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
        lo, hi = (float(pair.log_lr(y)) for y in pair.support)
        pairs.append(pair)
        conf.append(sorted(float(v) for v in rng.uniform(lo, hi, size=levels - 1)))
        brackets.append((lo, hi))
    return pairs, float(rng.uniform(0.3, 0.7)), conf, brackets


def _outcome(fn, *args):
    """fn(*args), or ("raised", message) for a channel build that fails
    its LLR-monotonicity check (KL tails at extreme thresholds do)."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        return "raised", str(exc)


class TestThresholdObjective:
    def test_matches_full_rebuild_reference(self):
        """The memoized objective equals a from-scratch rebuild bit for
        bit along probe sequences that move one coordinate at a time, jump
        between sensors, repeat a configuration or break a sensor's
        threshold order (which must give inf)."""
        rng = np.random.default_rng(20261021)
        kinds, invalid, probes = set(), 0, 0
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
                got = _outcome(objective.evaluate, trial)
                assert got == _outcome(full_rebuild_objective, pairs, prior0, trial)
                probes += 1
                if got[0] == math.inf:
                    invalid += 1
                elif got[0] != "raised" and rng.random() < 0.3:
                    conf = trial
        assert kinds == {"gaussian-band", "huber", "kl-dabak"}
        assert invalid >= 20 and probes - invalid >= 500

    def test_each_sensor_design_is_built_once_per_call(self, monkeypatch):
        """One ``optimize_thresholds`` call builds each distinct (sensor,
        thresholds) channel at most once, the returned design's included:
        later sweeps, later starts and the certificate sweep reuse them."""
        rng = np.random.default_rng(20261022)
        original = fusion.channel_from_quantizer
        builds = {}

        def counting(q, pair, *args, **kwargs):
            key = (id(pair), q.thresholds)
            builds[key] = builds.get(key, 0) + 1
            return original(q, pair, *args, **kwargs)

        monkeypatch.setattr(fusion, "channel_from_quantizer", counting)
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


    def test_level_rows_match_enumeration(self):
        """a[t, d] = P_h(fuse 1 | sensor i sends level d) equals enumeration
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
            for h in (0, 1):
                laws = [ch.pmf0 if h == 0 else ch.pmf1 for ch in channels]
                others = [
                    fusion._sensor_part(ch.llr, law.probs)
                    for j, (ch, law) in enumerate(zip(channels, laws))
                    if j != i
                ]
                sums, _, has_pos, has_neg = joint_llr_sums(channels, laws)
                raw = np.unique(sums[~has_pos & ~has_neg])
                taus = np.concatenate(
                    [raw, raw - 5e-13, raw + 5e-13, raw - 0.5 * TIE_TOL, raw - 1.5 * TIE_TOL]
                )
                a = fusion._fuse_one_given_level(others, llr, taus)
                assert a.shape == (len(taus), len(llr))
                for d in range(len(llr)):
                    pinned = list(laws)
                    pinned[i] = pmf_from_weights(channels[i].levels, np.eye(len(llr))[d])
                    want = decide_one_enumeration(channels, pinned, taus)
                    assert np.max(np.abs(a[:, d] - want)) <= 1e-12
                    for t in rng.choice(len(taus), size=3):
                        assert abs(
                            a[t, d] - _prob_decide_one_enumeration(channels, pinned, taus[t])
                        ) <= 1e-12
                    if llr[d] in columns:
                        columns[llr[d]] += 1
        assert min(columns.values()) >= 10


def _line_argmin_changes(a0, a1, prior0, xs):
    """Where on the log-LR grid ``xs`` the cheapest level changes."""
    cost = prior0 * a0[None, :] - (1.0 - prior0) * np.exp(xs)[:, None] * a1[None, :]
    best = np.argmin(cost, axis=1)
    return xs[1:][best[1:] != best[:-1]]


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
            cuts = fusion._envelope_cuts(a0, a1, prior0, (-3.0, 3.0), 0)
            changes = _line_argmin_changes(a0, a1, prior0, xs)
            assert len(cuts) == len(changes)
            assert np.all(np.abs(np.array(cuts) - changes) <= 1e-4 + 1e-12)

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
            pairs, prior0, conf, brackets = _random_design(rng)
            if len(pairs) > 3:
                continue
            objective = fusion._ThresholdObjective(pairs, prior0)
            pe = _outcome(objective.evaluate, conf)[0]
            if pe in (math.inf, "raised"):
                continue
            for _ in range(4):
                swept, _ = fusion._sweep(objective, conf, brackets)
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
        brackets = [tuple(float(pair.log_lr(y)) for y in pair.support) for pair in pairs]
        for i, d in ((0, 0), (0, 1), (1, 0)):
            conf = [[math.log(t) for t in q.thresholds] for q in result.quantizers]
            conf[i][d] += 0.05
            objective = fusion._ThresholdObjective(pairs, 0.5)
            pe, _ = objective.evaluate(conf)
            swept, _ = fusion._sweep(objective, conf, brackets)
            assert pe - swept > 1e-6

    def test_reply_set_is_bounded_and_holds_the_current_test(self, monkeypatch):
        """However many atoms the sum has, a best response scores at most
        _REPLY_TAUS replies, and one is the reply to the current best
        fusion threshold (the person-by-person step proper)."""
        rng = np.random.default_rng(20261104)
        kinds = ("gaussian-band", "eps-contamination") * 3
        pairs = [build_lfd_pair(_random_spec(rng, kind, 3), i) for i, kind in enumerate(kinds)]
        brackets = [tuple(float(pair.log_lr(y)) for y in pair.support) for pair in pairs]
        conf = [[-0.5, 0.5] for _ in pairs]
        objective = fusion._ThresholdObjective(pairs, 0.5)
        evaluate = objective.evaluate
        scored = []

        def recording(trial):
            scored.append(tuple(trial[i]))
            return evaluate(trial)

        monkeypatch.setattr(objective, "evaluate", recording)
        for i in range(len(pairs)):
            _, tau = evaluate(conf)
            law0, law1 = objective.laws(conf)
            atoms = np.union1d(law0.finite.atoms, law1.finite.atoms)
            assert len(atoms) > 4 * fusion._REPLY_TAUS
            builds = [objective.build(j, coords) for j, coords in enumerate(conf)]
            others = builds[:i] + builds[i + 1 :]
            a0, a1 = (
                fusion._fuse_one_given_level(
                    [b.parts[h] for b in others], builds[i].channel.llr, np.array([tau])
                )[0]
                for h in (0, 1)
            )
            current = fusion._envelope_cuts(a0, a1, 0.5, brackets[i], len(conf[i]))
            scored.clear()
            _, _, coords = objective.best_response(i, conf, brackets[i])
            assert len(scored) <= 1 + fusion._REPLY_TAUS  # the start, then the replies
            assert current in scored
            conf[i] = list(coords)

    def test_design_problems_at_or_below_recorded(self):
        """The 16 fixed benchmark design problems end at or below their
        recorded P_E (the benchmark's own 1e-9 gate) and at or below their
        quantile start, with the certificate below 1e-12."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "design_problems.json"
        problems = json.loads(path.read_text(encoding="utf-8"))
        prior0 = 0.5  # the design workload's prior
        count = 0
        for shape in problems.values():
            for problem in shape:
                pairs = [build_lfd_pair(s, i) for i, s in enumerate(problem["sensors"])]
                d = problem["num_levels"]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = optimize_thresholds(pairs, d, prior0)
                    start = [
                        [math.log(t) for t in default_quantizer(p, n).thresholds]
                        for p, n in zip(pairs, d)
                    ]
                    start_pe, _ = fusion._ThresholdObjective(pairs, prior0).evaluate(start)
                assert result.report.p_error <= problem["p_error"] + 1e-9, problem["id"]
                assert result.report.p_error <= start_pe + 1e-12, problem["id"]
                assert result.converged and result.best_response_gain < 1e-12
                count += 1
        assert count == 16


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

    def test_folds_once_for_all_counts(self, monkeypatch):
        """K = 1..200 costs one fold per hypothesis up to K = 100."""
        sizes = _record_convolutions(monkeypatch)
        results = k_sweep(SYM02, range(1, 201), 0.5)
        assert len(results) == 200
        assert len(sizes) <= 2 * 100

    def test_counts_validated_before_folding(self, monkeypatch):
        sizes = _record_convolutions(monkeypatch)
        with pytest.raises(ValueError, match=">= 1"):
            k_sweep(SYM02, [3, 40, 0], 0.5)
        assert sizes == []

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
