"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; the expected values come from
independent oracles (quadrature, analytic KL formulas, binomial tails,
direct enumeration), not from the code paths under test: the KL radii of
criterion 3 are checked with ``_oracles.gaussian_kl``, not with the
formula that the tilt solve inverts.
"""

import math
import time

import numpy as np

from robust_fusion.distributions import AtomPmf, GaussianSpec, pmf_from_weights
from robust_fusion.lfd import (
    GaussianBandClass,
    KlBallClass,
    gaussian_band_lfd,
    joint_boundedness_check,
    kl_dabak_lfd,
)
from robust_fusion.fusion import NetworkModel, exact_error, k_sweep, monte_carlo, saddle_verify
from robust_fusion.ordering import convolve_many
from robust_fusion.sensor import (
    Quantizer,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    member_laws,
)

from _oracles import (
    affinity_fit,
    atoms_stochastically_larger,
    band_members,
    binomial_majority_error,
    gaussian_kl,
    ordered_pmf_pair,
    probe_boundedness_check,
    pushforward,
    random_nondecreasing_map,
)

BAND0 = GaussianBandClass(-1.0, 0.0, 1.0)
BAND1 = GaussianBandClass(1.0, 2.0, 1.0)
STD = GaussianSpec(0.0, 1.0)
SHIFTED = GaussianSpec(1.0, 1.0)
SYM02 = channel_from_pmfs(
    pmf_from_weights([0, 1], [0.8, 0.2]), pmf_from_weights([0, 1], [0.2, 0.8])
)


def _report(n, name, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS [{detail}]")


def test_criterion_1_band_boundedness():
    """Mean-band classes: LFD pair bounded over 21 members and over the
    whole bands, 101 thresholds."""
    start = time.perf_counter()
    pair = gaussian_band_lfd(BAND0, BAND1)
    t_grid = np.linspace(-8.0, 8.0, 101)
    report = probe_boundedness_check(pair, band_members(BAND0, 21), band_members(BAND1, 21), t_grid)
    whole = joint_boundedness_check(pair, BAND0, BAND1, t_grid)
    elapsed = time.perf_counter() - start
    assert report.holds
    assert report.worst_violation <= 1e-9
    assert whole.holds and whole.worst_violation == 0.0
    assert elapsed < 5.0
    _report(1, "band boundedness", f"worst={report.worst_violation:.2e} {elapsed:.2f}s")


def test_criterion_2_kl_ball_falsification():
    """Geometric-mixture pair: exact tilts, affine LR, boundedness fails on
    probes and, at least as badly, over the whole balls."""
    start = time.perf_counter()
    pair = kl_dabak_lfd(STD, SHIFTED, 0.08, 0.08)
    # analytic oracle: u = sigma * sqrt(2 eps) / delta-mean = 0.4
    assert abs(pair.meta["u"] - 0.4) < 1e-6
    assert abs(pair.meta["v"] - 0.4) < 1e-6
    slope, residual = affinity_fit(pair, STD, SHIFTED)
    assert residual < 1e-8
    assert abs(slope - 0.2) < 1e-6
    ball0, ball1 = KlBallClass(STD, 0.08), KlBallClass(SHIFTED, 0.08)
    t_grid = np.linspace(-2.5, 2.5, 101)
    report = probe_boundedness_check(pair, ball0.members(11, SHIFTED), ball1.members(11, STD), t_grid)
    whole = joint_boundedness_check(pair, ball0, ball1, t_grid)
    elapsed = time.perf_counter() - start
    assert not report.holds
    assert report.witness is not None
    assert not whole.holds
    assert whole.worst_violation >= report.worst_violation
    assert elapsed < 10.0
    _report(
        2,
        "KL-ball falsification",
        f"u=v={pair.meta['u']:.6f} slope={slope:.6f} "
        f"witness gap={report.witness.gap:.2e} {elapsed:.2f}s",
    )


def test_criterion_3_kl_round_trip():
    """Solved tilts reproduce their KL radii for 20 random radius pairs."""
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(20):
        eps0, eps1 = (float(v) for v in rng.uniform(1e-6, 0.1, size=2))
        pair = kl_dabak_lfd(STD, SHIFTED, eps0, eps1)
        worst = max(
            worst,
            abs(gaussian_kl(pair.q0, STD) - eps0),
            abs(gaussian_kl(pair.q1, SHIFTED) - eps1),
        )
    assert worst < 1e-8
    _report(3, "KL round trip", f"worst residual={worst:.2e}")


def test_criterion_4_quantizer_sandwich():
    """200 random quantizers: LLR weights nondecreasing and sandwiched."""
    start = time.perf_counter()
    pair = gaussian_band_lfd(BAND0, BAND1)
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        d_count = int(rng.integers(1, 5))
        thresholds = tuple(np.exp(np.sort(rng.uniform(-4.5, 4.5, size=d_count))))
        if any(b - a < 1e-6 for a, b in zip(thresholds, thresholds[1:])):
            continue
        checked += 1
        channel = channel_from_quantizer(Quantizer(thresholds), pair)
        assert np.all(channel.llr[1:] >= channel.llr[:-1])
        bounds = (0.0,) + thresholds + (math.inf,)
        for level, llr in zip(channel.levels, channel.llr):
            lr = math.exp(llr)
            assert bounds[level] - 1e-8 <= lr <= bounds[level + 1] + 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, "quantizer sandwich", f"200 quantizers {elapsed:.2f}s")


def test_criterion_5_fusion_exactness():
    """K=3 majority: enumeration, convolution and Monte Carlo agree."""
    net = NetworkModel((SYM02,) * 3, 0.5)
    enum = exact_error(net, method="enumeration")
    conv = exact_error(net, method="convolution", cross_check=False)
    assert abs(enum.p_error - 0.104) < 1e-12
    assert abs(conv.p_false_alarm - enum.p_false_alarm) < 1e-10
    assert abs(conv.p_miss - enum.p_miss) < 1e-10
    mc = monte_carlo(net, 10**6, 20260809)
    assert abs(mc.p_error - 0.104) < 0.0013
    _report(
        5,
        "fusion exactness",
        f"enum={enum.p_error:.12f} conv diff={abs(conv.p_error - enum.p_error):.1e} "
        f"mc diff={abs(mc.p_error - 0.104):.2e}",
    )


def test_criterion_6_saddle_inequalities():
    """Band scenario is a saddle point; midpoint imposters are not."""
    q = Quantizer((1.0,))
    pair = gaussian_band_lfd(BAND0, BAND1)
    ch = channel_from_quantizer(q, pair)
    net = NetworkModel((ch, ch), 0.5)
    laws0 = member_laws(band_members(BAND0, 11), SensorRule(pair, q))
    laws1 = member_laws(band_members(BAND1, 11), SensorRule(pair, q))
    report = saddle_verify(net, [laws0, laws0], [laws1, laws1])
    assert report.holds
    assert report.worst_gap >= -1e-9

    wrong_pair = gaussian_band_lfd(
        GaussianBandClass(-0.5, -0.5, 1.0), GaussianBandClass(1.5, 1.5, 1.0)
    )
    wrong_ch = channel_from_quantizer(q, wrong_pair)
    wrong_net = NetworkModel((wrong_ch, wrong_ch), 0.5)
    wrong0 = member_laws(band_members(BAND0, 11), SensorRule(wrong_pair, q))
    wrong1 = member_laws(band_members(BAND1, 11), SensorRule(wrong_pair, q))
    wrong_report = saddle_verify(wrong_net, [wrong0, wrong0], [wrong1, wrong1])
    assert not wrong_report.holds
    _report(
        6,
        "saddle inequalities",
        f"lfd worst gap={report.worst_gap:.2e} "
        f"imposter gap={wrong_report.worst_gap:.2e}",
    )


def test_criterion_7_ordering_preservation():
    """500 monotone-map and 500 summation ordering instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(500):
        xp, yp, levels = ordered_pmf_pair(rng)
        upsilon = random_nondecreasing_map(rng, levels)
        x, y = pushforward(levels, xp, upsilon), pushforward(levels, yp, upsilon)
        assert atoms_stochastically_larger(x, y)[0]
    for _ in range(500):
        k = int(rng.integers(2, 6))
        xs, ys = [], []
        for _ in range(k):
            xp, yp, levels = ordered_pmf_pair(rng)
            xs.append(AtomPmf(np.asarray(levels, dtype=float), xp))
            ys.append(AtomPmf(np.asarray(levels, dtype=float), yp))
        assert atoms_stochastically_larger(convolve_many(xs), convolve_many(ys))[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(7, "ordering preservation", f"2x500 instances {elapsed:.2f}s")


def test_criterion_8_error_decay_with_k():
    """Exact sweep matches binomial tails; log P_E decays near-linearly."""
    ks = [1, 3, 5, 7, 9, 11, 13, 15]
    results = k_sweep(SYM02, ks, 0.5)
    worst = max(
        abs(report.p_error - binomial_majority_error(k, 0.2)) for k, report in results
    )
    assert worst < 1e-12
    log_pe = np.log([report.p_error for _, report in results])
    slope, intercept = np.polyfit(ks, log_pe, 1)
    fit = slope * np.asarray(ks) + intercept
    deviation = float(np.max(np.abs(log_pe - fit)))
    span = float(fit.max() - fit.min())
    assert slope < 0.0
    assert deviation < 0.1 * span
    _report(
        8,
        "error decay with K",
        f"binomial diff={worst:.1e} slope={slope:.4f} dev/span={deviation / span:.3f}",
    )
