"""Fusion center: log-LR sum test, exact error probabilities, saddle-point
verification, threshold design and sensor-count sweeps.

The fusion rule adds the per-sensor LLR weights of the received levels and
compares against a log threshold (default log(prior0 / (1 - prior0))); ties
decide the null hypothesis, which makes every evaluation deterministic. A
sum counts as a tie when it is within ``TIE_TOL`` above the threshold, so
float rounding in the order of summation cannot move an outcome across it;
every path (``fuse``, convolution, enumeration, threshold search, Monte
Carlo) applies this one rule. Error probabilities are exact: the law of
the LLR sum (:class:`LlrSumLaw`) is held as two independent halves, each
the exact convolution of half the sensors' finite atom mass functions, and
one tail mass of their sum is read by a meet-in-the-middle search, so no
atom law larger than (D+1)^ceil(K/2) is built. Results are cross-checked
against full enumeration when the joint level space is small enough.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import AtomPmf, DiscretePmf
from .lfd import WITNESS_TOL, LfdPair
from .ordering import convolve, convolve_many
from .sensor import Quantizer, SensorChannel, channel_from_quantizer, default_quantizer

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
_AGREEMENT_TOL = 1e-10
# LLR sums within TIE_TOL above the log threshold are ties and decide H0.
# It sits well above float summation noise (~1e-13) and below the 1e-9
# atom merge width, so one tie band never holds two atoms of a convolved law.
TIE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """K sensors plus the fusion threshold; enough to evaluate exactly.

    Any valid channel is accepted: fusion reads only the channels' LLR
    values, so their output labels need not follow LLR order.
    """

    channels: tuple[SensorChannel, ...]
    prior0: float
    log_threshold: float | None = None

    def __post_init__(self) -> None:
        channels = tuple(self.channels)
        object.__setattr__(self, "channels", channels)
        if len(channels) < 1:
            raise ValueError("need at least one sensor channel")
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError(f"prior0 must be in (0, 1), got {self.prior0}")
        if self.log_threshold is None:
            object.__setattr__(
                self, "log_threshold", math.log(self.prior0 / (1.0 - self.prior0))
            )
        elif math.isnan(self.log_threshold):
            raise ValueError("log_threshold must not be NaN")

    @property
    def num_sensors(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class ErrorReport:
    """False alarm, miss and Bayes error of one network evaluation."""

    p_false_alarm: float
    p_miss: float
    p_error: float
    method: str
    n: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None


def _decide_one(sums, has_pos, has_neg, tau):
    """The fusion rule on arrays of outcomes.

    A -inf level forces 0 (also against a +inf level: that event is
    jointly impossible), a +inf level forces 1, and otherwise the finite
    LLR sum decides 1 only above the tie band at ``tau``.
    """
    return ~has_neg & (has_pos | (sums > tau + TIE_TOL))


def fuse(net: NetworkModel, u: Sequence[int]) -> int:
    """Fusion decision for one vector of sensor levels.

    Decides 1 iff the LLR sum exceeds the log threshold by more than
    ``TIE_TOL``; ties decide 0. An infinite-LLR level (impossible under
    one hypothesis) forces the decision.
    """
    if len(u) != net.num_sensors:
        raise ValueError(f"expected {net.num_sensors} levels, got {len(u)}")
    llrs = np.array([ch.llr_of(int(level)) for ch, level in zip(net.channels, u)])
    return int(
        _decide_one(
            llrs[np.isfinite(llrs)].sum(),
            np.any(llrs == math.inf),
            np.any(llrs == -math.inf),
            net.log_threshold,
        )
    )


@dataclass(frozen=True, eq=False)
class LlrSumLaw:
    """Law of the fused LLR sum: two independent halves plus the forced-1 mass.

    Over the outcomes where every level has a finite LLR, the sum is
    ``left + right``, each half the fold of some of the sensors' finite
    parts. ``forced_one`` is the probability that some level has LLR +inf
    and none has -inf, which decides 1 at every threshold.
    """

    left: AtomPmf
    right: AtomPmf
    forced_one: float

    @property
    def finite(self) -> AtomPmf:
        """The finite part as one atom law: the halves convolved, or the
        right half itself when the left is the empty sum."""
        return self.right if self.left is _POINT_ZERO else convolve(self.left, self.right)

    def prob_decide_one(self, tau):
        """P[decide 1] at log threshold ``tau``, without building the sum.

        A left atom a decides 1 with every right atom above
        tau + TIE_TOL - a, so one ``searchsorted`` over the right half's
        atoms reads each left atom's share off the right half's tail sums.
        ``tau`` is a float, or an array of thresholds for an array of
        probabilities.
        """
        tail = np.concatenate([np.cumsum(self.right.masses[::-1])[::-1], [0.0]])
        cut = (np.asarray(tau)[..., None] + TIE_TOL) - self.left.atoms
        shares = tail[np.searchsorted(self.right.atoms, cut, side="right")]
        p_one = self.forced_one + np.dot(shares, self.left.masses)
        return float(p_one) if np.ndim(tau) == 0 else p_one


# the sum over no sensors: the left half of a one-sensor law
_POINT_ZERO = AtomPmf(np.zeros(1), np.ones(1))


class _SensorPart(NamedTuple):
    """One sensor's share of an :class:`LlrSumLaw` under one level law."""

    finite: AtomPmf  # the finite-LLR levels as atoms
    no_minus: float  # probability of a level that is not -inf
    finite_mass: float  # probability of a finite-LLR level


def _sensor_part(llr: np.ndarray, probs: np.ndarray) -> _SensorPart:
    """The part of a sensor with per-level LLRs ``llr`` and level law ``probs``."""
    finite = np.isfinite(llr)
    atoms = AtomPmf(llr[finite], probs[finite])
    no_minus = 1.0 - float(np.sum(probs[llr == -math.inf]))
    return _SensorPart(atoms, no_minus, atoms.total_mass)


def _forced_one(parts: Sequence[_SensorPart]) -> float:
    """P[some level has LLR +inf and none has -inf] over independent sensors."""
    no_minus = 1.0
    all_finite = 1.0
    for part in parts:
        no_minus *= part.no_minus
        all_finite *= part.finite_mass
    return no_minus - all_finite


def llr_sum_law(
    channels: Sequence[SensorChannel], laws: Sequence[DiscretePmf]
) -> LlrSumLaw:
    """Exact law of the LLR sum when each sensor's level follows ``laws``.

    The sensors split at K // 2 and each half is folded in sensor order,
    so no atom law has more than (D+1)^ceil(K/2) atoms.
    """
    for ch, law in zip(channels, laws):
        _check_levels(ch, law)
    return _fold([_sensor_part(ch.llr, law.probs) for ch, law in zip(channels, laws)])


def _check_levels(ch: SensorChannel, law: DiscretePmf) -> None:
    if law.levels != ch.levels:
        raise ValueError(f"law levels {law.levels} do not match channel levels {ch.levels}")


def _fold(parts: Sequence[_SensorPart]) -> LlrSumLaw:
    """The LLR-sum law of one or more independent sensor parts, split at
    len(parts) // 2 into two halves, each folded in order."""
    half = len(parts) // 2
    left = convolve_many([part.finite for part in parts[:half]]) if half else _POINT_ZERO
    right = convolve_many([part.finite for part in parts[half:]])
    return LlrSumLaw(left, right, _forced_one(parts))


def _prob_decide_one_enumeration(
    channels: Sequence[SensorChannel],
    laws: Sequence[DiscretePmf],
    log_threshold: float,
) -> float:
    """P[decide 1] under one list of laws, by visiting every joint level."""
    return _enumerate_decide_one(channels, [laws], log_threshold)[0]


def _enumerate_decide_one(
    channels: Sequence[SensorChannel],
    law_lists: Sequence[Sequence[DiscretePmf]],
    log_threshold: float,
) -> list[float]:
    """P[decide 1] under each list of laws, by visiting every joint level.

    The LLR sums and the decision of every joint level do not depend on
    the laws, so they are built once for all the lists.
    """
    sums = np.zeros(1)
    for ch in channels:
        sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
    if all(np.all(np.isfinite(ch.llr)) for ch in channels):
        decide = sums > log_threshold + TIE_TOL
    else:
        has_pos = np.zeros(1, dtype=bool)
        has_neg = np.zeros(1, dtype=bool)
        for ch in channels:
            has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
            has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
        decide = _decide_one(sums, has_pos, has_neg, log_threshold)
    p_one = []
    for laws in law_lists:
        probs = np.ones(1)
        for law in laws:
            probs = np.multiply.outer(probs, law.probs).ravel()
        p_one.append(float(np.sum(probs[decide])))
    return p_one


def exact_error(
    net: NetworkModel,
    laws0: Sequence[DiscretePmf] | None = None,
    laws1: Sequence[DiscretePmf] | None = None,
    method: str = "convolution",
    cross_check: bool = True,
    enumeration_limit: int = 10**6,
) -> ErrorReport:
    """Exact P_F, P_M, P_E of the network under the given level laws.

    Laws default to the channels' own (least favorable) pmfs; pass member
    laws to probe the saddle. ``method`` picks the primary path:
    "convolution" reads the tail of the two half-convolutions of
    :func:`llr_sum_law` by meet-in-the-middle, "enumeration" visits every
    joint level. With ``cross_check`` the other path is also run when the
    joint level space has at most ``enumeration_limit`` points, and a
    disagreement beyond 1e-10 raises.
    """
    if method not in ("convolution", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    laws0 = [ch.pmf0 for ch in net.channels] if laws0 is None else list(laws0)
    laws1 = [ch.pmf1 for ch in net.channels] if laws1 is None else list(laws1)
    if len(laws0) != net.num_sensors or len(laws1) != net.num_sensors:
        raise ValueError("need one law per sensor and hypothesis")

    joint_size = 1
    for ch in net.channels:
        joint_size *= len(ch.levels)

    def errors(how: str) -> tuple[float, float]:
        """(P_F, P_M) by one path."""
        if how == "convolution":
            p_one = [
                llr_sum_law(net.channels, laws).prob_decide_one(net.log_threshold)
                for laws in (laws0, laws1)
            ]
        else:
            p_one = _enumerate_decide_one(net.channels, (laws0, laws1), net.log_threshold)
        return p_one[0], 1.0 - p_one[1]

    if method == "enumeration" and joint_size > enumeration_limit:
        raise ValueError("joint level space too large for enumeration")
    p_f, p_m = errors(method)
    if cross_check and joint_size <= enumeration_limit:
        p_f_other, p_m_other = errors("enumeration" if method == "convolution" else "convolution")
        if abs(p_f - p_f_other) > _AGREEMENT_TOL or abs(p_m - p_m_other) > _AGREEMENT_TOL:
            raise RuntimeError(
                "convolution and enumeration disagree beyond 1e-10: "
                f"P_F {p_f} vs {p_f_other}, P_M {p_m} vs {p_m_other}"
            )
    p_e = net.prior0 * p_f + (1.0 - net.prior0) * p_m
    tag = "exact-convolution" if method == "convolution" else "enumeration"
    return ErrorReport(p_false_alarm=p_f, p_miss=p_m, p_error=p_e, method=tag)


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of certifying the saddle inequalities over member-law grids.

    ``dominance_ok`` is the per-sensor certificate of :func:`saddle_verify`,
    ``n_checked`` the member combinations it covers (both sides' whole
    grids) and ``worst_combo`` one member index per sensor.
    """

    holds: bool
    worst_side: str
    worst_combo: tuple[int, ...]
    worst_gap: float
    p_false_alarm_lfd: float
    p_miss_lfd: float
    dominance_ok: bool
    n_checked: int
    tol: float = 1e-9


def saddle_verify(
    net: NetworkModel,
    member_laws0: Sequence[Sequence[DiscretePmf]],
    member_laws1: Sequence[Sequence[DiscretePmf]],
    tol: float = 1e-9,
) -> SaddleReport:
    """Certify that the LFD laws are worst cases for the fixed rules.

    The certificate is per sensor: in the order of the sensor's LLR
    values, every H0 member law must lie stochastically below ``pmf0`` and
    every H1 member law above ``pmf1`` (within ``tol``). That covers every
    member combination at every fusion threshold: :func:`_decide_one` is
    nondecreasing in each sensor's LLR, ±inf included, and the sensors are
    independent, so swapping the LFDs for members one sensor at a time
    never raises P_F (under H0) or P_M (under H1). Each sensor's members
    are checked at once, as cdf rows on the signed LLR ranks
    (:func:`_dominance_gaps`).

    ``worst_gap`` (P_LFD − P_member at the network's threshold, negative
    on a violation) comes from one pass per side: sensor by sensor, each
    member is tried with the earlier sensors at their chosen members and
    the later ones at the LFD, and the first member within
    ``WITNESS_TOL`` of the smallest gap is kept, so rounding noise does not
    pick the witness. P(decide 1) is linear in one sensor's level law, so
    each sensor folds the others once (:func:`_fuse_one_given_level`) and
    scores every member by one dot product; the gap kept at the previous
    sensor carries over, so an LFD member's gap stays exactly that gap.
    When each sensor's members are totally ordered (2-level sensors, band
    and contamination classes) this is the grid's minimum within
    ``WITNESS_TOL``; otherwise it is the gap of a real combination, not
    always the least.
    """
    if len(member_laws0) != net.num_sensors or len(member_laws1) != net.num_sensors:
        raise ValueError("need one member-law list per sensor and hypothesis")
    if not all(member_laws0) or not all(member_laws1):
        raise ValueError("every sensor needs at least one member law per hypothesis")
    tau = net.log_threshold
    lfd_laws0 = [ch.pmf0 for ch in net.channels]
    lfd_laws1 = [ch.pmf1 for ch in net.channels]
    p_f_lfd = llr_sum_law(net.channels, lfd_laws0).prob_decide_one(tau)
    p_m_lfd = 1.0 - llr_sum_law(net.channels, lfd_laws1).prob_decide_one(tau)
    ranks = [np.unique(ch.llr, return_inverse=True)[1] for ch in net.channels]

    worst_gap = math.inf
    worst_side = "false-alarm"
    worst_combo: tuple[int, ...] = ()
    dominance_ok = True
    n_checked = 0
    for side, member_lists, lfd_laws, sign in (
        ("false-alarm", member_laws0, lfd_laws0, 1),
        ("miss", member_laws1, lfd_laws1, -1),
    ):
        n_checked += math.prod(len(members) for members in member_lists)
        parts = [_sensor_part(ch.llr, law.probs) for ch, law in zip(net.channels, lfd_laws)]
        combo = []
        carried = 0.0  # the gap of the current combination
        for i, (ch, members) in enumerate(zip(net.channels, member_lists)):
            for member in members:
                _check_levels(ch, member)
            probs = np.array([member.probs for member in members])
            a = _fuse_one_given_level(parts[:i] + parts[i + 1 :], ch.llr, np.array([tau]))[0]
            current = lfd_laws[i].probs
            gaps = carried + sign * ((current - probs) @ a)
            j = int(np.flatnonzero(gaps <= np.min(gaps) + WITNESS_TOL)[0])
            combo.append(j)
            carried = float(gaps[j])
            parts[i] = _sensor_part(ch.llr, probs[j])
            # the LFD must dominate each member on the signed LLR ranks
            worst = _dominance_gaps(sign * ranks[i], current, probs)
            dominance_ok = dominance_ok and bool(np.all(worst <= tol))
        # the miss side must be worse by more than rounding to replace the
        # false-alarm side, so mirror-image witnesses resolve to false-alarm
        if carried < worst_gap - WITNESS_TOL:
            worst_gap, worst_side, worst_combo = carried, side, tuple(combo)
    return SaddleReport(
        holds=worst_gap >= -tol and dominance_ok,
        worst_side=worst_side,
        worst_combo=worst_combo,
        worst_gap=worst_gap,
        p_false_alarm_lfd=p_f_lfd,
        p_miss_lfd=p_m_lfd,
        dominance_ok=dominance_ok,
        n_checked=n_checked,
        tol=tol,
    )


def _dominance_gaps(key: np.ndarray, law: np.ndarray, members: np.ndarray) -> np.ndarray:
    """max over x of cdf_law(x) - cdf_member(x), one per row of ``members``.

    Level d sits at ``key[d]``: each law's masses are grouped by key, in
    increasing key order, and summed along the rows, so every member's cdf
    is one row. A gap at most 0 means the law is stochastically larger
    than the member on the keys.
    """
    order = np.argsort(key, kind="stable")
    ends = np.append(np.flatnonzero(np.diff(key[order])), len(key) - 1)
    cdf = np.cumsum(np.vstack([law, members])[:, order], axis=1)[:, ends]
    return np.max(cdf[0] - cdf[1:], axis=1)


def best_fusion_threshold(law0: LlrSumLaw, law1: LlrSumLaw, prior0: float) -> tuple[float, float]:
    """Exact minimizer of P_E over the achievable LLR-sum atoms.

    Under the tie-to-null rule the error probability only changes at atom
    values, so scanning atoms (plus an always-decide-1 candidate below the
    smallest atom) is exhaustive. ``law0``/``law1`` are the LLR-sum laws
    under H0 and H1, and each candidate is scored by
    :meth:`LlrSumLaw.prob_decide_one`. Returns (log_threshold, p_error).
    """
    candidates, p_e = _threshold_errors(law0, law1, prior0)
    best = int(np.argmin(p_e))
    return float(candidates[best]), float(p_e[best])


def _threshold_errors(
    law0: LlrSumLaw, law1: LlrSumLaw, prior0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(candidate log thresholds, P_E at each) for :func:`best_fusion_threshold`.

    The candidates are every atom of the sum and one below the smallest.
    """
    atoms = np.union1d(law0.finite.atoms, law1.finite.atoms)
    candidates = np.concatenate([[atoms[0] - 1.0], atoms])
    p_f = law0.prob_decide_one(candidates)
    p_m = 1.0 - law1.prob_decide_one(candidates)
    return candidates, prior0 * p_f + (1.0 - prior0) * p_m


@dataclass(frozen=True)
class DesignResult:
    """A threshold design and its exact error report.

    ``best_response_gain`` is the P_E that one further person-by-person
    sweep from this design gains, the certificate of person-by-person
    optimality; a converged design's last sweep gained less than 1e-12.
    """

    quantizers: tuple[Quantizer, ...]
    log_threshold: float
    report: ErrorReport
    converged: bool
    best_response_gain: float


# a best response replies to this many fusion thresholds, the lowest-P_E
# candidates; for one sensor, or two with D <= 2, that is every candidate
_REPLY_TAUS = 16


class _SensorBuild(NamedTuple):
    """One sensor of the design objective, built at one set of thresholds."""

    channel: SensorChannel
    parts: tuple[_SensorPart, _SensorPart]  # under H0 and under H1


def _fuse_one_given_level(
    others: Sequence[_SensorPart], llr: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """a[t, d] = P(fuse 1 | the sensor sends level d) at fusion threshold taus[t].

    ``llr`` is the sensor's per-level LLR and ``others`` are the other
    sensors' parts under one hypothesis. P(fuse 1) is linear in the
    sensor's level law, with row t as its coefficients. The others are
    folded once into an :class:`LlrSumLaw`, split as :func:`llr_sum_law`
    splits, so no fold of all of them is built. A finite level d reads that
    law at taus - llr[d]; a +inf level decides 1 unless another sensor
    sends -inf, and a -inf level decides 0. With no others a level decides
    1 iff its LLR is above the tie band.
    """
    taus = np.asarray(taus, dtype=float)
    if not others:
        return (llr > taus[:, None] + TIE_TOL).astype(float)
    a = np.zeros((len(taus), len(llr)))
    finite = np.isfinite(llr)
    a[:, finite] = _fold(others).prob_decide_one(taus[:, None] - llr[finite])
    a[:, llr == math.inf] = math.prod(part.no_minus for part in others)
    return a


def _envelope_cuts(
    a0: np.ndarray, a1: np.ndarray, prior0: float, bracket: tuple[float, float], num: int
) -> tuple[float, ...]:
    """Log thresholds of the sensor's Bayes reply to a fixed fusion map.

    Level d costs prior0 * a0[d] - (1 - prior0) * L * a1[d] at LR value L,
    where a_h[d] = P_h(fuse 1 | level d). The reply sends each L to the
    cheapest level, so its thresholds are the breakpoints of the lower
    envelope of these lines, read from the bracket's low end up; breakpoints
    outside the bracket are dropped. While fewer than ``num`` remain, the
    widest log-LR cell between the bracket ends is split at its midpoint: a
    finer quantizer under a re-optimized fusion never raises P_E, and a
    collapsed sensor gets its levels back.
    """
    lo, hi = bracket
    pi1 = 1.0 - prior0
    # lowest line at the low end; on a tie the steeper one, which stays lower
    order = np.lexsort((-a1, prior0 * a0 - pi1 * a1 * math.exp(lo)))
    cur, at, cuts = int(order[0]), lo, []
    while True:
        up = np.flatnonzero(a1 > a1[cur])
        if not up.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.log(prior0 * (a0[up] - a0[cur])) - np.log(pi1 * (a1[up] - a1[cur]))
        cross = np.maximum(np.where(np.isnan(cross), -math.inf, cross), at)
        k = int(np.lexsort((-a1[up], cross))[0])
        if cross[k] >= hi:
            break
        if cross[k] > at:
            cuts.append(float(cross[k]))
        cur, at = int(up[k]), float(cross[k])
    while len(cuts) < num:
        edges = [lo, *cuts, hi]
        k = int(np.argmax(np.diff(edges)))
        cuts.insert(k, 0.5 * (edges[k] + edges[k + 1]))
    return tuple(cuts)


class _ThresholdObjective:
    """P_E of a threshold configuration, minimized over the fusion threshold.

    One memo maps (sensor, LR thresholds) to that sensor's channel and its
    LLR-sum parts under each hypothesis, or to None when the thresholds are
    not a valid quantizer, so each distinct sensor design is built (and
    validated) once, also when two log thresholds round to one LR value.
    An evaluation folds the K parts afresh in sensor order, so every value
    is bit-identical to building all K channels and folding both laws from
    scratch. The memo belongs to the instance; ``optimize_thresholds``
    makes one per call.
    """

    def __init__(self, pairs: Sequence[LfdPair], prior0: float):
        self.pairs = list(pairs)
        self.prior0 = prior0
        self._built: dict[tuple[int, tuple[float, ...]], _SensorBuild | None] = {}

    def build(self, i: int, log_thresholds: Sequence[float]) -> _SensorBuild | None:
        """Sensor i at ``log_thresholds``; None when they are invalid."""
        key = (i, tuple(math.exp(t) for t in log_thresholds))
        if key not in self._built:
            try:
                q = Quantizer(key[1])
            except ValueError:
                self._built[key] = None
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ch = channel_from_quantizer(q, self.pairs[i])
            parts = (_sensor_part(ch.llr, ch.pmf0.probs), _sensor_part(ch.llr, ch.pmf1.probs))
            self._built[key] = _SensorBuild(ch, parts)
        return self._built[key]

    def laws(
        self, all_log_thresholds: Sequence[Sequence[float]]
    ) -> tuple[LlrSumLaw, LlrSumLaw] | None:
        """The LLR-sum laws under H0 and H1, each folded left to right in
        sensor order; None when some sensor's thresholds are invalid."""
        builds = []
        for i, coords in enumerate(all_log_thresholds):
            build = self.build(i, coords)
            if build is None:
                return None
            builds.append(build)
        return tuple(
            LlrSumLaw(
                _POINT_ZERO,
                convolve_many([b.parts[h].finite for b in builds]),
                _forced_one([b.parts[h] for b in builds]),
            )
            for h in (0, 1)
        )

    def evaluate(self, all_log_thresholds: Sequence[Sequence[float]]) -> tuple[float, float]:
        """Returns (p_error, best log fusion threshold); inf when invalid."""
        laws = self.laws(all_log_thresholds)
        if laws is None:
            return math.inf, 0.0
        tau, p_e = best_fusion_threshold(*laws, self.prior0)
        return p_e, tau

    def best_response(
        self,
        i: int,
        all_log_thresholds: Sequence[Sequence[float]],
        bracket: tuple[float, float],
    ) -> tuple[float, float, tuple[float, ...]]:
        """Sensor i's best reply with the others fixed: (p_error, tau, its log thresholds).

        The current LLR test at a fusion threshold fixes a fusion map;
        against it the sensor's Bayes reply is an LR quantizer
        (:func:`_envelope_cuts`). Of :func:`best_fusion_threshold`'s
        candidates (every atom of the sum, and one below) the
        ``_REPLY_TAUS`` with the lowest current P_E are replied to, so the
        work per sensor does not grow with the sum's atom count, which is
        up to (D+1)^K. Each distinct reply is scored exactly and kept only
        if it strictly lowers P_E. The configuration must be valid.
        """
        conf = [tuple(coords) for coords in all_log_thresholds]
        taus, p_e = _threshold_errors(*self.laws(conf), self.prior0)
        order = np.argsort(p_e, kind="stable")
        best = (float(p_e[order[0]]), float(taus[order[0]]), conf[i])
        taus = taus[order[:_REPLY_TAUS]]
        builds = [self.build(j, coords) for j, coords in enumerate(conf)]
        others = builds[:i] + builds[i + 1 :]
        llr = builds[i].channel.llr
        a = np.hstack(
            [_fuse_one_given_level([b.parts[h] for b in others], llr, taus) for h in (0, 1)]
        )
        levels = len(llr)
        trial = list(conf)
        tried = {conf[i]}
        for row in np.unique(a, axis=0):
            cuts = _envelope_cuts(row[:levels], row[levels:], self.prior0, bracket, len(conf[i]))
            if cuts in tried:
                continue
            tried.add(cuts)
            trial[i] = cuts
            p_e, tau = self.evaluate(trial)
            if p_e < best[0]:
                best = (p_e, tau, cuts)
        return best


def _sweep(
    objective: _ThresholdObjective,
    conf: list[list[float]],
    brackets: Sequence[tuple[float, float]],
) -> tuple[float, float]:
    """One person-by-person sweep over the sensors in order; updates ``conf``.

    Returns (p_error, log fusion threshold) of the configuration it ends at.
    """
    for i in range(len(conf)):
        p_e, tau, coords = objective.best_response(i, conf, brackets[i])
        conf[i] = list(coords)
    return p_e, tau


def optimize_thresholds(
    pairs: Sequence[LfdPair],
    num_levels: Sequence[int],
    prior0: float,
) -> DesignResult:
    """Design sensor thresholds and the fusion threshold to minimize P_E.

    Person-by-person descent (Tsitsiklis 1993): each sweep replaces every
    sensor's quantizer, in turn, by its best response to the others and
    to the LLR fusion test, and the fusion threshold is re-chosen exactly
    by atom scanning; no step raises P_E. It runs from three initial
    configurations: equal-mixture quantiles, LR = 1 centered, and seeded
    random. The objective is not convex, so the claim is person-by-person
    optimality, not a global optimum: no sensor can lower P_E alone by
    changing its LR quantizer. ``best_response_gain`` certifies it, as the
    P_E one further sweep from the returned design gains. A start stops
    once a sweep improves P_E by less than 1e-12; non-convergence within
    40 sweeps returns best-found with a warning and ``converged=False``.
    """
    if len(pairs) > 10 or any(d > 4 for d in num_levels):
        raise ValueError("designed for K <= 10 sensors with at most 4 thresholds each")
    if len(pairs) != len(num_levels):
        raise ValueError("need one threshold count per sensor")
    objective = _ThresholdObjective(pairs, prior0)
    rng = np.random.default_rng(0)
    brackets = []
    for pair in pairs:
        lo, hi = pair.support
        brackets.append((float(pair.log_lr(lo)), float(pair.log_lr(hi))))

    def quantile_start(i: int, d: int) -> list[float]:
        qz = default_quantizer(pairs[i], d)
        return [math.log(t) for t in qz.thresholds]

    def centered_start(i: int, d: int) -> list[float]:
        if d == 1:
            return [0.0]
        return list(np.linspace(-0.5, 0.5, d))

    def random_start(i: int, d: int) -> list[float]:
        lo, hi = brackets[i]
        return sorted(float(v) for v in rng.uniform(lo + 0.1, hi - 0.1, size=d))

    starts = []
    for maker in (quantile_start, centered_start, random_start):
        starts.append([maker(i, d) for i, d in enumerate(num_levels)])

    best_conf = None
    best_pe = math.inf
    best_tau = 0.0
    best_converged = False
    for conf in starts:
        conf = [list(c) for c in conf]
        pe, tau = objective.evaluate(conf)
        converged = False
        for _ in range(40):
            swept_pe, tau = _sweep(objective, conf, brackets)
            gain, pe = pe - swept_pe, swept_pe
            if gain < 1e-12:
                converged = True
                break
        if pe < best_pe:
            best_pe, best_tau, best_conf, best_converged = pe, tau, conf, converged
    if not best_converged:
        warnings.warn("threshold optimizer hit the sweep limit; returning best found")
    best_response_gain = best_pe - _sweep(objective, [list(c) for c in best_conf], brackets)[0]
    quantizers = tuple(Quantizer(tuple(math.exp(t) for t in coords)) for coords in best_conf)
    channels = tuple(objective.build(i, coords).channel for i, coords in enumerate(best_conf))
    net = NetworkModel(channels, prior0, best_tau)
    report = exact_error(net)
    return DesignResult(
        quantizers=quantizers,
        log_threshold=best_tau,
        report=report,
        converged=best_converged,
        best_response_gain=best_response_gain,
    )


def k_sweep(
    template: SensorChannel,
    ks: Sequence[int],
    prior0: float,
    log_threshold: float | None = None,
) -> list[tuple[int, ErrorReport]]:
    """Exact P_E of K identical sensors for each K in ``ks``.

    The template must be informative (pmf0 != pmf1); the resulting decay
    of P_E with K is what the sweep exists to expose. Cross-checking is
    left to callers (the convolution path is exact on its own).

    Per hypothesis one fold (entry j: the j-fold sum of the template's
    finite part) grows only as far as the largest K needs, and K reads its
    halves off entries K // 2 and K - K // 2. Those are the halves of
    :func:`llr_sum_law`, so each report equals ``exact_error`` of the
    K-sensor network with ``cross_check=False``. Counts run in ascending
    order, so entries below the current K // 2 are dropped.
    """
    if np.max(np.abs(template.pmf0.probs - template.pmf1.probs)) <= 1e-12:
        raise ValueError("uninformative sensor template: pmf0 equals pmf1")
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError("sensor counts must be >= 1")
    net = NetworkModel((template,), prior0, log_threshold)
    parts = [_sensor_part(template.llr, law.probs) for law in (template.pmf0, template.pmf1)]
    folds = [[_POINT_ZERO, part.finite] for part in parts]
    reports = {}
    for k in sorted(set(ks)):
        half = k // 2
        p_one = []
        for part, fold in zip(parts, folds):
            while len(fold) <= k - half:
                fold.append(convolve(fold[-1], part.finite))
            law = LlrSumLaw(fold[half], fold[k - half], _forced_one([part] * k))
            p_one.append(law.prob_decide_one(net.log_threshold))
            fold[:half] = [None] * half
        p_f, p_m = p_one[0], 1.0 - p_one[1]
        p_e = net.prior0 * p_f + (1.0 - net.prior0) * p_m
        reports[k] = ErrorReport(p_f, p_m, p_e, method="exact-convolution")
    return [(k, reports[k]) for k in ks]


def monte_carlo(
    net: NetworkModel,
    n: int,
    seed: int,
    laws0: Sequence[DiscretePmf] | None = None,
    laws1: Sequence[DiscretePmf] | None = None,
) -> ErrorReport:
    """Monte Carlo estimate of the network error probabilities.

    Levels are sampled directly from the per-sensor laws (equal in law to
    sampling observations and quantizing). The generator is PCG64 seeded
    with ``seed`` and split per hypothesis, so reports are reproducible
    bit-for-bit. ``ci_halfwidth`` is a 99% half-width for p_error.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples for calibrated estimates")
    laws0 = [ch.pmf0 for ch in net.channels] if laws0 is None else list(laws0)
    laws1 = [ch.pmf1 for ch in net.channels] if laws1 is None else list(laws1)
    rng0, rng1 = np.random.default_rng(seed).spawn(2)

    def decide_rate(laws, rng) -> float:
        sums = np.zeros(n)
        has_pos = np.zeros(n, dtype=bool)
        has_neg = np.zeros(n, dtype=bool)
        for ch, law in zip(net.channels, laws):
            if law.levels != ch.levels:
                raise ValueError("law levels must match channel levels")
            idx = rng.choice(len(ch.levels), size=n, p=law.probs)
            vals = ch.llr[idx]
            has_pos |= vals == math.inf
            has_neg |= vals == -math.inf
            sums += np.where(np.isfinite(vals), vals, 0.0)
        return float(np.mean(_decide_one(sums, has_pos, has_neg, net.log_threshold)))

    p_f = decide_rate(laws0, rng0)
    p_m = 1.0 - decide_rate(laws1, rng1)
    hw_f = Z_99 * math.sqrt(p_f * (1.0 - p_f) / n)
    hw_m = Z_99 * math.sqrt(p_m * (1.0 - p_m) / n)
    hw_e = math.hypot(net.prior0 * hw_f, (1.0 - net.prior0) * hw_m)
    return ErrorReport(
        p_false_alarm=p_f,
        p_miss=p_m,
        p_error=net.prior0 * p_f + (1.0 - net.prior0) * p_m,
        method="monte-carlo",
        n=n,
        seed=seed,
        ci_halfwidth=hw_e,
    )
