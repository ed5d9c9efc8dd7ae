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
from .ordering import atoms_stochastically_larger, convolve, convolve_many
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


def _decide_one_mass(law: AtomPmf, tau, shift=0.0) -> np.ndarray:
    """Mass of ``law`` whose atoms a decide 1 at log threshold ``tau`` once
    ``shift`` is added: a + shift > tau + TIE_TOL, so ties decide 0.

    One tail-sum table and one ``searchsorted``; ``tau`` and ``shift``
    broadcast against each other.
    """
    tail = np.concatenate([np.cumsum(law.masses[::-1])[::-1], [0.0]])
    return tail[np.searchsorted(law.atoms, (tau + TIE_TOL) - shift, side="right")]


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
        """The finite part as one atom law, convolved on each access."""
        return convolve(self.left, self.right)

    def prob_decide_one(self, tau: float) -> float:
        """P[decide 1] at log threshold ``tau``, without building the sum.

        A left atom a decides 1 with every right atom above
        tau + TIE_TOL - a, so one ``searchsorted`` over the right half's
        atoms reads each left atom's share off the right half's tail sums.
        """
        shares = _decide_one_mass(self.right, tau, self.left.atoms)
        return self.forced_one + float(np.dot(self.left.masses, shares))


# the sum over no sensors: the left half of a one-sensor law
_POINT_ZERO = AtomPmf(np.zeros(1), np.ones(1))


class _SensorPart(NamedTuple):
    """One sensor's share of an :class:`LlrSumLaw` under one level law."""

    finite: AtomPmf  # the finite-LLR levels as atoms
    no_minus: float  # probability of a level that is not -inf
    finite_mass: float  # probability of a finite-LLR level


def _sensor_part(ch: SensorChannel, law: DiscretePmf) -> _SensorPart:
    if law.levels != ch.levels:
        raise ValueError(
            f"law levels {law.levels} do not match channel levels {ch.levels}"
        )
    finite = np.isfinite(ch.llr)
    atoms = AtomPmf(ch.llr[finite], law.probs[finite])
    no_minus = 1.0 - float(np.sum(law.probs[ch.llr == -math.inf]))
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
    parts = [_sensor_part(ch, law) for ch, law in zip(channels, laws)]
    half = len(parts) // 2
    left = convolve_many([part.finite for part in parts[:half]]) if half else _POINT_ZERO
    right = convolve_many([part.finite for part in parts[half:]])
    return LlrSumLaw(left, right, _forced_one(parts))


def _prob_decide_one_enumeration(
    channels: Sequence[SensorChannel],
    laws: Sequence[DiscretePmf],
    log_threshold: float,
) -> float:
    sums = np.zeros(1)
    probs = np.ones(1)
    has_pos = np.zeros(1, dtype=bool)
    has_neg = np.zeros(1, dtype=bool)
    for ch, law in zip(channels, laws):
        sums = np.add.outer(sums, np.where(np.isfinite(ch.llr), ch.llr, 0.0)).ravel()
        probs = np.multiply.outer(probs, law.probs).ravel()
        has_pos = np.logical_or.outer(has_pos, ch.llr == math.inf).ravel()
        has_neg = np.logical_or.outer(has_neg, ch.llr == -math.inf).ravel()
    return float(np.sum(probs[_decide_one(sums, has_pos, has_neg, log_threshold)]))


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

    def decide_one(laws, how: str) -> float:
        if how == "convolution":
            return llr_sum_law(net.channels, laws).prob_decide_one(net.log_threshold)
        return _prob_decide_one_enumeration(net.channels, laws, net.log_threshold)

    if method == "enumeration" and joint_size > enumeration_limit:
        raise ValueError("joint level space too large for enumeration")
    p_f = decide_one(laws0, method)
    p_m = 1.0 - decide_one(laws1, method)
    if cross_check and joint_size <= enumeration_limit:
        other = "enumeration" if method == "convolution" else "convolution"
        p_f_other = decide_one(laws0, other)
        p_m_other = 1.0 - decide_one(laws1, other)
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
    never raises P_F (under H0) or P_M (under H1).

    ``worst_gap`` (P_LFD − P_member at the network's threshold, negative
    on a violation) comes from one pass per side: sensor by sensor, each
    member is tried with the earlier sensors at their chosen members and
    the later ones at the LFD, and the first member with the smallest gap
    is kept. When each sensor's members are totally ordered (2-level
    sensors, band and contamination classes) this is the grid's minimum;
    otherwise it is the gap of a real combination, not always the least.
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

        def gap(laws) -> float:
            p1 = llr_sum_law(net.channels, laws).prob_decide_one(tau)
            return p_f_lfd - p1 if sign > 0 else p_m_lfd - (1.0 - p1)

        laws = list(lfd_laws)
        combo = []
        for i, members in enumerate(member_lists):
            gaps = [gap(laws[:i] + [m] + laws[i + 1 :]) for m in members]
            combo.append(int(np.argmin(gaps)))
            laws[i] = members[combo[-1]]
        # the miss side must be worse by more than rounding to replace the
        # false-alarm side, so mirror-image witnesses resolve to false-alarm
        if gaps[combo[-1]] < worst_gap - WITNESS_TOL:
            worst_gap, worst_side, worst_combo = gaps[combo[-1]], side, tuple(combo)

        # the LFD must dominate each member on the signed LLR ranks
        for rank, lfd_law, members in zip(ranks, lfd_laws, member_lists):
            lfd_atoms = AtomPmf(sign * rank, lfd_law.probs)
            for member in members:
                ok, _ = atoms_stochastically_larger(
                    lfd_atoms, AtomPmf(sign * rank, member.probs), tol
                )
                dominance_ok = dominance_ok and ok
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


def best_fusion_threshold(
    conv0: AtomPmf,
    conv1: AtomPmf,
    prior0: float,
    forced_one0: float = 0.0,
    forced_one1: float = 0.0,
) -> tuple[float, float]:
    """Exact minimizer of P_E over the achievable LLR-sum atoms.

    Under the tie-to-null rule the error probability only changes at atom
    values, so scanning atoms (plus an always-decide-1 candidate below the
    smallest atom) is exhaustive. ``conv0``/``conv1`` are the finite parts
    of the LLR-sum laws; ``forced_one*`` carry the threshold-independent
    probability of a forced decide-1 (an infinite-LLR level observed).
    Each candidate is scored as :meth:`LlrSumLaw.prob_decide_one` would
    score it. Returns (log_threshold, p_error).
    """
    candidates, p_e = _threshold_errors(conv0, conv1, prior0, forced_one0, forced_one1)
    best = int(np.argmin(p_e))
    return float(candidates[best]), float(p_e[best])


def _threshold_errors(
    conv0: AtomPmf, conv1: AtomPmf, prior0: float, forced_one0: float, forced_one1: float
) -> tuple[np.ndarray, np.ndarray]:
    """(candidate log thresholds, P_E at each) for :func:`best_fusion_threshold`.

    The candidates are every atom of the sum and one below the smallest.
    """
    atoms = np.union1d(conv0.atoms, conv1.atoms)
    candidates = np.concatenate([[atoms[0] - 1.0], atoms])
    p_f = forced_one0 + _decide_one_mass(conv0, candidates)
    p_m = 1.0 - forced_one1 - _decide_one_mass(conv1, candidates)
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


class _Slot(NamedTuple):
    """One sensor of the design objective, as last built."""

    log_thresholds: tuple[float, ...]
    parts: tuple[_SensorPart, _SensorPart]  # under H0 and under H1
    llr: np.ndarray  # the channel's per-level LLR, +/-inf included


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

    Evaluation is incremental. One slot per sensor keeps the log thresholds
    it was last built from, its LLR values and its LLR-sum parts under
    each hypothesis, so an evaluation rebuilds (and re-validates) only the
    sensors whose thresholds changed. Per hypothesis the left-fold prefixes
    s_0, s_0*s_1, ... of the finite parts are kept too: rebuilding sensor i
    drops the prefixes from i on, and the fold resumes from the last one
    kept. The fusion-threshold scan needs every atom of the sum, so it
    reads the full prefix; every value is bit-identical to building all K
    channels and folding both laws afresh in sensor order. The caches
    belong to the instance; ``optimize_thresholds`` makes one per call.
    """

    def __init__(self, pairs: Sequence[LfdPair], prior0: float):
        self.pairs = list(pairs)
        self.prior0 = prior0
        self._slots: list[_Slot | None] = [None] * len(self.pairs)
        self._prefixes: tuple[list[AtomPmf], list[AtomPmf]] = ([], [])

    def channel(self, i: int, log_thresholds: Sequence[float]) -> SensorChannel | None:
        try:
            q = Quantizer(tuple(math.exp(t) for t in log_thresholds))
        except ValueError:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return channel_from_quantizer(q, self.pairs[i])

    def _set(self, i: int, slot: _Slot) -> None:
        if slot is not self._slots[i]:
            self._slots[i] = slot
            for prefixes in self._prefixes:
                del prefixes[i:]

    def _update(self, i: int, log_thresholds: tuple[float, ...]) -> bool:
        """Bring sensor i's slot to ``log_thresholds``; False when invalid."""
        slot = self._slots[i]
        if slot is not None and slot.log_thresholds == log_thresholds:
            return True
        ch = self.channel(i, log_thresholds)
        if ch is None:
            return False
        parts = (_sensor_part(ch, ch.pmf0), _sensor_part(ch, ch.pmf1))
        self._set(i, _Slot(log_thresholds, parts, ch.llr))
        return True

    def _fold(self, h: int) -> tuple[AtomPmf, float]:
        """(finite part of the sum, forced-1 mass) under hypothesis h."""
        parts = [slot.parts[h] for slot in self._slots]
        prefixes = self._prefixes[h]
        for part in parts[len(prefixes) :]:
            prefixes.append(convolve(prefixes[-1], part.finite) if prefixes else part.finite)
        return prefixes[-1], _forced_one(parts)

    def evaluate(self, all_log_thresholds: Sequence[Sequence[float]]) -> tuple[float, float]:
        """Returns (p_error, best log fusion threshold); inf when invalid."""
        for i, coords in enumerate(all_log_thresholds):
            if not self._update(i, tuple(coords)):
                return math.inf, 0.0
        (finite0, forced0), (finite1, forced1) = self._fold(0), self._fold(1)
        tau, p_e = best_fusion_threshold(finite0, finite1, self.prior0, forced0, forced1)
        return p_e, tau

    def _fuse_one_given_level(self, i: int, taus: np.ndarray, h: int) -> np.ndarray:
        """a[t, d] = P_h(fuse 1 | sensor i sends level d) at fusion threshold taus[t].

        The other sensors' parts fold into one law; level d's LLR w decides
        as in :meth:`LlrSumLaw.prob_decide_one`: -inf never fuses 1, +inf
        fuses 1 unless another level is -inf, and a finite w reads the
        others' tail above tau + TIE_TOL - w.
        """
        others = [slot.parts[h] for j, slot in enumerate(self._slots) if j != i]
        law = convolve_many([part.finite for part in others]) if others else _POINT_ZERO
        llr = self._slots[i].llr
        finite = np.isfinite(llr)
        no_minus = math.prod(part.no_minus for part in others)
        a = np.tile(np.where(llr == math.inf, no_minus, 0.0), (len(taus), 1))
        a[:, finite] = _forced_one(others) + _decide_one_mass(law, taus[:, None], llr[finite])
        return a

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
        up to (D+1)^K. Each distinct reply is scored exactly, rebuilding
        only sensor i, and kept only if it strictly lowers P_E. The
        configuration must be valid; sensor i's slot ends at the reply.
        """
        best = (*self.evaluate(all_log_thresholds), tuple(all_log_thresholds[i]))
        kept = self._slots[i]
        (finite0, forced0), (finite1, forced1) = self._fold(0), self._fold(1)
        taus, p_e = _threshold_errors(finite0, finite1, self.prior0, forced0, forced1)
        taus = taus[np.argsort(p_e, kind="stable")[:_REPLY_TAUS]]
        a = np.hstack([self._fuse_one_given_level(i, taus, h) for h in (0, 1)])
        levels = len(kept.llr)
        trial = [list(c) for c in all_log_thresholds]
        tried = {best[2]}
        for row in np.unique(a, axis=0):
            cuts = _envelope_cuts(row[:levels], row[levels:], self.prior0, bracket, len(best[2]))
            if cuts in tried:
                continue
            tried.add(cuts)
            trial[i] = cuts
            p_e, tau = self.evaluate(trial)
            if p_e < best[0]:
                best, kept = (p_e, tau, cuts), self._slots[i]
        self._set(i, kept)
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
    quantizers = tuple(
        Quantizer(tuple(math.exp(t) for t in coords)) for coords in best_conf
    )
    channels = tuple(
        channel_from_quantizer(q, pair) for q, pair in zip(quantizers, pairs)
    )
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
    parts = [_sensor_part(template, law) for law in (template.pmf0, template.pmf1)]
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
