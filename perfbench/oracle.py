"""Independent reference math for the benchmark's output checks.

Nothing here imports robust_fusion. The least favorable pairs are rebuilt
from their textbook definitions (mean-band endpoints, equal-variance
exponential tilts with closed-form exponents, Huber's censored pair solved
by this module's own bisection), channels come from erf/erfc at the
analytic level boundaries, and fusion probabilities come from plain
enumeration, meet-in-the-middle, or closed-form binomial and multinomial
sums. Every probability is returned as a bracket
[P(S > tau + TIE), P(S > tau - TIE)], which accepts either side of a tie
and is exact away from ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIE = 1e-9
_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float, mean: float, sigma: float) -> float:
    return 0.5 * math.erfc((mean - x) / (sigma * _SQRT2))


def norm_sf(x: float, mean: float, sigma: float) -> float:
    return 0.5 * math.erfc((x - mean) / (sigma * _SQRT2))


def bisect(f, lo: float, hi: float, target: float, iters: int = 200) -> float:
    """Root of f(y) = target for nondecreasing f on a bracketing [lo, hi]."""
    if not f(lo) <= target <= f(hi):
        raise ValueError("target not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Pair:
    """Least favorable pair on the real line with an affine (clipped) log-LR.

    log_lr(y) = offset + clip(slope * (y - mid), clip_lo, clip_hi). The
    cdfs are exact; ``boundary(log_t)`` inverts the log-LR analytically.
    """

    q0_cdf: object
    q1_cdf: object
    slope: float
    mid: float
    offset: float = 0.0
    clip_lo: float = -math.inf
    clip_hi: float = math.inf
    y_hi: float = math.inf  # where the top clip starts on the observation axis
    plot_lo: float = 0.0  # interval where thresholds are drawn
    plot_hi: float = 0.0

    def log_lr(self, y: float) -> float:
        return self.offset + min(max(self.slope * (y - self.mid), self.clip_lo), self.clip_hi)

    def boundary(self, log_t: float) -> float:
        """inf{y : log_lr(y) >= log_t}.

        A threshold within TIE of a clip level of the log-LR lies on a flat
        stretch, which then belongs to the level above the threshold
        (quantizer intervals are left-closed): the boundary is -inf for the
        bottom stretch and y_hi for the top one.
        """
        if log_t <= self.offset + self.clip_lo + TIE:
            return -math.inf
        if log_t > self.offset + self.clip_hi + TIE:
            return math.inf
        if log_t >= self.offset + self.clip_hi - TIE:
            return self.y_hi
        return self.mid + (log_t - self.offset) / self.slope

    def on_flat_stretch(self, log_t: float) -> bool:
        """Whether a threshold sits within TIE of a clip level of the log-LR."""
        return any(
            abs(log_t - (self.offset + c)) <= TIE
            for c in (self.clip_lo, self.clip_hi)
            if math.isfinite(c)
        )

    def mix_quantile(self, p: float) -> float:
        mix = lambda y: 0.5 * (self.q0_cdf(y) + self.q1_cdf(y))
        return bisect(mix, self.plot_lo - 20.0, self.plot_hi + 20.0, p)


def gaussian_pair(mean0: float, mean1: float, sigma: float) -> Pair:
    return Pair(
        q0_cdf=lambda x: norm_cdf(x, mean0, sigma),
        q1_cdf=lambda x: norm_cdf(x, mean1, sigma),
        slope=(mean1 - mean0) / (sigma * sigma),
        mid=0.5 * (mean0 + mean1),
        plot_lo=mean0 - sigma,
        plot_hi=mean1 + sigma,
    )


def band_pair(spec: dict) -> Pair:
    """Mean bands: the null band's upper end against the alternative's lower end."""
    return gaussian_pair(spec["band0"]["mu_hi"], spec["band1"]["mu_lo"], spec["sigma"])


def kl_pair(spec: dict) -> Pair:
    """KL balls around equal-variance Gaussians.

    Tilting p0 toward p1 by exponent u gives N(m0 + u*(m1 - m0), sigma^2),
    whose KL divergence from p0 is (u * (m1 - m0))^2 / (2 sigma^2); setting
    it to the radius gives u in closed form.
    """
    m0, m1 = spec["nominal0"]["mean"], spec["nominal1"]["mean"]
    sigma = spec["nominal0"]["sigma"]
    gap = m1 - m0
    u = math.sqrt(2.0 * spec["eps0"]) * sigma / gap
    v = math.sqrt(2.0 * spec["eps1"]) * sigma / gap
    return gaussian_pair(m0 + u * gap, m1 - v * gap, sigma)


def huber_pair(spec: dict) -> Pair:
    """Huber's censored-likelihood-ratio pair for two contamination classes.

    q0 = (1-e0) p0 below y_hi and (1-e0) p1 / c_hi above it; q1 = (1-e1) p1
    above y_lo and (1-e1) c_lo p0 below it. The clip points solve the two
    normalization equations.
    """
    m0, m1 = spec["nominal0"]["mean"], spec["nominal1"]["mean"]
    sigma = spec["nominal0"]["sigma"]
    e0, e1 = spec["eps0"], spec["eps1"]
    slope = (m1 - m0) / (sigma * sigma)
    mid = 0.5 * (m0 + m1)
    llr = lambda y: slope * (y - mid)
    lo, hi = m0 - 13.0 * sigma, m1 + 13.0 * sigma
    # exp(-llr) P1[Y > y] - P0[Y > y] decreases in y; negate to bisect upward
    y_hi = bisect(
        lambda y: -(math.exp(-llr(y)) * norm_sf(y, m1, sigma) - norm_sf(y, m0, sigma)),
        lo, hi, -e0 / (1.0 - e0),
    )
    y_lo = bisect(
        lambda y: math.exp(llr(y)) * norm_cdf(y, m0, sigma) - norm_cdf(y, m1, sigma),
        lo, hi, e1 / (1.0 - e1),
    )
    log_c_hi, log_c_lo = llr(y_hi), llr(y_lo)
    c_hi, c_lo = math.exp(log_c_hi), math.exp(log_c_lo)

    def q0_cdf(x: float) -> float:
        val = norm_cdf(min(x, y_hi), m0, sigma)
        if x > y_hi:
            val += (norm_cdf(x, m1, sigma) - norm_cdf(y_hi, m1, sigma)) / c_hi
        return (1.0 - e0) * val

    def q1_cdf(x: float) -> float:
        val = c_lo * norm_cdf(min(x, y_lo), m0, sigma)
        if x > y_lo:
            val += norm_cdf(x, m1, sigma) - norm_cdf(y_lo, m1, sigma)
        return (1.0 - e1) * val

    return Pair(
        q0_cdf=q0_cdf,
        q1_cdf=q1_cdf,
        slope=slope,
        mid=mid,
        offset=math.log1p(-e1) - math.log1p(-e0),
        clip_lo=log_c_lo,
        clip_hi=log_c_hi,
        y_hi=y_hi,
        plot_lo=y_lo,
        plot_hi=y_hi,
    )


PAIR_BUILDERS = {
    "gaussian-band": band_pair,
    "kl-ball": kl_pair,
    "eps-contamination": huber_pair,
}


def default_log_thresholds(pair: Pair, num_thresholds: int) -> list[float]:
    """Log-LR thresholds at equally spaced equal-mixture quantiles."""
    return [
        pair.log_lr(pair.mix_quantile(d / (num_thresholds + 1.0)))
        for d in range(1, num_thresholds + 1)
    ]


def channel_masses(pair: Pair, log_thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Per-level masses under q0 and q1 at the analytic boundaries."""
    bounds = [pair.boundary(lt) for lt in log_thresholds]
    cuts0 = [0.0] + [_cdf_at(pair.q0_cdf, b) for b in bounds] + [1.0]
    cuts1 = [0.0] + [_cdf_at(pair.q1_cdf, b) for b in bounds] + [1.0]
    return np.diff(cuts0), np.diff(cuts1)


def _cdf_at(cdf, y: float) -> float:
    return 0.0 if y == -math.inf else 1.0 if y == math.inf else cdf(y)


@dataclass(frozen=True)
class Channel:
    """Level masses under both hypotheses and the per-level LLR.

    A level with no mass under either hypothesis gets a NaN LLR; its zero
    probability keeps it out of every sum below.
    """

    mass0: np.ndarray
    mass1: np.ndarray

    @property
    def llr(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.mass1) - np.log(self.mass0)


def sensor_channel(spec: dict) -> tuple[Channel, Pair | None, list[float] | None]:
    """Reference channel of one scenario sensor, with its pair and log thresholds."""
    if spec["kind"] == "explicit-pmf":
        p0 = np.asarray(spec["pmf0"], dtype=float)
        p1 = np.asarray(spec["pmf1"], dtype=float)
        return Channel(p0 / p0.sum(), p1 / p1.sum()), None, None
    pair = PAIR_BUILDERS[spec["kind"]](spec)
    q = spec["quantizer"]
    if "thresholds" in q:
        log_t = [math.log(t) for t in q["thresholds"]]
    else:
        log_t = default_log_thresholds(pair, q["num_thresholds"])
    return Channel(*channel_masses(pair, log_t)), pair, log_t


def _joint(channels, which: int) -> tuple[np.ndarray, np.ndarray]:
    """All LLR sums and their probabilities under hypothesis ``which``."""
    sums = np.zeros(1)
    probs = np.ones(1)
    for ch in channels:
        sums = np.add.outer(sums, ch.llr).ravel()
        probs = np.multiply.outer(probs, ch.mass1 if which else ch.mass0).ravel()
    return sums, probs


def bracket_enumerate(channels, which: int, tau: float) -> tuple[float, float]:
    """[P(S > tau + TIE), P(S > tau - TIE)] by full enumeration."""
    sums, probs = _joint(channels, which)
    return float(probs[sums > tau + TIE].sum()), float(probs[sums > tau - TIE].sum())


def bracket_mitm(channels, which: int, tau: float) -> tuple[float, float]:
    """Same bracket by meet-in-the-middle: two sorted half-sums plus searchsorted."""
    half = len(channels) // 2
    sa, pa = _joint(channels[:half], which)
    sb, pb = _joint(channels[half:], which)
    order = np.argsort(sb, kind="stable")
    sb, pb = sb[order], pb[order]
    tail = np.concatenate([np.cumsum(pb[::-1])[::-1], [0.0]])  # mass of sb[i:]

    def above(t: float) -> float:
        idx = np.searchsorted(sb, t - sa, side="right")
        return float(np.dot(pa, tail[idx]))

    return above(tau + TIE), above(tau - TIE)


def bracket_identical(ch: Channel, k: int, which: int, tau: float) -> tuple[float, float]:
    """Bracket for k identical sensors as a sum over level counts.

    Two levels give the binomial tail; more levels give the multinomial sum
    over all count vectors (c_0, ..., c_D) with sum k.
    """
    mass = ch.mass1 if which else ch.mass0
    llr = ch.llr
    levels = len(mass)
    counts = np.array(
        [c + (k - sum(c),) for c in _compositions(k, levels - 1)], dtype=float
    )
    log_coef = math.lgamma(k + 1) - np.sum(
        [np.vectorize(math.lgamma)(counts[:, d] + 1) for d in range(levels)], axis=0
    )
    with np.errstate(divide="ignore"):
        log_prob = log_coef + counts @ np.log(mass)
    probs = np.exp(log_prob)
    sums = counts @ llr
    return float(probs[sums > tau + TIE].sum()), float(probs[sums > tau - TIE].sum())


def _compositions(k: int, parts: int):
    """Count vectors of length ``parts`` with total at most k."""
    if parts == 0:
        yield ()
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


def error_bracket(channels, tau: float, prior0: float, method=bracket_enumerate):
    """Brackets for P_F, P_M and P_E of the tie-to-null fusion rule."""
    f_lo, f_hi = method(channels, 0, tau)
    d1_lo, d1_hi = method(channels, 1, tau)
    m_lo, m_hi = 1.0 - d1_hi, 1.0 - d1_lo
    e_lo = prior0 * f_lo + (1.0 - prior0) * m_lo
    e_hi = prior0 * f_hi + (1.0 - prior0) * m_hi
    return (f_lo, f_hi), (m_lo, m_hi), (e_lo, e_hi)


def tie_to_null_error(channels, tau: float, prior0: float) -> float:
    """P_E when every sum within TIE of tau decides the null hypothesis."""
    (f_lo, _), (_, m_hi), _ = error_bracket(channels, tau, prior0)
    return prior0 * f_lo + (1.0 - prior0) * m_hi


def best_threshold_error(channels, prior0: float) -> float:
    """Minimum P_E over all fusion thresholds (ties decide the null)."""
    s0, p0 = _joint(channels, 0)
    s1, p1 = _joint(channels, 1)
    atoms = np.unique(np.concatenate([s0, s1]))
    candidates = np.concatenate([[atoms[0] - 1.0], atoms])
    best = math.inf
    for tau in candidates:
        p_f = p0[s0 > tau + TIE].sum()
        p_m = 1.0 - p1[s1 > tau + TIE].sum()
        best = min(best, prior0 * p_f + (1.0 - prior0) * p_m)
    return float(best)


def in_bracket(value: float, bracket: tuple[float, float], slack: float = 1e-10) -> bool:
    return bracket[0] - slack <= value <= bracket[1] + slack

