"""Uncertainty classes and least-favorable-distribution constructions.

Three classes of distributional uncertainty are supported:

* Gaussian mean bands: every member is a Gaussian with common variance and
  mean inside an interval. The least favorable pair pushes the two bands
  toward each other (upper endpoint of the null band, lower endpoint of the
  alternative band).
* KL-divergence balls around Gaussian nominals: the geometric-mixture
  (exponential tilt) pair whose tilt exponents are solved so each member
  sits exactly on its ball boundary. This pair is a best response in the
  divergence sense but its likelihood ratio is an affine function of the
  nominal one, and the class as a whole is *not* jointly stochastically
  bounded; :func:`joint_boundedness_check` measures the violation over
  the whole ball.
* Epsilon-contamination: the classical censored-likelihood-ratio pair whose
  clip constants are solved from the two normalization equations.

Every construction returns an :class:`LfdPair`: its two laws ``q0`` and
``q1``, each read through its exact ``cdf`` like any class member (the band
and KL laws are :class:`GaussianSpec`, the contamination laws
:class:`CensoredGaussian`), a log-likelihood ratio, and the construction
parameters in ``meta``. Every log-likelihood ratio inverts in closed form:
band, contamination and equal-variance KL pairs (mean0 < mean1) carry an
affine or clipped-affine :class:`ClippedAffineLlr`, and every other KL pair
a :class:`QuadraticLlr`. No log-LR is cut on a grid.
:func:`cut_log_lr` is the one inversion, into levels {t_(d-1) <= log_lr < t_d},
and :func:`level_masses` the one way to read a list of laws on them, as a
(laws x levels) array: a read of Gaussians in one batch of erfc values,
one with any other law by scalar cdf differences (:func:`_cdf_masses`, as a
sensor's channel reads its pair's two laws). A sensor rule cuts at its log
LR thresholds, :func:`joint_boundedness_check` at its t grid, whose range
:meth:`LfdPair.log_lr_range` gives in closed form. Every class gives its
extreme P(log_lr < t) there in closed form (``boundedness_gaps``); the KL
ball's probe family (:meth:`KlBallClass.members`) serves the saddle pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._roots import bernoulli_kl_root, solve_decreasing, solve_increasing
from .distributions import _SQRT2, GaussianSpec

# Both certificates (joint_boundedness_check and fusion.saddle_verify)
# forgive a gap or dominance excess within CERTIFICATE_TOL as rounding, and
# take as witness the first candidate, in their scan order, within
# WITNESS_TOL of the worst one, so mirror-image witnesses of a symmetric
# class resolve to the first one whatever the rounding.
CERTIFICATE_TOL = 1e-9
WITNESS_TOL = 1e-12
_KL_SOLVE_TOL = 1e-9
# A log threshold within this of a flat (clipped) log-LR stretch is lowered
# by it, so a threshold that only exp/log rounding separates from the
# stretch puts the stretch in the level above, as left-closed levels require.
_LLR_SLACK = 1e-12


@dataclass(frozen=True)
class GaussianBandClass:
    """Gaussians with fixed sigma and mean constrained to [mu_lo, mu_hi]."""

    mu_lo: float
    mu_hi: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu_lo) and math.isfinite(self.mu_hi)):
            raise ValueError(f"mean band endpoints must be finite: [{self.mu_lo}, {self.mu_hi}]")
        if self.mu_lo > self.mu_hi:
            raise ValueError(f"mean band is empty: [{self.mu_lo}, {self.mu_hi}]")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def boundedness_gaps(self, side: int, pair: LfdPair, t: np.ndarray, below) -> np.ndarray:
        """The gap of :func:`joint_boundedness_check` at each t between the
        LFD and the band's extreme member (``below`` reads laws' P(log_lr < t)).
        The log-LR rises in y, so P(log_lr < t) falls with the mean: the
        extreme is the endpoint toward the other band, mu_hi under H0 (side
        0) and mu_lo under H1, which is the band LFD's own law; then every
        gap is 0.0 and nothing is read."""
        endpoint = GaussianSpec((self.mu_hi, self.mu_lo)[side], self.sigma)
        lfd = (pair.q0, pair.q1)[side]
        if endpoint == lfd:
            return np.zeros(len(t))
        lfd_row, extreme = below([lfd, endpoint])
        return lfd_row - extreme if side == 0 else extreme - lfd_row


@dataclass(frozen=True)
class KlBallClass:
    """All distributions within KL divergence ``radius`` (nats) of ``nominal``."""

    nominal: GaussianSpec
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def boundedness_gaps(self, side: int, pair: LfdPair, t: np.ndarray, below) -> np.ndarray:
        """The gap of :func:`joint_boundedness_check` at each t between the
        LFD and the ball's extreme. Over the ball, Q(E) of any event E takes
        every x with kl(x || P(E)) <= radius and no other (data processing;
        a tilt of the nominal on E attains it, Levy 2009), so the gap is the
        Bernoulli KL root above the nominal's P(E) (:func:`bernoulli_kl_root`,
        all t at once) less the LFD's, for E = {log_lr >= t} under H0 (side
        0) and {log_lr < t} under H1. Both are read once, from tail-exact
        masses (``below(laws, tails=True)``), so a tiny P(E) keeps its root."""
        events = below([(pair.q0, pair.q1)[side], self.nominal], tails=True)
        lfd, nominal = events[1 - side]
        return bernoulli_kl_root(nominal, self.radius) - lfd

    def members(self, n: int, toward: GaussianSpec) -> list[GaussianSpec]:
        """Gaussian probe members of the ball: max(3, n - 2) scales x n means.

        The probes are exponential tilts of the nominal in both natural
        parameters: mean shifts (along the direction of ``toward``, the
        opposite nominal) and variance scalings, gridded so every member
        lies inside the ball. Mean shifts alone cannot violate joint
        boundedness for equal-variance nominals (their cdfs are totally
        ordered), so the variance direction is what makes this family an
        effective falsifier. A radius so small that no scale on the grid
        fits (about 1e-31 and below) gives the nominal alone, as radius 0
        does: the nominal is in every ball. A smallest variance scale below
        1e-3 (radius above 6.41 nats) is solved in its logarithm, so it is
        exact to 1e-12 relative. A radius whose smallest variance scale,
        exp(-radius - 1/2), is below the normal floats (about 708 nats and
        above) raises ValueError.
        """
        nominal = self.nominal
        if self.radius == 0.0:
            return [nominal]
        eps, sigma = self.radius, nominal.sigma

        # Variance-scale range: tau^2 - 1 - 2 ln tau = 2 eps at the boundary.
        def scale_gap(tau: float) -> float:
            return tau * tau - 1.0 - 2.0 * math.log(tau)

        # Brackets from the radius: scale_gap(tau) >= (tau - 1)^2 above 1 and
        # >= -1 - 2 ln tau below it, so each end reaches 2 eps (ln tau =
        # -eps - 0.501 clears 2 eps by 0.002, beyond any rounding).
        lo = math.exp(-eps - 0.5)
        if lo < sys.float_info.min:
            raise ValueError(f"KL radius {eps!r} is too large: its variance scales underflow")
        hi = max(8.0, 1.0 + math.sqrt(2.0 * eps))
        tau_hi = solve_increasing(scale_gap, 1.0, hi, 2.0 * eps, tol=1e-13)
        if lo >= 1e-3:
            tau_lo = solve_decreasing(scale_gap, 1e-3, 1.0, 2.0 * eps, tol=1e-13)
        else:  # below 1e-3 an absolute 1e-13 in tau is coarse: solve in ln tau,
            # then step 1e-12 inside the ball, so its boundary row outlives rounding
            log_gap = lambda u: math.exp(2.0 * u) - 1.0 - 2.0 * u
            log_lo = solve_decreasing(log_gap, -eps - 0.501, 0.0, 2.0 * eps, tol=1e-13)
            tau_lo = math.exp(log_lo + 1e-12)
        members: list[GaussianSpec] = []
        direction = 1.0 if toward.mean >= nominal.mean else -1.0
        for tau in np.linspace(tau_lo, tau_hi, max(3, n - 2)):
            budget = 2.0 * eps - scale_gap(float(tau))
            if budget < 0.0:
                continue
            radius = sigma * math.sqrt(budget)
            for frac in np.linspace(-1.0, 1.0, n):
                members.append(
                    GaussianSpec(nominal.mean + direction * float(frac) * radius, float(tau) * sigma)
                )
        return members or [nominal]


@dataclass(frozen=True)
class EpsContaminationClass:
    """Mixtures (1 - eps) * nominal + eps * H with H arbitrary."""

    nominal: GaussianSpec
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {self.eps}")

    def boundedness_gaps(self, side: int, pair: LfdPair, t: np.ndarray, below) -> np.ndarray:
        """The gap of :func:`joint_boundedness_check` at each t between the
        Huber LFD and the class's extreme (``below`` reads laws' P(log_lr < t)).
        Q(A) = (1 - eps) * P_nom(A) + eps * H(A) for A = {log_lr < t} is
        least at (1 - eps) * P_nom(A) (side 0) and greatest at that plus eps
        (side 1); where A is empty or the whole line every law reads 0 or 1
        and the gap is 0.0. The nominal and the LFD are read once each; the
        gaps are the residual of the clip constants."""
        lfd, nominal = below([(pair.q0, pair.q1)[side], self.nominal])
        if side == 0:
            gaps = lfd - (1.0 - self.eps) * nominal
        else:
            gaps = (1.0 - self.eps) * nominal + self.eps - lfd
        settled = [math.isinf(_flat_boundary(pair.log_lr, s)) for s in t.tolist()]
        return np.where(settled, 0.0, gaps)


@dataclass(frozen=True)
class CensoredGaussian:
    """One law of the censored-likelihood-ratio (Huber) pair: 1 - eps times
    ``lo_weight`` * p0 below ``split`` and p1 / ``hi_div`` above it.

    The H0 law is p0 up to its upper clip point y_hi and p1 / c_hi past
    it (``lo_weight`` 1); the H1 law is c_lo * p0 up to its lower clip point
    y_lo and p1 past it (``hi_div`` 1). Scaling by 1 is exact, so ``cdf``
    is the pair's closed-form cdf bit for bit.
    """

    p0: GaussianSpec
    p1: GaussianSpec
    eps: float
    split: float
    lo_weight: float = 1.0
    hi_div: float = 1.0

    def cdf(self, x: float) -> float:
        val = self.lo_weight * self.p0.cdf(min(x, self.split))
        if x > self.split:
            val += (self.p1.cdf(x) - self.p1.cdf(self.split)) / self.hi_div
        return (1.0 - self.eps) * val

    def pdf(self, x: float) -> float:
        """The density; continuous, as the LR at ``split`` is the clip constant."""
        if x <= self.split:
            return (1.0 - self.eps) * self.lo_weight * self.p0.pdf(x)
        return (1.0 - self.eps) * self.p1.pdf(x) / self.hi_div


@dataclass(frozen=True)
class ClippedAffineLlr:
    """Log-LR offset + clip(slope * (y - mid), lo, hi) with slope > 0.

    Evaluates scalars or arrays; :meth:`boundary` inverts it in closed form.
    """

    slope: float
    mid: float
    offset: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def __call__(self, y):
        return self.offset + np.clip(
            self.slope * (np.asarray(y, dtype=float) - self.mid), self.lo, self.hi
        )

    def boundary(self, s: float) -> float:
        """inf{y : log_lr(y) >= s}.

        -inf when every y qualifies, +inf when none does. The clip levels
        are the float sums ``offset + lo``/``offset + hi`` that evaluation
        returns, so an s read off the log-LR classifies its flat stretch.
        """
        if s <= self.offset + self.lo:
            return -math.inf
        if s > self.offset + self.hi:
            return math.inf
        return self.mid + (s - self.offset) / self.slope


@dataclass(frozen=True)
class QuadraticLlr:
    """Log-LR log q1(y) - log q0(y) = a*y^2 + b*y + c of two Gaussians (any
    real a, b, c), evaluated as the log-density difference and inverted in
    closed form by :meth:`crossings`."""

    q0: GaussianSpec
    q1: GaussianSpec

    def __call__(self, y):
        return self.q1.logpdf(y) - self.q0.logpdf(y)

    def _coefficients(self) -> tuple[float, float, float]:
        """(a, b, c) of the log-LR a*y^2 + b*y + c."""
        (m0, s0), (m1, s1) = (self.q0.mean, self.q0.sigma), (self.q1.mean, self.q1.sigma)
        a = (s1 - s0) * (s1 + s0) / (2.0 * (s0 * s1) ** 2)  # s1 - s0 is exact for close sigmas
        b = m1 / (s1 * s1) - m0 / (s0 * s0)
        return a, b, math.log(s0 / s1) + 0.5 * (m0 / s0) ** 2 - 0.5 * (m1 / s1) ** 2

    def crossings(self, s: float) -> list[float]:
        """Sorted points where the log-LR crosses s, by the cancellation-free
        root pair q/a, (c - s)/q with q = -(b + sign(b)*sqrt(disc))/2."""
        a, b, c = self._coefficients()
        k = c - s
        disc = b * b - 4.0 * a * k
        if not (math.isfinite(s) and disc > 0.0):  # no root, or a tangent that crosses nothing
            return []
        if a == 0.0:
            return [-k / b]
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return sorted((q / a, k / q))

    def split(self, levels: Sequence[float]) -> tuple[list[float], np.ndarray]:
        """Sorted crossings of all levels, and the log-LR at a point inside
        each segment of the line between them."""
        cuts = sorted(y for s in levels for y in self.crossings(s))
        edges = np.array([cuts[0] - 1.0, *cuts, cuts[-1] + 1.0]) if cuts else np.zeros(2)
        return cuts, self(0.5 * (edges[:-1] + edges[1:]))

    def vertex(self) -> float:
        """The turning point -b / (2a) of the quadratic; nan when a = 0
        (equal sigmas, an affine log-LR)."""
        a, b, _ = self._coefficients()
        return -b / (2.0 * a) if a != 0.0 else math.nan


@dataclass(frozen=True, eq=False)
class LfdPair:
    """A matched pair of least favorable distributions.

    ``q0`` and ``q1`` are the two laws, read through their exact ``cdf``
    like any class member; ``log_lr`` is the log-likelihood ratio
    log(q1/q0), evaluable on scalars or numpy arrays and inverted in closed
    form. ``meta`` carries the construction kind and parameters;
    ``support`` is the interval on which densities are numerically
    non-negligible.
    """

    q0: GaussianSpec | CensoredGaussian
    q1: GaussianSpec | CensoredGaussian
    log_lr: ClippedAffineLlr | QuadraticLlr
    support: tuple[float, float]
    meta: dict = field(default_factory=dict)

    def log_lr_range(self) -> tuple[float, float]:
        """(min, max) of the log-LR over the support, in closed form: its
        values at the two support ends and, for a quadratic, at a vertex
        inside the support. An end where the log-LR overflows is +/-inf (or
        NaN), without a warning; the caller decides."""
        ends = list(self.support)
        if isinstance(self.log_lr, QuadraticLlr):
            vertex = self.log_lr.vertex()
            if ends[0] < vertex < ends[1]:
                ends.append(vertex)
        with np.errstate(over="ignore", invalid="ignore"):
            llr = self.log_lr(np.array(ends))
        return float(np.min(llr)), float(np.max(llr))


def cut_log_lr(pair: LfdPair, log_t) -> tuple[tuple[float, ...], np.ndarray]:
    """Cut the pair's log-LR at sorted log thresholds: (cuts, segment_levels).

    The segment from ``cuts[i-1]`` (inclusive) to ``cuts[i]`` has level
    ``segment_levels[i]``, level d holding {log_t[d-1] <= log_lr < log_t[d]}.
    A :class:`ClippedAffineLlr` has one cut per threshold, level d being
    segment d; a threshold within ``_LLR_SLACK`` of a clip level is lowered
    by it. Its cuts are clamped to the support (the mass outside is below
    1e-15), except a -inf threshold's (LR threshold <= 0) and a +inf cut (no
    y reaches the threshold). A :class:`QuadraticLlr` is cut at every
    crossing of every threshold, each segment taking the level of the log-LR
    inside it.
    """
    llr = pair.log_lr
    if isinstance(llr, QuadraticLlr):
        cuts, inner = llr.split(log_t)
        return tuple(cuts), np.searchsorted(log_t, inner, side="right")
    lo, hi = pair.support

    def cut(s: float) -> float:
        if s == -math.inf:
            return -math.inf
        b = _flat_boundary(llr, s)
        return b if b == math.inf else min(max(b, lo), hi)

    return tuple([cut(float(s)) for s in log_t]), np.arange(len(log_t) + 1)


def _flat_boundary(llr: ClippedAffineLlr, s: float) -> float:
    """``llr.boundary(s)``, with an s within ``_LLR_SLACK`` of a flat
    (clipped) stretch lowered by it: -inf where {log_lr < s} is empty, +inf
    where it is the whole line."""
    if abs(s - (llr.offset + llr.lo)) <= _LLR_SLACK or abs(s - (llr.offset + llr.hi)) <= _LLR_SLACK:
        s -= _LLR_SLACK
    return llr.boundary(s)


def level_masses(
    laws: Sequence, cuts: Sequence[float], segment_levels, num_levels: int, tails: bool = False
) -> np.ndarray:
    """Each law's mass on each level of :func:`cut_log_lr`'s cuts, one
    C-ordered row per law of ``laws``: exact cdf differences between the
    cuts, summed by segment level.

    Each distinct law (laws are told apart by ``==``, so they must be
    hashable) is read once. When every law is a :class:`GaussianSpec` they
    are read together (:func:`_gaussian_weights`), whatever their number;
    otherwise each law's ``cdf`` is called at each finite cut
    (:func:`_cdf_masses`). Both give the same bits. With ``tails`` a read
    of Gaussians takes each segment off a law's mean as a difference of
    tails instead, exact to its relative precision however small.
    """
    reads: dict = {}  # distinct law -> its row
    row_of = [reads.setdefault(law, len(reads)) for law in laws]
    cuts, n = np.asarray(cuts, dtype=float), len(reads)
    if all(isinstance(law, GaussianSpec) for law in reads):
        # one bincount over the law rows back to back sums each row's
        # segments in order, as a bincount per row would
        flat = (np.arange(0, n * num_levels, num_levels)[:, None] + segment_levels).ravel()
        weights = _gaussian_weights(list(reads), cuts, tails).ravel()
        mass = np.bincount(flat, weights, n * num_levels).reshape(n, num_levels)
    else:
        mass = np.array(_cdf_masses(reads, cuts.tolist(), segment_levels, num_levels))
        mass = mass.reshape(n, num_levels)
    return mass[row_of] if n < len(laws) else mass


def _cdf_masses(
    laws, cuts: Sequence[float], segment_levels: np.ndarray, num_levels: int
) -> list[list[float]]:
    """Each law's mass on each level, a list per law: the differences of its
    ``cdf`` at the cuts (exactly 0 at -inf and 1 at +inf), summed by segment
    level in cut order, as ``np.bincount`` sums them."""
    ends, inf, rows = segment_levels.tolist(), math.inf, []
    for law in laws:
        cdf, row, below = law.cdf, [0.0] * num_levels, 0.0
        for c, level in zip(cuts, ends):
            at = 1.0 if c == inf else 0.0 if c == -inf else cdf(c)
            row[level] += at - below
            below = at
        row[ends[-1]] += 1.0 - below
        rows.append(row)
    return rows


def _gaussian_weights(
    specs: Sequence[GaussianSpec], cuts: np.ndarray, tails: bool = False
) -> np.ndarray:
    """Each Gaussian's mass between consecutive cuts, -inf and +inf
    included, one row per law: one array of z = (mean - cut) / (sigma *
    sqrt 2) at -inf, the cuts and +inf through one map of ``math.erfc``,
    the bits of :meth:`GaussianSpec.cdf`. With ``tails`` it maps |z|, each
    end's tail away from the mean, and a segment on one side of the mean is
    the difference of its ends' tails."""
    ends = np.concatenate(([-math.inf], cuts, [math.inf]))
    means = np.array([g.mean for g in specs])[:, None]
    scales = np.array([g.sigma for g in specs])[:, None] * _SQRT2
    z = (means - ends) / scales
    x = np.abs(z) if tails else z
    at = 0.5 * np.fromiter(map(math.erfc, x.ravel().tolist()), float, z.size).reshape(z.shape)
    lo, hi = at[:, :-1], at[:, 1:]
    if not tails:
        return hi - lo
    return np.where(z[:, 1:] >= 0.0, hi - lo, np.where(z[:, :-1] <= 0.0, lo - hi, 1.0 - lo - hi))


def gaussian_band_lfd(c0: GaussianBandClass, c1: GaussianBandClass) -> LfdPair:
    """Least favorable pair for two separated Gaussian mean bands.

    The worst case takes the null band's upper endpoint and the alternative
    band's lower endpoint; the resulting log-likelihood ratio is affine and
    increasing, and the pair is jointly stochastically bounded over the
    bands. Bands must share sigma and must not touch.
    """
    if c0.sigma != c1.sigma:
        raise ValueError("mean-band classes must share a common sigma")
    if not c0.mu_hi < c1.mu_lo:
        raise ValueError("classes overlap, no minimax test")
    sigma = c0.sigma
    q0 = GaussianSpec(c0.mu_hi, sigma)
    q1 = GaussianSpec(c1.mu_lo, sigma)
    log_lr = ClippedAffineLlr(
        slope=(q1.mean - q0.mean) / (sigma * sigma), mid=0.5 * (q0.mean + q1.mean)
    )
    lo = min(q0.mean, q1.mean) - 8.0 * sigma
    hi = max(q0.mean, q1.mean) + 8.0 * sigma
    return LfdPair(
        q0, q1, log_lr, support=(lo, hi), meta={"kind": "gaussian-band", "band0": c0, "band1": c1}
    )


def _kl_gaussians(q: GaussianSpec, p: GaussianSpec) -> float:
    var_ratio = (q.sigma / p.sigma) ** 2
    shift = (q.mean - p.mean) / p.sigma
    return math.log(p.sigma / q.sigma) + 0.5 * (var_ratio + shift * shift - 1.0)


def _geometric_tilt(p0: GaussianSpec, p1: GaussianSpec, s: float) -> GaussianSpec:
    """Normalized density proportional to p0^(1-s) * p1^s (again Gaussian).

    Equal-variance nominals tilt to the common sigma, exactly, with the
    linearly interpolated mean.
    """
    if p0.sigma == p1.sigma:
        return GaussianSpec((1.0 - s) * p0.mean + s * p1.mean, p0.sigma)
    precision = (1.0 - s) / p0.sigma**2 + s / p1.sigma**2
    if precision <= 0.0:
        raise ValueError(f"tilt {s} is not normalizable")
    mean = ((1.0 - s) * p0.mean / p0.sigma**2 + s * p1.mean / p1.sigma**2) / precision
    return GaussianSpec(mean, math.sqrt(1.0 / precision))


def kl_dabak_lfd(
    p0: GaussianSpec, p1: GaussianSpec, eps0: float, eps1: float
) -> LfdPair:
    """Geometric-mixture pair for KL balls of radii eps0, eps1 around p0, p1.

    The tilt exponents u and v are solved by bracketing bisection on [0, 1)
    so that D(q0_hat, p0) = eps0 and D(q1_hat, p1) = eps1 to within 1e-9
    nats; for equal-variance nominals they have the closed form
    u = sigma * sqrt(2 * eps0) / |mean1 - mean0| (and v alike). For
    equal-variance Gaussian nominals (mean0 < mean1) the pair is again
    Gaussian with the nominal sigma and linearly interpolated means, so its
    log-LR is affine and increasing and is carried as a
    :class:`ClippedAffineLlr`; every other pair carries its quadratic log-LR
    as a :class:`QuadraticLlr`. Raises when a radius is unreachable or the
    tilts cross (u + v >= 1), i.e. the hypotheses overlap.
    """
    if not (eps0 >= 0.0 and eps1 >= 0.0):
        raise ValueError("KL radii must be nonnegative")

    def solve_tilt(base: GaussianSpec, other: GaussianSpec, eps: float) -> float:
        if eps == 0.0:
            return 0.0
        if base.sigma == other.sigma:
            gap = abs(other.mean - base.mean)
            u = base.sigma * math.sqrt(2.0 * eps) / gap if gap > 0.0 else math.inf
            if u >= 1.0:
                raise ValueError("KL radii too large, hypotheses overlap")
            return u
        u_max = 1.0 - 1e-12
        f = lambda s: _kl_gaussians(_geometric_tilt(base, other, s), base)
        if f(u_max) < eps:
            raise ValueError("KL radii too large, hypotheses overlap")
        u = solve_increasing(f, 0.0, u_max, eps, tol=1e-12)
        if abs(f(u) - eps) > _KL_SOLVE_TOL:
            raise ValueError("KL radii too large, hypotheses overlap")
        return u

    u = solve_tilt(p0, p1, eps0)
    v = solve_tilt(p1, p0, eps1)
    if u + v >= 1.0:
        raise ValueError("KL radii too large, hypotheses overlap")
    q0 = _geometric_tilt(p0, p1, u)
    q1 = _geometric_tilt(p1, p0, v)
    if q0.sigma == q1.sigma and q0.mean < q1.mean:
        log_lr = ClippedAffineLlr(
            slope=(q1.mean - q0.mean) / (q0.sigma * q0.sigma), mid=0.5 * (q0.mean + q1.mean)
        )
    else:
        log_lr = QuadraticLlr(q0, q1)

    lo = min(q0.mean - 8.0 * q0.sigma, q1.mean - 8.0 * q1.sigma)
    hi = max(q0.mean + 8.0 * q0.sigma, q1.mean + 8.0 * q1.sigma)
    return LfdPair(
        q0,
        q1,
        log_lr,
        support=(lo, hi),
        meta={
            "kind": "kl-dabak",
            "u": u,
            "v": v,
            "eps0": eps0,
            "eps1": eps1,
            "nominal0": p0,
            "nominal1": p1,
        },
    )


def _exp_or_inf(x: float) -> float:
    """math.exp(x), overflowing to inf (as numpy's exp does) instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def huber_clipped_lfd(
    c0: EpsContaminationClass, c1: EpsContaminationClass
) -> LfdPair:
    """Censored-likelihood-ratio pair for two epsilon-contamination classes.

    The pair keeps (1 - eps) times the nominal density in the middle and
    replaces each tail by the opposite nominal scaled by a clip constant;
    the two constants are solved from the normalization equations by
    bisection, which makes the log-likelihood ratio the nominal one clamped
    to [log c_lo, log c_hi] (plus a constant when eps0 != eps1).

    Restricted to equal-variance Gaussian nominals with mean0 < mean1, so
    the nominal likelihood ratio is monotone and the clip regions are
    half-lines with closed-form tail masses.
    """
    p0, p1 = c0.nominal, c1.nominal
    if p0.sigma != p1.sigma or not p0.mean < p1.mean:
        raise ValueError(
            "clipped-LR construction requires equal-variance Gaussian nominals "
            "with mean0 < mean1"
        )
    eps0, eps1 = c0.eps, c1.eps
    sigma = p0.sigma
    # the nominal log-LR is slope * (y - mid)
    slope = (p1.mean - p0.mean) / (sigma * sigma)
    mid = 0.5 * (p0.mean + p1.mean)
    lo = p0.mean - 13.0 * sigma
    hi = p1.mean + 13.0 * sigma

    # Upper clip: (1/c_hi) * P1[l >= c_hi] - P0[l >= c_hi] = eps0/(1-eps0),
    # strictly decreasing in the boundary point y_hi.
    if eps0 == 0.0:
        y_hi = math.inf
    else:
        def upper_eq(y: float) -> float:
            return _exp_or_inf(-slope * (y - mid)) * p1.sf(y) - p0.sf(y)

        y_hi = solve_decreasing(upper_eq, lo, hi, eps0 / (1.0 - eps0), tol=1e-13)

    # Lower clip: c_lo * P0[l <= c_lo] - P1[l <= c_lo] = eps1/(1-eps1),
    # strictly increasing in the boundary point y_lo.
    if eps1 == 0.0:
        y_lo = -math.inf
    else:
        def lower_eq(y: float) -> float:
            return _exp_or_inf(slope * (y - mid)) * p0.cdf(y) - p1.cdf(y)

        y_lo = solve_increasing(lower_eq, lo, hi, eps1 / (1.0 - eps1), tol=1e-13)

    if not y_lo < y_hi:
        raise ValueError("contamination too large")

    log_c_hi = slope * (y_hi - mid) if math.isfinite(y_hi) else math.inf
    log_c_lo = slope * (y_lo - mid) if math.isfinite(y_lo) else -math.inf
    c_hi = math.exp(log_c_hi) if math.isfinite(log_c_hi) else math.inf
    c_lo = math.exp(log_c_lo) if math.isfinite(log_c_lo) else 0.0
    log_b = math.log1p(-eps1) - math.log1p(-eps0)

    return LfdPair(
        CensoredGaussian(p0, p1, eps0, y_hi, hi_div=c_hi),
        CensoredGaussian(p0, p1, eps1, y_lo, lo_weight=c_lo),
        ClippedAffineLlr(slope, mid, log_b, log_c_lo, log_c_hi),
        support=(p0.mean - 8.0 * sigma, p1.mean + 8.0 * sigma),
        meta={
            "kind": "huber",
            "c_lo": c_lo,
            "c_hi": c_hi,
            "y_lo": y_lo,
            "y_hi": y_hi,
            "ratio_offset": log_b,
            "eps0": eps0,
            "eps1": eps1,
            "nominal0": p0,
            "nominal1": p1,
        },
    )


@dataclass(frozen=True)
class BoundednessWitness:
    side: str
    member_index: int
    member: object
    t: float
    gap: float


@dataclass(frozen=True)
class BoundednessReport:
    holds: bool
    worst_violation: float
    tol: float
    witness: BoundednessWitness | None = None


def joint_boundedness_check(
    pair: LfdPair,
    class0_members,
    class1_members,
    t_grid: Sequence[float],
) -> BoundednessReport:
    """Verify the two-sided cdf sandwich of the robust LR over class members.

    For every member Q0 and every threshold t the null-side inequality
    Q0[log_lr < t] >= Q0_hat[log_lr < t] must hold, and symmetrically
    Q1[log_lr < t] <= Q1_hat[log_lr < t] on the alternative side. The
    log-LR is cut once at the t grid on the first read (:func:`cut_log_lr`,
    as a sensor rule with those log thresholds); column k of a law's
    cumulative level masses is its P(log_lr < t_k), and each side's LFD
    and members are read in one :func:`level_masses` call (a class's read
    with ``tails`` also gives P(log_lr >= t), summed from the top of
    tail-exact masses). A side given as a class with a closed-form extreme
    (``boundedness_gaps``:
    :class:`GaussianBandClass`, :class:`KlBallClass`,
    :class:`EpsContaminationClass`, with the pair of their LFD
    construction) is covered whole, as one member (index 0, the class)
    whose gap at t is the class's extreme. The witness is the first
    positive gap (h0 before h1, then member and threshold order) within
    ``WITNESS_TOL`` of the largest gap, and ``worst_violation`` is its gap,
    or 0.0 when no gap is positive. A worst violation beyond
    ``CERTIFICATE_TOL`` flips ``holds``, and only then is the witness
    reported. An empty member list adds nothing. Raises ValueError on a t
    grid that holds a NaN or is not strictly increasing.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or np.any(np.isnan(t)) or not np.all(t[1:] > t[:-1]):
        raise ValueError("t_grid must be strictly increasing and free of NaN")
    cut = []  # the log-LR cut at the t grid, made on the first read

    def below(laws, tails: bool = False):
        if not cut:
            cut.extend(cut_log_lr(pair, t))
        mass = level_masses(laws, *cut, len(t) + 1, tails)
        lower = np.cumsum(mass, axis=1)[:, :-1]
        return (lower, np.cumsum(mass[:, ::-1], axis=1)[:, -2::-1]) if tails else lower

    sides, rows = [], []
    for h, (side, members, lfd, sign) in enumerate((
        ("h0", class0_members, pair.q0, +1.0),
        ("h1", class1_members, pair.q1, -1.0),
    )):
        if hasattr(members, "boundedness_gaps"):  # the whole class, in closed form
            rows.append(members.boundedness_gaps(h, pair, t, below)[None])
            sides.append((side, 0, members))
        elif len(members):
            # h0 requires member >= LFD, h1 requires member <= LFD.
            read = below([lfd, *members])
            rows.append(sign * (read[0] - read[1:]))
            sides += [(side, idx, m) for idx, m in enumerate(members)]
    gaps = np.concatenate(rows).ravel() if rows else np.zeros(0)
    worst, witness = 0.0, None
    first = np.flatnonzero((gaps > 0.0) & (gaps >= gaps.max(initial=0.0) - WITNESS_TOL))
    if first.size:
        i = int(first[0])
        worst = float(gaps[i])
        side, idx, member = sides[i // len(t)]
        witness = BoundednessWitness(side, idx, member, float(t[i % len(t)]), worst)
    holds = worst <= CERTIFICATE_TOL
    return BoundednessReport(
        holds=holds, worst_violation=worst, tol=CERTIFICATE_TOL, witness=None if holds else witness
    )
