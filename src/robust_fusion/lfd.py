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
  bounded; :func:`joint_boundedness_check` can exhibit a violating member.
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
and :func:`level_masses` the one way to read laws on them: a list of laws
at once, as a (laws x levels) array, a large read of Gaussians in one batch
and contaminated members through their nominal's one row. A sensor rule
cuts at its log LR thresholds, :func:`joint_boundedness_check` at its t
grid, whose range :meth:`LfdPair.log_lr_range` gives in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._roots import solve_decreasing, solve_increasing
from .distributions import _SQRT2, GaussianSpec

BOUNDEDNESS_TOL = 1e-9
# A later worst-case witness replaces the incumbent only when it is worse by
# more than this, so mirror-image witnesses of a symmetric class resolve to
# the first one whatever the rounding.
WITNESS_TOL = 1e-12
_KL_SOLVE_TOL = 1e-9
# A log threshold within this of a flat (clipped) log-LR stretch is lowered
# by it, so a threshold that only exp/log rounding separates from the
# stretch puts the stretch in the level above, as left-closed levels require.
_LLR_SLACK = 1e-12
# level_masses reads Gaussians in one batch from this many cdf values
# (laws x cuts) on; below it the scalar cdf loop is faster. A channel's 2
# laws at 3 cuts take ~4 us looped and ~16 us batched, 11 members at 101
# cuts ~600 us looped and ~120 us batched (Python 3.11, numpy 2.4).
_BATCH_MIN_VALUES = 32


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

    def members(self, n: int) -> list[GaussianSpec]:
        """Gaussian members on an n-point mean grid (band endpoints included)."""
        if n < 1:
            raise ValueError("need at least one member")
        if n == 1:
            return [GaussianSpec(0.5 * (self.mu_lo + self.mu_hi), self.sigma)]
        return [GaussianSpec(float(m), self.sigma) for m in np.linspace(self.mu_lo, self.mu_hi, n)]


@dataclass(frozen=True)
class KlBallClass:
    """All distributions within KL divergence ``radius`` (nats) of ``nominal``."""

    nominal: GaussianSpec
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def members(self, n: int, toward: GaussianSpec) -> list[GaussianSpec]:
        """Gaussian probe members of the ball: max(3, n - 2) scales x n means.

        The probes are exponential tilts of the nominal in both natural
        parameters: mean shifts (along the direction of ``toward``, the
        opposite nominal) and variance scalings, gridded so every member
        lies inside the ball. Mean shifts alone cannot violate joint
        boundedness for equal-variance nominals (their cdfs are totally
        ordered), so the variance direction is what makes this family an
        effective falsifier.
        """
        nominal = self.nominal
        if self.radius == 0.0:
            return [nominal]
        eps, sigma = self.radius, nominal.sigma

        # Variance-scale range: tau^2 - 1 - 2 ln tau = 2 eps at the boundary.
        def scale_gap(tau: float) -> float:
            return tau * tau - 1.0 - 2.0 * math.log(tau)

        tau_hi = solve_increasing(scale_gap, 1.0, 8.0, 2.0 * eps, tol=1e-13)
        tau_lo = solve_decreasing(scale_gap, 1e-3, 1.0, 2.0 * eps, tol=1e-13)
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
        return members


@dataclass(frozen=True)
class EpsContaminationClass:
    """Mixtures (1 - eps) * nominal + eps * H with H arbitrary."""

    nominal: GaussianSpec
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {self.eps}")

    def members(self, atoms: Sequence[float]) -> list:
        """Probes: the nominal, then one point-mass contamination per atom."""
        return [self.nominal, *(ContaminatedGaussian(self.nominal, self.eps, float(z)) for z in atoms)]


@dataclass(frozen=True)
class ContaminatedGaussian:
    """Contamination-class member (1 - eps) * nominal + eps * point mass."""

    nominal: GaussianSpec
    eps: float
    atom: float


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
        inside the support."""
        ends = list(self.support)
        if isinstance(self.log_lr, QuadraticLlr):
            vertex = self.log_lr.vertex()
            if ends[0] < vertex < ends[1]:
                ends.append(vertex)
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
    bottom, top = llr.offset + llr.lo, llr.offset + llr.hi  # the flat stretches

    def cut(s: float) -> float:
        if s == -math.inf:
            return -math.inf
        if abs(s - bottom) <= _LLR_SLACK or abs(s - top) <= _LLR_SLACK:
            s -= _LLR_SLACK
        b = llr.boundary(s)
        return b if b == math.inf else min(max(b, lo), hi)

    return tuple([cut(float(s)) for s in log_t]), np.arange(len(log_t) + 1)


def level_masses(
    laws: Sequence, cuts: Sequence[float], segment_levels, num_levels: int
) -> np.ndarray:
    """Each law's mass on each level of :func:`cut_log_lr`'s cuts, one
    C-ordered row per law of ``laws``: exact cdf differences between the
    cuts, summed by segment level. A law has a ``cdf``, or is a
    :class:`ContaminatedGaussian`: 1 - eps times its nominal's masses, plus
    eps at the level of the segment that holds its atom (left-closed: an
    atom on a cut joins the segment above).

    Each distinct law (laws are told apart by ``==``, so they must be
    hashable) is read once, contaminated members through their shared
    nominal. When every law read is a :class:`GaussianSpec` and the read
    needs at least ``_BATCH_MIN_VALUES`` cdf values (laws x cuts) they are
    read together (:func:`_gaussian_weights`); otherwise each law's ``cdf``
    is called at each finite cut. Both give the same bits. With a row of
    ``cuts`` and ``segment_levels`` per rule (+inf cuts pad a short row and
    add exactly 0.0) there is one (laws x levels) block per rule, each as
    read alone; contaminated members need one rule.
    """
    reads: dict = {}  # distinct law read -> its row
    row_of = [
        reads.setdefault(law.nominal if isinstance(law, ContaminatedGaussian) else law, len(reads))
        for law in laws
    ]
    rules = np.asarray(cuts, dtype=float)
    one = rules.ndim == 1
    rules = rules[None] if one else rules
    n, r = len(reads), len(rules)
    if n * rules.size >= _BATCH_MIN_VALUES and all(isinstance(law, GaussianSpec) for law in reads):
        weights = _gaussian_weights(list(reads), rules).ravel()
    else:
        weights = _cdf_weights(reads, rules.tolist())
    # one bincount over the (law, rule) rows back to back sums each row's
    # segments in order, as a bincount per row would; one row needs no offsets
    flat = np.ravel(segment_levels)
    if n * r != 1:
        flat = (np.arange(0, n * r * num_levels, num_levels).reshape(n, r, 1) + segment_levels).ravel()
    mass = np.bincount(flat, weights, n * r * num_levels).reshape(n, r, num_levels)
    if n < len(laws):
        mass = mass[row_of]
    contaminated = [i for i, law in enumerate(laws) if isinstance(law, ContaminatedGaussian)]
    if contaminated:  # one rule only: np.searchsorted refuses rows of cuts
        eps = np.array([laws[i].eps for i in contaminated])
        atoms = np.array([laws[i].atom for i in contaminated])
        mass[contaminated] *= (1.0 - eps)[:, None, None]
        mass[contaminated, 0, segment_levels[np.searchsorted(cuts, atoms, side="right")]] += eps
    return mass[:, 0] if one else mass.swapaxes(0, 1)


def _cdf_weights(laws, rules: list[list[float]]) -> list[float]:
    """Each law's mass between consecutive cuts of each rule, -inf and +inf
    included, rows back to back: the differences of its ``cdf`` at the cuts,
    which is exactly 0 at -inf and 1 at +inf."""
    inf = math.inf
    weights: list[float] = []
    for law in laws:
        cdf = law.cdf
        for cuts in rules:
            below = 0.0
            for c in cuts:
                at = 1.0 if c == inf else 0.0 if c == -inf else cdf(c)
                weights.append(at - below)
                below = at
            weights.append(1.0 - below)
    return weights


def _gaussian_weights(specs: Sequence[GaussianSpec], rules: np.ndarray) -> np.ndarray:
    """:func:`_cdf_weights` of Gaussians, one row per (law, rule): one array
    of (mean - cut) / (sigma * sqrt 2) at -inf, the cuts and +inf through
    one map of ``math.erfc``, the bits of :meth:`GaussianSpec.cdf`."""
    inf = np.full((len(rules), 1), math.inf)
    ends = np.hstack([-inf, rules, inf])
    means = np.array([g.mean for g in specs])[:, None, None]
    scales = np.array([g.sigma for g in specs])[:, None, None] * _SQRT2
    z = (means - ends) / scales
    at = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)
    return at[..., 1:] - at[..., :-1]


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
    class0_members: Sequence,
    class1_members: Sequence,
    t_grid: Sequence[float],
    tol: float = BOUNDEDNESS_TOL,
) -> BoundednessReport:
    """Verify the two-sided cdf sandwich of the robust LR over class members.

    For every member Q0 and every threshold t the null-side inequality
    Q0[log_lr < t] >= Q0_hat[log_lr < t] must hold, and symmetrically
    Q1[log_lr < t] <= Q1_hat[log_lr < t] on the alternative side. The
    log-LR is cut once at the t grid (:func:`cut_log_lr`, as a sensor rule
    with those log thresholds); column k of a law's cumulative level
    masses is its P(log_lr < t_k), and each side's LFD and members are
    read in one :func:`level_masses` call. Violations
    beyond ``tol`` flip ``holds`` and the worst one is reported as a
    witness; of candidates within ``WITNESS_TOL`` of each other the first
    found wins (h0 before h1, then member and threshold order). An empty
    member list adds nothing. Raises ValueError on a t grid that holds a
    NaN or is not strictly increasing.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or np.any(np.isnan(t)) or not np.all(t[1:] > t[:-1]):
        raise ValueError("t_grid must be strictly increasing and free of NaN")
    cuts, segment_levels = cut_log_lr(pair, t)

    def below(laws) -> np.ndarray:
        return np.cumsum(level_masses(laws, cuts, segment_levels, len(t) + 1), axis=1)[:, :-1]

    sides, rows = [], []
    for side, members, lfd, sign in (
        ("h0", class0_members, pair.q0, +1.0),
        ("h1", class1_members, pair.q1, -1.0),
    ):
        if len(members):
            # h0 requires member >= LFD, h1 requires member <= LFD.
            read = below([lfd, *members])
            rows.append(sign * (read[0] - read[1:]))
            sides += [(side, idx, m) for idx, m in enumerate(members)]
    gaps = np.concatenate(rows).ravel() if rows else np.zeros(0)
    # The witness is the first positive gap, replaced by each later gap that
    # beats it by more than WITNESS_TOL. No gap before the incumbent beats it
    # by more, so the next one is where the running maximum first does.
    running = np.maximum.accumulate(gaps)
    worst, witness = 0.0, None
    i = int(np.searchsorted(running, 0.0, side="right"))
    while i < gaps.size:
        worst = float(gaps[i])
        side, idx, member = sides[i // len(t)]
        witness = BoundednessWitness(side, idx, member, float(t[i % len(t)]), worst)
        i = int(np.searchsorted(running, worst + WITNESS_TOL, side="right"))
    holds = worst <= tol
    return BoundednessReport(
        holds=holds, worst_violation=worst, tol=tol, witness=None if holds else witness
    )
