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

Every construction returns an :class:`LfdPair` with evaluable log-densities,
an evaluable log-likelihood-ratio, exact cdfs, and the construction
parameters in ``meta``. Band, contamination and equal-variance KL pairs
carry their affine or clipped-affine log-likelihood ratio as a
:class:`ClippedAffineLlr`, which inverts in closed form; other log-LRs
(unequal-variance KL pairs) are inverted at grid crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._roots import crossings, solve_decreasing, solve_increasing
from .distributions import GaussianSpec, GridFunction, trapezoid

NORMALIZATION_TOL = 1e-8
BOUNDEDNESS_TOL = 1e-9
# A later worst-case witness replaces the incumbent only when it is worse by
# more than this, so mirror-image witnesses of a symmetric class resolve to
# the first one whatever the rounding.
WITNESS_TOL = 1e-12
AFFINITY_TOL = 1e-8
_KL_SOLVE_TOL = 1e-9


@dataclass(frozen=True)
class GaussianBandClass:
    """Gaussians with fixed sigma and mean constrained to [mu_lo, mu_hi]."""

    mu_lo: float
    mu_hi: float
    sigma: float

    def __post_init__(self) -> None:
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
        if self.radius < 0.0:
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

    def cdf(self, x: float) -> float:
        step = 1.0 if x >= self.atom else 0.0
        return (1.0 - self.eps) * self.nominal.cdf(x) + self.eps * step


@dataclass(frozen=True)
class CdfMember:
    """Class member known only through its cdf (e.g. an LFD used as member)."""

    cdf_fn: Callable[[float], float]

    def cdf(self, x: float) -> float:
        return self.cdf_fn(x)


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

    def boundary(self, s: float, strict: bool = False) -> float:
        """inf{y : log_lr(y) >= s} (> s when ``strict``).

        -inf when every y qualifies, +inf when none does. The clip levels
        are the float sums ``offset + lo``/``offset + hi`` that evaluation
        returns, so an s read off the log-LR classifies its flat stretch.
        """
        bottom = self.offset + self.lo
        top = self.offset + self.hi
        if s < bottom or (s == bottom and not strict):
            return -math.inf
        if s > top or (s == top and strict):
            return math.inf
        return self.mid + (s - self.offset) / self.slope


@dataclass(frozen=True, eq=False)
class LfdPair:
    """A matched pair of least favorable distributions.

    ``q0_logpdf`` and ``q1_logpdf`` evaluate the log-densities, ``log_lr``
    the log-likelihood ratio log(q1/q0); all three accept scalars or numpy
    arrays. ``q0_cdf``/``q1_cdf`` are exact scalar cdfs. ``meta`` carries
    the construction kind and parameters; ``support`` is the interval on
    which densities are numerically non-negligible.
    """

    q0_logpdf: Callable
    q1_logpdf: Callable
    log_lr: Callable
    q0_cdf: Callable[[float], float]
    q1_cdf: Callable[[float], float]
    support: tuple[float, float]
    meta: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "unknown")

    def grid(self, points: int = 2001) -> np.ndarray:
        return np.linspace(self.support[0], self.support[1], points)

    def normalization_residuals(self, points: int = 2001) -> tuple[float, float]:
        """|integral of each density - 1| by trapezoid on the default grid.

        Densities with derivative kinks (clip boundaries) pick up an
        O(h^2 * jump) trapezoid boundary error that node placement cannot
        remove, so kinked pairs are integrated on a finer grid (with the
        kinks as nodes) to keep the quadrature error below the 1e-8 budget.
        """
        xs = self.grid(points)
        breaks = [b for b in self.meta.get("breakpoints", ()) if math.isfinite(b)]
        if breaks:
            xs = self.grid(max(points, 2**16 + 1))
            xs = np.union1d(xs, np.asarray(breaks, dtype=float))
        r0 = abs(trapezoid(xs, np.exp(self.q0_logpdf(xs))) - 1.0)
        r1 = abs(trapezoid(xs, np.exp(self.q1_logpdf(xs))) - 1.0)
        return r0, r1


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
        q0_logpdf=q0.logpdf,
        q1_logpdf=q1.logpdf,
        log_lr=log_lr,
        q0_cdf=q0.cdf,
        q1_cdf=q1.cdf,
        support=(lo, hi),
        meta={
            "kind": "gaussian-band",
            "q0": q0,
            "q1": q1,
            "band0": c0,
            "band1": c1,
        },
    )


def _kl_gaussians(q: GaussianSpec, p: GaussianSpec) -> float:
    var_ratio = (q.sigma / p.sigma) ** 2
    shift = (q.mean - p.mean) / p.sigma
    return math.log(p.sigma / q.sigma) + 0.5 * (var_ratio + shift * shift - 1.0)


def kl_divergence(
    q: GaussianSpec | GridFunction, p: GaussianSpec | GridFunction
) -> float:
    """KL divergence D(q, p) in nats.

    Gaussian/Gaussian uses the closed form; grid densities are integrated
    by trapezoid and must share the grid. Raises when q puts mass where p
    has none ("not absolutely continuous").
    """
    if isinstance(q, GaussianSpec) and isinstance(p, GaussianSpec):
        return _kl_gaussians(q, p)
    if isinstance(q, GridFunction) and isinstance(p, GridFunction):
        if not np.array_equal(q.grid, p.grid):
            raise ValueError("grid densities must share the same grid")
        grid, qv, pv = q.grid, q.values, p.values
    elif isinstance(q, GridFunction):
        grid, qv = q.grid, q.values
        pv = np.asarray(p.pdf(grid))
    else:
        grid = p.grid
        qv = np.asarray(q.pdf(grid))
        pv = p.values
    if np.any(qv < 0.0) or np.any(pv < 0.0):
        raise ValueError("densities must be nonnegative")
    mask = qv > 0.0
    if np.any(pv[mask] <= 0.0):
        raise ValueError("not absolutely continuous")
    integrand = np.zeros_like(qv)
    integrand[mask] = qv[mask] * np.log(qv[mask] / pv[mask])
    return trapezoid(grid, integrand)


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
    nats. For equal-variance Gaussian nominals (mean0 < mean1) the pair is
    again Gaussian with the nominal sigma and linearly interpolated means,
    so its log-LR is affine and increasing and is carried as a
    :class:`ClippedAffineLlr`; unequal variances give a quadratic log-LR,
    evaluated as the log-density difference. Raises when a radius is
    unreachable or the tilts cross (u + v >= 1), i.e. the hypotheses
    overlap.
    """
    if eps0 < 0.0 or eps1 < 0.0:
        raise ValueError("KL radii must be nonnegative")

    def solve_tilt(base: GaussianSpec, other: GaussianSpec, eps: float) -> float:
        if eps == 0.0:
            return 0.0
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
        def log_lr(y, _q0=q0, _q1=q1):
            return _q1.logpdf(y) - _q0.logpdf(y)

    lo = min(q0.mean - 8.0 * q0.sigma, q1.mean - 8.0 * q1.sigma)
    hi = max(q0.mean + 8.0 * q0.sigma, q1.mean + 8.0 * q1.sigma)
    return LfdPair(
        q0_logpdf=q0.logpdf,
        q1_logpdf=q1.logpdf,
        log_lr=log_lr,
        q0_cdf=q0.cdf,
        q1_cdf=q1.cdf,
        support=(lo, hi),
        meta={
            "kind": "kl-dabak",
            "u": u,
            "v": v,
            "q0": q0,
            "q1": q1,
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

    def q0_logpdf(y, _y_hi=y_hi):
        y = np.asarray(y, dtype=float)
        return math.log1p(-eps0) + np.where(
            y < _y_hi, p0.logpdf(y), p1.logpdf(y) - log_c_hi
        )

    def q1_logpdf(y, _y_lo=y_lo):
        y = np.asarray(y, dtype=float)
        return math.log1p(-eps1) + np.where(
            y > _y_lo, p1.logpdf(y), p0.logpdf(y) + log_c_lo
        )

    log_lr = ClippedAffineLlr(slope, mid, log_b, log_c_lo, log_c_hi)

    def q0_cdf(x: float) -> float:
        val = p0.cdf(min(x, y_hi))
        if x > y_hi:
            val += (p1.cdf(x) - p1.cdf(y_hi)) / c_hi
        return (1.0 - eps0) * val

    def q1_cdf(x: float) -> float:
        if math.isfinite(y_lo):
            val = c_lo * p0.cdf(min(x, y_lo))
            if x > y_lo:
                val += p1.cdf(x) - p1.cdf(y_lo)
        else:
            val = p1.cdf(x)
        return (1.0 - eps1) * val

    return LfdPair(
        q0_logpdf=q0_logpdf,
        q1_logpdf=q1_logpdf,
        log_lr=log_lr,
        q0_cdf=q0_cdf,
        q1_cdf=q1_cdf,
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
            "breakpoints": tuple(b for b in (y_lo, y_hi) if math.isfinite(b)),
        },
    )


def _cdf_at(cdf: Callable[[float], float], y: float) -> float:
    """cdf(y), exactly 0 and 1 at y = -inf and y = +inf."""
    return 1.0 if y == math.inf else 0.0 if y == -math.inf else cdf(y)


def _lower_level_sets(pair: LfdPair, t_values: Sequence[float]) -> list[list[tuple[float, float]]]:
    """{y : log_lr(y) <= t} for each t, as increasing disjoint intervals (a, b).

    A :class:`ClippedAffineLlr` gives one closed-form half-line, flat
    stretches equal to t included. Any other log-LR, monotone or not, is
    tabulated once on the pair's grid and split at its strict crossings of
    each t; beyond the grid it stays on its end points' side, and
    crossings narrower than a grid cell can be missed.
    """
    if isinstance(pair.log_lr, ClippedAffineLlr):
        return [[(-math.inf, pair.log_lr.boundary(t, strict=True))] for t in t_values]
    xs = pair.grid()
    fx = np.asarray(pair.log_lr(xs), dtype=float)
    sets = []
    for t in t_values:
        ends = [-math.inf, *crossings(pair.log_lr, xs, fx, t, strict=True), math.inf]
        ends = ends[1:] if fx[0] > t else ends  # starts above t: no (-inf, .) piece
        sets.append(list(zip(ends[::2], ends[1::2])))
    return sets


def _level_set_masses(cdf: Callable[[float], float], level_sets) -> list[float]:
    """A law's mass on each level set; (-inf, b) costs one call: ``_cdf_at(cdf, b)``."""
    masses = []
    for intervals in level_sets:
        mass = 0.0
        for a, b in intervals:
            mass += _cdf_at(cdf, b)
            if a != -math.inf:
                mass -= cdf(a)
        masses.append(mass)
    return masses


def robust_lr_cdf(pair: LfdPair, member, t: float) -> float:
    """P_member[log_lr(Y) <= t] for a member exposing ``cdf``."""
    return _level_set_masses(member.cdf, _lower_level_sets(pair, [t]))[0]


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
    Q0[log_lr <= t] >= Q0_hat[log_lr <= t] must hold, and symmetrically
    Q1[log_lr <= t] <= Q1_hat[log_lr <= t] on the alternative side. Members
    only need a ``cdf`` method; each event {log_lr <= t} is a union of
    intervals (a half-line for a nondecreasing log-LR), whose probabilities
    are exact cdf differences. Violations beyond ``tol`` flip ``holds`` and
    the worst one is reported as a witness; of candidates within
    ``WITNESS_TOL`` of each other the first found wins (h0 before h1, then
    member and threshold order).
    """
    worst = 0.0
    witness = None
    t_values = [float(t) for t in t_grid]
    level_sets = _lower_level_sets(pair, t_values)
    for side, members, lfd_cdf, sign in (
        ("h0", class0_members, pair.q0_cdf, +1.0),
        ("h1", class1_members, pair.q1_cdf, -1.0),
    ):
        lfd_vals = _level_set_masses(lfd_cdf, level_sets)
        for idx, member in enumerate(members):
            member_vals = _level_set_masses(member.cdf, level_sets)
            for t, lfd_val, member_val in zip(t_values, lfd_vals, member_vals):
                # h0 requires member >= LFD, h1 requires member <= LFD.
                gap = sign * (lfd_val - member_val)
                if gap > (worst if witness is None else worst + WITNESS_TOL):
                    worst = gap
                    witness = BoundednessWitness(side, idx, member, t, gap)
    holds = worst <= tol
    return BoundednessReport(
        holds=holds, worst_violation=worst, tol=tol, witness=None if holds else witness
    )


@dataclass(frozen=True)
class AffinityReport:
    affine: bool
    slope: float
    intercept: float
    residual: float


def dabak_affinity_check(
    pair: LfdPair,
    p0: GaussianSpec,
    p1: GaussianSpec,
) -> AffinityReport:
    """Least-squares fit of the pair's log-LR against the nominal log-LR.

    A geometric-mixture pair reproduces the nominal test: its log-LR is an
    affine function of the nominal log-LR with slope 1 - u - v. Clipped
    constructions break affinity and report a large residual.
    """
    ys = pair.grid()
    nominal = np.asarray(p1.logpdf(ys) - p0.logpdf(ys), dtype=float)
    robust = np.asarray(pair.log_lr(ys), dtype=float)
    slope, intercept = np.polyfit(nominal, robust, 1)
    residual = float(np.max(np.abs(robust - (slope * nominal + intercept))))
    return AffinityReport(
        affine=residual < AFFINITY_TOL,
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )

