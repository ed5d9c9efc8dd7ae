"""First-order stochastic ordering primitives.

``X`` is stochastically larger than ``Y`` (written X >= Y here) when the cdf
of Y sits on or above the cdf of X everywhere. The module provides the
dominance check itself, its preservation under nondecreasing maps, and its
preservation under independent sums (exact discrete convolution), which is
how the fusion layer transports per-sensor orderings to the fused statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .distributions import (
    AtomPmf,
    DiscretePmf,
    GaussianSpec,
    GridFunction,
    _sort_merge_duplicates,
)

ANALYTIC_TOL = 1e-9
ATOM_BIN_WIDTH = 1e-9
_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class CdfView:
    """A cdf as an evaluable function plus provenance.

    ``source`` is one of ``closed-form``, ``grid`` or ``empirical``;
    empirical views carry their sample count for DKW banding.
    """

    eval: Callable[[float], float]
    source: str
    n_samples: int | None = None

    def __post_init__(self) -> None:
        if self.source not in ("closed-form", "grid", "empirical"):
            raise ValueError(f"unknown cdf source {self.source!r}")
        if self.source == "empirical" and not self.n_samples:
            raise ValueError("empirical cdfs must record their sample count")

    @classmethod
    def from_gaussian(cls, g: GaussianSpec) -> "CdfView":
        return cls(eval=g.cdf, source="closed-form")

    @classmethod
    def from_grid(cls, gf: GridFunction) -> "CdfView":
        return cls(eval=lambda x: float(gf(x)), source="grid")

    @classmethod
    def from_pmf(cls, pmf: DiscretePmf) -> "CdfView":
        return cls(eval=pmf.cdf, source="closed-form")

    @classmethod
    def from_atoms(cls, pmf: AtomPmf) -> "CdfView":
        return cls(eval=pmf.cdf, source="closed-form")

    @classmethod
    def from_samples(cls, xs: Sequence[float]) -> "CdfView":
        data = np.sort(np.asarray(xs, dtype=float))
        n = data.shape[0]
        return cls(
            eval=lambda x: float(np.searchsorted(data, x, side="right")) / n,
            source="empirical",
            n_samples=n,
        )

    def dkw_band(self, confidence: float = 0.99) -> float:
        """One-sided DKW deviation band at the given confidence."""
        if self.source != "empirical":
            return 0.0
        return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * self.n_samples))

    def validate(self, probe_grid: Sequence[float]) -> None:
        """Check monotonicity and endpoint limits on a probe grid."""
        vals = np.array([self.eval(float(x)) for x in probe_grid])
        slack = self.dkw_band() if self.source == "empirical" else ANALYTIC_TOL
        if np.any(np.diff(vals) < -slack):
            raise ValueError("cdf is not nondecreasing on the probe grid")
        if vals[0] > slack or vals[-1] < 1.0 - slack:
            raise ValueError("cdf does not reach 0/1 at the probe grid extremes")


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    worst_gap: float
    tol: float


def dominates(
    x_cdf: CdfView,
    y_cdf: CdfView,
    probe_grid: Sequence[float],
    tol: float | None = None,
) -> DominanceReport:
    """Check X >= Y (stochastically) over a probe grid.

    True when y_cdf(v) >= x_cdf(v) - tol at every probe point. The default
    tolerance is 1e-9 for analytic cdfs plus a 99% DKW band for each
    empirical input. ``worst_gap`` is the largest x_cdf - y_cdf excess
    (positive values are violations before tolerancing).
    """
    if tol is None:
        tol = ANALYTIC_TOL + x_cdf.dkw_band() + y_cdf.dkw_band()
    worst = -math.inf
    for v in probe_grid:
        worst = max(worst, x_cdf.eval(float(v)) - y_cdf.eval(float(v)))
    return DominanceReport(dominates=worst <= tol, worst_gap=worst, tol=tol)


def _pushforward(pmf: DiscretePmf, upsilon: Callable[[int], float]) -> AtomPmf:
    images = np.array([float(upsilon(level)) for level in pmf.levels])
    return AtomPmf(images, pmf.probs)


def atoms_stochastically_larger(
    x: AtomPmf, y: AtomPmf, tol: float = _EXACT_TOL
) -> tuple[bool, float]:
    """Exact X >= Y check for atom mass functions; returns (holds, worst gap)."""
    support = np.union1d(x.atoms, y.atoms)

    def cdf_on_support(p: AtomPmf) -> np.ndarray:
        cum = np.concatenate(([0.0], np.cumsum(p.masses)))
        return cum[np.searchsorted(p.atoms, support, side="right")]

    worst = float(np.max(cdf_on_support(x) - cdf_on_support(y), initial=-math.inf))
    return worst <= tol, worst


def monotone_map_preserves(
    x_pmf: DiscretePmf,
    y_pmf: DiscretePmf,
    upsilon: Callable[[int], float],
) -> bool:
    """Whether upsilon(X) >= upsilon(Y) for a nondecreasing level map.

    Exists to property-test that nondecreasing maps preserve the ordering
    and to validate fusion-weight maps; pushforwards are computed exactly.
    Raises for a map that decreases anywhere on the shared levels.
    """
    levels = sorted(set(x_pmf.levels) | set(y_pmf.levels))
    images = [float(upsilon(level)) for level in levels]
    if any(b < a for a, b in zip(images, images[1:])):
        raise ValueError("map not nondecreasing on the pmf levels")
    holds, _ = atoms_stochastically_larger(
        _pushforward(x_pmf, upsilon), _pushforward(y_pmf, upsilon)
    )
    return holds


def convolve(a: AtomPmf | DiscretePmf, b: AtomPmf | DiscretePmf) -> AtomPmf:
    """Exact distribution of the independent sum of two atom mass functions.

    Atoms closer than ``ATOM_BIN_WIDTH`` are merged (exact duplicates keep their
    exact value), which keeps K-fold convolutions from exploding into
    clouds of epsilon-separated atoms. Total mass is preserved to machine
    precision.

    Merged positions are a function of the input atom positions only,
    never of the masses: two laws over the same support always convolve to
    byte-identical supports. Threshold comparisons across hypotheses stay
    consistent because of this (a mass-dependent merge position would let
    a threshold slip between the H0 and H1 copies of the same sum atom).
    """
    a = a.as_atoms() if isinstance(a, DiscretePmf) else a
    b = b.as_atoms() if isinstance(b, DiscretePmf) else b
    sums = np.add.outer(a.atoms, b.atoms).ravel()
    masses = np.multiply.outer(a.masses, b.masses).ravel()
    # sums of finite atoms and products of nonnegative masses need no checks
    out = AtomPmf._from_sorted(*_sort_merge_duplicates(sums, masses))
    return _merge_close_atoms(out, ATOM_BIN_WIDTH)


def _merge_close_atoms(pmf: AtomPmf, bin_width: float) -> AtomPmf:
    atoms, masses = pmf.atoms, pmf.masses
    if atoms.shape[0] < 2:
        return pmf
    starts = np.flatnonzero(np.concatenate(([True], np.diff(atoms) >= bin_width)))
    if starts.shape[0] == atoms.shape[0]:
        return pmf
    sizes = np.diff(np.append(starts, atoms.shape[0]))
    merged_mass = np.add.reduceat(masses, starts)
    # unweighted group mean: position is independent of the mass vector
    merged_pos = np.add.reduceat(atoms, starts) / sizes
    merged_pos[sizes == 1] = atoms[starts[sizes == 1]]  # keep singletons exact
    # groups are >= bin_width apart, so their means are strictly increasing
    return AtomPmf._from_sorted(merged_pos, merged_mass)


def convolve_many(pmfs: Sequence[AtomPmf | DiscretePmf]) -> AtomPmf:
    """Left-fold convolution of a sequence of atom mass functions."""
    if not pmfs:
        raise ValueError("need at least one pmf")
    coerced = [p.as_atoms() if isinstance(p, DiscretePmf) else p for p in pmfs]
    return reduce(convolve, coerced)


def sum_dominance_check(
    x_pmfs: Sequence[AtomPmf | DiscretePmf],
    y_pmfs: Sequence[AtomPmf | DiscretePmf],
) -> bool:
    """Whether sum(X_i) >= sum(Y_i) given componentwise X_i >= Y_i.

    Convolves both lists exactly and compares the sum cdfs; must return
    True whenever the componentwise orderings hold.
    """
    if len(x_pmfs) != len(y_pmfs):
        raise ValueError(
            f"length mismatch: {len(x_pmfs)} vs {len(y_pmfs)} summands"
        )
    holds, _ = atoms_stochastically_larger(convolve_many(x_pmfs), convolve_many(y_pmfs))
    return holds
