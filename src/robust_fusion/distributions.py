"""Gaussian and discrete probability primitives.

This module carries the basic objects everything else is built from:

* :class:`GaussianSpec`: a univariate Gaussian with exact cdf/sf via the
  standard library's ``math.erfc`` (correctly rounded, so cdf values are
  accurate to well under 1e-14 absolute).
* :class:`DiscretePmf`: a probability mass function over ordered integer
  levels (sensor output alphabets).
* :class:`AtomPmf`: a mass function over real-valued atoms, the carrier
  for log-likelihood-ratio sums and their convolutions.
* :class:`GridFunction`: a sampled function on a strictly increasing grid,
  used as the numerical carrier for densities and cdfs.

Randomness policy: every sampling routine takes an explicit seed or a
``numpy.random.Generator`` (PCG64, a 64-bit splittable generator; use
``Generator.spawn`` to derive independent per-worker streams). No global
generator is ever touched, so equal seeds give bit-identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Mass tolerance for pmf normalization checks.
MASS_TOL = 1e-12


def as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    """Coerce an int seed or Generator into a Generator (PCG64 for seeds)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class GaussianSpec:
    """Univariate Gaussian given by mean and standard deviation.

    Parameters
    ----------
    mean : float
        Location parameter.
    sigma : float
        Standard deviation, strictly positive, same units as ``mean``.
    """

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def cdf(self, x: float) -> float:
        """P[Y <= x]; exact erfc form, absolute error well below 1e-14."""
        return 0.5 * math.erfc((self.mean - x) / (self.sigma * _SQRT2))

    def sf(self, x: float) -> float:
        """P[Y > x]; computed in the accurate tail of erfc."""
        return 0.5 * math.erfc((x - self.mean) / (self.sigma * _SQRT2))


def gaussian_cdf(g: GaussianSpec, x: float) -> float:
    """Cumulative distribution function of ``g`` at ``x``."""
    return g.cdf(x)


def sample(g: GaussianSpec, rng: np.random.Generator | int, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. values from ``g``.

    ``rng`` is an explicit seed or Generator; equal seeds give bit-identical
    sequences.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return as_rng(rng).normal(g.mean, g.sigma, size=n)


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Probability mass function over strictly increasing integer levels."""

    levels: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        levels = tuple(int(v) for v in self.levels)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "probs", probs)
        if len(levels) != probs.shape[0] or probs.ndim != 1:
            raise ValueError("levels and probs must be 1-D and of equal length")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(np.sum(probs))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"probabilities must sum to 1 within {MASS_TOL}, got {total!r}")

    def prob(self, level: int) -> float:
        try:
            return float(self.probs[self.levels.index(level)])
        except ValueError:
            raise ValueError(f"level {level} not in pmf support {self.levels}") from None

    def cdf(self, x: float) -> float:
        """Right-continuous step cdf P[L <= x]."""
        idx = np.searchsorted(np.asarray(self.levels, dtype=float), x, side="right")
        return float(np.sum(self.probs[:idx]))

    def as_atoms(self) -> "AtomPmf":
        """View as a real-atom mass function on the levels."""
        return AtomPmf(np.asarray(self.levels, dtype=float), self.probs)

    def sample(self, rng: np.random.Generator | int, n: int) -> np.ndarray:
        return as_rng(rng).choice(np.asarray(self.levels), size=n, p=self.probs)


def pmf_from_weights(levels: Sequence[int], weights: Sequence[float]) -> DiscretePmf:
    """Normalize nonnegative weights into a :class:`DiscretePmf`.

    Raises ValueError for negative weights and for all-zero weights
    ("degenerate pmf").
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("degenerate pmf: weights sum to zero")
    return DiscretePmf(tuple(int(v) for v in levels), w / total)


def _sort_merge_duplicates(atoms: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort by atom, then sum the masses of exactly equal atoms.

    Unchecked: the :class:`AtomPmf` constructor validates before calling
    it, and internal producers call it directly when their atoms are
    finite and their masses nonnegative.
    """
    order = np.argsort(atoms, kind="stable")
    atoms = atoms[order]
    masses = masses[order]
    # sorted, so each run of equal atoms starts where a neighbour differs
    first = np.concatenate(([True], atoms[1:] != atoms[:-1]))
    if not np.all(first):
        masses = np.bincount(np.cumsum(first) - 1, weights=masses)
        atoms = atoms[first]
    return atoms, masses


@dataclass(frozen=True, eq=False)
class AtomPmf:
    """Mass function over real-valued atoms (not necessarily normalized).

    Atoms are sorted ascending and exact duplicates are merged on
    construction. Sub-unit total mass is allowed; fusion uses that to carry
    the finite part of laws that also place mass on infinite-LLR levels.
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        masses = np.asarray(self.masses, dtype=float).ravel()
        if atoms.shape != masses.shape:
            raise ValueError("atoms and masses must have equal length")
        if np.any(~np.isfinite(atoms)):
            raise ValueError("atoms must be finite (infinite LLRs are handled upstream)")
        if np.any(masses < 0.0):
            raise ValueError("masses must be nonnegative")
        atoms, masses = _sort_merge_duplicates(atoms, masses)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def _from_sorted(cls, atoms: np.ndarray, masses: np.ndarray) -> "AtomPmf":
        """Wrap a law that is already in constructor output form, unchecked.

        For internal producers only: ``atoms`` must be a strictly
        increasing 1-D float array of finite values and ``masses`` a
        nonnegative float array of the same length. On such input the
        validating constructor's sort and duplicate merge change nothing.
        """
        pmf = object.__new__(cls)
        object.__setattr__(pmf, "atoms", atoms)
        object.__setattr__(pmf, "masses", masses)
        return pmf

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def cdf(self, x: float) -> float:
        """P[A <= x] (mass at atoms <= x)."""
        idx = int(np.searchsorted(self.atoms, x, side="right"))
        return float(np.sum(self.masses[:idx]))

    def mass_above(self, x: float) -> float:
        """Mass strictly above ``x``."""
        idx = int(np.searchsorted(self.atoms, x, side="right"))
        return float(np.sum(self.masses[idx:]))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Function values sampled on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.shape[0] < 2 or grid.shape != values.shape:
            raise ValueError("grid and values must be equal-length with at least 2 points")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    def integrate(self) -> float:
        """Composite trapezoid integral over the full grid."""
        return trapezoid(self.grid, self.values)


def trapezoid(xs: np.ndarray, ys: np.ndarray) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) * 0.5)


def default_grid(specs: Sequence[GaussianSpec], points: int = 2001) -> np.ndarray:
    """Evaluation grid spanning mean +/- 8 sigma of the widest input.

    2001 points over +/- 8 sigma keep Gaussian trapezoid mass error below
    1e-14 of the total.
    """
    if not specs:
        raise ValueError("at least one distribution is required")
    lo = min(g.mean - 8.0 * g.sigma for g in specs)
    hi = max(g.mean + 8.0 * g.sigma for g in specs)
    return np.linspace(lo, hi, points)
