"""Gaussian and discrete probability primitives.

This module carries the basic objects everything else is built from:

* :class:`GaussianSpec`: a univariate Gaussian with exact cdf/sf via the
  standard library's ``math.erfc`` (correctly rounded, so cdf values are
  accurate to well under 1e-14 absolute).
* :class:`DiscretePmf`: a probability mass function over ordered integer
  levels (sensor output alphabets).
* :class:`AtomPmf`: a mass function over real-valued atoms, the carrier
  for log-likelihood-ratio sums and their convolutions.

Every constructor rejects NaN: its checks are written so that a NaN
fails them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Mass tolerance for pmf normalization checks.
MASS_TOL = 1e-12


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
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")

    def pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def cdf(self, x: float) -> float:
        """P[Y <= x]; exact erfc form, absolute error well below 1e-14."""
        return 0.5 * math.erfc((self.mean - x) / (self.sigma * _SQRT2))

    def sf(self, x: float) -> float:
        """P[Y > x]; computed in the accurate tail of erfc."""
        return 0.5 * math.erfc((x - self.mean) / (self.sigma * _SQRT2))


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
        _check_law(probs)


def _check_law(probs: np.ndarray) -> None:
    """Raise ValueError unless ``probs`` are nonnegative (so not NaN) and sum to 1."""
    if not np.all(probs >= 0.0):
        raise ValueError("probabilities must be nonnegative")
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= MASS_TOL:
        raise ValueError(f"probabilities must sum to 1 within {MASS_TOL}, got {total!r}")


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, which pass its checks, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def pmf_from_weights(levels: Sequence[int], weights: Sequence[float]) -> DiscretePmf:
    """Normalize nonnegative weights into a :class:`DiscretePmf`.

    Raises ValueError for negative, NaN or infinite weights and for
    all-zero weights ("degenerate pmf").
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(w >= 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if not total > 0.0:
        raise ValueError("degenerate pmf: weights sum to zero")
    if not total < math.inf:
        raise ValueError("weights must be finite")
    return DiscretePmf(tuple(int(v) for v in levels), w / total)


def _sort_merge_duplicates(atoms: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort by atom, then sum the masses of exactly equal atoms, per
    mass row (one bincount, a block of bins per row). Unchecked: the
    :class:`AtomPmf` constructor validates before calling it, and internal
    producers call it directly when their atoms are finite and their masses
    nonnegative.
    """
    order = atoms.argsort(kind="stable")
    atoms = atoms[order]
    masses = masses.take(order, axis=-1)  # C order: rows stay contiguous
    # sorted, so each run of equal atoms starts where a neighbour differs
    first = np.concatenate(([True], atoms[1:] != atoms[:-1]))
    if not first.all():
        runs = first.cumsum() - 1
        bins = runs + (runs[-1] + 1) * np.arange(masses.size // first.size)[:, None]
        sums = np.bincount(bins.ravel(), weights=masses.ravel())
        masses = sums.reshape(masses.shape[:-1] + (-1,))
        atoms = atoms[first]
    return atoms, masses


@dataclass(frozen=True, eq=False)
class AtomPmf:
    """Mass function over real-valued atoms (not necessarily normalized).

    Atoms are sorted ascending and exact duplicates are merged on
    construction, in every row of ``masses`` (one row per law on the shared
    atoms). Sub-unit total mass is allowed; fusion carries the finite part
    of laws that also place mass on infinite-LLR levels that way.
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim not in (1, 2) or masses.shape[-1:] != atoms.shape:
            raise ValueError("masses must be one row, or one row per law, as long as atoms")
        if np.any(~np.isfinite(atoms)):
            raise ValueError("atoms must be finite (infinite LLRs are handled upstream)")
        if not np.all(masses >= 0.0):
            raise ValueError("masses must be nonnegative")
        atoms, masses = _sort_merge_duplicates(atoms, masses)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def _from_sorted(cls, atoms: np.ndarray, masses: np.ndarray) -> "AtomPmf":
        """Wrap a law that is already in constructor output form, unchecked.

        For internal producers only: ``atoms`` must be a strictly
        increasing 1-D float array of finite values and ``masses`` a
        nonnegative float array of row(s) of the same length. On such input the
        validating constructor's sort and duplicate merge change nothing.
        """
        return _unchecked(cls, atoms=atoms, masses=masses)

    @property
    def total_mass(self) -> float | np.ndarray:  # one per mass row
        return np.sum(self.masses, axis=-1)

