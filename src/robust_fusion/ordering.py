"""Exact convolution of atom laws.

:func:`convolve` gives the exact law of an independent sum, which is how
the fusion layer folds per-sensor LLR laws into the law of the fused
statistic.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .distributions import AtomPmf, _sort_merge_duplicates

ATOM_BIN_WIDTH = 1e-9


def convolve(a: AtomPmf, b: AtomPmf) -> AtomPmf:
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


def convolve_many(pmfs: Sequence[AtomPmf]) -> AtomPmf:
    """Left-fold convolution of a sequence of atom mass functions."""
    if not pmfs:
        raise ValueError("need at least one pmf")
    return reduce(convolve, pmfs)
