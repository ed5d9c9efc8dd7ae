"""Exact convolution of atom laws.

:func:`convolve` gives the exact law of an independent sum, which is how
the fusion layer folds per-sensor LLR laws into the law of the fused
statistic, with an H0 and an H1 mass row on one support.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .distributions import AtomPmf, _sort_merge_duplicates

# Sums closer than this merge into one atom at their group's mean. It is half
# the fusion tie band (``fusion.TIE_TOL``, 1e-10; fusion imports this module,
# not the reverse), so a threshold at the mean of two merged sums decides both
# as enumeration does. A group across the band's upper edge, or a chain of
# close gaps, is still decided as one.
ATOM_BIN_WIDTH = 5e-11


def convolve(a: AtomPmf, b: AtomPmf) -> AtomPmf:
    """Exact distribution of the independent sum of two atom mass functions.

    Atoms closer than ``ATOM_BIN_WIDTH`` are merged (exact duplicates keep their
    exact value), which keeps K-fold convolutions from exploding into
    clouds of epsilon-separated atoms. Total mass is preserved to machine
    precision.

    Merged positions are a function of the input atom positions only,
    never of the masses (a mass-dependent merge position would let a
    threshold slip between the H0 and H1 copies of the same sum atom), so
    mass rows share one support: the sort and merges run once, and a row
    comes out as its 1-D law would; a 1-D operand pairs with every row.
    One operand may be a batch of laws (``AtomPmf.rows``): each of its laws
    is convolved with the other operand, bit for bit as alone.
    """
    sums = np.add.outer(a.atoms, b.atoms).ravel()
    masses = a.masses[..., :, None] * b.masses[..., None, :]
    masses = masses.reshape(masses.shape[:-2] + sums.shape)
    rows = None  # the batch row of each sum, when an operand is a batch
    if a.rows is not None:
        rows = a.rows.repeat(len(b.atoms))
    elif b.rows is not None:
        rows = b.rows[np.arange(len(sums)) % len(b.atoms)]
    # sums of finite atoms and products of nonnegative masses need no checks
    out = AtomPmf._from_sorted(*_sort_merge_duplicates(sums, masses, rows))
    return _merge_close_atoms(out, ATOM_BIN_WIDTH)


def _merge_close_atoms(pmf: AtomPmf, bin_width: float) -> AtomPmf:
    atoms, masses, rows = pmf.atoms, pmf.masses, pmf.rows
    if atoms.shape[0] < 2:
        return pmf
    new = atoms[1:] - atoms[:-1] >= bin_width
    if rows is not None:  # a group never spans two laws of a batch
        new |= rows[1:] != rows[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new)))
    if starts.shape[0] == atoms.shape[0]:
        return pmf
    sizes = np.append(starts[1:], atoms.shape[0]) - starts
    merged_mass = np.add.reduceat(masses, starts, axis=-1)
    # unweighted group mean: position is independent of the mass vector
    merged_pos = np.add.reduceat(atoms, starts) / sizes
    merged_pos[sizes == 1] = atoms[starts[sizes == 1]]  # keep singletons exact
    # groups are >= bin_width apart, so their means are strictly increasing
    return AtomPmf._from_sorted(merged_pos, merged_mass, None if rows is None else rows[starts])


def convolve_many(pmfs: Sequence[AtomPmf]) -> AtomPmf:
    """Left-fold convolution of a sequence of atom mass functions."""
    if not pmfs:
        raise ValueError("need at least one pmf")
    return reduce(convolve, pmfs)
