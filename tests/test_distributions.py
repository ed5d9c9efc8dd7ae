"""Distribution primitives: cdf accuracy, pmfs, atom laws, NaN rejection."""

import math

import numpy as np
import pytest

from robust_fusion.distributions import (
    AtomPmf,
    DiscretePmf,
    GaussianSpec,
    pmf_from_weights,
)

from _oracles import atom_pmf_unique_reference, normal_cdf_quadrature

# Frozen from the quadrature oracle (re-derived in test_cdf_against_quadrature).
PHI_1 = 0.8413447460685429


class TestGaussianCdf:
    def test_trivial_values(self):
        g = GaussianSpec(0.0, 1.0)
        assert g.cdf(0.0) == 0.5
        assert g.cdf(math.inf) == 1.0
        assert g.cdf(-math.inf) == 0.0

    def test_cdf_against_quadrature(self):
        """Standard-normal cdf matches the quadrature oracle to 1e-12."""
        g = Gaussian = GaussianSpec(0.0, 1.0)
        assert abs(normal_cdf_quadrature(1.0) - PHI_1) < 1e-12
        assert abs(g.cdf(1.0) - PHI_1) < 1e-14
        for x in (-3.0, -0.7, 0.3, 2.5):
            assert abs(g.cdf(x) - normal_cdf_quadrature(x)) < 1e-12

    def test_nonstandard_parameters(self):
        g = GaussianSpec(2.0, 0.5)
        for x in (1.0, 2.0, 3.1):
            assert abs(g.cdf(x) - normal_cdf_quadrature(x, 2.0, 0.5)) < 1e-12

    def test_monotone_on_grid(self):
        g = GaussianSpec(-1.0, 2.0)
        xs = np.linspace(-15.0, 13.0, 400)
        vals = [g.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_symmetry_identity(self):
        g = GaussianSpec(0.7, 1.3)
        for a in np.linspace(0.0, 6.0, 50):
            total = g.cdf(g.mean + a) + g.cdf(g.mean - a)
            assert abs(total - 1.0) < 1e-12

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianSpec(0.0, -1.0)
        with pytest.raises(ValueError, match="finite"):
            GaussianSpec(0.0, math.inf)

    def test_mean_must_be_finite(self):
        for mean in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mean must be finite"):
                GaussianSpec(mean, 1.0)


class TestDiscretePmf:
    def test_pmf_from_weights_basic(self):
        pmf = pmf_from_weights([0, 1], [1.0, 1.0])
        assert np.allclose(pmf.probs, [0.5, 0.5])
        pmf = pmf_from_weights([0, 1, 2], [1.0, 2.0, 1.0])
        assert np.allclose(pmf.probs, [0.25, 0.5, 0.25])

    def test_degenerate_weights(self):
        with pytest.raises(ValueError, match="degenerate"):
            pmf_from_weights([0, 1], [0.0, 0.0])
        with pytest.raises(ValueError):
            pmf_from_weights([0, 1], [-1.0, 2.0])

    def test_random_weights_normalize(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            pmf = pmf_from_weights(list(range(k)), rng.uniform(0.0, 5.0, size=k) + 1e-3)
            assert abs(float(np.sum(pmf.probs)) - 1.0) < 1e-12

    def test_level_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscretePmf((1, 0), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum"):
            DiscretePmf((0, 1), np.array([0.5, 0.4]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscretePmf((0, 1), np.array([math.nan, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            pmf_from_weights((0, 1), [math.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            pmf_from_weights((0, 1), [math.inf, 1.0])


class TestAtomPmf:
    def test_merges_exact_duplicates(self):
        pmf = AtomPmf(np.array([1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
        assert np.array_equal(pmf.atoms, [0.0, 1.0])
        assert np.allclose(pmf.masses, [0.5, 0.5])

    def test_duplicate_merge_matches_unique_reference(self):
        """Neighbour-run duplicate detection gives the np.unique form bit
        for bit: same atoms, masses summed in the same bincount order."""
        rng = np.random.default_rng(20261024)
        for _ in range(300):
            values = rng.normal(size=int(rng.integers(1, 12)))
            atoms = rng.choice(values, size=int(rng.integers(1, 60)))
            masses = rng.random(atoms.size) * (rng.random(atoms.size) < 0.9)
            pmf = AtomPmf(atoms, masses)
            ref_atoms, ref_masses = atom_pmf_unique_reference(atoms, masses)
            assert np.array_equal(pmf.atoms, ref_atoms)
            assert np.array_equal(pmf.masses, ref_masses)

    def test_rejects_infinite_atoms(self):
        with pytest.raises(ValueError):
            AtomPmf(np.array([math.inf]), np.array([1.0]))

    def test_rejects_nan_masses(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AtomPmf(np.array([0.0, 1.0]), np.array([0.5, math.nan]))

