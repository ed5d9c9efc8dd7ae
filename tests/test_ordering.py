"""Stochastic ordering: dominance, monotone maps, exact convolution."""

import math

import numpy as np
import pytest

from robust_fusion.distributions import AtomPmf, DiscretePmf, GaussianSpec, sample
from robust_fusion.ordering import (
    CdfView,
    atoms_stochastically_larger,
    convolve,
    convolve_many,
    dominates,
    monotone_map_preserves,
    sum_dominance_check,
)

from _oracles import (
    atoms_stochastically_larger_loop,
    binomial_majority_error,
    ordered_pmf_pair,
    random_nondecreasing_map,
)


class TestDominates:
    def test_mean_shifted_gaussians(self):
        """Equal-variance Gaussians are ordered by mean."""
        x = CdfView.from_gaussian(GaussianSpec(1.0, 1.0))
        y = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        grid = np.linspace(-8.0, 9.0, 500)
        assert dominates(x, y, grid).dominates
        assert not dominates(y, x, grid).dominates

    def test_reflexive(self):
        x = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        report = dominates(x, x, np.linspace(-8.0, 8.0, 200))
        assert report.dominates
        assert report.worst_gap == 0.0

    def test_crossing_cdfs_not_ordered(self):
        """Different variances make the cdfs cross, so neither dominates."""
        x = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        y = CdfView.from_gaussian(GaussianSpec(0.0, 2.0))
        grid = np.linspace(-16.0, 16.0, 800)
        assert not dominates(x, y, grid).dominates
        assert not dominates(y, x, grid).dominates

    def test_transitive_on_grid(self):
        grid = np.linspace(-9.0, 10.0, 300)
        a = CdfView.from_gaussian(GaussianSpec(2.0, 1.0))
        b = CdfView.from_gaussian(GaussianSpec(1.0, 1.0))
        c = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        assert dominates(a, b, grid).dominates
        assert dominates(b, c, grid).dominates
        assert dominates(a, c, grid).dominates

    def test_empirical_uses_dkw_band(self):
        """MC self-comparison stays inside the 99% DKW band."""
        xs = sample(GaussianSpec(0.0, 1.0), 99, 4000)
        emp = CdfView.from_samples(xs)
        exact = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        expected_band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * 4000))
        assert abs(emp.dkw_band() - expected_band) < 1e-15
        grid = np.linspace(-4.0, 4.0, 200)
        assert dominates(emp, exact, grid).dominates
        assert dominates(exact, emp, grid).dominates

    def test_validate(self):
        view = CdfView.from_gaussian(GaussianSpec(0.0, 1.0))
        view.validate(np.linspace(-9.0, 9.0, 100))
        with pytest.raises(ValueError):
            view.validate(np.linspace(-1.0, 1.0, 10))  # endpoints not reached


class TestMonotoneMapPreserves:
    def test_identity_map(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        y = DiscretePmf((0, 1), np.array([0.7, 0.3]))
        assert monotone_map_preserves(x, y, lambda d: d)

    def test_affine_map(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        y = DiscretePmf((0, 1), np.array([0.7, 0.3]))
        assert monotone_map_preserves(x, y, lambda d: 2 * d + 1)

    def test_decreasing_map_rejected(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        with pytest.raises(ValueError, match="not nondecreasing"):
            monotone_map_preserves(x, x, lambda d: 1 - d)

    def test_property_500_random_instances(self):
        """Ordered pairs stay ordered under any nondecreasing map."""
        rng = np.random.default_rng(2024)
        for _ in range(500):
            xp, yp, levels = ordered_pmf_pair(rng)
            x = DiscretePmf(tuple(levels), xp)
            y = DiscretePmf(tuple(levels), yp)
            upsilon = random_nondecreasing_map(rng, levels)
            assert monotone_map_preserves(x, y, upsilon)


class TestConvolve:
    def test_two_fair_bernoullis(self):
        b = DiscretePmf((0, 1), np.array([0.5, 0.5]))
        out = convolve(b, b)
        assert np.array_equal(out.atoms, [0.0, 1.0, 2.0])
        assert np.allclose(out.masses, [0.25, 0.5, 0.25], atol=1e-15)

    def test_point_masses(self):
        da = AtomPmf(np.array([1.25]), np.array([1.0]))
        db = AtomPmf(np.array([-0.5]), np.array([1.0]))
        out = convolve(da, db)
        assert np.array_equal(out.atoms, [0.75])
        assert out.masses[0] == 1.0

    def test_threefold_binomial(self):
        """Three-fold convolution of Bernoulli(0.2) matches the binomial pmf."""
        b = DiscretePmf((0, 1), np.array([0.8, 0.2]))
        out = convolve_many([b, b, b])
        assert np.array_equal(out.atoms, [0.0, 1.0, 2.0, 3.0])
        expected = [
            math.comb(3, j) * 0.2**j * 0.8 ** (3 - j) for j in range(4)
        ]
        assert np.allclose(out.masses, expected, atol=1e-15)

    def test_mass_preserved(self):
        rng = np.random.default_rng(5)
        a = AtomPmf(rng.normal(size=7), rng.dirichlet(np.ones(7)))
        b = AtomPmf(rng.normal(size=5), rng.dirichlet(np.ones(5)))
        out = convolve(a, b)
        assert abs(out.total_mass - 1.0) < 1e-12

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(6)
        atoms = lambda k: rng.choice(np.arange(-12, 13) * 0.25, size=k, replace=False)
        a = AtomPmf(atoms(4), rng.dirichlet(np.ones(4)))
        b = AtomPmf(atoms(3), rng.dirichlet(np.ones(3)))
        c = AtomPmf(atoms(5), rng.dirichlet(np.ones(5)))
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert np.array_equal(ab.atoms, ba.atoms)
        assert np.allclose(ab.masses, ba.masses, atol=1e-12)
        left = convolve(ab, c)
        right = convolve(a, convolve(b, c))
        assert left.atoms.shape == right.atoms.shape
        assert np.allclose(left.atoms, right.atoms, atol=1e-9)
        assert np.allclose(left.masses, right.masses, atol=1e-12)

    def test_near_atoms_merge(self):
        a = AtomPmf(np.array([0.0, 1e-12]), np.array([0.5, 0.5]))
        out = convolve(a, AtomPmf(np.array([0.0]), np.array([1.0])))
        assert out.atoms.shape[0] == 1
        assert abs(out.total_mass - 1.0) < 1e-15


class TestAtomsStochasticallyLarger:
    def test_matches_loop_oracle(self):
        """Cumulative-mass check agrees with the per-point loop on 400 laws."""
        rng = np.random.default_rng(4041)
        verdicts = set()
        for trial in range(400):
            if trial % 2:
                xp, yp, levels = ordered_pmf_pair(rng)
                x = AtomPmf(np.asarray(levels, dtype=float), xp)
                y = AtomPmf(np.asarray(levels, dtype=float), yp)
            else:
                # shared integer atoms plus jittered ones, sub-unit mass
                x, y = (
                    AtomPmf(
                        rng.integers(-4, 5, size=n) + (rng.random(n) < 0.3) * rng.normal(size=n),
                        rng.dirichlet(np.ones(n)) * rng.uniform(0.5, 1.0),
                    )
                    for n in rng.integers(1, 30, size=2)
                )
            holds, worst = atoms_stochastically_larger(x, y)
            ref_holds, ref_worst = atoms_stochastically_larger_loop(x, y)
            assert holds == ref_holds
            assert abs(worst - ref_worst) <= 1e-12
            verdicts.add(holds)
        assert verdicts == {True, False}


class TestSumDominance:
    def test_two_ordered_bernoulli_pairs(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        y = DiscretePmf((0, 1), np.array([0.7, 0.3]))
        assert sum_dominance_check([x, x], [y, y])

    def test_equality_case(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        assert sum_dominance_check([x, x, x], [x, x, x])

    def test_length_mismatch(self):
        x = DiscretePmf((0, 1), np.array([0.3, 0.7]))
        with pytest.raises(ValueError, match="mismatch"):
            sum_dominance_check([x, x], [x])

    def test_property_500_random_instances(self):
        """Componentwise-ordered sums stay ordered (exact convolution)."""
        rng = np.random.default_rng(77)
        for _ in range(500):
            k = int(rng.integers(2, 6))
            xs, ys = [], []
            for _ in range(k):
                xp, yp, levels = ordered_pmf_pair(rng)
                xs.append(DiscretePmf(tuple(levels), xp))
                ys.append(DiscretePmf(tuple(levels), yp))
            assert sum_dominance_check(xs, ys)

    def test_majority_error_from_convolution(self):
        """Binomial tail from convolution agrees with the formula oracle."""
        b = DiscretePmf((0, 1), np.array([0.8, 0.2]))
        out = convolve_many([b] * 5)
        assert abs(out.mass_above(2.5) - binomial_majority_error(5, 0.2)) < 1e-15
