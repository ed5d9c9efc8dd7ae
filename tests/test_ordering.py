"""Stochastic ordering: exact dominance, monotone maps, exact convolution."""

import math

import numpy as np

from robust_fusion.distributions import AtomPmf, GaussianSpec
from robust_fusion.ordering import (
    ATOM_BIN_WIDTH,
    _merge_close_atoms,
    convolve,
    convolve_many,
)

from _oracles import (
    atoms_stochastically_larger,
    atoms_stochastically_larger_loop,
    binomial_majority_error,
    ordered_pmf_pair,
    pushforward,
    random_nondecreasing_map,
    tail_mass,
)


def binned(g: GaussianSpec, grid) -> AtomPmf:
    """``g`` with its mass moved up to the next grid point (the mass above
    the grid one unit past it), so its cdf at every grid point is g's."""
    cdf = np.array([g.cdf(float(x)) for x in grid])
    atoms = np.append(grid, grid[-1] + 1.0)
    return AtomPmf(atoms, np.diff(cdf, prepend=0.0, append=1.0))


def ordered(x: AtomPmf, y: AtomPmf) -> bool:
    return atoms_stochastically_larger(x, y)[0]


def atoms(levels, probs) -> AtomPmf:
    return AtomPmf(np.asarray(levels, dtype=float), probs)


class TestDominates:
    def test_mean_shifted_gaussians(self):
        """Equal-variance Gaussians are ordered by mean."""
        grid = np.linspace(-8.0, 9.0, 500)
        x = binned(GaussianSpec(1.0, 1.0), grid)
        y = binned(GaussianSpec(0.0, 1.0), grid)
        assert ordered(x, y)
        assert not ordered(y, x)

    def test_reflexive(self):
        x = binned(GaussianSpec(0.0, 1.0), np.linspace(-8.0, 8.0, 200))
        holds, worst_gap = atoms_stochastically_larger(x, x)
        assert holds
        assert worst_gap == 0.0

    def test_crossing_cdfs_not_ordered(self):
        """Different variances make the cdfs cross, so neither dominates."""
        grid = np.linspace(-16.0, 16.0, 800)
        x = binned(GaussianSpec(0.0, 1.0), grid)
        y = binned(GaussianSpec(0.0, 2.0), grid)
        assert not ordered(x, y)
        assert not ordered(y, x)

    def test_transitive_on_grid(self):
        grid = np.linspace(-9.0, 10.0, 300)
        a, b, c = (binned(GaussianSpec(m, 1.0), grid) for m in (2.0, 1.0, 0.0))
        assert ordered(a, b)
        assert ordered(b, c)
        assert ordered(a, c)


class TestMonotoneMapPreserves:
    X = ((0, 1), np.array([0.3, 0.7]))
    Y = ((0, 1), np.array([0.7, 0.3]))

    def test_identity_map(self):
        assert ordered(pushforward(*self.X, lambda d: d), pushforward(*self.Y, lambda d: d))

    def test_affine_map(self):
        def upsilon(d):
            return 2 * d + 1

        assert ordered(pushforward(*self.X, upsilon), pushforward(*self.Y, upsilon))

    def test_decreasing_map_rejected(self):
        """A decreasing map reverses the order, so the ordering check fails."""
        def upsilon(d):
            return 1 - d

        x, y = pushforward(*self.X, upsilon), pushforward(*self.Y, upsilon)
        assert not ordered(x, y)
        assert ordered(y, x)

    def test_property_500_random_instances(self):
        """Ordered pairs stay ordered under any nondecreasing map."""
        rng = np.random.default_rng(2024)
        for _ in range(500):
            xp, yp, levels = ordered_pmf_pair(rng)
            upsilon = random_nondecreasing_map(rng, levels)
            assert ordered(pushforward(levels, xp, upsilon), pushforward(levels, yp, upsilon))


class TestConvolve:
    def test_two_fair_bernoullis(self):
        b = atoms((0, 1), [0.5, 0.5])
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
        b = atoms((0, 1), [0.8, 0.2])
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

    def test_merge_width_is_inside_the_tie_band(self):
        """Two sums merged into one atom are closer than the fusion tie band,
        so a threshold at their mean decides both as enumeration does."""
        from robust_fusion.fusion import TIE_TOL

        assert ATOM_BIN_WIDTH < TIE_TOL

    def test_near_atoms_merge(self):
        a = AtomPmf(np.array([0.0, 1e-12]), np.array([0.5, 0.5]))
        out = convolve(a, AtomPmf(np.array([0.0]), np.array([1.0])))
        assert out.atoms.shape[0] == 1
        assert abs(out.total_mass - 1.0) < 1e-15

    def test_batch_convolves_each_law_as_alone(self):
        """A batch of laws (``AtomPmf.rows``) convolved with a law, on either
        side, gives each law's own convolution bit for bit: exact ties and
        near ties (merged) inside a law, equal atoms in different laws, and
        empty laws. The near ties' jitter scales with the merge width."""
        rng = np.random.default_rng(20261205)
        merges = 0
        for _ in range(300):
            laws = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(0, 6))
                jitter = np.where(rng.random(n) < 0.3, rng.uniform(-0.4, 0.4, n) * ATOM_BIN_WIDTH, 0.0)
                laws.append(AtomPmf(rng.integers(-4, 5, size=n) * 0.5 + jitter, rng.random((2, n))))
            m = int(rng.integers(1, 5))
            other = AtomPmf(rng.integers(-3, 4, size=m) * 0.5, rng.random((2, m)))
            batch = AtomPmf._from_sorted(
                np.concatenate([law.atoms for law in laws]),
                np.concatenate([law.masses for law in laws], axis=1),
                np.repeat(np.arange(len(laws)), [len(law.atoms) for law in laws]),
            )
            for got, alone in (
                (convolve(batch, other), lambda law: convolve(law, other)),
                (convolve(other, batch), lambda law: convolve(other, law)),
            ):
                for r, law in enumerate(laws):
                    want, mine = alone(law), got.rows == r
                    assert np.array_equal(got.atoms[mine], want.atoms)
                    assert np.array_equal(got.masses[:, mine], want.masses)
                    merges += len(want.atoms) < len(np.unique(np.add.outer(law.atoms, other.atoms)))
        assert merges >= 100

    def test_merged_law_trusted_form_equals_validated_form(self):
        """The merge returns its law through the unchecked constructor;
        running the validating one on that output changes no bit. The
        jitter scales with the merge width, so most draws merge."""
        rng = np.random.default_rng(20261023)
        merged = 0
        for _ in range(300):
            base = np.sort(rng.normal(0.0, 3.0, size=int(rng.integers(2, 40))))
            atoms = np.repeat(base, rng.integers(1, 4, size=base.size))
            jitter = rng.uniform(-0.5, 0.5, size=atoms.size) * ATOM_BIN_WIDTH
            atoms = atoms + np.where(rng.random(atoms.size) < 0.7, jitter, 0.0)
            raw = AtomPmf(atoms, rng.random(atoms.size))
            out = _merge_close_atoms(raw, ATOM_BIN_WIDTH)
            checked = AtomPmf(out.atoms, out.masses)
            assert np.array_equal(out.atoms, checked.atoms)
            assert np.array_equal(out.masses, checked.masses)
            assert np.all(out.atoms[1:] > out.atoms[:-1])
            merged += out.atoms.size < raw.atoms.size
        assert merged >= 250


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
        x = atoms((0, 1), [0.3, 0.7])
        y = atoms((0, 1), [0.7, 0.3])
        assert ordered(convolve_many([x, x]), convolve_many([y, y]))

    def test_equality_case(self):
        x = atoms((0, 1), [0.3, 0.7])
        assert ordered(convolve_many([x, x, x]), convolve_many([x, x, x]))

    def test_property_500_random_instances(self):
        """Componentwise-ordered sums stay ordered (exact convolution)."""
        rng = np.random.default_rng(77)
        for _ in range(500):
            k = int(rng.integers(2, 6))
            xs, ys = [], []
            for _ in range(k):
                xp, yp, levels = ordered_pmf_pair(rng)
                xs.append(atoms(levels, xp))
                ys.append(atoms(levels, yp))
            assert ordered(convolve_many(xs), convolve_many(ys))

    def test_majority_error_from_convolution(self):
        """Binomial tail from convolution agrees with the formula oracle."""
        out = convolve_many([atoms((0, 1), [0.8, 0.2])] * 5)
        assert abs(tail_mass(out, 2.5) - binomial_majority_error(5, 0.2)) < 1e-15
