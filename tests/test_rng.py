"""Tests for the portable seeded generator."""

import math

import pytest

from er_evalkit.rng import SplitMix64, derive_seed


def box_muller(rng, mu, sigma):
    """The documented recipe, one draw at a time from two uniforms."""
    u1 = rng.random()
    u2 = rng.random()
    radius = math.sqrt(-2.0 * math.log(1.0 - u1))
    return mu + sigma * radius * math.cos(2.0 * math.pi * u2)


def bits(values):
    return [value.hex() for value in values]


class TestSplitMix64:
    def test_matches_published_reference_sequence(self):
        """Seed 0 must reproduce the algorithm's canonical first outputs."""
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(100)] == \
               [b.next_u64() for _ in range(100)]

    def test_random_unit_interval(self):
        rng = SplitMix64(1)
        values = [rng.random() for _ in range(10000)]
        assert all(0.0 <= v < 1.0 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.02

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(2)
        values = {rng.randint(3, 7) for _ in range(2000)}
        assert values == {3, 4, 5, 6, 7}

    def test_empty_ranges_rejected(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError) as raised:
            rng.randrange(0)
        assert str(raised.value) == "randrange() requires n >= 1"
        with pytest.raises(ValueError) as raised:
            rng.randint(2, 1)
        assert str(raised.value) == "randint() requires lo <= hi"

    def test_choice_returns_members(self):
        rng = SplitMix64(3)
        options = ("a", "b", "c")
        picks = {rng.choice(options) for _ in range(200)}
        assert picks == set(options)

    def test_gauss_moments(self):
        """Box-Muller output should match the requested mean and sigma."""
        rng = SplitMix64(4)
        draws = [rng.gauss(2.0, 3.0) for _ in range(20000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean - 2.0) < 0.1
        assert abs(math.sqrt(var) - 3.0) < 0.1

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, -7])
    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 1000, 1300])
    def test_normals_equal_repeated_gauss(self, seed, n):
        """A batch is bit for bit n gauss calls and leaves the same state,
        across the packed-pass boundaries."""
        batch, single = SplitMix64(seed), SplitMix64(seed)
        got = batch.normals(n, 0.25, 0.05)
        assert bits(got) == bits(single.gauss(0.25, 0.05) for _ in range(n))
        assert batch.gauss(-1.0, 2.0) == single.gauss(-1.0, 2.0)
        assert batch.next_u64() == single.next_u64()

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    def test_normals_follow_the_scalar_recipe(self, seed):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        got = batch.normals(700, 3.0, 0.5)
        assert bits(got) == bits(box_muller(scalar, 3.0, 0.5)
                                 for _ in range(700))
        assert batch.random() == scalar.random()

    def test_negative_seed_masked(self):
        rng = SplitMix64(-1)
        value = rng.next_u64()
        assert 0 <= value < 2 ** 64


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "catalog") == derive_seed(42, "catalog")

    def test_labels_split_streams(self):
        seeds = {derive_seed(42, label)
                 for label in ("catalog", "queries", "matcher", "clicklog")}
        assert len(seeds) == 4

    def test_seed_changes_all_labels(self):
        assert derive_seed(1, "catalog") != derive_seed(2, "catalog")

    def test_derived_streams_independent(self):
        """Streams from different labels should not be shifted copies."""
        a = SplitMix64(derive_seed(7, "a"))
        b = SplitMix64(derive_seed(7, "b"))
        seq_a = [a.next_u64() for _ in range(50)]
        seq_b = [b.next_u64() for _ in range(50)]
        assert seq_a != seq_b
        assert not set(seq_a) & set(seq_b)
