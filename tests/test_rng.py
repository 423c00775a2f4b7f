"""Tests for the portable seeded generator."""

import inspect
import math

import pytest

from er_evalkit import rng as rng_module, simulate
from er_evalkit.rng import _GAMMA, SplitMix64, derive_seed


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

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1025])
    def test_uniforms_equal_repeated_random(self, seed, n):
        """A batch is n random() calls and leaves the same state, across
        the packed-pass boundaries."""
        batch, single = SplitMix64(seed), SplitMix64(seed)
        got = batch.uniforms(n)
        assert bits(got) == bits(single.random() for _ in range(n))
        assert batch.next_u64() == single.next_u64()

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_a_multi_batch_top53_equals_repeated_draws(self, seed, stride):
        """Three packed passes give every stride-th ``next_u64() >> 11``
        and leave the state past all n·stride draws."""
        n = 2 * rng_module._BATCH + 37
        batch, single = SplitMix64(seed), SplitMix64(seed)
        words = [single.next_u64() >> 11 for _ in range(n * stride)]
        assert batch._top53(n, stride) == tuple(words[::stride])
        assert batch.next_u64() == single.next_u64()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 700])
    def test_skip_jumps_past_n_draws(self, seed, n):
        """After skip(n), the next draw is the (n + 1)-th; skip(0) moves
        nothing."""
        jumped, stepped = SplitMix64(seed), SplitMix64(seed)
        jumped.skip(n)
        for _ in range(n):
            stepped.next_u64()
        assert jumped.next_u64() == stepped.next_u64()

    @pytest.mark.parametrize("seed", [5, 2**63 + 1])
    @pytest.mark.parametrize("n,h", [(1, 3), (300, 2), (600, 1)])
    def test_polar_after_a_jump_is_the_long_polars_tail(self, seed, n, h):
        """A stream jumped 2·n·h draws makes draws h·n to h·n + n - 1 of
        one long polar from the start: the same radii and draws, bit for
        bit, and the same state after."""
        long_rng, jumped = SplitMix64(seed), SplitMix64(seed)
        long = long_rng.polar(n * (h + 1), 0.3)
        jumped.skip(2 * n * h)
        tail = jumped.polar(n, 0.3)
        at = range(h * n, h * n + n)
        assert bits(tail.radii(range(n))) == bits(long.radii(at))
        assert bits(tail.draws(range(n), 0.5)) == bits(long.draws(at, 0.5))
        assert jumped.next_u64() == long_rng.next_u64()

    @pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    @pytest.mark.parametrize("mu,sigma", [(0.0, 0.05), (-3.5, 2.0),
                                          (1e-3, 1e-300)])
    def test_polar_split_is_the_scalar_recipe(self, seed, n, mu, sigma):
        """Each radius is sigma * sqrt(-2 log(1 - u1)) of its pair's first
        uniform, every completed draw is the scalar recipe's, in any order
        and any subset, and the stream moves past all 2n uniforms."""
        polar_rng, scalar = SplitMix64(seed), SplitMix64(seed)
        polar = polar_rng.polar(n, sigma)
        want_radii, want = [], []
        for _ in range(n):
            u1, u2 = scalar.random(), scalar.random()
            radius = sigma * math.sqrt(-2.0 * math.log(1.0 - u1))
            want_radii.append(radius)
            want.append(mu + radius * math.cos(2.0 * math.pi * u2))
        assert bits(polar.radii(range(n))) == bits(want_radii)
        assert polar_rng.next_u64() == scalar.next_u64()
        picks = list(range(n - 1, -1, -3)) + [0, 0]
        assert bits(polar.draws(picks, mu)) == bits(want[j] for j in picks)
        assert bits(polar.draws(range(n), mu)) == bits(want)

    @pytest.mark.parametrize("seed", [1, 77])
    @pytest.mark.parametrize("n", [1, 3000])
    def test_a_draw_never_exceeds_mu_plus_its_radius(self, seed, n):
        """Nor a radius the batch's radius bound, which exceeds the largest
        radius by a relative 2**-32 at most."""
        polar = SplitMix64(seed).polar(n, 0.7)
        radii = polar.radii(range(n))
        for radius, draw in zip(radii, polar.draws(range(n), 0.25)):
            assert 0.0 <= radius <= polar.radius_bound()
            assert draw <= 0.25 + radius
        assert polar.radius_bound() <= max(radii) * (1.0 + 2.0**-31)

    def test_an_empty_batch_has_radius_bound_zero(self):
        assert SplitMix64(4).polar(0, 3.0).radius_bound() == 0.0

    def test_polar_defaults_to_unit_sigma(self):
        unit = SplitMix64(8).polar(5, 1.0).radii(range(5))
        assert SplitMix64(8).polar(5).radii(range(5)) == unit

    def test_draws_default_to_zero_mean(self):
        polar = SplitMix64(8).polar(5, 2.0)
        assert polar.draws([4, 1]) == polar.draws([4, 1], 0.0)
        assert SplitMix64(8).normals(5) == SplitMix64(8).normals(5, 0.0, 1.0)

    def test_the_first_uniform_zero_gives_radius_zero(self):
        """u1 = 0 is a radius of (negative) zero and a draw of mu."""
        polar = SplitMix64(-_GAMMA).polar(1, 1.0)  # mixes counter 0 to 0
        assert polar.radii([0]) == [0.0]
        assert polar.radius_bound() == 0.0
        assert polar.draws([0], 2.5) == [2.5]

    def test_negative_seed_masked(self):
        rng = SplitMix64(-1)
        value = rng.next_u64()
        assert 0 <= value < 2 ** 64


class TestBenchmarkApi:
    """perfbench/traced.py calls these by name and position."""

    @pytest.mark.parametrize("func,text", [
        (SplitMix64.gauss,
         "(self, mu: 'float' = 0.0, sigma: 'float' = 1.0) -> 'float'"),
        (SplitMix64.random, "(self) -> 'float'"),
        (SplitMix64.__init__, "(self, seed: 'int')"),
        (derive_seed, "(seed: 'int', label: 'str') -> 'int'"),
        (simulate.levenshtein, "(a: 'str', b: 'str') -> 'int'"),
    ])
    def test_signatures_kept(self, func, text):
        assert str(inspect.signature(func)) == text

    def test_simulate_draws_from_the_rng_class(self):
        assert simulate.SplitMix64 is rng_module.SplitMix64
        assert simulate.derive_seed is derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "catalog") == derive_seed(42, "catalog")

    def test_labels_split_streams(self):
        seeds = {derive_seed(42, label)
                 for label in ("catalog", "queries", "matcher", "clicklog")}
        assert len(seeds) == 4

    def test_seed_changes_all_labels(self):
        assert derive_seed(1, "catalog") != derive_seed(2, "catalog")

    @pytest.mark.parametrize("label,fnv", [
        ("", 0xCBF29CE484222325), ("a", 0xAF63DC4C8601EC8C),
        ("foobar", 0x85944171F73967E8)])
    def test_labels_hash_by_fnv1a(self, label, fnv):
        """A derived seed is mix(seed ^ FNV-1a(label)), checked against the
        published FNV-1a 64-bit vectors; mix(z) is the draw after state
        z - γ."""
        for seed in (0, 12345):
            assert derive_seed(seed, label) == \
                SplitMix64((seed ^ fnv) - _GAMMA).next_u64()

    def test_derived_streams_independent(self):
        """Streams from different labels should not be shifted copies."""
        a = SplitMix64(derive_seed(7, "a"))
        b = SplitMix64(derive_seed(7, "b"))
        seq_a = [a.next_u64() for _ in range(50)]
        seq_b = [b.next_u64() for _ in range(50)]
        assert seq_a != seq_b
        assert not set(seq_a) & set(seq_b)
