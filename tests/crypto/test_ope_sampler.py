"""The OPE sampler's exact quantile against scipy's ``hypergeom``.

scipy is a test oracle only: the sampler decides every split itself.
OPE ciphertexts are a pure function of the splits, so one differing
node would change ciphertexts already stored in the cloud.  The nodes
are the ones real encryptions walk, under three (domain, range)
configs: all 53,155 of them fall inside scipy's cdf bracket.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from scipy.stats import hypergeom

from repro.crypto import ope

#: (domain bits, range bits, keys, encryptions per key): the OPE
#: tactic's 40/56, the unit tests' 16/28, and a small 12/20 whose tree
#: one key nearly exhausts.
CONFIGS = ((40, 56, 1, 900), (16, 28, 3, 700), (12, 20, 8, 1200))
#: Walked nodes with more than one outcome, per config.
CENSUS = {(40, 56): 8_362, (16, 28): 16_619, (12, 20): 28_174}
#: A spread (standard deviation) past which the recurrence sums more
#: terms than scipy's ppf costs (EXPERIMENTS.md EXP-SETUP): the nodes
#: where a wrong term count or truncation would show first.
WIDE = 24
#: Walked nodes wider than :data:`WIDE`, per config.
WIDE_CENSUS = {(40, 56): 0, (16, 28): 48, (12, 20): 8}


def support(population: int, marked: int, draws: int) -> tuple[int, int]:
    return max(0, draws - (population - marked)), min(marked, draws)


def spread(population: int, marked: int, draws: int) -> float:
    """The hypergeometric standard deviation."""
    return (draws * marked * (population - marked) * (population - draws)
            / (population ** 2 * (population - 1))) ** 0.5


def scipy_split(coin: float, population: int, marked: int,
                draws: int) -> int:
    return int(hypergeom.ppf(coin, population, marked, draws))


@pytest.fixture(scope="module")
def walked():
    """``{config: set of (coin, population, marked, draws)}``: every
    exact-region node with more than one outcome that seeded
    encryptions visit."""
    rng = random.Random(2019)
    nodes: dict[tuple[int, int], set] = {}
    sample = ope._hypergeom_sample

    def record(coin, population, marked, draws):
        low, high = support(population, marked, draws)
        if population <= ope._EXACT_LIMIT and low < high:
            seen.add((coin, population, marked, draws))
        return sample(coin, population, marked, draws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ope, "_hypergeom_sample", record)
        for domain_bits, range_bits, keys, count in CONFIGS:
            seen = nodes.setdefault((domain_bits, range_bits), set())
            for _ in range(keys):
                # The memo only skips re-sampling a node already seen.
                scheme = ope.Ope(rng.randbytes(16), domain_bits, range_bits,
                                 cache_nodes=4096)
                for _ in range(count):
                    scheme.encrypt(rng.randrange(1 << domain_bits))
    return nodes


def test_every_walked_split_matches_scipy(walked):
    """``cdf(k - 1) < coin <= cdf(k)`` is the definition ``ppf``
    implements, checked in one vectorised cdf pass per side instead of
    ``ppf``'s per-node search: 53,155 splits, 0 outside it."""
    assert {config: len(found) for config, found in walked.items()} == (
        CENSUS)
    assert sum(CENSUS.values()) == 53_155
    for config, found in walked.items():
        nodes = sorted(found)
        coins, populations, marked, draws = zip(*nodes)
        splits = [ope._hypergeom_sample(*node) for node in nodes]
        below = hypergeom.cdf([k - 1 for k in splits], populations, marked,
                              draws)
        upto = hypergeom.cdf(splits, populations, marked, draws)
        outside = [node for node, coin, lo, hi in zip(nodes, coins, below,
                                                      upto)
                   if not lo < coin <= hi]
        assert not outside, (config, outside[:3])


def test_wide_node_census(walked):
    """The wide nodes the recurrence now sums too: 0 at the tactic's
    40/56, 48 at 16/28 and 8 at 12/20, each equal to scipy's ppf."""
    wide = {config: [node for node in found if spread(*node[1:]) > WIDE]
            for config, found in walked.items()}
    assert {config: len(nodes) for config, nodes in wide.items()} == (
        WIDE_CENSUS)
    for config, nodes in wide.items():
        differing = [node for node in nodes
                     if ope._hypergeom_sample(*node) != scipy_split(*node)]
        assert not differing, (config, differing[:3])


def exact_pmf(population: int, marked: int, draws: int) -> list[Fraction]:
    """The hypergeometric pmf over the whole support, in exact rationals."""
    low, high = support(population, marked, draws)
    rest = population - marked - draws
    weights = [Fraction(1)]
    for k in range(low, high):
        weights.append(weights[-1] * Fraction(
            (marked - k) * (draws - k), (k + 1) * (rest + k + 1)))
    total = sum(weights)
    return [weight / total for weight in weights]


class TestTieRule:
    """The split is the smallest ``k`` whose accumulated weight reaches
    ``coin · fsum(weights)``, clamped to the last retained term."""

    NODE = (1 << 20, 300, 1 << 19)  # population, marked, draws

    @pytest.mark.parametrize("k", [140, 150, 160])
    def test_coins_near_a_cdf_step_equal_scipy(self, k):
        step = float(hypergeom.cdf(k, *self.NODE))
        for offset in (5e-10, -5e-10):
            coin = step + offset
            assert ope._hypergeom_sample(coin, *self.NODE) == (
                scipy_split(coin, *self.NODE)), offset

    def test_coins_clear_of_a_cdf_step_equal_scipy(self):
        step = float(hypergeom.cdf(150, *self.NODE))
        for offset in (1e-6, -1e-6):
            coin = step + offset
            assert ope._hypergeom_sample(coin, *self.NODE) == (
                scipy_split(coin, *self.NODE)), offset

    @pytest.mark.parametrize("k", [140, 150, 160])
    def test_a_coin_inside_scipys_rounding_follows_the_fsum_rule(self, k):
        """A coin 1e-12 above scipy's float ``cdf(k)``.  That cdf sits
        ~1e-11 below the exact one (scipy 1.17), so scipy's ppf answers
        ``k + 1`` here; the fsum-summed weights, like the exact cdf in
        rationals, still reach the coin at ``k``.  The split is the
        exact quantile, whichever side of scipy's step it falls."""
        coin = float(hypergeom.cdf(k, *self.NODE)) + 1e-12
        low, _ = support(*self.NODE)
        exact = low + next(index for index, value
                           in enumerate(accumulate(exact_pmf(*self.NODE)))
                           if value >= Fraction(coin))
        assert ope._hypergeom_sample(coin, *self.NODE) == exact

    def test_wide_node_equals_scipy(self):
        node = (1 << 16, 5000, 1 << 15)
        assert spread(*node) > WIDE
        for coin in (0.01, 0.37, 0.5, 0.99):
            assert ope._hypergeom_sample(coin, *node) == (
                scipy_split(coin, *node)), coin

    @pytest.mark.parametrize("coin", [0.0, 1.0, 1 - 2 ** -53])
    def test_extreme_coins_land_inside_the_support(self, coin):
        """A coin of 1, or just below it, targets more than the running
        sum reaches; the clamp keeps the last retained term, a split
        whose pmf is not negligible beside the mode's."""
        low, high = support(*self.NODE)
        split = ope._hypergeom_sample(coin, *self.NODE)
        assert low <= split <= high
        pmf = exact_pmf(*self.NODE)
        assert pmf[split - low] >= ope._NEGLIGIBLE * max(pmf)
