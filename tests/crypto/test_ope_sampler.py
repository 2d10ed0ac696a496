"""The OPE sampler's exact quantile against scipy's ``hypergeom.ppf``.

Every split the pmf recurrence decides must equal scipy's: OPE
ciphertexts are a pure function of the splits, so one differing node
would change ciphertexts already stored in the cloud.  The nodes are
the ones real encryptions walk, under three (domain, range) configs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.stats import hypergeom

from repro.crypto import ope

#: (domain bits, range bits, keys, encryptions per key): the OPE
#: tactic's 40/56, the unit tests' 16/28, and a small 12/20 whose tree
#: one key nearly exhausts.
CONFIGS = ((40, 56, 1, 900), (16, 28, 3, 700), (12, 20, 8, 1200))


def support(population: int, marked: int, draws: int) -> tuple[int, int]:
    return max(0, draws - (population - marked)), min(marked, draws)


def spread(population: int, marked: int, draws: int) -> float:
    """The hypergeometric standard deviation."""
    return (draws * marked * (population - marked) * (population - draws)
            / (population ** 2 * (population - 1))) ** 0.5


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


def reference(nodes) -> list[int]:
    coins, populations, marked, draws = (np.array(column)
                                         for column in zip(*nodes))
    return [int(k) for k in hypergeom.ppf(coins, populations, marked, draws)]


def test_every_walked_split_matches_scipy(walked):
    total = sum(map(len, walked.values()))
    assert total >= 50_000
    for config, found in walked.items():
        nodes = sorted(found)
        expected = reference(nodes)
        got = [ope._hypergeom_sample(*node) for node in nodes]
        mismatched = [node for node, a, b in zip(nodes, got, expected)
                      if a != b]
        assert not mismatched, (config, mismatched[:3])


def test_recurrence_decides_all_but_wide_nodes(walked):
    """The scipy path is the exception: none at the tactic's 40/56, and
    elsewhere only spreads wider than the recurrence sums."""
    for (domain_bits, range_bits), found in walked.items():
        deferred = [node for node in found
                    if ope._quantile(*node, *support(*node[1:])) is None]
        if (domain_bits, range_bits) == (40, 56):
            assert not deferred
        for _, population, marked, draws in deferred:
            assert spread(population, marked, draws) > ope._SPREAD_LIMIT


class TestScipyPath:
    NODE = (1 << 20, 300, 1 << 19)  # population, marked, draws

    def defers(self, coin: float, population: int, marked: int,
               draws: int) -> bool:
        deferred = ope._quantile(coin, population, marked, draws,
                                 *support(population, marked, draws))
        assert ope._hypergeom_sample(coin, population, marked, draws) == (
            int(hypergeom.ppf(coin, population, marked, draws)))
        return deferred is None

    @pytest.mark.parametrize("k", [140, 150, 160])
    def test_coin_on_a_cdf_step_goes_to_scipy(self, k):
        step = float(hypergeom.cdf(k, *self.NODE))
        assert self.defers(step, *self.NODE)
        assert self.defers(step + 5e-10, *self.NODE)
        assert self.defers(step - 5e-10, *self.NODE)

    def test_coin_clear_of_steps_stays_on_the_recurrence(self):
        step = float(hypergeom.cdf(150, *self.NODE))
        assert not self.defers(step + 1e-6, *self.NODE)
        assert not self.defers(step - 1e-6, *self.NODE)

    def test_wide_spread_goes_to_scipy(self):
        node = (1 << 16, 5000, 1 << 15)
        assert spread(*node) > ope._SPREAD_LIMIT
        assert self.defers(0.37, *node)

    @pytest.mark.parametrize("coin", [0.0, 1.0])
    def test_coin_outside_the_open_interval_goes_to_scipy(self, coin):
        population, marked, draws = self.NODE
        assert ope._quantile(coin, population, marked, draws,
                             *support(*self.NODE)) is None
        low, high = support(*self.NODE)
        value = ope._hypergeom_sample(coin, population, marked, draws)
        assert low <= value <= high
