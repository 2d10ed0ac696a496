"""Boldyreva order-preserving encryption (OPE).

Implements the Boldyreva–Chenette–Lee–O'Neill construction: a random
order-preserving function from the plaintext domain into a larger
ciphertext range, lazily sampled with PRF-derived coins so that the same
key always defines the same function.  The binary-search recursion splits
the range and samples a hypergeometric variate to decide how many domain
points land in each half.

The contract is that every split is a deterministic function of the key
and the node, and lies within the hypergeometric support: that alone
makes the function order-preserving, and lets the key re-derive every
stored ciphertext.  For populations up to :data:`_EXACT_LIMIT` the sampler
takes the hypergeometric quantile itself, read off a mode-centred pmf
recurrence (:func:`_quantile`) under one tie rule: the smallest ``k``
whose accumulated weight reaches ``coin · fsum(weights)``.  SciPy's
``hypergeom`` is a test oracle only; the runtime imports nothing
outside the standard library.  Above the limit the sampler takes a
clamped normal approximation through Acklam's probit (:func:`_probit`).
It stays rather than ``statistics.NormalDist.inv_cdf``: the two differ
by ~1e-9, which at a standard deviation of 2^26 rounds ~4 % of
top-of-tree splits differently and so would move every ciphertext
already stored.  The approximation does not affect correctness, only
how closely the sampled function matches a uniform random
order-preserving function.

Leakage: ciphertext order equals plaintext order (class 5 / *order* in the
paper's taxonomy).
"""

from __future__ import annotations

import bisect
import itertools
import math

from repro.crypto.kernels.executor import LruCache
from repro.crypto.primitives.hmac_prf import prf
from repro.errors import CryptoError

DEFAULT_DOMAIN_BITS = 32
DEFAULT_RANGE_BITS = 48

_EXACT_LIMIT = 1 << 24  # use the exact quantile below this population
#: Pmf terms below this share of the mode's are dropped: the total mass
#: is at least the mode's, so they vanish below a double's rounding.
_NEGLIGIBLE = 1e-20


def _uniform_coin(key: bytes, *parts: bytes) -> float:
    """Deterministic uniform in [0, 1) derived from the PRF."""
    raw = int.from_bytes(prf(key, *parts), "big")
    return (raw >> 203) / float(1 << 53)  # 53-bit mantissa-exact float


def _hypergeom_sample(coin: float, population: int, marked: int,
                      draws: int) -> int:
    """Quantile sampling of Hypergeometric(population, marked, draws)."""
    low = max(0, draws - (population - marked))
    high = min(marked, draws)
    if low == high:
        return low
    if population <= _EXACT_LIMIT:
        return _quantile(coin, population, marked, draws, low, high)
    mean = draws * marked / population
    var = (
        draws
        * (marked / population)
        * (1 - marked / population)
        * (population - draws)
        / max(population - 1, 1)
    )
    std = math.sqrt(max(var, 0.0))
    # The inverse normal cdf by Acklam's rational approximation (good to
    # ~1e-9, ample for a split); see the module docstring for why it is
    # not ``statistics.NormalDist``.
    value = round(mean + std * _probit(coin))
    return min(max(value, low), high)


def _quantile(coin: float, population: int, marked: int, draws: int,
              low: int, high: int) -> int:
    """The smallest ``k`` in ``[low, high]`` whose accumulated weight
    reaches ``coin · fsum(weights)``.

    Weights run outward from the mode by the pmf ratio recurrence, so
    every term is relative to ``pmf(mode) = 1`` and none under- or
    overflows; each side stops once its terms turn negligible.  The
    index is clamped to the last retained term, so a coin just below 1
    (whose target can round past the running sum) stays in the support.
    """
    rest = population - marked - draws
    mode = min(max((draws + 1) * (marked + 1) // (population + 2), low),
               high)
    above, weight = [], 1.0
    for k in range(mode, high):
        weight *= (marked - k) * (draws - k) / ((k + 1) * (rest + k + 1))
        if weight < _NEGLIGIBLE:
            break
        above.append(weight)
    below, weight = [], 1.0
    for k in range(mode, low, -1):
        weight *= k * (rest + k) / ((marked - k + 1) * (draws - k + 1))
        if weight < _NEGLIGIBLE:
            break
        below.append(weight)
    below.reverse()
    weights = [*below, 1.0, *above]
    steps = list(itertools.accumulate(weights))
    index = bisect.bisect_left(steps, coin * math.fsum(weights))
    return mode - len(below) + min(index, len(steps) - 1)


def _probit(u: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    if not 0.0 < u < 1.0:
        u = min(max(u, 1e-12), 1 - 1e-12)
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if u < p_low:
        q = math.sqrt(-2 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if u > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                            + 1)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


class Ope:
    """A keyed order-preserving function ``[0, 2^d) -> [0, 2^r)``.

    >>> scheme = Ope(b"k" * 16, domain_bits=16, range_bits=24)
    >>> scheme.encrypt(100) < scheme.encrypt(200)
    True
    """

    def __init__(self, key: bytes, domain_bits: int = DEFAULT_DOMAIN_BITS,
                 range_bits: int = DEFAULT_RANGE_BITS,
                 cache_nodes: int = 0):
        if range_bits <= domain_bits:
            raise CryptoError("OPE range must be strictly larger than domain")
        if not key:
            raise CryptoError("OPE key must be non-empty")
        self._key = key
        self.domain_bits = domain_bits
        self.range_bits = range_bits
        self.domain_size = 1 << domain_bits
        self.range_size = 1 << range_bits
        #: LRU memo of bisection-node split decisions, keyed by the
        #: node's (domain, range) intervals.  The sampled function is
        #: fully determined by the key, so memoised walks produce
        #: identical ciphertexts — the memo only skips re-sampling the
        #: hypergeometric quantile at nodes many plaintexts share, which
        #: is most of them when values cluster (ages, vitals, prices);
        #: least-recently-used eviction keeps those top-of-tree nodes.
        self._node_cache = LruCache(cache_nodes) if cache_nodes > 0 else None

    def encrypt(self, plaintext: int) -> int:
        if not 0 <= plaintext < self.domain_size:
            raise CryptoError("plaintext outside OPE domain")
        d_lo, d_hi = 0, self.domain_size  # domain interval [d_lo, d_hi)
        r_lo, r_hi = 0, self.range_size   # range interval [r_lo, r_hi)
        cache = self._node_cache
        while d_hi - d_lo > 1:
            node = (d_lo, d_hi, r_lo, r_hi)
            split = None if cache is None else cache.get(node)
            d_size = d_hi - d_lo
            r_size = r_hi - r_lo
            r_mid = r_lo + r_size // 2
            if split is None:
                draws = r_mid - r_lo
                coin = _uniform_coin(
                    self._key,
                    b"node",
                    d_lo.to_bytes(16, "big"), d_hi.to_bytes(16, "big"),
                    r_lo.to_bytes(16, "big"), r_hi.to_bytes(16, "big"),
                )
                # How many of the d_size domain points fall into the left
                # half of the range (draws slots out of r_size).
                left_count = _hypergeom_sample(coin, r_size, d_size, draws)
                split = d_lo + left_count
                if cache is not None:
                    cache.put(node, split)
            if plaintext < split:
                d_hi, r_hi = split, r_mid
            else:
                d_lo, r_lo = split, r_mid
            if d_hi - d_lo > r_hi - r_lo:
                raise CryptoError("OPE sampler violated its support")
        # Single remaining plaintext: place it uniformly in what is left
        # of the range.
        coin = _uniform_coin(
            self._key, b"leaf", d_lo.to_bytes(16, "big"),
            r_lo.to_bytes(16, "big"), r_hi.to_bytes(16, "big"),
        )
        return r_lo + int(coin * (r_hi - r_lo))

    def encrypt_many(self, plaintexts: list[int]) -> list[int]:
        return [self.encrypt(p) for p in plaintexts]
