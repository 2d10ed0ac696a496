"""The Paillier partially homomorphic cryptosystem (Paillier, 1999).

Replaces the Javallier library the paper's prototype used.  Supports:

* additive homomorphism: ``E(a) * E(b) = E(a + b)``;
* scalar multiplication: ``E(a) ** k = E(a * k)``;
* signed integers (two's-complement style embedding in Z_n);
* fixed-point reals via :class:`FixedPointCodec`, which the Paillier
  aggregate tactic uses to average heart rates / glucose values.

The simplified variant with generator ``g = n + 1`` is implemented, which
reduces encryption to one modular exponentiation of the random mask.
"""

from __future__ import annotations

import queue
import secrets
import threading
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.kernels.modexp import FixedBaseTable
from repro.crypto.primitives.numbers import (
    RandBelow,
    egcd,
    generate_distinct_primes,
    invmod,
    lcm,
)
from repro.errors import CryptoError

DEFAULT_KEY_BITS = 1024


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int

    # Every homomorphic operation reduces mod n^2; caching the square on
    # the key object (equality/hash still use ``n`` alone) spares one
    # 2048-bit multiplication per ciphertext operation.
    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest magnitude representable after the signed embedding."""
        return (self.n - 1) // 3


@dataclass(frozen=True)
class PaillierPrivateKey:
    public: PaillierPublicKey
    lam: int  # lcm(p-1, q-1)
    mu: int   # (L(g^lam mod n^2))^-1 mod n
    #: The factors, when known (0 on keys loaded without them): decrypt
    #: then runs two half-size exponentiations under CRT, ~2x faster,
    #: with identical outputs.
    p: int = 0
    q: int = 0


@dataclass(frozen=True)
class Ciphertext:
    """A Paillier ciphertext bound to its public key.

    Arithmetic operators implement the homomorphic operations so calling
    code reads like plaintext arithmetic: ``e1 + e2``, ``e1 * 3``.
    """

    public: PaillierPublicKey
    value: int

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        if not isinstance(other, Ciphertext):
            return NotImplemented
        if other.public != self.public:
            raise CryptoError("cannot add ciphertexts under different keys")
        return Ciphertext(
            self.public, self.value * other.value % self.public.n_squared
        )

    def add_plain(self, scalar: int) -> "Ciphertext":
        # With g = n + 1, g^m = 1 + m*n (mod n^2): the closed form costs
        # one multiplication where the general pow() walked ~1.5 * bits
        # square-and-multiply steps for the same result.
        n = self.public.n
        n_sq = self.public.n_squared
        g_m = (1 + scalar % n * n) % n_sq
        return Ciphertext(
            self.public, self.value * g_m % n_sq
        )

    def __mul__(self, scalar: int) -> "Ciphertext":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            inverted = invmod(self.value, self.public.n_squared)
            return Ciphertext(
                self.public,
                pow(inverted, -scalar, self.public.n_squared),
            )
        return Ciphertext(
            self.public, pow(self.value, scalar, self.public.n_squared)
        )

    __rmul__ = __mul__

    def to_int(self) -> int:
        return self.value


def generate_keypair(bits: int = DEFAULT_KEY_BITS,
                     randbelow: RandBelow | None = None) -> PaillierPrivateKey:
    """Generate a Paillier keypair with an (approximately) ``bits``-bit n."""
    if bits < 64:
        raise CryptoError("key too small")
    while True:
        p, q = generate_distinct_primes(bits // 2, 2, randbelow)
        if egcd(p * q, (p - 1) * (q - 1))[0] != 1:
            continue
        n = p * q
        public = PaillierPublicKey(n)
        lam = lcm(p - 1, q - 1)
        # With g = n + 1: L(g^lam mod n^2) = lam mod n, so mu = lam^-1.
        mu = invmod(lam, n)
        return PaillierPrivateKey(public=public, lam=lam, mu=mu, p=p, q=q)


def _embed_signed(public: PaillierPublicKey, message: int) -> int:
    if abs(message) > public.max_plaintext:
        raise CryptoError("plaintext magnitude exceeds key capacity")
    return message % public.n


def _unembed_signed(public: PaillierPublicKey, residue: int) -> int:
    # Values in the upper third of Z_n decode as negatives.
    if residue > public.n - public.max_plaintext - 1:
        return residue - public.n
    return residue


def obfuscator(public: PaillierPublicKey,
               randbelow: RandBelow | None = None) -> int:
    """One random mask ``r^n mod n^2`` — the expensive half of encrypt."""
    randbelow = randbelow or secrets.randbelow
    n = public.n
    while True:
        r = randbelow(n - 1) + 1
        if egcd(r, n)[0] == 1:
            break
    return pow(r, n, public.n_squared)


def encrypt_with_mask(public: PaillierPublicKey, message: int,
                      mask: int) -> Ciphertext:
    """Encrypt using a precomputed obfuscator mask: a single modmul.

    With ``g = n + 1``, ``g^m = 1 + m*n (mod n^2)``, so given
    ``mask = r^n mod n^2`` the ciphertext costs one modular
    multiplication — the whole point of :class:`ObfuscatorPool`.
    """
    m = _embed_signed(public, message)
    n_sq = public.n_squared
    return Ciphertext(public, (1 + m * public.n) % n_sq * mask % n_sq)


def encrypt(public: PaillierPublicKey, message: int,
            randbelow: RandBelow | None = None) -> Ciphertext:
    """Encrypt a signed integer."""
    return encrypt_with_mask(public, message,
                             obfuscator(public, randbelow))


class FixedBaseObfuscator:
    """Windowed fixed-base generation of obfuscator masks.

    At setup one cold mask ``β = r₀^n mod n²`` is drawn; fresh masks are
    then ``β^k`` for random ``k < n`` — i.e. effective randomness
    ``r₀^k``, produced with ~bits/window modmuls through the
    :class:`~repro.crypto.kernels.modexp.FixedBaseTable` instead of a
    full exponentiation.  This is the classic amortised-randomness
    trade (masks range over the subgroup ⟨r₀⟩ rather than all of Z*_n);
    it is opt-in via ``CryptoConfig.precompute`` and never the default.
    """

    def __init__(self, public: PaillierPublicKey,
                 randbelow: RandBelow | None = None):
        self._public = public
        self._randbelow = randbelow or secrets.randbelow
        beta = obfuscator(public, randbelow)
        self._table = FixedBaseTable(
            beta, public.n_squared, public.n.bit_length()
        )

    def mask(self) -> int:
        exponent = self._randbelow(self._public.n - 1) + 1
        return self._table.pow(exponent)

    def encrypt(self, message: int) -> Ciphertext:
        return encrypt_with_mask(self._public, message, self.mask())

    @property
    def memory_bytes(self) -> int:
        return self._table.memory_bytes


class ObfuscatorPool:
    """Background precomputation of encryption masks ``r^n mod n^2``.

    Paillier encryption splits into a plaintext-independent modular
    exponentiation (the obfuscator) and one modmul.  The pool runs the
    exponentiations on a daemon thread while the gateway is busy with
    other per-field crypto, so the aggregate write path usually finds a
    mask ready and pays only the modmul.  When the queue is empty the
    mask is computed inline — the pool never changes the ciphertext
    distribution, only when the work happens.

    An optional ``source`` callable replaces the cold per-mask
    exponentiation (the crypto kernel layer plugs a
    :class:`FixedBaseObfuscator` in here, making refills ~7x cheaper).
    """

    def __init__(self, public: PaillierPublicKey, size: int = 8,
                 randbelow: RandBelow | None = None,
                 source=None):
        if size < 1:
            raise CryptoError("obfuscator pool size must be positive")
        self._public = public
        self._randbelow = randbelow
        self._source = source or (
            lambda: obfuscator(self._public, self._randbelow)
        )
        self._queue: queue.Queue[int] = queue.Queue(maxsize=size)
        self._thread: threading.Thread | None = None
        self._stopped = False
        self._lock = threading.Lock()

    # -- background refill -------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is not None or self._stopped:
            return
        with self._lock:
            if self._thread is None and not self._stopped:
                thread = threading.Thread(
                    target=self._refill, daemon=True,
                    name="paillier-obfuscator",
                )
                self._thread = thread
                thread.start()

    def _refill(self) -> None:
        while not self._stopped:
            mask = self._source()
            while not self._stopped:
                try:
                    self._queue.put(mask, timeout=0.2)
                    break
                except queue.Full:
                    continue

    # -- consumption ----------------------------------------------------------------

    def mask(self) -> int:
        """A fresh mask: precomputed when available, inline otherwise."""
        self._ensure_thread()
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return self._source()

    def encrypt(self, message: int) -> Ciphertext:
        """Encrypt with a pooled mask — one modmul on the hot path."""
        return encrypt_with_mask(self._public, message, self.mask())

    def available(self) -> int:
        return self._queue.qsize()

    def close(self) -> None:
        """Stop the refill thread (idempotent; masks left queued drain)."""
        self._stopped = True


def _crt_power(value: int, lam: int, p: int, q: int) -> int:
    """``value^lam mod (p*q)^2`` via two half-size exponentiations.

    Exponent reduction mod λ(p²) = p(p-1) is only valid for units, so
    callers must ensure gcd(value, p*q) == 1.
    """
    p_sq = p * p
    q_sq = q * q
    u_p = pow(value % p_sq, lam % (p * (p - 1)), p_sq)
    u_q = pow(value % q_sq, lam % (q * (q - 1)), q_sq)
    return u_p + p_sq * ((u_q - u_p) * invmod(p_sq, q_sq) % q_sq)


def decrypt(private: PaillierPrivateKey, ciphertext: Ciphertext) -> int:
    public = private.public
    if ciphertext.public != public:
        raise CryptoError("ciphertext was produced under a different key")
    n = public.n
    if private.p and private.q and egcd(ciphertext.value, n)[0] == 1:
        u = _crt_power(ciphertext.value, private.lam, private.p, private.q)
    else:
        u = pow(ciphertext.value, private.lam, public.n_squared)
    l_value = (u - 1) // n
    residue = l_value * private.mu % n
    return _unembed_signed(public, residue)


class FixedPointCodec:
    """Fixed-point embedding of reals into the Paillier plaintext space.

    ``scale`` decimal digits of precision are kept.  Averages computed over
    homomorphic sums divide the decoded sum by the count at the gateway —
    exactly the AggFunctionResolution step of the paper's SPI (Table 1).
    """

    def __init__(self, scale: int = 6):
        if scale < 0 or scale > 18:
            raise CryptoError("scale out of supported range")
        self.factor = 10 ** scale

    def encode(self, value: float | int) -> int:
        return round(value * self.factor)

    def decode(self, encoded: int) -> float:
        return encoded / self.factor

    def decode_mean(self, encoded_sum: int, count: int) -> float:
        if count <= 0:
            raise CryptoError("mean over empty population")
        return encoded_sum / self.factor / count
