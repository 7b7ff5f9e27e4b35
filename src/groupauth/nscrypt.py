"""Knapsack public-key cryptosystem with prime-divisor message bits.

A message m < 2^n selects a subset of the first n primes through its bits
(bit 0 is the smallest prime). Encryption multiplies the public values of
the selected bits mod p; decryption raises the ciphertext to the secret
exponent s and reads the bits back off as small-prime divisors. Because
each bit surfaces as a separate prime factor, any holder of s who knows
only a *subset* of the primes can recover exactly the bits in that subset,
which is what the share-splitting layer builds on.

A `Share` is a token's share material: `KeyShare` (monotone mode, one prime
subset) and `ShareSequence` (sequence mode, one prime set or None per slot)
are its two kinds, and a token reads either with `partial_decrypt`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import numtheory
from .errors import GroupAuthError

__all__ = [
    "Plaintext",
    "Ciphertext",
    "NsPublicKey",
    "NsPrivateKey",
    "Share",
    "KeyShare",
    "ShareSequence",
    "MalformedCiphertext",
    "system_primes",
    "keygen",
    "public_key_of",
    "binds",
    "encrypt",
    "decrypt",
    "partial_decrypt",
    "residue_bits",
]

# Messages and ciphertexts are plain ints; these aliases keep signatures readable.
Plaintext = int
Ciphertext = int

# Above every key modulus (a table prime is below twice its prime product, and
# a forced p must be below this): `files` refuses an integer of more digits.
MAX_MODULUS = 2 * math.prod(numtheory.SMALL_PRIMES)


class MalformedCiphertext(GroupAuthError):
    """The residue c^s mod p does not factor completely over the system primes."""


def system_primes(n: int) -> tuple[int, ...]:
    """The primes of a key over n primes: the first n, so bit i is prime i.

    Raises ValueError unless 2 <= n <= MAX_N. Keys, public keys and share
    sequences all take their n through here, since each message bit must
    have its prime among the global ranks (SMALL_PRIME_RANK).
    """
    if not 2 <= n <= numtheory.MAX_N:
        raise ValueError(f"n must be in [2, {numtheory.MAX_N}]")
    return numtheory.SMALL_PRIMES[:n]


@dataclass(frozen=True)
class NsPublicKey:
    n: int
    p: int
    v: tuple[int, ...]

    def __post_init__(self):
        primes = system_primes(self.n)
        if len(self.v) != self.n:
            raise ValueError("public value count must equal n")
        # a smaller p cannot hold the product of an all-ones message's primes
        if self.p <= math.prod(primes):
            raise ValueError("modulus must exceed the prime product")
        if not all(1 <= vi < self.p for vi in self.v):
            raise ValueError("public values must lie in [1, p)")


@dataclass(frozen=True)
class NsPrivateKey:
    n: int
    p: int
    s: int
    primes: tuple[int, ...]

    def __post_init__(self):
        # Share bits are read at global prime ranks (SMALL_PRIME_RANK), so a
        # key over any other primes would answer at the wrong bit positions.
        primes = system_primes(self.n)
        if tuple(self.primes) != primes:
            raise ValueError(f"primes must be the first {self.n} primes")
        if self.p <= math.prod(primes):
            raise ValueError("modulus must exceed the prime product")
        if math.gcd(self.s, self.p - 1) != 1:
            raise ValueError("secret exponent must be invertible mod p-1")

    @cached_property
    def _public_key(self) -> NsPublicKey:
        """The public key bound to this key, derived on first use.

        The fields are frozen, so the value never goes stale; it is stored
        on this object alone and is not part of equality or any file.
        """
        s_inv = numtheory.mod_inv(self.s, self.p - 1)
        v = tuple(pow(q, s_inv, self.p) for q in self.primes)
        return NsPublicKey(n=self.n, p=self.p, v=v)


class Share:
    """A token's share material: a tuple of `slots`, each a prime set or None (no share)."""

    @cached_property
    def reading(self) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
        """Every slot's primes together, sorted, and each slot's bit mask (None: no share).

        This is how a token reads, then answers: `partial_decrypt` raises
        the ciphertext to s once and reads the residue's bits over these
        primes with one `residue_bits`, and the token answers each slot
        with `bits & mask`, which equals `residue_bits(u, slot)`, or with a
        null where it holds no share. Built on first use, and in no file.
        """
        held = [primes for primes in self.slots if primes is not None]
        # 0 is divisible by every prime, so it reads a slot's whole mask
        masks = tuple(None if primes is None else residue_bits(0, primes) for primes in self.slots)
        return tuple(sorted(frozenset().union(*held))), masks


@dataclass(frozen=True)
class KeyShare(Share):
    """One holder's share of the private key: a prime subset plus s.

    The prime subset decides which message bits this share can attest;
    the exponent is the full secret, so tokens are trusted not to leak it.
    """

    holder: str
    s: int
    p: int
    prime_subset: frozenset[int]

    def __post_init__(self):
        if not self.prime_subset:
            raise ValueError("prime subset must be non-empty")
        _check_share_primes(self.prime_subset)

    @property
    def slots(self) -> tuple[frozenset[int]]:
        """A key share is a share of one slot."""
        return (self.prime_subset,)


@dataclass(frozen=True)
class ShareSequence(Share):
    """A holder's ordered per-slot share list; None marks slots with no share.

    Also used for holders assigned in no slot at all: their sequence is all
    None, but their presence still corrupts every merge through null
    responses, which is what locks them out.
    """

    holder: str
    s: int
    p: int
    n: int
    slots: tuple[frozenset[int] | None, ...]

    def __post_init__(self):
        # a null answer draws n random bits, so n is bounded like a key's
        system_primes(self.n)
        for slot, prime_set in enumerate(self.slots):
            if prime_set is not None:
                # an empty set answers 0, not a null, which would let its holder in
                if not prime_set:
                    raise ValueError(f"slot {slot} holds an empty prime set: a slot with "
                                     "no share is None, null in a file")
                _check_share_primes(prime_set, self.n)


def _check_share_primes(primes: frozenset[int], n: int = numtheory.MAX_N) -> None:
    """Raise ValueError unless every prime is among the first n primes.

    Share material from outside the program is checked with this, so a
    share can never hold a prime whose bit lies outside every message.
    """
    for q in primes:
        rank = numtheory.SMALL_PRIME_RANK.get(q)
        if rank is None or rank >= n:
            raise ValueError(f"share prime {q} is not one of the first {n} primes")


def keygen(
    n: int,
    seed: bytes | int | None = None,
    *,
    force_p: int | None = None,
    force_s: int | None = None,
) -> tuple[NsPublicKey, NsPrivateKey]:
    """Generate a key pair over the first n primes.

    p is the least prime above the prime product, read from the checked
    table `numtheory.PRIME_PRODUCT_GAPS`. s is drawn until it is invertible
    mod p-1, and v_i = primes_i^(s^-1 mod (p-1)) mod p, so v_i^s = primes_i
    (mod p). With no seed, s comes from the operating system's generator; a
    seed seeds s alone, for reproducible test keys. `force_p` / `force_s` pin
    those values, which is how the demo systems are reproduced.
    """
    if isinstance(seed, (bool, float)) or isinstance(seed, int) and seed < 0:
        raise ValueError("a seed must be bytes or a non-negative int: random.Random seeds "
                         "-x as x, True as 1 and 2.0 as 2")
    primes = system_primes(n)
    # No seed: the OS generator (the class `secrets` exports, taken from
    # `random`, since importing `secrets` loads hashlib and its libcrypto).
    # The Mersenne Twister is no cryptographic generator: s is as secret as the seed.
    rng = random.SystemRandom() if seed is None else random.Random(seed)

    product = math.prod(primes)

    if force_p is None:
        p = product + numtheory.PRIME_PRODUCT_GAPS[n - 2]
    else:
        p = force_p
        if not product < p < MAX_MODULUS:
            raise ValueError("forced p must exceed the prime product and be below twice "
                             f"the product of the {numtheory.MAX_N} system primes")
        if not numtheory.is_key_prime(p):
            raise ValueError("forced p is not prime")

    if force_s is not None:
        s = force_s  # NsPrivateKey refuses one not invertible mod p-1
    else:
        while True:
            s = rng.randrange(2, p - 1)
            if math.gcd(s, p - 1) == 1:
                break

    priv = NsPrivateKey(n=n, p=p, s=s, primes=primes)
    return public_key_of(priv), priv


def public_key_of(priv: NsPrivateKey) -> NsPublicKey:
    """The public key bound to a private key: derived once per key object."""
    return priv._public_key


def binds(pub: NsPublicKey, p: int, s: int) -> bool:
    """True iff (p, s) is pub's private side: p = pub.p and v_i^s = q_i (mod p) for every i."""
    return p == pub.p and all(pow(vi, s, p) == q for vi, q in zip(pub.v, system_primes(pub.n)))


def encrypt(pub: NsPublicKey, m: Plaintext) -> Ciphertext:
    """Multiply the public values selected by m's bits, mod p.

    m = 0 is rejected: its ciphertext is the constant 1 and carries no
    challenge entropy.
    """
    if not 0 < m < (1 << pub.n):
        raise ValueError(f"plaintext must be in [1, 2^{pub.n})")
    v, p = pub.v, pub.p
    c = 1
    while m:  # one step per set bit, lowest first
        low = m & -m
        c = c * v[low.bit_length() - 1] % p
        m ^= low
    return c


def decrypt(priv: NsPrivateKey, c: Ciphertext) -> Plaintext:
    """Recover m as the set of system primes dividing c^s mod p.

    The residue must factor *completely* over the system primes (each used
    at most once); anything left over means the ciphertext was not produced
    by `encrypt` and raises MalformedCiphertext rather than returning noise.
    """
    if not 1 <= c < priv.p:
        raise ValueError("ciphertext out of range")
    u = pow(c, priv.s, priv.p)
    m = residue_bits(u, priv.primes)
    selected = math.prod(priv.primes[i] for i in range(priv.n) if (m >> i) & 1)
    if u != selected:
        raise MalformedCiphertext(
            f"residual factor {u // selected} after removing message primes")
    return m


def partial_decrypt(share: Share, c: Ciphertext) -> int:
    """The message bits this share can see in ciphertext c: a token's read.

    Bit i is set iff the i-th system prime is among the share's primes,
    `share.reading[0]` (every slot's), *and* divides c^s mod p. Bit
    positions index the full system prime list, so contributions from
    different shares line up and can be merged. A share with no primes
    reads 0, with no range check and no `pow`. Malformed ciphertexts are
    not detected here; that is the verifier's problem.
    """
    primes = share.reading[0]
    if not primes:
        return 0
    if not 1 <= c < share.p:
        raise ValueError("ciphertext out of range")
    return residue_bits(pow(c, share.s, share.p), primes)


def residue_bits(u: int, primes: Iterable[int]) -> int:
    """The message bits of the primes in `primes` that divide the residue u.

    u is c^s mod p; a sequence token computes it once per ciphertext and
    reads every slot's bits off it with this. Bit positions are the primes'
    global ranks, so this is the one map from prime values to message bits.
    """
    rank = numtheory.SMALL_PRIME_RANK
    m = 0
    for q in primes:
        if u % q == 0:
            m |= 1 << rank[q]
    return m
