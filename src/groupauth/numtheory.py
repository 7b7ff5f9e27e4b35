"""Arbitrary-precision integer number theory.

Everything here works on plain Python ints, which are exact at any size, so
there is no overflow anywhere in the stack. All functions are pure and safe
to call from multiple threads.
"""

from __future__ import annotations

import math
import random

from .errors import GroupAuthError

__all__ = [
    "NotInvertible",
    "mod_inv",
    "is_probable_prime",
    "next_prime_above",
    "first_n_primes",
    "prime_index",
    "MAX_N",
    "SMALL_PRIMES",
    "SMALL_PRIME_RANK",
]


class NotInvertible(GroupAuthError):
    """Raised when an inverse mod m does not exist (gcd != 1)."""


# The primes 2..37 as Miller-Rabin witnesses decide primality exactly below
# psi_12 = 318665857834031151167461 (~3.19e23), the least strong pseudoprime
# to all of them (Sorenson & Webster; OEIS A014233). Every key modulus with
# n <= 18 is below 2 * P_18 < psi_12.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PSI_12 = 318665857834031151167461

# Above psi_12 this many random witnesses bound a false "prime" by 4**-40.
_RANDOM_WITNESSES = 40


def mod_inv(a: int, m: int) -> int:
    """The x in [0, m) with a*x = 1 (mod m).

    Raises NotInvertible when gcd(a, m) != 1.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {m}") from None


def _miller_rabin_round(n: int, d: int, r: int, witness: int) -> bool:
    """One Miller-Rabin round; True means 'possibly prime'."""
    x = pow(witness, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def first_n_primes(n: int) -> list[int]:
    """The first n primes, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = [2]
    candidate = 3
    while len(primes) < n:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 2
    return primes


# The largest prime count a key may have: the system's security parameter.
MAX_N = 64

# The first MAX_N primes and their 0-based ranks, so every message bit's
# prime is in this table.
SMALL_PRIMES: tuple[int, ...] = tuple(first_n_primes(MAX_N))
SMALL_PRIME_RANK: dict[int, int] = {q: i for i, q in enumerate(SMALL_PRIMES)}
_SMALL_PRODUCT = math.prod(SMALL_PRIMES)


def is_probable_prime(n: int) -> bool:
    """Primality test: exact below psi_12, Miller-Rabin above.

    One gcd with the product of SMALL_PRIMES settles every n with a factor
    in that table; since gcd(P + k, P) = gcd(k, P), a scan above a prime
    product P pays no `pow` for those candidates. Below psi_12 the fixed
    witnesses 2..37 then decide primality with certainty. Above, 40 random
    witnesses bound the false-positive rate by 4**-40; they are seeded from
    n so results are reproducible, and drawn one at a time so a composite
    stops at its first failing witness.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in SMALL_PRIME_RANK

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _PSI_12:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = (rng.randrange(2, n - 1) for _ in range(_RANDOM_WITNESSES))

    return all(_miller_rabin_round(n, d, r, w) for w in witnesses)


def next_prime_above(x: int) -> int:
    """Least prime strictly greater than x (x >= 1)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    candidate = x + 1
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def prime_index(q: int) -> int:
    """0-based rank of the prime q (2 -> 0, 3 -> 1, 5 -> 2, ...).

    Message bit positions are defined by this rank, so a key share can map
    its prime values back to bit indices without carrying the full system
    prime list. Primes in SMALL_PRIMES are looked up; larger ones are
    ranked by walking the primes above the table.
    """
    rank = SMALL_PRIME_RANK.get(q)
    if rank is not None:
        return rank
    if q < 2 or not is_probable_prime(q):
        raise ValueError(f"{q} is not prime")
    rank = len(SMALL_PRIMES) - 1
    p = SMALL_PRIMES[-1]
    while p < q:
        rank += 1
        p = next_prime_above(p)
    return rank
