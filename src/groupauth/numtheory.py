"""Arbitrary-precision integer number theory.

Everything here works on plain Python ints, which are exact at any size, so
there is no overflow anywhere in the stack. All functions are pure and safe
to call from multiple threads.

Unless forced, a key's modulus is the least prime above P_n, the product of
the first n primes. `PRIME_PRODUCT_GAPS` holds those primes as gaps p - P_n,
and a tier-1 test recomputes every entry with `next_prime_above`, so
`nscrypt.keygen` reads p. `is_key_prime` is the one membership test: a table
prime needs no primality test, while a forced or hand-made p still goes
through `is_probable_prime`, about 16 ms at n = 64. Below psi_12, which
bounds every modulus with n <= 18, that test runs the same 12 fixed
witnesses whatever the input; above it, 40 seeded random ones.
`is_probable_prime` itself never reads the table, so the table test does
not check the table against itself.
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
    "is_key_prime",
    "first_n_primes",
    "prime_index",
    "MAX_N",
    "SMALL_PRIMES",
    "SMALL_PRIME_RANK",
    "PRIME_PRODUCT_GAPS",
    "TABLE_PRIMES",
]


class NotInvertible(GroupAuthError):
    """Raised when an inverse mod m does not exist (gcd != 1)."""


# The primes 2..37 as Miller-Rabin witnesses decide primality exactly below
# psi_12, the least strong pseudoprime to all of them (Sorenson & Webster;
# OEIS A014233). Every key modulus with n <= 18 is below 2 * P_18 < psi_12.
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

# p - P_n for the least prime p above P_n, at n = 2..MAX_N (entry n - 2);
# test_prime_product_gaps_pinned recomputes each entry with next_prime_above.
PRIME_PRODUCT_GAPS: tuple[int, ...] = (
    1, 1, 1, 1, 17, 19, 23, 37, 61, 1, 61, 71, 47, 107, 59, 61, 109, 89,
    103, 79, 151, 197, 101, 103, 233, 223, 127, 223, 191, 163, 229, 643,
    239, 157, 167, 439, 239, 199, 191, 199, 383, 233, 751, 313, 773, 607,
    313, 383, 293, 443, 331, 283, 277, 271, 401, 307, 331, 379, 491, 331,
    311, 397, 331)

# The primes P_n + gap themselves: prime by the table test, so no file or
# forced key modulus among them is tested again.
TABLE_PRIMES: frozenset[int] = frozenset(
    math.prod(SMALL_PRIMES[:n]) + gap for n, gap in enumerate(PRIME_PRODUCT_GAPS, start=2))


def is_probable_prime(n: int) -> bool:
    """Primality test: exact below psi_12, Miller-Rabin above.

    One gcd with the product of SMALL_PRIMES settles every n with a factor
    in that table; since gcd(P + k, P) = gcd(k, P), a scan above a prime
    product P pays no `pow` for those candidates. Below psi_12 the 12 fixed
    witnesses decide primality with certainty; a prime runs all 12 rounds.
    Above, 40 random witnesses bound the false-positive rate by 4**-40; they
    are seeded from n so results are reproducible, and drawn one at a time.
    Either way a composite stops at its first failing witness.
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


def is_key_prime(p: int) -> bool:
    """Whether a key modulus p is prime.

    A p in TABLE_PRIMES is, without a test; any other p goes through
    is_probable_prime.
    """
    return p in TABLE_PRIMES or is_probable_prime(p)


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
