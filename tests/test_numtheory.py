import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth.numtheory import (
    NotInvertible,
    first_n_primes,
    is_probable_prime,
    mod_inv,
    next_prime_above,
    prime_index,
)


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i:: i] = bytearray(len(flags[i * i:: i]))
    return flags


class TestModPow:
    """Modular powers are the builtin three-argument pow."""

    def test_demo_residue_factors(self):
        # the 8-prime demo system: the residue of the known ciphertext
        # factors exactly as {3, 7, 17, 19}
        u = pow(7202882, 5642069, 9700247)
        assert u == 6783
        assert 3 * 7 * 17 * 19 == u


class TestModInv:
    def test_examples(self):
        assert mod_inv(3, 7) == 5
        assert mod_inv(1, 97) == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inv(4, 8)

    @settings(max_examples=200)
    @given(
        a=st.integers(min_value=1, max_value=10**9),
        m=st.integers(min_value=2, max_value=10**9),
    )
    def test_inverse_property(self, a, m):
        try:
            x = mod_inv(a, m)
        except NotInvertible:
            assert math.gcd(a, m) != 1
        else:
            assert (a * x) % m == 1


class TestPrimality:
    def test_demo_modulus_is_prime(self):
        assert is_probable_prime(7420738134871)

    def test_primorial_is_composite(self):
        # product of the first 12 primes
        assert math.prod(first_n_primes(12)) == 7420738134810
        assert not is_probable_prime(7420738134810)

    def test_edges(self):
        assert not is_probable_prime(1)
        assert is_probable_prime(2)
        assert not is_probable_prime(0)

    def test_matches_trial_division_prefix(self):
        flags = sieve(50_000)
        for n in range(50_001):
            assert is_probable_prime(n) == bool(flags[n]), n

    def test_matches_trial_division_sampled_to_million(self):
        flags = sieve(1_000_000)
        rng = random.Random(2024)
        for _ in range(4000):
            n = rng.randrange(50_000, 1_000_001)
            assert is_probable_prime(n) == bool(flags[n]), n

    def test_large_prime(self):
        # 2^89 - 1 is a Mersenne prime; exercises the >2^64 path
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime((2**89 - 1) * (2**61 - 1))


class TestNextPrimeAbove:
    def test_small(self):
        assert next_prime_above(2) == 3
        assert next_prime_above(1) == 2

    def test_scan_oracle(self):
        # brute-force scan above the 8-prime product
        start = math.prod(first_n_primes(8))
        assert start == 9699690
        expected = start + 1
        while not is_probable_prime(expected):
            expected += 1
        assert next_prime_above(start) == expected == 9699713

    def test_12_prime_product_gap(self):
        # the 12-prime demo modulus really is the least prime above the product
        assert next_prime_above(7420738134810) == 7420738134871

    def test_gap_free_below_million(self):
        flags = sieve(1_000_000)
        rng = random.Random(7)
        for _ in range(300):
            x = rng.randrange(1, 999_000)
            p = next_prime_above(x)
            assert p > x and flags[p]
            assert not any(flags[y] for y in range(x + 1, p))


class TestFirstNPrimes:
    def test_eight(self):
        assert first_n_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_twelve(self):
        assert first_n_primes(12) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

    def test_one(self):
        assert first_n_primes(1) == [2]


class TestPrimeIndex:
    def test_ranks(self):
        # 70 primes: the 64-prime table and the walk beyond it
        primes = first_n_primes(70)
        for i, q in enumerate(primes):
            assert prime_index(q) == i

    def test_rejects_composite(self):
        for q in (9, 1, 0, 313 * 317):
            with pytest.raises(ValueError):
                prime_index(q)
