import math
import random

import pytest

from groupauth import numtheory
from groupauth.numtheory import (
    MAX_N,
    PRIME_PRODUCT_GAPS,
    SMALL_PRIMES,
    TABLE_PRIMES,
    _DETERMINISTIC_WITNESSES,
    _miller_rabin_round,
    first_n_primes,
    is_probable_prime,
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
    """Modular powers and inverses are the builtin `pow`."""

    def test_demo_residue_factors(self):
        # the 8-prime demo system: the residue of the known ciphertext
        # factors exactly as {3, 7, 17, 19}
        u = pow(7202882, 5642069, 9700247)
        assert u == 6783
        assert 3 * 7 * 17 * 19 == u


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

    def test_large_prime(self):
        # 2^89 - 1 is a Mersenne prime; exercises the >2^64 path
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime((2**89 - 1) * (2**61 - 1))


PSI_12 = 318665857834031151167461  # least strong pseudoprime to bases 2..37


def miller_rabin_passes(n, witnesses):
    """Which of `witnesses` call odd n > 2 'possibly prime'."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    return [_miller_rabin_round(n, d, r, w) for w in witnesses]


class TestExactBound:
    """The fixed witnesses are exact below psi_12, and not one further."""

    def test_psi_12_is_tight(self):
        # psi_12 fools all 12 fixed witnesses, so it is the first n they cannot
        # decide; the random witnesses above it still catch it
        assert all(miller_rabin_passes(PSI_12, _DETERMINISTIC_WITNESSES))
        assert not is_probable_prime(PSI_12)
        # every key with n <= 18 is on the exact path
        assert 2 * math.prod(SMALL_PRIMES[:18]) < PSI_12

    def test_only_witness_37_catches_psi_9(self):
        n = 3825123056546413051
        assert miller_rabin_passes(n, _DETERMINISTIC_WITNESSES) == [True] * 11 + [False]
        assert not is_probable_prime(n)

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                                   216821881, 228842209, 1299963601, 2301745249])
    def test_carmichael_numbers_composite(self, n):
        # every coprime base is a Fermat liar; the last four have no factor
        # in SMALL_PRIMES, so Miller-Rabin rather than the gcd rejects them
        assert pow(2, n - 1, n) == 1
        assert not is_probable_prime(n)

    def test_table_edge(self):
        # 311 is the last table prime, 313 the first prime past it
        assert is_probable_prime(311) and is_probable_prime(313)
        assert not is_probable_prime(311 * 313)
        assert not is_probable_prime(313 * 317)

    def test_matches_random_witness_oracle_below_psi_12(self):
        rng = random.Random(12)
        for n in range(PSI_12 - 2, PSI_12 - 402, -2):
            oracle = all(miller_rabin_passes(n, [rng.randrange(2, n - 1) for _ in range(40)]))
            assert is_probable_prime(n) == oracle, n


def counted_rounds(monkeypatch):
    calls = []
    real = numtheory._miller_rabin_round

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numtheory, "_miller_rabin_round", counted)
    return calls


# psi_k, the least strong pseudoprime to the first k fixed witnesses (OEIS
# A014233)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051, PSI_12)


class TestWitnessCount:
    """Below psi_12 all 12 fixed witnesses run for every prime."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_each_psi_refused(self, k):
        # psi_k fools the first k witnesses; a later one, or above psi_12 the
        # random ones, must catch it
        psi = PSI[k - 1]
        assert all(miller_rabin_passes(psi, _DETERMINISTIC_WITNESSES[:k]))
        assert not is_probable_prime(psi)

    def test_matches_sieve_to_million(self):
        flags = sieve(1_000_000)
        assert [n for n in range(1_000_001) if is_probable_prime(n) != flags[n]] == []

    def test_12_prime_modulus_takes_12_rounds(self, monkeypatch):
        # the first 7 witnesses decide the 12-prime demo modulus, which is
        # below psi_7, yet a prime runs all 12
        calls = counted_rounds(monkeypatch)
        assert 7420738134871 < PSI[6]
        assert is_probable_prime(7420738134871)
        assert [w for *_, w in calls] == list(_DETERMINISTIC_WITNESSES)


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

    def test_prime_product_gaps_pinned(self):
        # the library's one table of next_prime_above(P_n) - P_n, n = 2..64:
        # keygen reads p from it and files load its primes untested, so every
        # entry is recomputed here
        least = set()
        for n, gap in zip(range(2, MAX_N + 1), PRIME_PRODUCT_GAPS, strict=True):
            product = math.prod(SMALL_PRIMES[:n])
            p = next_prime_above(product)
            assert p - product == gap, n
            least.add(p)
        assert TABLE_PRIMES == least

    def test_16_prime_product_takes_12_rounds(self, monkeypatch):
        # the candidates sharing a table prime with P_16 cost no round, and
        # P_16 + 59 < psi_12 is confirmed by the 12 fixed witnesses alone
        calls = counted_rounds(monkeypatch)
        product = math.prod(SMALL_PRIMES[:16])
        assert next_prime_above(product) == product + 59
        assert len(calls) <= 12

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
        # every rank in the MAX_N-prime table
        for i, q in enumerate(first_n_primes(MAX_N)):
            assert prime_index(q) == i

    def test_rejects_primes_above_the_table(self):
        # 313 is the 65th prime: no message bit has it, so it has no rank
        assert first_n_primes(MAX_N + 1)[-1] == 313
        for q in (313, 317, 2 ** 61 - 1):
            with pytest.raises(ValueError, match=f"^{q} is not one of the first 64 primes$"):
                prime_index(q)

    def test_rejects_composite(self):
        for q in (9, 1, 0, 313 * 317):
            with pytest.raises(ValueError):
                prime_index(q)
