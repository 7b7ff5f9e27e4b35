import dataclasses
import hashlib
import math
import random

import pytest

from groupauth import files, fixtures, numtheory
from groupauth.nscrypt import (
    KEYGEN_STRATEGIES,
    KeyShare,
    MalformedCiphertext,
    NsPrivateKey,
    NsPublicKey,
    decrypt,
    encrypt,
    keygen,
    partial_decrypt,
    public_key_of,
    system_primes,
)
from groupauth.sharesplit import ShareSequence

PRIMES_12 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.fixture(scope="module")
def demo12():
    return keygen(12, force_p=fixtures.AIRPLANE_P, force_s=fixtures.AIRPLANE_S)


class TestKeygen:
    def test_demo_public_values(self, demo12):
        pub, priv = demo12
        assert pub.v == fixtures.AIRPLANE_V
        assert pub.p == priv.p == 7420738134871
        assert priv.primes == PRIMES_12

    def test_binding(self, demo12):
        pub, priv = demo12
        for vi, q in zip(pub.v, priv.primes):
            assert pow(vi, priv.s, priv.p) == q

    def test_binding_fresh_keys(self):
        for n in (4, 8, 16):
            pub, priv = keygen(n)
            for vi, q in zip(pub.v, priv.primes):
                assert pow(vi, priv.s, priv.p) == q

    def test_seeded_determinism(self):
        a = keygen(8, strategy="seeded-random", seed=b"fixed seed")
        b = keygen(8, strategy="seeded-random", seed=b"fixed seed")
        assert a == b
        c = keygen(8, strategy="seeded-random", seed=b"other seed")
        assert c != a

    @pytest.mark.parametrize("strategy", KEYGEN_STRATEGIES)
    def test_unseeded_keys_are_secret(self, strategy):
        # no seed means the OS generator: two keys share no s
        (_, a), (_, b) = keygen(12, strategy), keygen(12, strategy)
        assert a.s != b.s

    def test_deterministic_modulus_is_least_prime(self):
        _, priv = keygen(8)
        product = math.prod(priv.primes)
        assert priv.p == numtheory.next_prime_above(product) == 9699713

    def test_seeded_modulus_in_window(self):
        _, priv = keygen(8, strategy="seeded-random", seed=123)
        product = math.prod(priv.primes)
        assert product < priv.p < 2 * product
        assert numtheory.is_probable_prime(priv.p)

    def test_key_files_pinned(self):
        # every key file at n = 2..64 under both strategies, hashed in order:
        # the primality test may get faster, never pick another p or s
        digest = hashlib.sha256()
        for n in range(2, 65):
            for strategy in KEYGEN_STRATEGIES:
                pub, priv = keygen(n, strategy, seed=n)
                digest.update(files.dumps(pub).encode())
                digest.update(files.dumps(priv).encode())
        assert digest.hexdigest() == (
            "847e05f8b63dd42959c8ab3d72668744096c1c6954ca032525f4833f3a5ef615")

    def test_gcd_constraint(self):
        for seed in range(5):
            _, priv = keygen(10, strategy="seeded-random", seed=seed)
            assert math.gcd(priv.s, priv.p - 1) == 1

    def test_bounds(self):
        with pytest.raises(ValueError):
            keygen(1)
        with pytest.raises(ValueError):
            keygen(65)

    def test_forced_values_validated(self):
        with pytest.raises(ValueError):
            keygen(8, force_p=9699690 + 2, force_s=3)  # even, not prime
        with pytest.raises(ValueError):
            keygen(12, force_p=fixtures.AIRPLANE_P, force_s=fixtures.AIRPLANE_P - 1)
        # a larger modulus would make key files that `files.load` refuses
        too_big = numtheory.next_prime_above(2 * math.prod(numtheory.SMALL_PRIMES))
        with pytest.raises(ValueError):
            keygen(12, force_p=too_big)


class TestSystemPrimes:
    """Every object with an n takes it through `system_primes`."""

    @pytest.mark.parametrize("n", [1, 65])
    @pytest.mark.parametrize("build", [
        lambda n: NsPublicKey(n=n, p=fixtures.AIRPLANE_P, v=(1,) * n),
        lambda n: NsPrivateKey(n=n, p=fixtures.AIRPLANE_P, s=fixtures.AIRPLANE_S,
                               primes=tuple(numtheory.first_n_primes(n))),
        lambda n: ShareSequence(holder="A", s=fixtures.AIRPLANE_S,
                                p=fixtures.AIRPLANE_P, n=n, slots=()),
        keygen,
    ], ids=["NsPublicKey", "NsPrivateKey", "ShareSequence", "keygen"])
    def test_n_out_of_range(self, build, n):
        with pytest.raises(ValueError, match=r"n must be in \[2, 64\]"):
            build(n)

    @pytest.mark.parametrize("n", [2, 64])
    def test_first_n_table_primes(self, n):
        assert system_primes(n) == numtheory.SMALL_PRIMES[:n]


class TestEncryptDecrypt:
    def test_demo_ciphertext(self, demo12):
        pub, priv = demo12
        c = encrypt(pub, 2919)
        assert c == fixtures.AIRPLANE_CIPHERTEXT
        assert decrypt(priv, c) == 2919

    def test_tabulated_ciphertext_is_erratic(self, demo12):
        # the circulated tabulation lists 2^30 for message 2919; it neither
        # matches the computed ciphertext nor decrypts to the message
        pub, priv = demo12
        assert fixtures.AIRPLANE_CIPHERTEXT_TABULATED != encrypt(pub, 2919)
        try:
            m = decrypt(priv, fixtures.AIRPLANE_CIPHERTEXT_TABULATED)
        except MalformedCiphertext:
            m = None
        assert m != 2919

    def test_single_bit_messages(self, demo12):
        pub, _ = demo12
        for i in range(pub.n):
            assert encrypt(pub, 1 << i) == pub.v[i]

    def test_zero_rejected(self, demo12):
        pub, _ = demo12
        with pytest.raises(ValueError):
            encrypt(pub, 0)
        with pytest.raises(ValueError):
            encrypt(pub, 1 << pub.n)

    def test_product_of_set_bits(self):
        # the reference: multiply v_i for every position i whose bit is set
        pub, _ = keygen(64, seed=3)
        rng = random.Random(3)
        for m in [1, 1 << 63, (1 << 64) - 1] + [rng.randrange(1, 1 << 64) for _ in range(50)]:
            expected = 1
            for i in range(pub.n):
                if (m >> i) & 1:
                    expected = expected * pub.v[i] % pub.p
            assert encrypt(pub, m) == expected

    def test_exhaustive_roundtrip_n8(self):
        pub, priv = keygen(8)
        for m in range(1, 256):
            assert decrypt(priv, encrypt(pub, m)) == m

    def test_trivial_ciphertext_one(self, demo12):
        _, priv = demo12
        assert decrypt(priv, 1) == 0

    def test_malformed_rejected(self, demo12):
        _, priv = demo12
        # 41 is prime and not a system prime, so the residue cannot clear
        seen = 0
        for c in range(2, 2000):
            try:
                decrypt(priv, c)
            except MalformedCiphertext:
                seen += 1
        assert seen > 0

    def test_matches_division_loop(self, demo8):
        # reference: divide each system prime out of the residue once; the
        # same value, or the same MalformedCiphertext text, must come back
        _, priv = demo8
        s_inv = pow(priv.s, -1, priv.p - 1)
        squares = [pow(u, s_inv, priv.p) for u in (4, 12, 9 * 19, 41 * 41 * 6)]
        for c in [*range(1, 1500), *squares]:
            u, m = pow(c, priv.s, priv.p), 0
            for i, q in enumerate(priv.primes):
                if u % q == 0:
                    m |= 1 << i
                    u //= q
            if u == 1:
                assert decrypt(priv, c) == m
            else:
                with pytest.raises(MalformedCiphertext) as err:
                    decrypt(priv, c)
                assert str(err.value) == (
                    f"residual factor {u} after removing message primes")

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_random_roundtrip(self, n):
        pub, priv = keygen(n)
        rng = random.Random(n)
        for _ in range(200):
            m = rng.randrange(1, 1 << n)
            assert decrypt(priv, encrypt(pub, m)) == m

    def test_homomorphic_bit_union(self, demo12):
        pub, priv = demo12
        rng = random.Random(99)
        for _ in range(100):
            m1 = rng.randrange(1, 1 << 12)
            m2 = rng.randrange(1, 1 << 12) & ~m1
            if not m2:
                continue
            c = (encrypt(pub, m1) * encrypt(pub, m2)) % pub.p
            assert decrypt(priv, c) == m1 | m2


class TestPartialDecrypt:
    def test_table_fixtures(self, demo12):
        pub, priv = demo12
        c = encrypt(pub, 2919)
        cases = [
            (frozenset({2, 3, 5, 7, 11, 13}), 39),
            (frozenset({23, 29, 31, 37}), 2816),
            (frozenset({11, 13, 17, 19}), 96),
        ]
        for subset, expected in cases:
            share = KeyShare(holder="x", s=priv.s, p=priv.p, prime_subset=subset)
            assert partial_decrypt(share, c) == expected

    def test_partition_recomposes(self, demo12):
        pub, priv = demo12
        rng = random.Random(4)
        for _ in range(50):
            m = rng.randrange(1, 1 << 12)
            c = encrypt(pub, m)
            indices = list(range(12))
            rng.shuffle(indices)
            k = rng.randint(2, 4)
            parts = [indices[i::k] for i in range(k)]
            pieces = []
            for part in parts:
                share = KeyShare(
                    holder="x", s=priv.s, p=priv.p,
                    prime_subset=frozenset(priv.primes[i] for i in part))
                pieces.append(partial_decrypt(share, c))
            ored = 0
            for piece in pieces:
                ored |= piece
            assert ored == m
            assert sum(pieces) == m  # bit-disjoint parts

    def test_n64_matches_masked_decrypt(self, demo64):
        pub, priv = demo64
        rng = random.Random(64)
        for _ in range(20):
            m = rng.randrange(1, 1 << 64)
            c = encrypt(pub, m)
            idxs = rng.sample(range(64), rng.randint(1, 64))
            share = KeyShare(holder="x", s=priv.s, p=priv.p,
                             prime_subset=frozenset(priv.primes[i] for i in idxs))
            share_mask = sum(1 << i for i in idxs)
            assert partial_decrypt(share, c) == decrypt(priv, c) & share_mask

    def test_share_primes_must_be_system_primes(self, demo12):
        _, priv = demo12
        for subset in ({100003}, {2, 9}, {2, 313}):
            with pytest.raises(ValueError):
                KeyShare(holder="x", s=priv.s, p=priv.p, prime_subset=frozenset(subset))

    def test_full_subset_equals_decrypt(self, demo12):
        pub, priv = demo12
        share = KeyShare(holder="x", s=priv.s, p=priv.p,
                         prime_subset=frozenset(priv.primes))
        for m in (1, 202, 2919, 4095):
            c = encrypt(pub, m)
            assert partial_decrypt(share, c) == decrypt(priv, c) == m


@pytest.fixture(scope="module")
def demo64():
    return keygen(64)


@pytest.fixture(scope="module")
def demo8():
    return keygen(8, force_p=fixtures.SMALL_P, force_s=fixtures.SMALL_S)


class TestSmallSystem:
    """The 8-prime demo system recovered from its own known-answer vectors."""

    def test_decrypt_known_ciphertext(self, demo8):
        _, priv = demo8
        assert decrypt(priv, 7202882) == 202

    def test_encrypt_roundtrip_matches(self, demo8):
        pub, priv = demo8
        assert encrypt(pub, 202) == 7202882

    def test_residue_primes(self, demo8):
        pub, priv = demo8
        u = pow(encrypt(pub, 202), priv.s, priv.p)
        assert frozenset(q for q in priv.primes if u % q == 0) == {3, 7, 17, 19}


class TestBitPrimes:
    """Bit i of a message selects the i-th prime: the residue c^s mod p of
    its ciphertext is the product of the selected primes."""

    def test_202_over_8(self, demo8):
        pub, priv = demo8
        assert pow(encrypt(pub, 202), priv.s, priv.p) == math.prod({3, 7, 17, 19})

    def test_2919_over_12(self, demo12):
        pub, priv = demo12
        assert priv.primes == PRIMES_12
        assert pow(encrypt(pub, 2919), priv.s, priv.p) == math.prod(
            {2, 3, 5, 13, 17, 23, 29, 37})

    def test_zero(self, demo12):
        # m = 0 selects no prime; its residue would be 1, which decrypts to 0
        pub, priv = demo12
        assert decrypt(priv, 1) == 0
        with pytest.raises(ValueError):
            encrypt(pub, 0)


class TestPublicKeyOf:
    def test_matches_keygen(self, demo12):
        pub, priv = demo12
        assert public_key_of(priv) == pub

    def test_derived_once_per_key(self, demo12):
        _, priv = demo12
        assert public_key_of(priv) is public_key_of(priv)

    @pytest.mark.parametrize("key", ["demo12", "demo8", 2, 12, 16, 64])
    def test_matches_direct_derivation(self, request, key):
        if isinstance(key, int):
            pub, priv = keygen(key)
        else:
            pub, priv = request.getfixturevalue(key)
        assert public_key_of(priv) == pub
        s_inv = pow(priv.s, -1, priv.p - 1)
        assert pub.v == tuple(pow(q, s_inv, priv.p) for q in priv.primes)

    def test_replaced_key_derives_its_own(self, demo12):
        pub, priv = demo12
        other = next(s for s in range(priv.s + 1, priv.p)
                     if math.gcd(s, priv.p - 1) == 1)
        changed = dataclasses.replace(priv, s=other)
        s_inv = pow(other, -1, priv.p - 1)
        assert public_key_of(changed).v == tuple(pow(q, s_inv, priv.p) for q in priv.primes)
        assert public_key_of(changed) != pub
        assert public_key_of(priv) == pub

    def test_derivation_changes_no_file_or_equality(self, demo12):
        _, priv = demo12
        fresh = NsPrivateKey(n=priv.n, p=priv.p, s=priv.s, primes=priv.primes)
        other = NsPrivateKey(n=priv.n, p=priv.p, s=priv.s, primes=priv.primes)
        before = files.dumps(fresh)
        public_key_of(fresh)
        assert files.dumps(fresh) == before == files.dumps(priv)
        assert fresh == other == priv
        assert hash(fresh) == hash(other)
        assert repr(fresh) == repr(other)
