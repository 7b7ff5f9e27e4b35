import dataclasses
import hashlib
import json
import math
import random

import pytest

from groupauth import files, fixtures, nscrypt, numtheory, sharesplit
from groupauth.errors import SchemaError
from groupauth.nscrypt import (
    KeyShare,
    MalformedCiphertext,
    NsPrivateKey,
    NsPublicKey,
    binds,
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

    def test_binds_every_public_value(self, demo12, monkeypatch):
        pub, priv = demo12
        assert binds(pub, priv.p, priv.s)
        swapped = list(pub.v)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        assert not binds(NsPublicKey(pub.n, pub.p, tuple(swapped)), priv.p, priv.s)
        for i in range(pub.n):  # any one public value off
            v = list(pub.v)
            v[i] = v[i] % (pub.p - 1) + 1
            assert not binds(NsPublicKey(pub.n, pub.p, tuple(v)), priv.p, priv.s), i
        assert not binds(pub, priv.p, keygen(12, seed=5)[1].s)  # same p, another s
        assert not binds(pub, numtheory.next_prime_above(priv.p), priv.s)
        # the check stops at the first value that fails
        calls = []
        monkeypatch.setattr(nscrypt, "pow", lambda *a: calls.append(a) or pow(*a), raising=False)
        assert not binds(NsPublicKey(pub.n, pub.p, tuple(swapped)), priv.p, priv.s)
        assert len(calls) == 2

    def test_negative_seed_refused(self):
        # random.Random seeds -x as x, so -5 would silently give seed 5's key
        with pytest.raises(ValueError, match="non-negative"):
            keygen(12, seed=-5)
        assert keygen(12, seed=0) != keygen(12, seed=5)

    @pytest.mark.parametrize("seed", [True, 2.0])
    def test_bool_and_float_seeds_refused(self, seed):
        # random.Random seeds True as 1 and 2.0 as 2, so each gave that seed's key
        with pytest.raises(ValueError, match="^a seed must be bytes or a non-negative int"):
            keygen(12, seed=seed)

    def test_seeded_determinism(self):
        a = keygen(8, seed=b"fixed seed")
        b = keygen(8, seed=b"fixed seed")
        assert a == b
        c = keygen(8, seed=b"other seed")
        assert c != a
        # one modulus rule for every key: a seed changes s, never p
        assert a[1].p == c[1].p == keygen(8)[1].p and a[1].s != c[1].s

    # The ids are the two former keygen strategies' names: p the least prime
    # (read from the table), or a p outside the table as "seeded-random" drew
    # one; here a forced prime above the table's.
    @pytest.mark.parametrize("table_p", [
        pytest.param(True, id="deterministic-least-prime"),
        pytest.param(False, id="seeded-random"),
    ])
    def test_unseeded_keys_are_secret(self, table_p):
        # no seed means the OS generator: two keys share no s, whatever the p
        p = None if table_p else numtheory.next_prime_above(keygen(12, seed=1)[1].p)
        (_, a), (_, b) = keygen(12, force_p=p), keygen(12, force_p=p)
        assert a.p == b.p and (a.p in numtheory.TABLE_PRIMES) == table_p
        assert a.s != b.s

    def test_deterministic_modulus_is_least_prime(self):
        _, priv = keygen(8)
        product = math.prod(priv.primes)
        assert priv.p == numtheory.next_prime_above(product) == 9699713

    def test_key_files_pinned(self):
        # every key file at n = 2..64, hashed in order: the keygen may get
        # faster, never pick another p or s
        digest = hashlib.sha256()
        for n in range(2, 65):
            _, priv = keygen(n, seed=n)
            digest.update(files.dumps(priv).encode())
        assert digest.hexdigest() == (
            "2673f6899e0280aa5f852b7b63889a8ef94ac088e4ce25e0bcdd2f2a83fcac8e")

    def test_gcd_constraint(self):
        for n in (4, 10, 16):
            for seed in range(5):
                _, priv = keygen(n, seed=seed)
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


def counted_primality_tests(monkeypatch):
    """The list each is_probable_prime or next_prime_above call appends its argument to."""
    calls = []
    for name in ("is_probable_prime", "next_prime_above"):
        real = getattr(numtheory, name)

        def counted(x, real=real):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(numtheory, name, counted)
    return calls


class TestPrimalityCost:
    """A table p is read, never searched for or tested; any other p is tested once."""

    def test_default_keys_and_their_files_test_no_prime(self, tmp_path, monkeypatch):
        calls = counted_primality_tests(monkeypatch)
        for n in range(2, numtheory.MAX_N + 1):
            _, priv = keygen(n, seed=n)
            assert calls == [], n
            share = sharesplit.issue_monotone({"A": frozenset(range(n))}, priv)["A"]
            for obj in (priv, share):
                files.save(obj, tmp_path / "file.json")
                assert files.load(tmp_path / "file.json") == obj
            assert calls == [], n

    def test_forced_p_outside_table_tested_once(self, monkeypatch):
        # SMALL_P - P_8 is 557; the least prime above P_8 is P_8 + 23
        product = math.prod(numtheory.SMALL_PRIMES[:8])
        assert fixtures.SMALL_P - product == 557 and numtheory.PRIME_PRODUCT_GAPS[8 - 2] == 23
        calls = counted_primality_tests(monkeypatch)
        keygen(8, force_p=fixtures.SMALL_P, force_s=fixtures.SMALL_S)
        assert calls == [fixtures.SMALL_P]

    def test_forced_p_key_file_tested_once_on_load(self, tmp_path, monkeypatch):
        table_p = keygen(64, seed=1)[1].p
        _, priv = keygen(64, seed=1, force_p=numtheory.next_prime_above(table_p))
        assert priv.p not in numtheory.TABLE_PRIMES
        files.save(priv, tmp_path / "priv.json")
        calls = counted_primality_tests(monkeypatch)
        assert files.load(tmp_path / "priv.json") == priv
        assert calls == [priv.p]

    @pytest.mark.parametrize("n", [8, 12, 64])
    def test_table_prime_plus_two_refused(self, tmp_path, n):
        _, priv = keygen(n, seed=1)
        assert priv.p in numtheory.TABLE_PRIMES
        assert not numtheory.is_probable_prime(priv.p + 2)
        with pytest.raises(ValueError, match="forced p is not prime"):
            keygen(n, force_p=priv.p + 2)
        path = tmp_path / "priv.json"
        path.write_text(json.dumps(dict(files.to_document(priv), p=str(priv.p + 2))))
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == "p"


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
