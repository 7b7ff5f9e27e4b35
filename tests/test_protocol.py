import dataclasses
import inspect
import itertools
import random

import pytest

from groupauth import files, fixtures, numtheory, protocol
from groupauth.errors import GroupAuthError
from groupauth.nscrypt import KeyShare, NsPrivateKey, keygen, partial_decrypt
from groupauth.protocol import (
    Challenge,
    ResponseVector,
    VerifierState,
    audit,
    make_challenge,
    merge_monotone,
    merge_responses,
    merge_sequence,
    token_respond,
    verify,
)
from groupauth.sharesplit import ShareSequence, issue_sequence, slots_baseline, slots_packed

ABCDE = ("A", "B", "C", "D", "E")


def airplane_challenge(airplane, merge="sum", force_m=fixtures.AIRPLANE_MESSAGE):
    return make_challenge(
        airplane.pub, mode="sequence", merge=merge,
        slot_count=len(airplane.plan.slots), rng=random.Random(0), force_m=force_m)


class TestMakeChallenge:
    def test_forced_message_fixture(self, airplane):
        challenge, state = airplane_challenge(airplane)
        assert state.plaintexts == (2919,)
        assert challenge.ciphertexts == (fixtures.AIRPLANE_CIPHERTEXT,)

    def test_seed_determinism(self, airplane):
        a = make_challenge(airplane.pub, mode="sequence", merge="sum",
                           slot_count=7, rng=random.Random(5))
        b = make_challenge(airplane.pub, mode="sequence", merge="sum",
                           slot_count=7, rng=random.Random(5))
        assert a == b

    def test_mode_merge_consistency(self, airplane):
        with pytest.raises(ValueError):
            make_challenge(airplane.pub, mode="monotone", merge="sum")
        with pytest.raises(ValueError):
            make_challenge(airplane.pub, mode="sequence", merge="or")
        with pytest.raises(ValueError):
            Challenge(session_id="x", mode="monotone", merge="or",
                      slot_count=3, ciphertexts=(1, 2, 3))

    @pytest.mark.parametrize("ciphertexts", [(5, 6), (5, 5), ()])
    def test_one_ciphertext_per_session(self, ciphertexts):
        # a session has one message: two ciphertexts are refused even when
        # there is one per slot
        with pytest.raises(ValueError):
            Challenge(session_id="x", mode="sequence", merge="sum",
                      slot_count=2, ciphertexts=ciphertexts)

    def test_unseeded_draws_from_os_generator(self, airplane, monkeypatch):
        a = make_challenge(airplane.pub)
        b = make_challenge(airplane.pub)
        assert a[0].session_id != b[0].session_id
        monkeypatch.setattr(protocol.random, "SystemRandom", lambda: random.Random(4))
        assert make_challenge(airplane.pub) == make_challenge(airplane.pub, rng=random.Random(4))

    def test_plaintext_range(self, airplane):
        rng = random.Random(9)
        for _ in range(200):
            _, state = make_challenge(airplane.pub, rng=rng)
            assert 1 <= state.plaintexts[0] < (1 << 12)


class TestTokenRespond:
    def test_sequence_column_a(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        response = token_respond(airplane.shares["A"], challenge, "one")
        assert response.values == (39, 7, 7, 1, 7, 1, 39)

    def test_sequence_column_e(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        response = token_respond(airplane.shares["E"], challenge, "one")
        assert response.values == (2880, 2816, 2816, 2816, 2816, 2816, 1)

    def test_full_share_monotone_returns_message(self, small):
        from groupauth.nscrypt import KeyShare
        challenge, state = make_challenge(
            small.pub, rng=random.Random(0), force_m=small.message)
        token = KeyShare(holder="all", s=small.priv.s, p=small.priv.p,
                         prime_subset=frozenset(small.priv.primes))
        assert token_respond(token, challenge).values == (small.message,)

    def test_random_null_range(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        rng = random.Random(3)
        for _ in range(50):
            response = token_respond(
                airplane.shares["E"], challenge, "random-nonzero", rng)
            null = response.values[6]  # E holds nothing at the last slot
            assert 2 <= null < (1 << 12)

    def test_sequence_matches_per_slot_partial_decrypt(self, airplane):
        rng = random.Random(17)
        for _ in range(10):
            challenge, _ = make_challenge(
                airplane.pub, mode="sequence", merge="sum", slot_count=7, rng=rng)
            for holder, share in airplane.shares.items():
                expected = tuple(
                    1 if prime_set is None else partial_decrypt(
                        KeyShare(holder=holder, s=share.s, p=share.p,
                                 prime_subset=prime_set),
                        challenge.ciphertexts[0])
                    for prime_set in share.slots)
                assert token_respond(share, challenge, "one").values == expected

    def test_sequence_rejects_out_of_range_ciphertext(self, airplane):
        share = airplane.shares["A"]
        challenge = Challenge(session_id="x", mode="sequence", merge="sum",
                              slot_count=7, ciphertexts=(share.p,))
        with pytest.raises(ValueError):
            token_respond(share, challenge)

    def test_share_kind_must_match_mode(self, airplane, small):
        challenge, _ = airplane_challenge(airplane)
        with pytest.raises(ValueError):
            token_respond(small.shares["A1"], challenge)

    def test_unknown_null_policy_rejected_without_null_slots(self, airplane, small):
        # neither token below ever answers a null, so the policy must be
        # checked before any slot is visited
        mono_challenge, _ = make_challenge(
            small.pub, rng=random.Random(0), force_m=small.message)
        share = airplane.shares["A"]
        full = ShareSequence(holder="A", s=share.s, p=share.p, n=share.n,
                             slots=(frozenset(airplane.priv.primes),) * 7)
        for token, challenge in ((small.shares["A1"], mono_challenge),
                                 (full, airplane_challenge(airplane)[0])):
            with pytest.raises(ValueError, match="null policy"):
                token_respond(token, challenge, null_policy="bogus")


class TestMerges:
    def test_monotone_fixture(self):
        rs = [ResponseVector("s", (v,)) for v in (10, 192, 192)]
        assert merge_monotone(rs) == 202

    def test_monotone_missing_member(self):
        rs = [ResponseVector("s", (v,)) for v in (192, 192)]
        assert merge_monotone(rs) == 192

    @pytest.mark.parametrize("values", [(-1,), (3, -1), ()])
    def test_response_values_checked(self, values):
        with pytest.raises(ValueError):
            ResponseVector("s", values)

    def test_monotone_single(self):
        assert merge_monotone([ResponseVector("s", (77,))]) == 77

    def test_monotone_empty_rejects(self):
        assert merge_monotone([]) == 0

    def test_sequence_sum_abc(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in "ABC"]
        merged = merge_sequence(rs, "sum")
        assert merged[1] == 7 + 96 + 2816 == 2919

    def test_sequence_sum_ade(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in "ADE"]
        merged = merge_sequence(rs, "sum")
        assert merged[4] == 7 + 96 + 2816 == 2919

    def test_sequence_abcd_never_merges_to_message(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in "ABCD"]
        merged = merge_sequence(rs, "sum")
        assert merged[1] == 7 + 96 + 2816 + 2816 == 5735
        assert all(value != 2919 for value in merged)

    def test_sequence_empty(self):
        assert merge_sequence([], "sum") == []

    @pytest.mark.parametrize("fixture", ["airplane", "small"])
    def test_stale_response_refused(self, request, fixture):
        # same message, same share: only the session id tells the two answers apart
        system = request.getfixturevalue(fixture)
        slot_count = len(system.plan.slots) if system.plan else 1
        share = system.shares[system.universe[0]]
        (old_challenge, _), (new_challenge, state) = (
            make_challenge(system.pub, mode=system.mode, merge=system.merge,
                           slot_count=slot_count, rng=random.Random(seed),
                           force_m=system.message)
            for seed in (1, 2))
        old, new = token_respond(share, old_challenge), token_respond(share, new_challenge)
        assert old.values == new.values
        assert len(merge_responses(state, [new])) == slot_count
        with pytest.raises(GroupAuthError, match=old.session_id):
            merge_responses(state, [new, old])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            merge_sequence([ResponseVector("s", (1, 2)),
                            ResponseVector("s", (1,))], "sum")


class TestVerify:
    def test_accepts_at_least_slot(self, airplane):
        challenge, state = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in "AC"]
        verdict = verify(state, merge_sequence(rs, "sum"))
        assert verdict.accepted
        assert verdict.matching_slot == 0

    def test_rejects_unauthorized_pair(self, airplane):
        challenge, state = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in "CD"]
        verdict = verify(state, merge_sequence(rs, "sum"))
        assert not verdict.accepted
        assert verdict.matching_slot is None

    def test_monotone_accept(self, small):
        challenge, state = make_challenge(
            small.pub, rng=random.Random(0), force_m=small.message)
        rs = [token_respond(small.shares[h], challenge) for h in ("A1", "A2")]
        verdict = verify(state, [merge_monotone(rs)])
        assert verdict.accepted and verdict.matching_slot == 0

    def test_sequence_merge_needs_one_value_per_slot(self, airplane):
        _, state = airplane_challenge(airplane)
        m = fixtures.AIRPLANE_MESSAGE
        assert state.slot_count == 7
        assert verify(state, [0] * 6 + [m]).accepted
        for merged in ([0] * 7 + [m], [m], [0] * 6):
            with pytest.raises(ValueError):
                verify(state, merged)

    def test_monotone_merge_has_one_value(self, small):
        _, state = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        assert verify(state, [small.message]).accepted
        with pytest.raises(ValueError):
            verify(state, [0, small.message])

    @pytest.mark.parametrize("mode, merge, slot_count, plaintexts", [
        ("sequence", "sum", 3, (5, 6)),
        ("sequence", "sum", 3, ()),
        ("sequence", "sum", 0, (5,)),
        ("monotone", "or", 2, (5,)),
        ("monotone", "sum", 1, (5,)),
        ("sequence", "sum", 2, (5, 0)),
        ("sequence", "sum", 2, (5, 6)),  # one per slot is still two messages
        ("sequence", "sum", 2, (0,)),
    ])
    def test_state_shape_checked(self, mode, merge, slot_count, plaintexts):
        with pytest.raises(ValueError):
            VerifierState(session_id="x", mode=mode, merge=merge,
                          slot_count=slot_count, plaintexts=plaintexts)

    def test_empty_merge_rejects(self, airplane, small):
        _, seq_state = airplane_challenge(airplane)
        _, mono_state = make_challenge(small.pub, rng=random.Random(0))
        for state in (seq_state, mono_state):
            assert not verify(state, []).accepted


class TestAudit:
    def test_airplane_exact_16(self, airplane):
        report = audit(
            airplane.priv, airplane.shares, airplane.expected_family,
            mode="sequence", merge="sum", null_policy="one",
            force_m=fixtures.AIRPLANE_MESSAGE)
        assert report.all_exact
        assert len(report.accepted_by_trial[0]) == 16
        assert frozenset("ABCD") not in report.accepted_by_trial[0]

    def test_small_monotone_family(self, small):
        report = audit(
            small.priv, small.shares, small.expected_family,
            mode="monotone", merge="or", force_m=small.message)
        assert report.all_exact
        assert report.accepted_by_trial[0] == frozenset({
            frozenset({"A1", "A2"}),
            frozenset({"A1", "A3"}),
            frozenset({"A1", "A2", "A3"}),
        })

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, small, trials):
        with pytest.raises(ValueError):
            audit(small.priv, small.shares, small.expected_family, trials=trials,
                  mode="monotone", merge="or")

    def test_empty_expected_agreement(self, small):
        # an impossible message cannot be authenticated by anyone: compare
        # the empty expectation against an audit with a corrupted share set
        report = protocol.AuditReport(universe=("X",), expected=frozenset())
        report.accepted_by_trial.append(frozenset())
        assert report.all_exact

    def test_frequencies_sum(self, airplane):
        report = audit(
            airplane.priv, airplane.shares, airplane.expected_family,
            trials=3, rng=random.Random(8),
            mode="sequence", merge="sum", null_policy="one",
            force_m=fixtures.AIRPLANE_MESSAGE)
        freqs = report.frequencies()
        assert len(freqs) == 31
        for group in airplane.expected_family:
            assert freqs[group] == 1.0

    def test_public_key_derived_once_across_calls(self, airplane, monkeypatch):
        # a caller running one trial per call passes the same key each time;
        # only the first call may derive the public key (one mod_inv, n pows),
        # and a fresh key object has not derived it yet
        priv = airplane.priv
        fresh = NsPrivateKey(n=priv.n, p=priv.p, s=priv.s, primes=priv.primes)
        calls = []
        mod_inv = numtheory.mod_inv
        monkeypatch.setattr(numtheory, "mod_inv", lambda *a: calls.append(a) or mod_inv(*a))
        for seed in (1, 2):
            report = audit(fresh, airplane.shares, airplane.expected_family,
                           trials=3, rng=random.Random(seed),
                           mode="sequence", merge="sum", force_m=fixtures.AIRPLANE_MESSAGE)
            assert report.all_exact
        assert len(calls) == 1


def reference_audit(shares, challenge, state):
    """The accepted subsets of one null-1 trial, responding afresh for every subset."""
    universe = tuple(shares)
    accepted = set()
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            responses = [token_respond(shares[h], challenge, "one") for h in combo]
            merged = merge_responses(state, responses)
            if verify(state, merged).accepted:
                accepted.add(frozenset(combo))
    return frozenset(accepted)


def audit_agrees_with_reference(priv, pub, shares, expected, mode, merge, messages):
    first = next(iter(shares.values()))
    slot_count = len(first.slots) if isinstance(first, ShareSequence) else 1
    for m in messages:
        report = audit(priv, shares, expected, trials=2, rng=random.Random(m),
                       mode=mode, merge=merge, force_m=m)
        # audit's only rng use under null=1 is make_challenge: replay it
        rng = random.Random(m)
        for accepted in report.accepted_by_trial:
            challenge, state = make_challenge(
                pub, mode=mode, merge=merge, slot_count=slot_count, rng=rng, force_m=m)
            assert accepted == reference_audit(shares, challenge, state), (merge, m)


PINNED_MESSAGES_12 = (1, 7, 2919, 0x555, 0xAAA, 4094, 4095)


class TestAuditMatchesReference:
    """audit's one-response-per-holder merge against per-subset responding."""

    @pytest.mark.parametrize("merge", ["sum", "xor"])
    @pytest.mark.parametrize("planner", [slots_baseline, slots_packed])
    def test_airplane_sequence(self, airplane, planner, merge):
        plan = planner(airplane.expected_family, 12, ABCDE)
        shares = issue_sequence(plan, airplane.priv)
        audit_agrees_with_reference(
            airplane.priv, airplane.pub, shares, airplane.expected_family,
            "sequence", merge, PINNED_MESSAGES_12)

    @pytest.mark.parametrize("merge", ["sum", "xor"])
    def test_airplane_bundled_plan(self, airplane, merge):
        audit_agrees_with_reference(
            airplane.priv, airplane.pub, airplane.shares, airplane.expected_family,
            "sequence", merge, PINNED_MESSAGES_12)

    def test_small_monotone(self, small):
        audit_agrees_with_reference(
            small.priv, small.pub, small.shares, small.expected_family,
            "monotone", "or", (1, 2, 100, small.message, 128, 254, 255))


@pytest.fixture
def pow_calls(monkeypatch):
    """Counts the modular exponentiations `protocol` does itself."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(protocol, "pow", counting_pow, raising=False)
    return calls


def per_holder_residues(monkeypatch):
    """Make `audit` compute one residue per holder, as separate tokens would."""
    respond = protocol._respond
    monkeypatch.setattr(
        protocol, "_respond",
        lambda share, challenge, null_policy, rng, residues:
            respond(share, challenge, null_policy, rng, {}))


@pytest.fixture(params=["same p", "other p"])
def mixed_key_shares(request, airplane):
    """The airplane shares with C's issued under a second key."""
    priv = airplane.priv
    force_p = priv.p if request.param == "same p" else None
    _, second = keygen(priv.n, "seeded-random", seed=7, force_p=force_p)
    assert second.s != priv.s and (second.p == priv.p) == (force_p is not None)
    shares = dict(airplane.shares)
    shares["C"] = issue_sequence(airplane.plan, second)["C"]
    return shares


def airplane_audit(airplane, shares, null_policy="one", seed=0, trials=1, force_m=None):
    return audit(airplane.priv, shares, airplane.expected_family, trials=trials,
                 rng=random.Random(seed), mode="sequence", merge="sum",
                 null_policy=null_policy, force_m=force_m)


# accepted - expected per trial of `airplane_audit(..., "random-nonzero", seed=5,
# trials=20)`, as computed by responding token by token; other trials accept
# exactly the expected family
RANDOM_NULL_FALSE_ACCEPTS_SEED_5 = {
    1: ["ABCD", "ABCDE", "ABCE", "ABDE", "ACDE", "BCDE"],
    8: ["A", "ABCD", "ABCDE", "ABCE", "ABDE", "ACDE", "B", "BCDE"],
    10: ["B", "C", "CD", "CE", "D", "DE", "E"],
    11: ["A", "ABCD", "ABCDE", "ABCE", "ABDE", "ACDE", "B", "BCDE"],
    12: ["CD", "CE", "DE"],
    18: ["ABCD", "ABCDE", "ABCE", "ABDE", "ACDE", "BCDE"],
}


class TestSharedResidue:
    """audit raises each ciphertext to s once per distinct share (p, s)."""

    def test_one_pow_per_trial(self, airplane, pow_calls):
        airplane_audit(airplane, airplane.shares)
        assert len(pow_calls) == 1
        airplane_audit(airplane, airplane.shares, trials=3)
        assert len(pow_calls) == 1 + 3

    def test_one_pow_per_key(self, airplane, mixed_key_shares, pow_calls):
        airplane_audit(airplane, mixed_key_shares)
        assert len(pow_calls) == 2

    def test_per_holder_reference_pays_per_holder(self, airplane, pow_calls, monkeypatch):
        per_holder_residues(monkeypatch)
        airplane_audit(airplane, airplane.shares)
        assert len(pow_calls) == len(airplane.shares)

    def test_token_respond_pays_its_own_pow(self, airplane, small, pow_calls):
        challenge, _ = airplane_challenge(airplane)
        for share in airplane.shares.values():
            token_respond(share, challenge)
        assert len(pow_calls) == len(airplane.shares)
        blank = dataclasses.replace(
            airplane.shares["A"], slots=(None,) * len(airplane.plan.slots))
        token_respond(blank, challenge, "random-nonzero", random.Random(1))
        assert len(pow_calls) == len(airplane.shares)
        mono, _ = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        token_respond(small.shares["A1"], mono)
        assert len(pow_calls) == len(airplane.shares) + 1

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    def test_responses_are_token_responses(
            self, airplane, mixed_key_shares, monkeypatch, null_policy):
        seen = []
        accepted_masks, draw = protocol._accepted_masks, protocol.make_challenge
        monkeypatch.setattr(protocol, "make_challenge",
                            lambda *a, **k: seen.append(draw(*a, **k)) or seen[-1])
        monkeypatch.setattr(protocol, "_accepted_masks",
                            lambda rs, state: seen.append(rs) or accepted_masks(rs, state))
        airplane_audit(airplane, mixed_key_shares, null_policy, trials=4)
        assert len(seen) == 2 * 4
        for (challenge, _), responses in zip(seen[::2], seen[1::2]):
            for h, response in zip(ABCDE, responses):
                share = mixed_key_shares[h]
                own = token_respond(share, challenge, "one")
                assert response.session_id == own.session_id
                # random nulls aside, each slot answers what the token would
                for slot, got, want in zip(share.slots, response.values, own.values):
                    assert got == want or (slot is None and null_policy != "one"), h

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    def test_accepts_as_per_holder_residues(
            self, airplane, mixed_key_shares, monkeypatch, null_policy):
        shared = [airplane_audit(airplane, mixed_key_shares, null_policy, seed, trials=20)
                  for seed in range(5)]
        per_holder_residues(monkeypatch)
        for seed, report in enumerate(shared):
            reference = airplane_audit(airplane, mixed_key_shares, null_policy, seed, trials=20)
            assert report.accepted_by_trial == reference.accepted_by_trial, seed

    @pytest.mark.parametrize(
        "p", [fixtures.AIRPLANE_CIPHERTEXT, fixtures.AIRPLANE_CIPHERTEXT // 2])
    def test_modulus_below_ciphertext_refused(self, airplane, p):
        shares = dict(airplane.shares)
        shares["C"] = dataclasses.replace(shares["C"], p=p)
        challenge, _ = airplane_challenge(airplane)
        with pytest.raises(ValueError, match="^ciphertext out of range$"):
            token_respond(shares["C"], challenge)
        with pytest.raises(ValueError, match="^ciphertext out of range$"):
            airplane_audit(airplane, shares, force_m=fixtures.AIRPLANE_MESSAGE)

    def test_seeded_random_null_audit_pinned(self, airplane):
        report = airplane_audit(airplane, airplane.shares, "random-nonzero", seed=5, trials=20)
        assert report.trials == 20
        for t, accepted in enumerate(report.accepted_by_trial):
            assert accepted >= airplane.expected_family, t
            extra = sorted("".join(sorted(g)) for g in accepted - airplane.expected_family)
            assert extra == RANDOM_NULL_FALSE_ACCEPTS_SEED_5.get(t, []), t


class TestCompleteness:
    def test_family_always_accepted(self, airplane):
        rng = random.Random(13)
        for _ in range(10):
            m = rng.randrange(1, 1 << 12)
            challenge, state = airplane_challenge(airplane, force_m=m)
            for group in airplane.expected_family:
                rs = [token_respond(airplane.shares[h], challenge, "one")
                      for h in group]
                assert verify(state, merge_sequence(rs, "sum")).accepted

    def test_family_accepted_for_every_message(self, airplane):
        # exhaustive: a transversal group's contributions partition the
        # message bits, so its slot sums to m for every single challenge
        plan = airplane.plan
        for m in range(1, 1 << 12):
            for group in airplane.expected_family:
                assert simulate_sum_accept(plan, group, m), (sorted(group), m)

    def test_sequence_length_mismatch(self, airplane):
        challenge, _ = make_challenge(
            airplane.pub, mode="sequence", merge="sum", slot_count=3,
            rng=random.Random(0))
        with pytest.raises(ValueError):
            token_respond(airplane.shares["A"], challenge)


def simulate_sum_accept(plan, group, m):
    """Arithmetic-only oracle for sum-merge/null=1 acceptance of `group`.

    Mirrors the protocol semantics without any modular arithmetic: a
    member assigned at a slot contributes the bits of m inside its part,
    an unassigned member contributes 1.
    """
    for slot in plan.slots:
        total = 0
        for holder in group:
            part = slot.member_part.get(holder)
            if part is None:
                total += 1
            else:
                total += sum(1 << i for i in slot.parts[part] if (m >> i) & 1)
        if total == m:
            return True
    return False


def exhaustive_false_accept_counts(plan, unauthorized, n=12):
    """Per-subset false-accept counts over every message, plus the count of
    false accepts on messages that give all slot-parts a value >= 4."""
    hits = {g: 0 for g in unauthorized}
    big_part_hits = 0
    for m in range(1, 1 << n):
        every_part_big = all(
            sum(1 << i for i in part if (m >> i) & 1) >= 4
            for slot in plan.slots for part in slot.parts
        )
        for group in unauthorized:
            if simulate_sum_accept(plan, group, m):
                hits[group] += 1
                if every_part_big:
                    big_part_hits += 1
    return hits, big_part_hits


class TestSoundness:
    """Exhaustive sweep of every message against every unauthorized subset.

    False accepts do exist under sum-merge with null=1, but only on
    messages that leave some slot-part worth at most 3: each absent
    assigned holder can be impersonated by null responses summing to its
    contribution, and at most three nulls fit in a five-holder group.
    Messages giving every part a value of at least 4 never falsely accept.
    """

    def unauthorized(self, airplane):
        return [
            frozenset(c)
            for size in range(1, 6)
            for c in itertools.combinations(ABCDE, size)
            if frozenset(c) not in airplane.expected_family
        ]

    def test_baseline_plan_rates(self, airplane, baseline_shares):
        plan, _ = baseline_shares
        hits, big_part_hits = exhaustive_false_accept_counts(
            plan, self.unauthorized(airplane))
        assert big_part_hits == 0
        for group, count in hits.items():
            assert count / 4095 < 0.10, (sorted(group), count)

    def test_packed_plan_rates(self, airplane):
        # packing trades soundness margin for token storage: the two
        # worst four-member subsets exceed 10% on the bundled 7-slot plan
        # (values frozen from this very sweep); every other subset stays
        # below 10%, and the value>=4 boundary still holds
        plan = airplane.plan
        hits, big_part_hits = exhaustive_false_accept_counts(
            plan, self.unauthorized(airplane))
        assert big_part_hits == 0
        assert hits[frozenset("BCDE")] == 555
        assert hits[frozenset("ACDE")] == 495
        for group, count in hits.items():
            if group not in (frozenset("BCDE"), frozenset("ACDE")):
                assert count / 4095 < 0.10, (sorted(group), count)

    def test_oracle_matches_protocol(self, airplane):
        # seeded random challenges through the real stack must agree with
        # the arithmetic oracle, for every subset
        plan = airplane.plan
        rng = random.Random(424242)
        for _ in range(50):
            m = rng.randrange(1, 1 << 12)
            challenge, state = airplane_challenge(airplane, force_m=m)
            for size in range(1, 6):
                for combo in itertools.combinations(ABCDE, size):
                    rs = [token_respond(airplane.shares[h], challenge, "one")
                          for h in combo]
                    accepted = verify(state, merge_sequence(rs, "sum")).accepted
                    assert accepted == simulate_sum_accept(plan, frozenset(combo), m)


@pytest.fixture(scope="module")
def baseline_shares(airplane):
    plan = slots_baseline(airplane.expected_family, 12, ABCDE)
    return plan, issue_sequence(plan, airplane.priv)


class TestShareSequencePrimes:
    def test_rejects_primes_outside_the_system(self, airplane):
        share = airplane.shares["A"]
        for bad in ({100003}, {41}, {2, 9}):  # 41 is the 13th prime, n is 12
            with pytest.raises(ValueError):
                ShareSequence(holder="A", s=share.s, p=share.p, n=share.n,
                              slots=(frozenset(bad),) + share.slots[1:])


class TestXorPitfall:
    def test_paired_nulls_cancel_under_xor(self, airplane, baseline_shares):
        plan, shares = baseline_shares
        challenge, state = make_challenge(
            airplane.pub, mode="sequence", merge="xor",
            slot_count=len(plan.slots), rng=random.Random(7),
            force_m=fixtures.AIRPLANE_MESSAGE)
        rs = [token_respond(shares[h], challenge, "one") for h in ABCDE]
        verdict = verify(state, merge_sequence(rs, "xor"))
        assert verdict.accepted  # ABCDE is not in the family

    def test_sum_rejects_the_same_group(self, airplane, baseline_shares):
        plan, shares = baseline_shares
        challenge, state = make_challenge(
            airplane.pub, mode="sequence", merge="sum",
            slot_count=len(plan.slots), rng=random.Random(7),
            force_m=fixtures.AIRPLANE_MESSAGE)
        rs = [token_respond(shares[h], challenge, "one") for h in ABCDE]
        assert not verify(state, merge_sequence(rs, "sum")).accepted

    def test_random_nulls_eliminate_it(self, airplane, baseline_shares):
        plan, shares = baseline_shares
        rng = random.Random(20240811)
        for _ in range(100):
            challenge, state = make_challenge(
                airplane.pub, mode="sequence", merge="xor",
                slot_count=len(plan.slots), rng=rng)
            rs = [token_respond(shares[h], challenge, "random-nonzero", rng)
                  for h in ABCDE]
            assert not verify(state, merge_sequence(rs, "xor")).accepted

    def test_seven_slot_plan_null_cancellation_slot(self, airplane):
        # on the bundled 7-slot plan, the sixth slot (index 5) accepts all
        # five holders under xor with null=1: the two null 1s cancel there
        challenge, state = airplane_challenge(airplane, merge="xor")
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in ABCDE]
        merged = merge_sequence(rs, "xor")
        assert merged[5] == fixtures.AIRPLANE_MESSAGE
        # random nulls break that cancellation
        rng = random.Random(99)
        hits = 0
        for _ in range(100):
            ch, st = make_challenge(
                airplane.pub, mode="sequence", merge="xor", slot_count=7, rng=rng)
            rs = [token_respond(airplane.shares[h], ch, "random-nonzero", rng)
                  for h in ABCDE]
            if merge_sequence(rs, "xor")[5] == st.plaintexts[0]:
                hits += 1
        assert hits == 0


def _walk_json(node):
    yield node
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _walk_json(value)
    elif isinstance(node, list):
        for item in node:
            yield from _walk_json(item)


class TestAnonymity:
    def test_wire_documents_carry_no_identity(self, airplane):
        challenge, state = airplane_challenge(airplane)
        response = token_respond(airplane.shares["A"], challenge, "one")
        verdict = verify(state, merge_sequence([response], "sum"))
        for obj in (challenge, response, verdict):
            doc = files.to_document(obj)
            for node in _walk_json(doc):
                assert node != "holder"
                assert node not in ABCDE
        assert set(files.to_document(response)) == {"kind", "session_id", "values"}

    def test_merge_permutation_invariance(self, airplane):
        challenge, _ = airplane_challenge(airplane)
        rs = [token_respond(airplane.shares[h], challenge, "one") for h in ABCDE]
        expected_sum = merge_sequence(rs, "sum")
        expected_xor = merge_sequence(rs, "xor")
        rng = random.Random(2)
        for _ in range(100):
            shuffled = rs[:]
            rng.shuffle(shuffled)
            assert merge_sequence(shuffled, "sum") == expected_sum
            assert merge_sequence(shuffled, "xor") == expected_xor

    def test_monotone_permutation_invariance(self, small):
        challenge, _ = make_challenge(
            small.pub, rng=random.Random(0), force_m=small.message)
        rs = [token_respond(small.shares[h], challenge) for h in small.universe]
        expected = merge_monotone(rs)
        rng = random.Random(3)
        for _ in range(100):
            shuffled = rs[:]
            rng.shuffle(shuffled)
            assert merge_monotone(shuffled) == expected


class TestVerifierIsolation:
    def test_verifier_path_takes_no_secrets(self):
        # the verifier-side surface accepts only public material and state
        params = inspect.signature(make_challenge).parameters
        assert params["pub"].annotation == "NsPublicKey"
        assert "priv" not in params and "shares" not in params
        assert list(inspect.signature(verify).parameters) == ["state", "merged"]
        assert list(inspect.signature(merge_monotone).parameters) == ["responses"]
        assert list(inspect.signature(merge_sequence).parameters) == ["responses", "merge"]
        assert list(inspect.signature(merge_responses).parameters) == ["state", "responses"]

    def test_state_never_in_challenge(self, airplane):
        challenge, state = airplane_challenge(airplane)
        doc = files.to_document(challenge)
        assert "plaintexts" not in doc
        for m in state.plaintexts:
            assert str(m) not in doc["ciphertexts"]
