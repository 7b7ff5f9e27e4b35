import collections
import dataclasses
import functools
import hashlib
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import files, fixtures, nscrypt, numtheory, protocol
from groupauth.errors import GroupAuthError, SchemaError
from groupauth.nscrypt import (KeyShare, NsPrivateKey, binds, keygen, partial_decrypt,
                               public_key_of, residue_bits)
from groupauth.policy import authorized_family, group_of, parse
from groupauth.protocol import (
    Challenge,
    ResponseVector,
    Verdict,
    VerifierState,
    audit,
    make_challenge,
    merge_monotone,
    merge_responses,
    merge_sequence,
    token_respond,
    verify,
)
from groupauth.sharesplit import (ShareSequence, _balanced_parts, issue_monotone,
                                  issue_sequence, slots_baseline, slots_packed)
from conftest import TEN, TEN_POLICY, random_family

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

    @pytest.mark.parametrize("mode, merge, slot_count, message", [
        ("bogus", None, 1, "unknown mode 'bogus'"),
        ("bogus", "and", 0, "unknown mode 'bogus'"),
        (["monotone"], "or", 1, "unknown mode ['monotone']"),
        ("sequence", "and", 0, "unknown merge 'and'"),
        ("sequence", "or", 1, "or-merge is for monotone mode, sum/xor for sequence mode"),
        ("monotone", "sum", 1, "or-merge is for monotone mode, sum/xor for sequence mode"),
        ("sequence", "sum", 0, "slot_count must be >= 1"),
        ("sequence", "xor", -3, "slot_count must be >= 1"),
        ("monotone", None, 2, "monotone mode has exactly one slot"),
        ("monotone", "or", True, "slot_count must be an int"),
    ])
    def test_refusals_pinned(self, airplane, monkeypatch, mode, merge, slot_count, message):
        # the whole shape is refused before m or the session id is drawn
        monkeypatch.setattr(protocol, "encrypt", None)
        rng = random.Random(11)
        before = rng.getstate()
        with pytest.raises(ValueError) as err:
            make_challenge(airplane.pub, mode=mode, merge=merge, slot_count=slot_count, rng=rng)
        assert str(err.value) == message
        assert rng.getstate() == before

    @pytest.mark.parametrize("force_m", [True, 2919.0, "2919"])
    def test_force_m_must_be_an_int(self, small, monkeypatch, force_m):
        # refused before m or the session id is drawn, by a challenge and an audit
        monkeypatch.setattr(protocol, "encrypt", None)
        rng = random.Random(11)
        before = rng.getstate()
        for call in (lambda: make_challenge(small.pub, rng=rng, force_m=force_m),
                     lambda: audit(small.priv, small.shares, small.expected_family, rng=rng,
                                   mode="monotone", force_m=force_m)):
            with pytest.raises(ValueError, match="^force_m must be an int$"):
                call()
            assert rng.getstate() == before

    @pytest.mark.parametrize("force_m", [0, -1, 1 << 8, 1 << 40])
    def test_force_m_must_be_a_message(self, small, monkeypatch, force_m):
        # outside [1, 2^n): refused before m or the session id is drawn, by a
        # challenge and by an audit, whose trials encrypt nothing
        monkeypatch.setattr(protocol, "encrypt", None)
        rng = random.Random(11)
        before = rng.getstate()
        for call in (lambda: make_challenge(small.pub, rng=rng, force_m=force_m),
                     lambda: audit(small.priv, small.shares, small.expected_family, rng=rng,
                                   mode="monotone", force_m=force_m)):
            with pytest.raises(ValueError, match=r"^plaintext must be in \[1, 2\^8\)$"):
                call()
            assert rng.getstate() == before

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

    def test_unseeded_nulls_draw_from_os_generator(self, airplane, monkeypatch):
        blank = dataclasses.replace(
            airplane.shares["A"], slots=(None,) * len(airplane.plan.slots))
        challenge, _ = airplane_challenge(airplane)
        assert (token_respond(blank, challenge, "random-nonzero")
                != token_respond(blank, challenge, "random-nonzero"))
        drawn = []
        monkeypatch.setattr(protocol.random, "SystemRandom",
                            lambda: drawn.append(1) or random.Random(4))
        assert (token_respond(blank, challenge, "random-nonzero")
                == token_respond(blank, challenge, "random-nonzero", random.Random(4)))
        assert len(drawn) == 1
        unseeded = airplane_audit(airplane, airplane.shares, "random-nonzero", trials=20,
                                  seed=None)
        assert len(drawn) == 2
        seeded = airplane_audit(airplane, airplane.shares, "random-nonzero", trials=20, seed=4)
        assert unseeded.accepted_by_trial == seeded.accepted_by_trial

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
        deployment, share = system.deployment, system.shares[system.universe[0]]
        slot_count = deployment.slot_count
        (old_challenge, _), (new_challenge, state) = (
            make_challenge(deployment, mode=deployment.mode, merge=deployment.merge,
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


class TestBoolFields:
    """Constructors refuse the bools that `files` could write but not load back."""

    @pytest.mark.parametrize("cls, plaintext", [(Challenge, 5), (VerifierState, 5)])
    @pytest.mark.parametrize("slot_count", [True, False, 1.0])
    def test_session_slot_count_is_an_int(self, cls, plaintext, slot_count):
        with pytest.raises(ValueError, match="^slot_count must be an int$"):
            cls("x", "monotone", "or", slot_count, (plaintext,))
        doc = files.to_document(cls("x", "monotone", "or", 1, (plaintext,)))
        doc["slot_count"] = slot_count
        with pytest.raises(SchemaError):
            files.from_document(doc)

    @pytest.mark.parametrize("accepted, matching_slot, message", [
        (True, True, "an accepted verdict's matching_slot must be an int >= 0"),
        (True, False, "an accepted verdict's matching_slot must be an int >= 0"),
        (1, 0, "a verdict's accepted must be a bool"),
        (0, None, "a verdict's accepted must be a bool"),
        (None, None, "a verdict's accepted must be a bool"),
    ])
    def test_verdict_fields(self, accepted, matching_slot, message):
        with pytest.raises(ValueError) as err:
            Verdict("s", accepted, matching_slot)
        assert str(err.value) == message
        doc = {"kind": "verdict", "session_id": "s", "accepted": accepted,
               "matching_slot": matching_slot}
        with pytest.raises(SchemaError):
            files.from_document(doc)

    def test_verdicts_accepted(self):
        assert Verdict("s", True, 0).matching_slot == 0
        assert Verdict("s", False, None).matching_slot is None


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

    @pytest.mark.parametrize("trials", [True, 2.0, "3"])
    def test_trials_must_be_an_int(self, small, trials):
        # refused before any share check: key shares cannot answer a sequence audit
        rng = random.Random(11)
        before = rng.getstate()
        with pytest.raises(ValueError, match="^trials must be an int$"):
            audit(small.priv, small.shares, small.expected_family, trials=trials, rng=rng,
                  mode="sequence")
        assert rng.getstate() == before

    def test_set_up_runs_once(self, airplane, monkeypatch):
        # four trials pay one universe check and one share check per holder,
        # and no trial builds a session object
        calls = collections.Counter()

        def counted(name):
            real = getattr(protocol, name)
            return lambda *a: calls.update([name]) or real(*a)

        for name in ("check_universe", "_answerable", "Challenge", "VerifierState"):
            monkeypatch.setattr(protocol, name, counted(name))
        assert airplane_audit(airplane, airplane.shares, trials=4).trials == 4
        assert calls == {"check_universe": 1, "_answerable": len(ABCDE)}

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

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    @pytest.mark.parametrize("fixture", ["airplane", "small"])
    def test_deployment_audits_as_private_key(self, request, fixture, null_policy):
        # a verifier's public deployment reads the same as the private key it came from
        system = request.getfixturevalue(fixture)
        runs = []
        for key in (system.priv, system.deployment):
            rng = random.Random(9)
            report = audit(key, system.shares, system.expected_family, trials=6, rng=rng,
                           mode=system.deployment.mode, merge=system.deployment.merge,
                           null_policy=null_policy)
            runs.append((report.accepted_by_trial, report.merge, rng.getstate()))
        assert runs[0] == runs[1]

    def test_deployment_refuses_another_session_shape(self, airplane):
        # the airplane shares deployed under xor accept six off-family groups
        # (ABCD, ABCE, ABDE, ACDE, BCDE, ABCDE): a sum audit must not pass for them
        pub, slots = airplane.pub, len(airplane.shares["A"].slots)
        xor = protocol.Deployment(pub.n, pub.p, pub.v, "sequence", "xor", slots)
        for mode, merge in (("sequence", None), ("sequence", "sum"), ("monotone", "or")):
            with pytest.raises(ValueError, match="the deployment runs sequence/xor"):
                audit(xor, airplane.shares, airplane.expected_family,
                      mode=mode, merge=merge, force_m=fixtures.AIRPLANE_MESSAGE)
        report = audit(xor, airplane.shares, airplane.expected_family, mode="sequence",
                       merge="xor", force_m=fixtures.AIRPLANE_MESSAGE)
        assert report.false_accepts() == frozenset(
            frozenset(g) for g in ["ABCD", "ABCE", "ABDE", "ACDE", "BCDE", "ABCDE"])
        shorter = dataclasses.replace(xor, slot_count=slots - 1)
        with pytest.raises(ValueError, match="sessions of 6 slot"):
            audit(shorter, airplane.shares, airplane.expected_family,
                  mode="sequence", merge="xor")

    def test_deployment_challenge_takes_its_shape(self, airplane):
        # with no mode the deployment gives its whole shape; a mode given
        # defaults the rest as for any key, and the deployment refuses it
        pub = airplane.pub
        xor = protocol.Deployment(pub.n, pub.p, pub.v, "sequence", "xor", 7)
        for shape in ({"mode": "sequence"}, {"mode": "sequence", "slot_count": 7},
                      {"mode": "sequence", "merge": "xor", "slot_count": 6},
                      {"merge": "sum"}, {"slot_count": 6}):
            with pytest.raises(ValueError, match="the deployment runs sequence/xor"):
                make_challenge(xor, **shape)
        for shape in ({}, {"merge": "xor"}, {"slot_count": 7},
                      {"mode": "sequence", "merge": "xor", "slot_count": 7}):
            challenge, state = make_challenge(xor, **shape)
            assert (challenge.mode, challenge.merge, challenge.slot_count) == ("sequence", "xor", 7)
            assert (state.mode, state.merge, state.slot_count) == ("sequence", "xor", 7)

    @pytest.mark.parametrize("fixture", ["airplane", "small"])
    def test_deployment_opens_its_own_session(self, request, fixture):
        # `make_challenge(deployment)` and `audit(deployment, ...)` need no
        # restated shape: the session and the audit run as the deployment says
        system = request.getfixturevalue(fixture)
        deployment = system.deployment
        challenge, state = make_challenge(deployment, rng=random.Random(3),
                                          force_m=system.message)
        shape = (deployment.mode, deployment.merge, deployment.slot_count)
        assert (challenge.mode, challenge.merge, challenge.slot_count) == shape
        assert (state.mode, state.merge, state.slot_count) == shape
        assert (challenge, state) == make_challenge(
            deployment, *shape, rng=random.Random(3), force_m=system.message)
        responses = [token_respond(system.shares[h], challenge) for h in system.universe]
        assert len(responses[0].values) == deployment.slot_count
        report = audit(deployment, system.shares, system.expected_family, trials=3,
                       rng=random.Random(3), force_m=system.message)
        restated = audit(deployment, system.shares, system.expected_family, trials=3,
                         rng=random.Random(3), mode=deployment.mode, merge=deployment.merge,
                         force_m=system.message)
        assert report.merge == deployment.merge
        assert report.accepted_by_trial == restated.accepted_by_trial
        assert report.all_exact

    def test_bare_key_keeps_the_monotone_default(self, airplane, small, monkeypatch):
        # a key that is no deployment opens a monotone session of one slot, as
        # before, so a sequence audit under it still names its mode: refused,
        # naming the mode, before any draw or binding check
        challenge, _ = make_challenge(small.pub, rng=random.Random(0))
        assert (challenge.mode, challenge.merge, challenge.slot_count) == ("monotone", "or", 1)
        assert audit(small.priv, small.shares, small.expected_family, trials=2,
                     rng=random.Random(0)).merge == "or"
        monkeypatch.setattr(protocol, "binds", None)
        rng = random.Random(0)
        before = rng.getstate()
        for key in (airplane.priv, airplane.pub):
            with pytest.raises(ValueError, match='^share sequences under a key that is not '
                                                 'a Deployment need mode="sequence"$'):
                audit(key, airplane.shares, airplane.expected_family, rng=rng)
        assert rng.getstate() == before


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

    def test_ten_holder_packed(self):
        # the `audit10` deployment: 1,023 subsets, 26 slots; 0x68a0 is
        # answered by 212 subsets outside the family and its complement by none
        pub, priv = keygen(16, seed=1)
        family = authorized_family(parse(TEN_POLICY, TEN), TEN, 4)
        shares = issue_sequence(slots_packed(family, 16, TEN), priv)
        for m, false_accepts in ((0x68A0, 212), (0x975F, 0)):
            report = audit(priv, shares, family, rng=random.Random(0),
                           mode="sequence", merge="sum", force_m=m)
            assert len(report.false_accepts()) == false_accepts and not report.missed()
        audit_agrees_with_reference(priv, pub, shares, family, "sequence", "sum",
                                    (0x68A0, 0x975F, 0xFFFF))


@pytest.fixture
def pows(monkeypatch):
    """`nscrypt`'s modular exponentiations, the args of each: {"read": [...], "binds": [...]}.

    A pow made while `protocol.binds` runs, the audit's key check, counts as
    "binds"; any other is a token's read in `partial_decrypt`.
    """
    calls, kind = {"read": [], "binds": []}, ["read"]

    def counting_pow(*args):
        calls[kind[-1]].append(args)
        return pow(*args)

    def counting_binds(*args):
        kind.append("binds")
        try:
            return binds(*args)
        finally:
            kind.pop()

    monkeypatch.setattr(nscrypt, "pow", counting_pow, raising=False)
    monkeypatch.setattr(protocol, "binds", counting_binds)
    return calls


@pytest.fixture
def pow_calls(pows):
    """The pows of tokens' reads; the audit's `binds` pows are in `pows["binds"]`."""
    return pows["read"]


def per_holder_audit(priv, shares, expected, trials, rng, *, mode, merge, null_policy,
                     force_m=None):
    """`audit` done token by token: each holder reads its own residue.

    Each trial draws its challenge and then every holder's `token_respond`
    from `rng` in holder order, as `audit` does, and accepts the subsets
    whose merge of those responses `verify` accepts.
    """
    universe = tuple(shares)
    first = next(iter(shares.values()))
    slot_count = len(first.slots) if isinstance(first, ShareSequence) else 1
    report = protocol.AuditReport(universe=universe, expected=frozenset(expected))
    for _ in range(trials):
        challenge, state = make_challenge(
            public_key_of(priv), mode=mode, merge=merge, slot_count=slot_count,
            rng=rng, force_m=force_m)
        responses = {h: token_respond(shares[h], challenge, null_policy, rng) for h in universe}
        report.accepted_by_trial.append(frozenset(
            frozenset(combo)
            for size in range(1, len(universe) + 1)
            for combo in itertools.combinations(universe, size)
            if verify(state, merge_responses(state, [responses[h] for h in combo])).accepted))
    return report


@pytest.fixture
def read_calls(monkeypatch):
    """The primes of each residue whose bits `nscrypt` reads: a token's read.

    `Share.reading` builds its masks with `residue_bits(0, primes)`; a
    residue c^s mod p of a c in [1, p) is never 0, so those are no reads.
    """
    calls = []

    def counting_read(u, primes):
        if u:
            calls.append(tuple(primes))
        return residue_bits(u, primes)

    monkeypatch.setattr(nscrypt, "residue_bits", counting_read)
    return calls


def second_key(priv, same_p):
    """A key of priv's n beside priv: seed 7's s under priv's p, or a forced other p."""
    if same_p:
        _, second = keygen(priv.n, seed=7, force_p=priv.p)
    else:
        p, s = SECOND_KEYS[priv.n]
        _, second = keygen(priv.n, force_p=p, force_s=s)
    assert second.s != priv.s and (second.p == priv.p) == same_p
    return second


# (p, s) of a second key under a prime of its own, per n: forced primes off
# the table, for the airplane (n = 12) and small (n = 8) systems.
SECOND_KEYS = {12: (8244684522521, 6429826615309), 8: (16731677, 1976227)}


def mixed_shares(airplane, same_p):
    """The airplane shares with C's issued under a second key, of the same p or another."""
    shares = dict(airplane.shares)
    shares["C"] = issue_sequence(airplane.plan, second_key(airplane.priv, same_p))["C"]
    return shares


def mixed_small_shares(small, same_p):
    """The small shares with A2's reissued under a second key, of the same p or another."""
    ranks = frozenset(numtheory.SMALL_PRIME_RANK[q] for q in small.shares["A2"].prime_subset)
    second = second_key(small.priv, same_p)
    return {**small.shares, "A2": issue_monotone({"A2": ranks}, second)["A2"]}


def mixed_refusal(holder):
    """The refusal of an audit whose key does not bind `holder`'s share."""
    return pytest.raises(protocol.UnboundShare,
                         match=f"^the audit key does not bind holder {holder}'s share$")


@pytest.fixture(params=["same p", "other p"])
def second_key_shares(request, airplane):
    """The airplane plan issued under a second key, of the same p or another: (key, shares)."""
    second = second_key(airplane.priv, request.param == "same p")
    return second, issue_sequence(airplane.plan, second)


def airplane_audit(airplane, shares, null_policy="one", seed=0, trials=1, force_m=None,
                   key=None):
    """An audit of the airplane family under `key`, else the airplane key; seed None: no rng."""
    return audit(airplane.priv if key is None else key, shares, airplane.expected_family,
                 trials=trials, rng=None if seed is None else random.Random(seed),
                 mode="sequence", merge="sum", null_policy=null_policy, force_m=force_m)


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


@functools.cache
def seeded_key(n):
    return keygen(n, seed=n)[1]


@st.composite
def bound_audits(draw):
    """A random family over up to 6 holders, issued under one key, and an audit's settings."""
    universe = tuple("ABCDEF")[: draw(st.integers(1, 6))]
    masks = draw(st.sets(st.integers(1, (1 << len(universe)) - 1), min_size=1))
    family = frozenset(group_of(a, universe) for a in masks)
    priv = seeded_key(draw(st.sampled_from((8, 12, 16))))
    planner = draw(st.sampled_from((slots_packed, slots_baseline)))
    shares = issue_sequence(planner(family, priv.n, universe), priv)
    return (priv, shares, family, draw(st.sampled_from(("sum", "xor"))),
            draw(st.sampled_from(protocol.NULL_POLICIES)), draw(st.integers(0, 2**32 - 1)))


class TestSharedResidue:
    """audit checks once that the key binds every share, then reads m itself.

    A bound key gives c^s mod p = the product of m's primes, so every token
    reads m's bits over its own primes; `per_holder_audit` still pays each
    token's `pow` and checks that reading token by token.
    """

    def test_one_pow_per_trial(self, airplane, small, pows, read_calls):
        # each token pays one pow and one read a trial, answering its own
        # challenge; the audit reads m itself and pays neither, under a
        # private key, a public key or a deployment
        per_holder_audit(airplane.priv, airplane.shares, airplane.expected_family, 3,
                         random.Random(0), mode="sequence", merge="sum", null_policy="one")
        assert len(pows["read"]) == len(read_calls) == len(airplane.shares) * 3
        assert pows["binds"] == []
        pows["read"].clear()
        read_calls.clear()
        airplane_audit(airplane, airplane.shares, trials=3)
        airplane_audit(airplane, airplane.shares, "random-nonzero", trials=3)
        for key in (small.priv, small.pub, small.deployment):
            audit(key, small.shares, small.expected_family, trials=2,
                  rng=random.Random(0), mode="monotone")
        assert pows["read"] == [] and read_calls == []
        # the public key and the deployment each check small's one key, n pows
        assert len(pows["binds"]) == 2 * small.pub.n

    def test_binds_once_per_key(self, airplane, monkeypatch):
        # C's key (p, s + p - 1) binds as the airplane key does, but is another
        # pair: a private key binds only that one, a deployment both, once per call
        calls = []
        monkeypatch.setattr(protocol, "binds", lambda *a: calls.append(a[1:]) or binds(*a))
        priv = airplane.priv
        other = NsPrivateKey(priv.n, priv.p, priv.s + priv.p - 1, priv.primes)
        shares = {**airplane.shares, "C": issue_sequence(airplane.plan, other)["C"]}
        for key, keys in ((priv, [(other.p, other.s)]),
                          (airplane.deployment, [(priv.p, priv.s), (other.p, other.s)])):
            calls.clear()
            report = airplane_audit(airplane, shares, trials=4, key=key)
            assert calls == keys
            reference = per_holder_audit(priv, shares, airplane.expected_family, 4,
                                         random.Random(0), mode="sequence", merge="sum",
                                         null_policy="one")
            assert report.accepted_by_trial == reference.accepted_by_trial

    def test_one_read_per_key(self, airplane, second_key_shares, monkeypatch, read_calls):
        # the shares under one second key: its deployment checks that key once
        # a call, whatever the trials, its private key not at all, and no
        # trial reads a residue
        key, shares = second_key_shares
        calls = []
        monkeypatch.setattr(protocol, "binds", lambda *a: calls.append(a[1:]) or binds(*a))
        deployment = protocol.Deployment(key.n, key.p, public_key_of(key).v, "sequence", "sum",
                                         len(airplane.plan.slots))
        for audit_key, keys in ((key, []), (deployment, [(key.p, key.s)])):
            for null_policy in protocol.NULL_POLICIES:
                calls.clear()
                airplane_audit(airplane, shares, null_policy, trials=3, key=audit_key)
                assert calls == keys
        assert read_calls == []

    @pytest.mark.parametrize("same_p", [True, False], ids=["same p", "other p"])
    def test_sequence_under_two_keys(self, airplane, same_p, monkeypatch):
        # the airplane shares with C's under a second key: refused by the
        # set-up, before a message is drawn
        monkeypatch.setattr(protocol, "encrypt", None)
        shares = mixed_shares(airplane, same_p)
        for key in (airplane.priv, airplane.deployment):
            for null_policy in protocol.NULL_POLICIES:
                with mixed_refusal("C"):
                    airplane_audit(airplane, shares, null_policy, key=key)

    def test_per_holder_reference_pays_per_holder(self, airplane, pow_calls):
        per_holder_audit(airplane.priv, airplane.shares, airplane.expected_family, 1,
                         random.Random(0), mode="sequence", merge="sum", null_policy="one")
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

    def test_key_shares_read_once_each(self, small, pow_calls, read_calls):
        # a key share's token reads once, over its own primes
        mono, _ = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        for share in small.shares.values():
            token_respond(share, mono)
        assert len(pow_calls) == len(small.shares)
        assert read_calls == [share.reading[0] for share in small.shares.values()]

    def test_token_respond_reads_once(self, airplane, read_calls):
        challenge, _ = airplane_challenge(airplane)
        for share in airplane.shares.values():
            token_respond(share, challenge)
        assert read_calls == [share.reading[0] for share in airplane.shares.values()]
        blank = dataclasses.replace(
            airplane.shares["A"], slots=(None,) * len(airplane.plan.slots))
        token_respond(blank, challenge, "random-nonzero", random.Random(1))
        assert len(read_calls) == len(airplane.shares)

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    def test_responses_are_token_responses(
            self, airplane, second_key_shares, monkeypatch, null_policy):
        # the lane-packed columns `audit` folds, unpacked per holder and slot
        # and read back against a challenge of the trial's message, which the
        # trial does not encrypt: the test does
        key, shares = second_key_shares
        slot_count = len(airplane.plan.slots)
        seen, messages = [], []
        matches, message = protocol.subset_matches, protocol._message

        def spy(columns, combine, m, **lanes):
            seen.append((columns, m, lanes))
            return matches(columns, combine, m, **lanes)

        monkeypatch.setattr(protocol, "_message", lambda *a: messages.append(message(*a))
                            or messages[-1])
        monkeypatch.setattr(protocol, "subset_matches", spy)
        airplane_audit(airplane, shares, null_policy, trials=4, key=key)
        assert [m for _, m, _ in seen] == messages and len(messages) == 4
        for columns, m, lanes in seen:
            challenge = Challenge("x", "sequence", "sum", slot_count,
                                  (protocol.encrypt(public_key_of(key), m),))
            width, per_int = lanes["width"], lanes["lanes"]
            assert len(columns) == -(-slot_count // per_int)
            assert all(len(column) == len(ABCDE) for column in columns)
            # holder j's answer in slot g·per_int + k is lane k of columns[g][j]
            answers = [[(column[j] >> k * width) & ((1 << width) - 1)
                        for column in columns for k in range(per_int)]
                       for j in range(len(ABCDE))]
            for j, answer in enumerate(answers):  # nothing past the last slot's lane
                assert not any(answer[slot_count:])
                assert all(column[j] >> per_int * width == 0 for column in columns)
            for h, answer in zip(ABCDE, answers):
                share = shares[h]
                own = token_respond(share, challenge, "one").values
                # random nulls aside, each slot answers what the token would
                for slot, got, want in zip(share.slots, answer[:slot_count], own, strict=True):
                    if slot is None and null_policy != "one":
                        assert 2 <= got < 1 << share.n, h
                    else:
                        assert got == want, h

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    def test_accepts_as_per_holder_residues(self, airplane, second_key_shares, null_policy):
        for key, shares in ((airplane.priv, airplane.shares), second_key_shares):
            for seed in range(5):
                report = airplane_audit(airplane, shares, null_policy, seed, trials=20, key=key)
                reference = per_holder_audit(
                    key, shares, airplane.expected_family, 20,
                    random.Random(seed), mode="sequence", merge="sum", null_policy=null_policy)
                assert report.accepted_by_trial == reference.accepted_by_trial, seed

    @pytest.mark.parametrize("null_policy", protocol.NULL_POLICIES)
    @pytest.mark.parametrize("mode, merge", [("monotone", "or"), ("sequence", "sum"),
                                             ("sequence", "xor")])
    def test_trials_encrypt_nothing(self, airplane, small, monkeypatch, mode, merge,
                                    null_policy):
        # a trial reads m itself: with no `encrypt` to call, whole audits under
        # a private and a public key still accept as the tokens, each answering
        # an encrypted challenge, do
        system = small if mode == "monotone" else airplane
        reference = per_holder_audit(system.priv, system.shares, system.expected_family, 6,
                                     random.Random(7), mode=mode, merge=merge,
                                     null_policy=null_policy)
        monkeypatch.setattr(protocol, "encrypt", None)
        for key in (system.priv, system.pub):
            report = audit(key, system.shares, system.expected_family, trials=6,
                           rng=random.Random(7), mode=mode, merge=merge,
                           null_policy=null_policy)
            assert report.accepted_by_trial == reference.accepted_by_trial

    def test_monotone_accepts_as_per_holder_residues(self, small):
        for seed in range(5):
            report = audit(small.priv, small.shares, small.expected_family, trials=20,
                           rng=random.Random(seed), mode="monotone")
            reference = per_holder_audit(
                small.priv, small.shares, small.expected_family, 20, random.Random(seed),
                mode="monotone", merge="or", null_policy="one")
            assert report.accepted_by_trial == reference.accepted_by_trial, seed

    @settings(max_examples=40, deadline=None)
    @given(case=bound_audits())
    def test_random_families_accept_as_per_holder_residues(self, case):
        priv, shares, family, merge, null_policy, seed = case
        report = audit(priv, shares, family, trials=2, rng=random.Random(seed),
                       mode="sequence", merge=merge, null_policy=null_policy)
        reference = per_holder_audit(priv, shares, family, 2, random.Random(seed),
                                     mode="sequence", merge=merge, null_policy=null_policy)
        assert report.accepted_by_trial == reference.accepted_by_trial

    @pytest.mark.parametrize("same_p", [True, False], ids=["same p", "other p"])
    def test_monotone_under_two_keys(self, small, same_p, monkeypatch):
        # A2's key share under a second key: refused as in sequence mode
        monkeypatch.setattr(protocol, "encrypt", None)
        shares = mixed_small_shares(small, same_p)
        for key in (small.priv, small.deployment):
            with mixed_refusal("A2"):
                audit(key, shares, small.expected_family, trials=3,
                      rng=random.Random(0), mode="monotone")

    @pytest.mark.parametrize(
        "p", [fixtures.AIRPLANE_CIPHERTEXT, fixtures.AIRPLANE_CIPHERTEXT // 2])
    def test_modulus_below_ciphertext_refused(self, airplane, p):
        shares = dict(airplane.shares)
        shares["C"] = dataclasses.replace(shares["C"], p=p)
        challenge, _ = airplane_challenge(airplane)
        with pytest.raises(ValueError, match="^ciphertext out of range$"):
            token_respond(shares["C"], challenge)
        with mixed_refusal("C"):
            airplane_audit(airplane, shares, force_m=fixtures.AIRPLANE_MESSAGE)

    def test_seeded_random_null_audit_pinned(self, airplane):
        report = airplane_audit(airplane, airplane.shares, "random-nonzero", seed=5, trials=20)
        assert report.trials == 20
        for t, accepted in enumerate(report.accepted_by_trial):
            assert accepted >= airplane.expected_family, t
            extra = sorted("".join(sorted(g)) for g in accepted - airplane.expected_family)
            assert extra == RANDOM_NULL_FALSE_ACCEPTS_SEED_5.get(t, []), t


# `audit` results pinned by SHA-256 together with the state each audit leaves
# its rng in: the audit may get faster, never accept other subsets or draw
# other numbers. Taken before the per-key residue read went in; the audits of
# shares under two keys, which the audit now refuses, were dropped from it
# with the digest of the rest unchanged.

def test_audit_digest_pinned(airplane, small):
    digest = hashlib.sha256()

    def pin(report, rng):
        accepted = [sorted(sorted(g) for g in trial) for trial in report.accepted_by_trial]
        digest.update(repr((accepted, rng.getrandbits(64))).encode())

    rng = random.Random(18)
    keys = {n: keygen(n, seed=n)[1] for n in (8, 12, 16)}
    cases = 0
    while cases < 80:
        universe = tuple("ABCDEF")[: rng.randint(1, 6)]
        family = random_family(rng, universe, rng.choice([0.2, 0.5, 0.8]))
        if not family:
            continue
        cases += 1
        priv = keys[rng.choice((8, 12, 16))]
        for planner in (slots_packed, slots_baseline):
            shares = issue_sequence(planner(family, priv.n, universe), priv)
            for merge in ("sum", "xor"):
                for null_policy in protocol.NULL_POLICIES:
                    trial_rng = random.Random(rng.getrandbits(32))
                    pin(audit(priv, shares, family, trials=3, rng=trial_rng,
                              mode="sequence", merge=merge, null_policy=null_policy),
                        trial_rng)
    for m in range(1, 1 << small.pub.n):
        trial_rng = random.Random(m)
        pin(audit(small.priv, small.shares, small.expected_family, rng=trial_rng,
                  mode="monotone", force_m=m), trial_rng)
    for null_policy in protocol.NULL_POLICIES:
        trial_rng = random.Random(3)
        pin(audit(small.priv, small.shares, small.expected_family, trials=20,
                  rng=trial_rng, mode="monotone", null_policy=null_policy), trial_rng)
    assert digest.hexdigest() == (
        "1326c7aee19b470eb41bd6f82c5a2f76617f5043330ae21a87140f4d6718225f")


# the share layouts of the `audit5` and `audit10` benchmark workloads under
# keygen(16, seed=1): (policy, universe, size cap), then per null policy the
# lane width, lane count and int count, and the SHA-256 of `_lane_rows`' whole
# result, pinned so that the fold's layout cannot move
LANE_LAYOUTS = {
    "audit5": (fixtures.AIRPLANE_POLICY, tuple("ABCDE"), 3, {
        "one": (18, 5, 1, "2658831813f7ff14daf8163ce17d49b63de1110129f6d5d52a9f4b426bdf6da5"),
        "random-nonzero": (
            18, 5, 1, "5af8bdf84533cf8e5df6b2bb384743517ead5eedf053e6436209447ed4b30863"),
    }),
    "audit10": (TEN_POLICY, TEN, 4, {
        "one": (19, 1, 26, "d27bec8167f28aceb8c06f76db22d4114b857f61d928c37c39513d533388ed7b"),
        "random-nonzero": (
            20, 1, 26, "5ba9a0a832cbf55bd6f2ee50dc0672b9dc877ff0bce2251dc9cd71420466ef48"),
    }),
}


@pytest.mark.parametrize("workload", sorted(LANE_LAYOUTS))
def test_lane_rows_pinned(workload):
    text, universe, cap, pinned = LANE_LAYOUTS[workload]
    priv = keygen(16, seed=1)[1]
    family = authorized_family(parse(text, universe), universe, cap)
    shares = issue_sequence(slots_packed(family, 16, universe), priv)
    masks = tuple(shares[h].reading[1] for h in universe)
    for null_policy, (width, lanes, ints, sha) in pinned.items():
        null_widths = None if null_policy == "one" else (16,) * len(universe)
        rows = protocol._lane_rows(masks, 16, null_widths)
        assert (rows[0], rows[1], len(rows[3])) == (width, lanes, ints), null_policy
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha, null_policy


class TestRefusals:
    """Each refusal of a share, with one message through `token_respond` and `audit`."""

    def refused(self, message, respond, run_audit):
        for call in (respond, run_audit):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_key_share_under_sequence(self, airplane, small):
        challenge, _ = airplane_challenge(airplane)
        self.refused(
            "a single key share answers monotone challenges",
            lambda: token_respond(small.shares["A1"], challenge),
            lambda: audit(small.priv, small.shares, small.expected_family,
                          mode="sequence", force_m=small.message))

    def test_sequence_under_monotone(self, airplane, small):
        # a one-slot sequence, so the monotone session's shape is valid
        share = airplane.shares["A"]
        single = {"A": dataclasses.replace(share, slots=share.slots[:1])}
        mono, _ = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        self.refused(
            "a share sequence answers sequence challenges",
            lambda: token_respond(share, mono),
            lambda: audit(airplane.priv, single, frozenset(), mode="monotone",
                          force_m=fixtures.AIRPLANE_MESSAGE))

    def test_slot_count_mismatch(self, airplane):
        challenge, _ = make_challenge(
            airplane.pub, mode="sequence", merge="sum", slot_count=3, rng=random.Random(0))
        shares = dict(airplane.shares)
        shares["C"] = dataclasses.replace(shares["C"], slots=shares["C"].slots[:3])
        self.refused(
            "share sequence length does not match the challenge",
            lambda: token_respond(airplane.shares["A"], challenge),
            lambda: airplane_audit(airplane, shares, force_m=fixtures.AIRPLANE_MESSAGE))

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_unknown_null_policy(self, airplane, small, mode):
        if mode == "monotone":
            system = small
            challenge, _ = make_challenge(small.pub, rng=random.Random(0))
        else:
            system = airplane
            challenge, _ = airplane_challenge(airplane)
        share = next(iter(system.shares.values()))
        self.refused(
            "unknown null policy 'bogus'",
            lambda: token_respond(share, challenge, "bogus"),
            lambda: audit(system.priv, system.shares, system.expected_family, mode=mode,
                          null_policy="bogus"))

    def test_key_share_ciphertext_out_of_range(self, small):
        # a token refuses the ciphertext; an audit refuses the share's key first
        mono, _ = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        shares = dict(small.shares)
        shares["A2"] = dataclasses.replace(shares["A2"], p=mono.ciphertexts[0])
        with pytest.raises(ValueError, match="^ciphertext out of range$"):
            token_respond(shares["A2"], mono)
        with mixed_refusal("A2"):
            audit(small.priv, shares, small.expected_family, mode="monotone",
                  force_m=small.message)


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


@functools.cache
def layout(n, k):
    """A k-part slot's index runs over n primes, as `issue_sequence` lays them out."""
    return _balanced_parts(range(n), k)


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
                total += sum(1 << i for i in layout(plan.n, slot.k)[part] if (m >> i) & 1)
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
            for slot in plan.slots for part in layout(plan.n, slot.k)
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

    @pytest.mark.parametrize("build, slots, classes, total, worst, worst_count", [
        (slots_baseline, 16, [{"A"}, {"B"}, {"C"}, {"D"}, {"E"}], 2359, ["CD", "CE"], 332),
        (slots_packed, 5, [{"A", "B"}, {"C", "E"}, {"D"}], 3922, ["ABDE"], 510),
    ], ids=["baseline", "packed"])
    def test_pack_trade_off(self, build, slots, classes, total, worst, worst_count):
        # the README's and `--pack`'s figures: cap 3, n = 12, every message,
        # null 1, sum merge; each answer is m & mask, so no key changes them
        family = authorized_family(parse(fixtures.AIRPLANE_POLICY, ABCDE), ABCDE, 3)
        _, priv = keygen(12, seed=5)
        plan = build(family, 12, ABCDE)
        shares = issue_sequence(plan, priv)
        patterns = {}
        for h in ABCDE:
            patterns.setdefault(tuple(s is None for s in shares[h].slots), set()).add(h)
        assert len(plan.slots) == slots and sorted(patterns.values(), key=min) == classes
        hits = collections.Counter()
        for m in range(1, 1 << 12):
            hits.update(audit(priv, shares, family, mode="sequence", merge="sum",
                              force_m=m).false_accepts())
        top = max(hits.values())
        assert sum(hits.values()) == total and top == worst_count
        assert sorted("".join(sorted(g)) for g, c in hits.items() if c == top) == worst

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

    def test_random_nulls_leave_equal_shares(self, airplane):
        # C, D and E hold one part in slots 1 and 2 of the hand plan, and
        # neither slot has a null: their three equal answers XOR to one
        report = audit(airplane.priv, airplane.shares, airplane.expected_family, trials=20,
                       rng=random.Random(1), mode="sequence", merge="xor",
                       null_policy="random-nonzero")
        frequencies = report.frequencies()
        assert [frequencies[frozenset(g)] for g in ("ACDE", "BCDE", "ABCDE")] == [1.0] * 3


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
