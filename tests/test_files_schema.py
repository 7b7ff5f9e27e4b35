"""File bytes and required fields of every kind in `groupauth.files`."""

import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupauth import files, protocol
from groupauth.errors import SchemaError
from groupauth.nscrypt import KeyShare, NsPrivateKey, NsPublicKey
from groupauth.numtheory import SMALL_PRIMES
from groupauth.protocol import Challenge, ResponseVector, Verdict, VerifierState
from groupauth.sharesplit import ShareSequence


def one_per_kind(small, airplane):
    """One object of each file kind, from the fixtures and a fixed seed."""
    challenge, state = protocol.make_challenge(small.pub, rng=random.Random(7))
    a1, a2 = (protocol.token_respond(small.shares[h], challenge) for h in ("A1", "A2"))
    verdict = protocol.verify(state, [protocol.merge_monotone([a1, a2])])
    return {
        "ns-public": small.pub,
        "ns-private": small.priv,
        "share-monotone": small.shares["A1"],
        "share-sequence": airplane.shares["C"],
        "challenge": challenge,
        "verifier-state": state,
        "response": a1,
        "verdict": verdict,
    }


GOLDEN = {
    "ns-public": """\
{
  "kind": "ns-public",
  "n": 8,
  "p": "9700247",
  "v": [
    "8567078",
    "5509479",
    "2006538",
    "4340987",
    "8643477",
    "6404090",
    "1424105",
    "7671241"
  ]
}
""",
    "ns-private": """\
{
  "kind": "ns-private",
  "n": 8,
  "p": "9700247",
  "primes": [
    "2",
    "3",
    "5",
    "7",
    "11",
    "13",
    "17",
    "19"
  ],
  "s": "5642069"
}
""",
    "share-monotone": """\
{
  "holder": "A1",
  "kind": "share-monotone",
  "p": "9700247",
  "primes": [
    "2",
    "3",
    "5",
    "7"
  ],
  "s": "5642069"
}
""",
    "share-sequence": """\
{
  "holder": "C",
  "kind": "share-sequence",
  "n": 12,
  "p": "7420738134871",
  "s": "5642069",
  "slots": [
    [
      "17",
      "19",
      "23",
      "29",
      "31",
      "37"
    ],
    [
      "23",
      "29",
      "31",
      "37"
    ],
    [
      "11",
      "13",
      "17",
      "19"
    ],
    [
      "11",
      "13",
      "17",
      "19"
    ],
    null,
    null,
    null
  ]
}
""",
    "challenge": """\
{
  "ciphertexts": [
    "4192779"
  ],
  "kind": "challenge",
  "merge": "or",
  "mode": "monotone",
  "session_id": "269e0d37f2a74de4",
  "slot_count": 1
}
""",
    "verifier-state": """\
{
  "kind": "verifier-state",
  "merge": "or",
  "mode": "monotone",
  "plaintexts": [
    "83"
  ],
  "session_id": "269e0d37f2a74de4",
  "slot_count": 1
}
""",
    "response": """\
{
  "kind": "response",
  "session_id": "269e0d37f2a74de4",
  "values": [
    "3"
  ]
}
""",
    "verdict": """\
{
  "accepted": true,
  "kind": "verdict",
  "matching_slot": 0,
  "session_id": "269e0d37f2a74de4"
}
""",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_dumps_bytes_pinned(small, airplane, kind):
    obj = one_per_kind(small, airplane)[kind]
    assert files.dumps(obj) == GOLDEN[kind]
    assert files.from_document(files.to_document(obj)) == obj


# verdict.matching_slot is nullable, so a verdict without it is valid.
REQUIRED = [
    (kind, field)
    for kind, text in sorted(GOLDEN.items())
    for field in sorted(json.loads(text))
    if field != "kind" and (kind, field) != ("verdict", "matching_slot")
]


@pytest.mark.parametrize("kind, field", REQUIRED)
def test_missing_field_named(small, airplane, kind, field):
    doc = files.to_document(one_per_kind(small, airplane)[kind])
    del doc[field]
    with pytest.raises(SchemaError) as err:
        files.from_document(doc)
    assert err.value.field == field


@pytest.mark.parametrize("doc", [
    {"kind": ["challenge"]}, {"kind": {"a": 1}}, {"kind": None}, {}, ["challenge"],
])
def test_kind_must_be_a_known_string(doc):
    with pytest.raises(SchemaError) as err:
        files.from_document(doc)
    assert err.value.field == "kind"


# Names and session ids with every code point, lone surrogates included, and
# the characters JSON must escape.
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600')))
BIG = st.integers(0, 10**126 - 1)  # every file integer has at most 126 digits
N = st.integers(2, 64)
SESSIONS = st.one_of(
    st.tuples(st.just("monotone"), st.just("or"), st.just(1)),
    st.tuples(st.just("sequence"), st.sampled_from(["sum", "xor"]), st.integers(1, 10**126 - 1)),
)


def prime_sets(n, min_size=0):
    return st.frozensets(st.sampled_from(SMALL_PRIMES[:n]), min_size=min_size)


@st.composite
def public_keys(draw):
    n = draw(N)
    p = draw(st.integers(math.prod(SMALL_PRIMES[:n]) + 1, 10**126 - 1))
    return NsPublicKey(n=n, p=p, v=tuple(draw(st.lists(st.integers(1, p - 1),
                                                        min_size=n, max_size=n))))


@st.composite
def private_keys(draw):
    n = draw(N)
    p = draw(st.integers(math.prod(SMALL_PRIMES[:n]) + 1, 10**126 - 1))
    s = draw(st.integers(1, 10**126 - 1).filter(lambda s: math.gcd(s, p - 1) == 1))
    return NsPrivateKey(n=n, p=p, s=s, primes=SMALL_PRIMES[:n])


@st.composite
def share_sequences(draw):
    n = draw(N)
    slots = draw(st.lists(st.one_of(st.none(), prime_sets(n)), max_size=8))
    return ShareSequence(holder=draw(TEXT), s=draw(BIG), p=draw(BIG), n=n, slots=tuple(slots))


@st.composite
def sessions(draw, cls, values):
    mode, merge, slot_count = draw(SESSIONS)
    return cls(draw(TEXT), mode, merge, slot_count, (draw(values),))


OBJECTS = {
    "ns-public": public_keys(),
    "ns-private": private_keys(),
    "share-monotone": st.builds(KeyShare, holder=TEXT, s=BIG, p=BIG,
                                prime_subset=prime_sets(64, min_size=1)),
    "share-sequence": share_sequences(),
    "challenge": sessions(Challenge, BIG),
    "verifier-state": sessions(VerifierState, st.integers(1, 10**126 - 1)),
    "response": st.builds(ResponseVector, session_id=TEXT,
                          values=st.lists(BIG, min_size=1, max_size=8).map(tuple)),
    "verdict": st.one_of(
        st.builds(Verdict, session_id=TEXT, accepted=st.just(False), matching_slot=st.none()),
        st.builds(Verdict, session_id=TEXT, accepted=st.just(True),
                  matching_slot=st.one_of(st.just(0), st.integers(0, 10**126 - 1)))),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dumps_matches_stdlib_encoder(kind, data):
    # json.dumps is the oracle only: files.dumps must write its exact bytes
    obj = data.draw(OBJECTS[kind])
    assert files.to_document(obj)["kind"] == kind
    assert files.dumps(obj) == json.dumps(files.to_document(obj), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind", ["challenge", "verifier-state", "response", "verdict"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_message_roundtrip(kind, data):
    # JSON reads the escapes of a high and a low surrogate as one code point,
    # so text with such a pair cannot come back unchanged from any encoder;
    # the property is that files loses nothing beyond JSON's own string round trip
    obj = data.draw(OBJECTS[kind])
    assume(json.loads(json.dumps(obj.session_id)) == obj.session_id)
    assert files.from_document(json.loads(files.dumps(obj))) == obj


def test_subclass_keeps_its_kind():
    class Tagged(ResponseVector):
        pass

    obj = Tagged(session_id="s1", values=(5, 1))
    assert files.to_document(obj)["kind"] == "response"
    assert files.dumps(obj) == files.dumps(ResponseVector(session_id="s1", values=(5, 1)))
    assert files.from_document(json.loads(files.dumps(obj))) == ResponseVector("s1", (5, 1))
