"""File bytes and required fields of every kind in `groupauth.files`."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupauth import files, protocol
from groupauth.errors import SchemaError
from groupauth.nscrypt import KeyShare, NsPrivateKey, NsPublicKey, Share
from groupauth.numtheory import SMALL_PRIMES
from groupauth.protocol import Challenge, ResponseVector, Verdict, VerifierState
from groupauth.sharesplit import ShareSequence


def one_per_kind(small, airplane):
    """One object of each file kind, from the fixtures and a fixed seed."""
    challenge, state = protocol.make_challenge(small.pub, rng=random.Random(7))
    a1, a2 = (protocol.token_respond(small.shares[h], challenge) for h in ("A1", "A2"))
    verdict = protocol.verify(state, [protocol.merge_monotone([a1, a2])])
    return {
        "deployment": protocol.Deployment(small.pub.n, small.pub.p, small.pub.v,
                                          "monotone", "or", 1),
        "ns-private": small.priv,
        "share-monotone": small.shares["A1"],
        "share-sequence": airplane.shares["C"],
        "challenge": challenge,
        "verifier-state": state,
        "response": a1,
        "verdict": verdict,
    }


GOLDEN = {
    "deployment": """\
{
  "kind": "deployment",
  "merge": "or",
  "mode": "monotone",
  "n": 8,
  "p": "9700247",
  "slot_count": 1,
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


# Names and session ids with every code point but the surrogates, which files
# refuse (test_surrogate_text_refused_both_ways), and the characters JSON must
# escape.
TEXT = st.text(st.one_of(st.characters(exclude_categories=("Cs",)),
                         st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\U0001f600')))
SURROGATE_TEXT = st.tuples(TEXT, st.characters(categories=("Cs",)), TEXT).map("".join)
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
def deployments(draw):
    pub = draw(public_keys())
    return protocol.Deployment(pub.n, pub.p, pub.v, *draw(SESSIONS))


@st.composite
def private_keys(draw):
    n = draw(N)
    p = draw(st.integers(math.prod(SMALL_PRIMES[:n]) + 1, 10**126 - 1))
    s = draw(st.integers(1, 10**126 - 1).filter(lambda s: math.gcd(s, p - 1) == 1))
    return NsPrivateKey(n=n, p=p, s=s, primes=SMALL_PRIMES[:n])


@st.composite
def share_sequences(draw):
    n = draw(N)
    slots = draw(st.lists(st.one_of(st.none(), prime_sets(n, min_size=1)), max_size=8))
    return ShareSequence(holder=draw(TEXT), s=draw(BIG), p=draw(BIG), n=n, slots=tuple(slots))


@st.composite
def sessions(draw, cls, values):
    mode, merge, slot_count = draw(SESSIONS)
    return cls(draw(TEXT), mode, merge, slot_count, (draw(values),))


OBJECTS = {
    "deployment": deployments(),
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


EDGE_SHAPES = {
    "null-slots-only": ShareSequence(holder="A", s=5, p=7, n=12, slots=(None, None, None)),
    "one-slot": ShareSequence(holder="A", s=5, p=7, n=12, slots=(frozenset({37, 2, 11}),)),
    "no-slots": ShareSequence(holder="A", s=5, p=7, n=12, slots=()),
    "response-8": ResponseVector("s1", tuple(range(10**20, 10**20 + 8))),
    "rejected": Verdict("s1", False, None),
    "accepted": Verdict("s1", True, 3),
    "escaped-session-id": ResponseVector('a"b\\c\u2028d\U00010000e', (0,)),
    "escaped-challenge": Challenge('"\\\u2028\U0010ffff', "sequence", "xor", 7, (10**125,)),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_dumps_edge_shapes(shape):
    obj = EDGE_SHAPES[shape]
    assert files.dumps(obj) == json.dumps(files.to_document(obj), sort_keys=True, indent=2) + "\n"


def test_empty_prime_set_refused(airplane, tmp_path):
    # a held slot of no primes answered 0, not a null, so a holder whose file
    # wrote [] for null was no longer locked out of that slot
    with pytest.raises(ValueError, match="^slot 0 holds an empty prime set"):
        ShareSequence(holder="A", s=5, p=7, n=12, slots=(frozenset(), None, frozenset({3, 2})))
    doc = files.to_document(airplane.shares["C"])
    empty = doc["slots"].index(None)
    doc["slots"][empty] = []
    path = tmp_path / "share_C.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        files.load(path)
    assert str(err.value) == (f"{path}: slot {empty} holds an empty prime set: "
                              "a slot with no share is None, null in a file")


@pytest.mark.parametrize("kind", ["share-monotone", "share-sequence"])
@pytest.mark.parametrize("spelling", ["same", "leading zero"])
def test_repeated_prime_refused(small, airplane, tmp_path, kind, spelling):
    # ["2", "2", "3"] loaded as {2, 3}: a file `dumps` never writes read as one it does
    if kind == "share-monotone":
        doc, field = files.to_document(small.shares["A1"]), "primes"
        primes = doc["primes"]
    else:
        doc, field = files.to_document(airplane.shares["C"]), "slots"
        primes = next(slot for slot in doc["slots"] if slot)
    primes.append(primes[0] if spelling == "same" else "0" + primes[0])
    path = tmp_path / "share.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as err:
        files.load(path)
    assert str(err.value) == f"{path}: field {field!r} names a prime twice"
    assert err.value.field == field


@pytest.mark.parametrize("kind", ["challenge", "verifier-state", "response", "verdict"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_message_roundtrip(kind, data):
    obj = data.draw(OBJECTS[kind])
    assert files.from_document(json.loads(files.dumps(obj))) == obj


# the free-text field of each kind that has one
TEXT_FIELDS = {"share-monotone": "holder", "share-sequence": "holder",
               "challenge": "session_id", "verifier-state": "session_id",
               "response": "session_id", "verdict": "session_id"}


@pytest.mark.parametrize("kind", sorted(TEXT_FIELDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_surrogate_text_refused_both_ways(kind, data):
    # JSON reads the escapes of a high and a low surrogate as one code point,
    # so such text would not come back as written
    obj, field, text = data.draw(OBJECTS[kind]), TEXT_FIELDS[kind], data.draw(SURROGATE_TEXT)
    with pytest.raises(SchemaError) as err:
        files.from_document(dict(files.to_document(obj), **{field: text}))
    assert err.value.field == field
    bad = dataclasses.replace(obj, **{field: text})
    for write in (files.dumps, files.to_document):
        with pytest.raises(ValueError, match="surrogate code point"):
            write(bad)


def test_surrogate_pair_is_not_one_code_point(tmp_path):
    # a session id of a high and a low surrogate came back as the one code point U+10000
    path = tmp_path / "response.json"
    with pytest.raises(ValueError, match="surrogate code point"):
        files.save(ResponseVector(chr(0xD800) + chr(0xDC00), (5,)), path)
    assert not path.exists()
    files.save(ResponseVector("\U00010000", (5,)), path)
    assert '"\\ud800\\udc00"' in path.read_text()  # its escapes, as JSON writes them
    assert files.load(path) == ResponseVector("\U00010000", (5,))
    path.write_text(path.read_text().replace("\\udc00", ""))  # a lone high surrogate
    with pytest.raises(SchemaError, match="without surrogate code points") as err:
        files.load(path)
    assert err.value.field == "session_id" and str(path) in str(err.value)


def test_deployment_names_no_holder_and_no_policy(small, airplane):
    # the verifier's file: the public key and the session shape, nothing more
    doc = files.to_document(one_per_kind(small, airplane)["deployment"])
    assert sorted(doc) == sorted(["kind", "n", "p", "v", "mode", "merge", "slot_count"])


def test_subclass_keeps_its_kind():
    class Tagged(ResponseVector):
        pass

    obj = Tagged(session_id="s1", values=(5, 1))
    assert files.to_document(obj)["kind"] == "response"
    assert files.dumps(obj) == files.dumps(ResponseVector(session_id="s1", values=(5, 1)))
    assert files.from_document(json.loads(files.dumps(obj))) == ResponseVector("s1", (5, 1))


@pytest.mark.parametrize("kind", ["share-monotone", "share-sequence"])
def test_share_files_load_as_shares(tmp_path, small, airplane, kind):
    share = one_per_kind(small, airplane)[kind]
    files.save(share, tmp_path / "share.json")
    loaded = files.load(tmp_path / "share.json", expect_kind=kind)
    assert isinstance(loaded, Share) and loaded == share
    assert loaded.reading == share.reading
