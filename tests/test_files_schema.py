"""File bytes and required fields of every kind in `groupauth.files`."""

import json
import random

import pytest

from groupauth import files, protocol
from groupauth.errors import SchemaError


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
