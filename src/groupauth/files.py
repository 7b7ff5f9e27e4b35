"""JSON file schemas for keys, shares, and protocol messages.

Every file is UTF-8 JSON with a "kind" field naming its schema, and every
big integer is a decimal string so files survive any JSON parser without
64-bit truncation. Serialization is key-sorted and newline-terminated, so
identical inputs produce byte-identical files.

Kinds: ns-public, ns-private, share-monotone, share-sequence, challenge,
verifier-state, response, verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import SchemaError
from .nscrypt import KeyShare, NsPrivateKey, NsPublicKey
from .protocol import Challenge, ResponseVector, Verdict, VerifierState
from .sharesplit import ShareSequence

__all__ = [
    "dumps",
    "save",
    "load",
    "to_document",
    "from_document",
]


def _int_str(value: int) -> str:
    return str(int(value))


def _is_decimal(raw) -> bool:
    """True for a non-empty string of ASCII digits 0-9 only."""
    return isinstance(raw, str) and raw.isascii() and raw.isdigit()


def _parse_int(doc: dict, field: str) -> int:
    raw = doc.get(field)
    if not _is_decimal(raw):
        raise SchemaError(f"field {field!r} must be a decimal string", field=field)
    return int(raw)


def _parse_int_list(doc: dict, field: str) -> list[int]:
    raw = doc.get(field)
    if not isinstance(raw, list) or not all(_is_decimal(x) for x in raw):
        raise SchemaError(f"field {field!r} must be a list of decimal strings", field=field)
    return [int(x) for x in raw]


def _require(doc: dict, field: str, kind: type) -> Any:
    value = doc.get(field)
    if type(value) is not kind:  # exact, so a JSON true is no int
        raise SchemaError(f"field {field!r} must be {kind.__name__}", field=field)
    return value


def to_document(obj) -> dict:
    """Convert a library object to its JSON-ready document."""
    if isinstance(obj, NsPublicKey):
        return {
            "kind": "ns-public",
            "n": obj.n,
            "p": _int_str(obj.p),
            "v": [_int_str(x) for x in obj.v],
        }
    if isinstance(obj, NsPrivateKey):
        return {
            "kind": "ns-private",
            "n": obj.n,
            "p": _int_str(obj.p),
            "s": _int_str(obj.s),
            "primes": [_int_str(x) for x in obj.primes],
        }
    if isinstance(obj, KeyShare):
        return {
            "kind": "share-monotone",
            "holder": obj.holder,
            "p": _int_str(obj.p),
            "s": _int_str(obj.s),
            "primes": [_int_str(x) for x in sorted(obj.prime_subset)],
        }
    if isinstance(obj, ShareSequence):
        return {
            "kind": "share-sequence",
            "holder": obj.holder,
            "n": obj.n,
            "p": _int_str(obj.p),
            "s": _int_str(obj.s),
            "slots": [
                None if entry is None else [_int_str(x) for x in sorted(entry)]
                for entry in obj.slots
            ],
        }
    if isinstance(obj, Challenge):
        return {
            "kind": "challenge",
            "session_id": obj.session_id,
            "mode": obj.mode,
            "merge": obj.merge,
            "slot_count": obj.slot_count,
            "ciphertexts": [_int_str(x) for x in obj.ciphertexts],
        }
    if isinstance(obj, VerifierState):
        return {
            "kind": "verifier-state",
            "session_id": obj.session_id,
            "mode": obj.mode,
            "merge": obj.merge,
            "slot_count": obj.slot_count,
            "plaintexts": [_int_str(x) for x in obj.plaintexts],
        }
    if isinstance(obj, ResponseVector):
        return {
            "kind": "response",
            "session_id": obj.session_id,
            "values": [_int_str(x) for x in obj.values],
        }
    if isinstance(obj, Verdict):
        return {
            "kind": "verdict",
            "session_id": obj.session_id,
            "accepted": obj.accepted,
            "matching_slot": obj.matching_slot,
        }
    raise TypeError(f"no schema for {type(obj).__name__}")


def from_document(doc: dict):
    """Convert a parsed JSON document back to its library object."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", field="kind")
    kind = doc.get("kind")
    if kind == "ns-public":
        return NsPublicKey(
            n=_require(doc, "n", int),
            p=_parse_int(doc, "p"),
            v=tuple(_parse_int_list(doc, "v")),
        )
    if kind == "ns-private":
        return NsPrivateKey(
            n=_require(doc, "n", int),
            p=_parse_int(doc, "p"),
            s=_parse_int(doc, "s"),
            primes=tuple(_parse_int_list(doc, "primes")),
        )
    if kind == "share-monotone":
        return KeyShare(
            holder=_require(doc, "holder", str),
            p=_parse_int(doc, "p"),
            s=_parse_int(doc, "s"),
            prime_subset=frozenset(_parse_int_list(doc, "primes")),
        )
    if kind == "share-sequence":
        raw = doc.get("slots")
        if not isinstance(raw, list):
            raise SchemaError("field 'slots' must be a list", field="slots")
        slots: list[frozenset[int] | None] = []
        for entry in raw:
            if entry is None:
                slots.append(None)
            elif isinstance(entry, list) and all(_is_decimal(x) for x in entry):
                slots.append(frozenset(int(x) for x in entry))
            else:
                raise SchemaError(
                    "field 'slots' entries must be null or decimal-string lists",
                    field="slots")
        return ShareSequence(
            holder=_require(doc, "holder", str),
            n=_require(doc, "n", int),
            p=_parse_int(doc, "p"),
            s=_parse_int(doc, "s"),
            slots=tuple(slots),
        )
    if kind == "challenge":
        return Challenge(
            session_id=_require(doc, "session_id", str),
            mode=_require(doc, "mode", str),
            merge=_require(doc, "merge", str),
            slot_count=_require(doc, "slot_count", int),
            ciphertexts=tuple(_parse_int_list(doc, "ciphertexts")),
        )
    if kind == "verifier-state":
        return VerifierState(
            session_id=_require(doc, "session_id", str),
            mode=_require(doc, "mode", str),
            merge=_require(doc, "merge", str),
            slot_count=_require(doc, "slot_count", int),
            plaintexts=tuple(_parse_int_list(doc, "plaintexts")),
        )
    if kind == "response":
        return ResponseVector(
            session_id=_require(doc, "session_id", str),
            values=tuple(_parse_int_list(doc, "values")),
        )
    if kind == "verdict":
        matching = doc.get("matching_slot")
        if matching is not None and type(matching) is not int:
            raise SchemaError("field 'matching_slot' must be an int or null",
                              field="matching_slot")
        return Verdict(
            session_id=_require(doc, "session_id", str),
            accepted=_require(doc, "accepted", bool),
            matching_slot=matching,
        )
    raise SchemaError(f"unknown file kind {kind!r}", field="kind")


def dumps(obj) -> str:
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def save(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path: str | Path, expect_kind: str | None = None):
    """Load and validate one document; optionally insist on its kind."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})", field="kind") from None
    if expect_kind is not None and isinstance(doc, dict) and doc.get("kind") != expect_kind:
        raise SchemaError(
            f"{path}: expected kind {expect_kind!r}, found {doc.get('kind')!r}",
            field="kind")
    try:
        return from_document(doc)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}", field=None) from None
