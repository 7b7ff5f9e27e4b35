"""JSON file schemas for keys, shares, and protocol messages.

Every file is UTF-8 JSON with a "kind" field naming its schema, and every
big integer is a decimal string so files survive any JSON parser without
64-bit truncation. Serialization is key-sorted and newline-terminated, so
identical inputs produce byte-identical files.

`_SCHEMAS` is the one definition of each kind: its class, and its fields in
the order they are checked, each with a JSON name, an attribute and a codec.
`to_document` and `from_document` both read it, so a kind is written and
parsed the same way by construction. Kinds: ns-public, ns-private,
share-monotone, share-sequence, challenge, verifier-state, response, verdict.

`dumps` writes exactly the bytes of `json.dumps(doc, sort_keys=True,
indent=2)` plus a newline, but does not call it or build `doc`: with
`indent` set, CPython skips its C encoder and runs the pure-Python one.
Instead each kind has a line table, built once at import from `_SCHEMAS`:
one row per line of the file in sorted key order, holding the line's
pre-escaped `  "name": ` prefix, the attribute and its codec's `write`. The
"kind" line is constant text. `_write` renders each value, with strings
escaped by `json.encoder.encode_basestring_ascii`, the C function the stdlib
encoder uses.

`dumps` and `to_document` find an object's kind through one dispatch,
`_schema_of`: a dict keyed by class, looked up along the object's MRO, so a
subclass of a schema class is written as that kind.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import numtheory
from .errors import SchemaError
from .nscrypt import MAX_MODULUS, KeyShare, NsPrivateKey, NsPublicKey
from .protocol import Challenge, ResponseVector, Verdict, VerifierState
from .sharesplit import ShareSequence

__all__ = [
    "dumps",
    "save",
    "load",
    "to_document",
    "from_document",
]


# Every integer a file holds is below nscrypt.MAX_MODULUS, so no field needs
# more digits; a longer one could only force a huge `pow` on whoever loads it.
_MAX_DIGITS = len(str(MAX_MODULUS))


def _is_decimal(raw) -> bool:
    """True for a string of 1 to _MAX_DIGITS ASCII digits 0-9 only.

    The length is checked first, so `int()` never sees an over-long string.
    """
    return (isinstance(raw, str) and len(raw) <= _MAX_DIGITS
            and raw.isascii() and raw.isdigit())


def _decimals(raw) -> bool:
    """True for a list of decimal strings."""
    return isinstance(raw, list) and all(map(_is_decimal, raw))


# Codecs: one (write, read) pair per encoding. `write` maps an attribute to
# its JSON value; `read(raw, field)` maps the JSON value back, or raises
# SchemaError naming `field`. A missing field reads as None.

def _exact(kind: type):
    def read(raw, field):
        if type(raw) is not kind:  # exact, so a JSON true is no int
            raise SchemaError(f"field {field!r} must be {kind.__name__}", field=field)
        return raw
    return (lambda value: value), read


def _read_int(raw, field):
    if not _is_decimal(raw):
        raise SchemaError(f"field {field!r} must be a decimal string of at most "
                          f"{_MAX_DIGITS} digits", field=field)
    return int(raw)


def _read_prime(raw, field):
    value = _read_int(raw, field)
    if not numtheory.is_probable_prime(value):
        raise SchemaError(f"field {field!r} must be a prime", field=field)
    return value


def _read_ints(raw, field):
    if not _decimals(raw):
        raise SchemaError(f"field {field!r} must be a list of decimal strings of at most "
                          f"{_MAX_DIGITS} digits", field=field)
    return tuple(map(int, raw))


def _write_primes(primes):
    return [str(int(q)) for q in sorted(primes)]


def _read_slots(raw, field):
    if not isinstance(raw, list):
        raise SchemaError(f"field {field!r} must be a list", field=field)
    if not all(entry is None or _decimals(entry) for entry in raw):
        raise SchemaError(f"field {field!r} entries must be null or lists of decimal "
                          f"strings of at most {_MAX_DIGITS} digits", field=field)
    return tuple(None if entry is None else frozenset(map(int, entry)) for entry in raw)


def _read_int_or_null(raw, field):
    if raw is not None and type(raw) is not int:
        raise SchemaError(f"field {field!r} must be an int or null", field=field)
    return raw


_INT, _STR, _BOOL = _exact(int), _exact(str), _exact(bool)
_BIG = (lambda value: str(int(value)), _read_int)
_PRIME = (_BIG[0], _read_prime)
_BIGS = (lambda values: [str(int(x)) for x in values], _read_ints)
_PRIMES = (_write_primes, lambda raw, field: frozenset(_read_ints(raw, field)))
_SLOTS = (lambda slots: [None if s is None else _write_primes(s) for s in slots], _read_slots)
_INT_OR_NULL = (lambda value: value, _read_int_or_null)

_SESSION = (("session_id", "session_id", _STR), ("mode", "mode", _STR),
            ("merge", "merge", _STR), ("slot_count", "slot_count", _INT))

_SCHEMAS = {
    "ns-public": (NsPublicKey, (
        ("n", "n", _INT), ("p", "p", _PRIME), ("v", "v", _BIGS))),
    "ns-private": (NsPrivateKey, (
        ("n", "n", _INT), ("p", "p", _PRIME), ("s", "s", _BIG), ("primes", "primes", _BIGS))),
    "share-monotone": (KeyShare, (
        ("holder", "holder", _STR), ("p", "p", _PRIME), ("s", "s", _BIG),
        ("primes", "prime_subset", _PRIMES))),
    "share-sequence": (ShareSequence, (
        ("slots", "slots", _SLOTS), ("holder", "holder", _STR), ("n", "n", _INT),
        ("p", "p", _PRIME), ("s", "s", _BIG))),
    "challenge": (Challenge, _SESSION + (("ciphertexts", "ciphertexts", _BIGS),)),
    "verifier-state": (VerifierState, _SESSION + (("plaintexts", "plaintexts", _BIGS),)),
    "response": (ResponseVector, (
        ("session_id", "session_id", _STR), ("values", "values", _BIGS))),
    "verdict": (Verdict, (
        ("matching_slot", "matching_slot", _INT_OR_NULL),
        ("session_id", "session_id", _STR), ("accepted", "accepted", _BOOL))),
}


def _line_table(kind: str, fields) -> tuple:
    """The rows `dumps` writes for one kind, in sorted key order.

    A row is (prefix, attr, write); the "kind" row is its whole constant
    line, with attr and write None.
    """
    rows = {name: (f"  {encode_basestring_ascii(name)}: ", attr, write)
            for name, attr, (write, _) in fields}
    rows["kind"] = (f'  "kind": {encode_basestring_ascii(kind)}', None, None)
    return tuple(rows[name] for name in sorted(rows))


# class -> (kind, fields, line table), for `_schema_of`
_BY_CLASS = {cls: (kind, fields, _line_table(kind, fields))
             for kind, (cls, fields) in _SCHEMAS.items()}


def _schema_of(obj) -> tuple:
    """(kind, fields, line table) of the first schema class in obj's MRO."""
    for cls in type(obj).__mro__:
        schema = _BY_CLASS.get(cls)
        if schema is not None:
            return schema
    raise TypeError(f"no schema for {type(obj).__name__}")


def to_document(obj) -> dict:
    """Convert a library object to its JSON-ready document."""
    kind, fields, _ = _schema_of(obj)
    doc = {"kind": kind}
    for name, attr, (write, _) in fields:
        doc[name] = write(getattr(obj, attr))
    return doc


def from_document(doc: dict):
    """Convert a parsed JSON document back to its library object."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", field="kind")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMAS:
        raise SchemaError(f"unknown file kind {kind!r}", field="kind")
    cls, fields = _SCHEMAS[kind]
    values = {}
    for name, attr, (_, read) in fields:
        values[attr] = read(doc.get(name), name)
    return cls(**values)


def _write(value, indent: str) -> str:
    """One document value as `json.dumps(..., indent=2)` writes it at `indent`.

    The checks run in the stdlib encoder's order, so bool is not taken as int.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        items = (",\n" + inner).join([_write(item, inner) for item in value])
        return "[\n" + inner + items + "\n" + indent + "]"
    raise TypeError(f"cannot write {type(value).__name__} to a file")


def dumps(obj) -> str:
    """The file text of `obj`: key-sorted, two-space indented JSON and a newline."""
    _, _, rows = _schema_of(obj)
    lines = [prefix if attr is None else prefix + _write(write(getattr(obj, attr)), "  ")
             for prefix, attr, write in rows]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def save(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path: str | Path, expect_kind: str | None = None):
    """Load and validate one document; optionally insist on its kind."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or a number past int_max_str_digits
            raise SchemaError(f"{path}: not valid JSON ({exc})", field="kind") from None
    if expect_kind is not None and isinstance(doc, dict) and doc.get("kind") != expect_kind:
        raise SchemaError(
            f"{path}: expected kind {expect_kind!r}, found {doc.get('kind')!r}",
            field="kind")
    try:
        return from_document(doc)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}", field=None) from None
