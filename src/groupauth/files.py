"""JSON file schemas for keys, shares, and protocol messages.

Every file is UTF-8 JSON with a "kind" field naming its schema, and every
big integer is a decimal string so files survive any JSON parser without
64-bit truncation. Serialization is key-sorted and newline-terminated, so
identical inputs produce byte-identical files. Text holding a surrogate code
point is refused both ways, since JSON cannot carry it unchanged.

`_SCHEMAS` is the one definition of each kind: its class, and its fields in
the order they are checked, each with a JSON name, an attribute and a codec.
`to_document` and `from_document` both read it, so a kind is written and
parsed the same way by construction. Kinds: deployment, ns-private,
share-monotone, share-sequence, challenge, verifier-state, response,
verdict. A public key is written only as part of a deployment: a bare
`NsPublicKey` has no kind of its own.

`dumps` writes exactly the bytes of `json.dumps(doc, sort_keys=True,
indent=2)` plus a newline, but does not call it or build `doc`: with
`indent` set, CPython skips its C encoder and runs the pure-Python one.
There is no generic writer either. Each codec writes its own JSON text:
decimal strings and their lists through "%d" format strings, text through
`json.encoder.encode_basestring_ascii` (the C function the stdlib encoder
uses), ints, bools and nulls as their literals. Each kind has a line table,
built once at import from `_SCHEMAS` by rendering one template of the kind's
file: key-sorted, with the "kind" line written out and a NUL where each
field's value goes. The text between the NULs gives one row per field in
sorted key order, holding the text before the value, the attribute and its
codec's `text`; what follows the last NUL is the tail. So a file is one pass
over its rows, and its bytes are those of the stdlib encoder.

`dumps` and `to_document` find an object's kind through one dispatch,
`_schema_of`: a dict keyed by class, looked up along the object's MRO, so a
subclass of a schema class is written as that kind.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import numtheory
from .errors import SchemaError
from .nscrypt import MAX_MODULUS, KeyShare, NsPrivateKey, ShareSequence
from .protocol import Challenge, Deployment, ResponseVector, Verdict, VerifierState

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


# Codecs: one (write, read, text) triple per encoding. `write` maps an
# attribute to its JSON value; `read(raw, field)` maps the JSON value back, or
# raises SchemaError naming `field`. A missing field reads as None. `text`
# maps the attribute straight to the JSON text `json.dumps(doc,
# sort_keys=True, indent=2)` writes for `write`'s value as a top-level field,
# nested lists indented from there.

def _exact(kind: type, text):
    def read(raw, field):
        if type(raw) is not kind:  # exact, so a JSON true is no int
            raise SchemaError(f"field {field!r} must be {kind.__name__}", field=field)
        return raw
    return (lambda value: value), read, text


def _read_int(raw, field):
    if not _is_decimal(raw):
        raise SchemaError(f"field {field!r} must be a decimal string of at most "
                          f"{_MAX_DIGITS} digits", field=field)
    return int(raw)


def _read_prime(raw, field):
    # a default key's p is a table prime and loads with no primality test
    value = _read_int(raw, field)
    if not numtheory.is_key_prime(value):
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


def _big_text(value) -> str:
    return '"%d"' % (value,)


def _decimals_text(indent: str):
    """The `text` of a list of decimal strings whose closing bracket sits at `indent`.

    "%d" writes what `str(int(x))` does, and one `%` over a format string
    joined from one "%d" per value writes the whole list with no Python loop.
    """
    head, sep, tail = f'[\n{indent}  "', f'",\n{indent}  "', f'"\n{indent}]'

    def text(values) -> str:
        if not values:
            return "[]"
        return f'{head}{sep.join(("%d",) * len(values)) % tuple(values)}{tail}'
    return text


_bigs_text, _inner_bigs_text = _decimals_text("  "), _decimals_text("    ")


def _slots_text(slots) -> str:
    if not slots:
        return "[]"
    return "[\n    " + ",\n    ".join(
        ["null" if s is None else _inner_bigs_text(sorted(s)) for s in slots]) + "\n  ]"


_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON reads a high and low pair back as one


def _checked_text(value: str) -> str:
    if not value.isascii() and _SURROGATE.search(value):
        raise ValueError(f"text {value!r} holds a surrogate code point")
    return value


def _read_text(raw, field):
    if type(raw) is str and (raw.isascii() or not _SURROGATE.search(raw)):
        return raw
    raise SchemaError(f"field {field!r} must be str without surrogate code points", field=field)


_INT = _exact(int, int.__repr__)
_STR = (_checked_text, _read_text,
        lambda value: encode_basestring_ascii(value if value.isascii() else _checked_text(value)))
_BOOL = _exact(bool, {True: "true", False: "false"}.__getitem__)
_BIG = (lambda value: str(int(value)), _read_int, _big_text)
_PRIME = (_BIG[0], _read_prime, _big_text)
_BIGS = (lambda values: [str(int(x)) for x in values], _read_ints, _bigs_text)
_PRIMES = (_write_primes, lambda raw, field: frozenset(_read_ints(raw, field)),
           lambda primes: _bigs_text(sorted(primes)))
_SLOTS = (lambda slots: [None if s is None else _write_primes(s) for s in slots],
          _read_slots, _slots_text)
_INT_OR_NULL = (lambda value: value, _read_int_or_null,
                lambda value: "null" if value is None else int.__repr__(value))

_PUBLIC = (("n", "n", _INT), ("p", "p", _PRIME), ("v", "v", _BIGS))
_SESSION = (("session_id", "session_id", _STR), ("mode", "mode", _STR),
            ("merge", "merge", _STR), ("slot_count", "slot_count", _INT))

_SCHEMAS = {
    "deployment": (Deployment, _PUBLIC + _SESSION[1:]),
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
    """The rows and the tail `dumps` writes for one kind, in sorted key order.

    A row is (prefix, attr, text): the text before a field's value, then the
    value's attribute and its codec's `text`. The kind's file is rendered
    once, key-sorted, with the "kind" line holding its value and a NUL where
    each field's value goes (an escaped name holds none). Split at the NULs,
    its pieces are the rows' prefixes in sorted field order, then the tail.
    """
    values = {name: (attr, text) for name, attr, (_, _, text) in fields}
    lines = dict.fromkeys(values, "\0") | {"kind": encode_basestring_ascii(kind)}
    template = ",\n".join(f"  {encode_basestring_ascii(name)}: {lines[name]}"
                           for name in sorted(lines))
    *prefixes, tail = f"{{\n{template}\n}}\n".split("\0")
    return tuple((prefix, *values[name]) for prefix, name in zip(prefixes, sorted(values))), tail


# class -> (kind, fields, (rows, tail)), for `_schema_of`
_BY_CLASS = {cls: (kind, fields, _line_table(kind, fields))
             for kind, (cls, fields) in _SCHEMAS.items()}


def _schema_of(obj) -> tuple:
    """(kind, fields, (rows, tail)) of the first schema class in obj's MRO."""
    for cls in type(obj).__mro__:
        schema = _BY_CLASS.get(cls)
        if schema is not None:
            return schema
    raise TypeError(f"no schema for {type(obj).__name__}")


def to_document(obj) -> dict:
    """Convert a library object to its JSON-ready document."""
    kind, fields, _ = _schema_of(obj)
    doc = {"kind": kind}
    for name, attr, (write, _, _) in fields:
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
    for name, attr, (_, read, _) in fields:
        values[attr] = read(doc.get(name), name)
    return cls(**values)


def dumps(obj) -> str:
    """The file text of `obj`: key-sorted, two-space indented JSON and a newline."""
    rows, tail = _schema_of(obj)[2]
    out = ""
    for prefix, attr, text in rows:  # a loop, not a comprehension: no frame per call
        out += prefix + text(getattr(obj, attr))
    return out + tail


def save(obj, path: str | Path) -> None:
    text = dumps(obj)  # before the open, so a refused object leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load(path: str | Path, expect_kind: str | None = None):
    """Load and validate one document; optionally insist on its kind."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, a number past
            # int_max_str_digits, or arrays or objects nested past the recursion limit
            raise SchemaError(f"{path}: not valid JSON ({exc})", field="kind") from None
    if expect_kind is not None and isinstance(doc, dict) and doc.get("kind") != expect_kind:
        raise SchemaError(
            f"{path}: expected kind {expect_kind!r}, found {doc.get('kind')!r}",
            field="kind")
    try:
        return from_document(doc)
    except (SchemaError, ValueError, TypeError) as exc:  # each named with its file
        raise SchemaError(f"{path}: {exc}", field=getattr(exc, "field", None)) from None
