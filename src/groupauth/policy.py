"""Boolean policy expressions over named key holders.

Concrete syntax::

    expr  := term ("or" term)*
    term  := factor ("and" factor)*
    factor:= "not" factor | NAME | "(" expr ")"

`&`, `|` and `!` are accepted as aliases for `and`, `or` and `not`.
NAME is [A-Za-z_][A-Za-z0-9_]* other than those three keywords, and any
Unicode space separates tokens. Precedence is not > and > or; `and`/`or`
chains are flattened into n-ary nodes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import compress
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import GroupAuthError

__all__ = [
    "Var",
    "And",
    "Or",
    "Not",
    "PolicyExpr",
    "PolicyError",
    "ParseError",
    "UnknownHolder",
    "MAX_UNIVERSE",
    "check_universe",
    "parse",
    "render",
    "evaluate",
    "variables",
    "truth_table",
    "subset_matches",
    "group_of",
    "authorized_family",
]

MAX_UNIVERSE = 20  # every subset consumer enumerates 2^|universe| subsets

# Open "(" and "not" levels the parser accepts, so that deeper text is a
# ParseError rather than a RecursionError. A level costs `parse` up to three
# frames of the recursion limit, and every tree reading one `_fold` frame plus,
# on Python 3.10-3.11, one comprehension frame (3.12 inlines comprehensions).
_MAX_DEPTH = 100

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a holder's share file is share_<name>.json, and file systems cap a file name
# at 255 bytes. A length check, not a bound in `_NAME_RE`: `_TOKEN_RE` reuses
# that pattern, and a bounded one would split a long policy word in two.
_MAX_NAME = 64


class PolicyError(GroupAuthError):
    pass


class ParseError(PolicyError):
    """Syntax error; `position` is the 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownHolder(PolicyError):
    """An identifier in the policy is not a declared holder name."""


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class And:
    children: tuple["PolicyExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PolicyError("and-node needs at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple["PolicyExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PolicyError("or-node needs at least 2 children")


@dataclass(frozen=True)
class Not:
    child: "PolicyExpr"


PolicyExpr = Var | And | Or | Not


def check_universe(universe: Sequence[str]) -> tuple[str, ...]:
    """Validate a holder universe: non-empty, distinct and bounded, of names
    that match NAME, are not keywords and have at most 64 characters."""
    return _checked_names(tuple(universe))


@lru_cache(maxsize=64)
def _checked_names(names: tuple[str, ...]) -> tuple[str, ...]:
    """`check_universe` of a name tuple, memoised: a refused tuple is not stored."""
    if not names:
        raise PolicyError("universe must not be empty")
    if len(names) > MAX_UNIVERSE:
        raise PolicyError(f"universe larger than {MAX_UNIVERSE} holders")
    if len(set(names)) != len(names):
        raise PolicyError("universe contains duplicate names")
    for name in names:
        # a keyword can never be named in a policy
        if not _NAME_RE.fullmatch(name) or name in _OPERATORS:
            raise PolicyError(f"invalid holder name: {name!r}")
        if len(name) > _MAX_NAME:
            raise PolicyError(
                f"holder name longer than {_MAX_NAME} characters: {name[:_MAX_NAME]!r}...")
    return names


# a name, an operator symbol, or any other visible character: a bad one
_TOKEN_RE = re.compile(rf"{_NAME_RE.pattern}|[()&|!]|(?P<bad>\S)")
# keywords, their aliases and parentheses -> the operator a token stands for
_OPERATORS = {"and": "and", "&": "and", "or": "or", "|": "or", "not": "not", "!": "not",
              "(": "(", ")": ")"}


def parse(text: str, universe: Sequence[str]) -> PolicyExpr:
    """Parse policy text over the given universe of holder names."""
    holders = frozenset(check_universe(universe))
    tokens = []  # (kind, value, position): kind is an operator, "name" or "end"
    for match in _TOKEN_RE.finditer(text):  # whitespace is what no token matches
        word, at = match.group(), match.start()
        if match.lastgroup == "bad":
            raise ParseError(f"unexpected character {word!r}", at)
        op = _OPERATORS.get(word)
        tokens.append((op, op, at) if op else ("name", word, at))
    tokens.append(("end", "", len(text)))
    index = depth = 0

    def chain(op: str, cls: type[And] | type[Or], operand) -> PolicyExpr:
        """operand (op operand)*, one n-ary `cls` node that absorbs `cls` operands."""
        nonlocal index
        nodes = [operand()]
        while tokens[index][0] == op:
            index += 1
            nodes.append(operand())
        if len(nodes) == 1:
            return nodes[0]
        # from a list: tuple() of a generator left about 0.2 MB in CPython's
        # tuple free lists after a few thousand parses
        return cls(tuple([c for node in nodes
                          for c in (node.children if isinstance(node, cls) else (node,))]))

    def factor() -> PolicyExpr:
        nonlocal index, depth
        kind, value, at = tokens[index]
        index += 1
        if kind == "name":
            if value not in holders:
                raise UnknownHolder(f"unknown holder {value!r} (at position {at})")
            return Var(value)
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        if kind not in ("not", "("):
            raise ParseError(f"unexpected {value!r}", at)
        if depth == _MAX_DEPTH:
            raise ParseError(f"policy nested deeper than {_MAX_DEPTH} levels", at)
        depth += 1
        if kind == "not":
            node = Not(factor())
        else:
            node = expr()
            kind, _, at = tokens[index]
            if kind != ")":
                raise ParseError("expected ')'", at)
            index += 1
        depth -= 1
        return node

    # the grammar's two chain rules, as partials: they add no Python frame, so
    # each "(" level costs three (factor and two chains) of the recursion limit
    term = partial(chain, "and", And, factor)
    expr = partial(chain, "or", Or, term)
    try:
        tree = expr()
    finally:
        del expr, factor  # the rules refer to each other: free them now, not at gc
    kind, value, at = tokens[index]
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", at)
    return tree


T = TypeVar("T")
_union = partial(reduce, operator.or_)  # `|` over a list: dicts keep first-mention order


def _fold(node: PolicyExpr, var: Callable[[str], T], and_: Callable[[list[T]], T],
          or_: Callable[[list[T]], T], not_: Callable[[T], T]) -> T:
    """The tree's value, bottom up: `var(name)` at a leaf, `and_` or `or_` of
    the list of the children's values, and `not_` of a Not's child value."""
    if isinstance(node, Var):
        return var(node.name)
    if isinstance(node, Not):
        return not_(_fold(node.child, var, and_, or_, not_))
    values = [_fold(c, var, and_, or_, not_) for c in node.children]
    return and_(values) if isinstance(node, And) else or_(values)


def render(expr: PolicyExpr) -> str:
    """Canonical text form with minimal parentheses; reparses to an equal AST.

    Folds to (text, precedence) pairs, 1 for or, 2 for and and 3 for the rest:
    a child that binds more loosely than its parent's operator is parenthesized.
    """

    def wrap(value: tuple[str, int], prec: int) -> str:
        return f"({value[0]})" if value[1] < prec else value[0]

    return _fold(expr, lambda name: (name, 3),
                 lambda values: (" and ".join(wrap(v, 2) for v in values), 2),
                 lambda values: (" or ".join(wrap(v, 1) for v in values), 1),
                 lambda value: ("not " + wrap(value, 3), 3))[0]


def evaluate(expr: PolicyExpr, present: Iterable[str]) -> bool:
    """Standard Boolean semantics; Var(x) is true iff x is present.

    The tree's `_fold` of membership, `all`, `any` and `not`."""
    return _fold(expr, frozenset(present).__contains__, all, any, operator.not_)


def variables(expr: PolicyExpr) -> tuple[str, ...]:
    """Holder names mentioned in the expression, in first-mention order."""
    return tuple(_fold(expr, lambda name: {name: None}, _union, _union, lambda names: names))


# ---------------------------------------------------------------------------
# the subset space: subset a of `order` is the bit mask whose bit j picks
# order[j]


def truth_table(expr: PolicyExpr, order: Sequence[str]) -> int:
    """The policy's value on every subset of `order`, as one bit mask.

    Bit a of the result is `evaluate(expr, group_of(a, order))`. It is the
    tree's `_fold` of masks under `&`, `|` and XOR with all ones, where a
    variable's is `_packed_fold` of its name's one-hot column under OR, one
    lane of width 1 and pitch 1. A name that is not in `order` is never
    present, so its variable reads false.
    """
    full = (1 << (1 << len(order))) - 1
    return _fold(expr, lambda name: _packed_fold([x == name for x in order], operator.or_, 1, 1, 1),
                 partial(reduce, operator.and_), _union, full.__xor__)


def _packed_fold(values: Sequence[int], combine: Callable[[int, int], int],
                 width: int, lanes: int, pitch: int) -> int:
    """Every subset's fold of `values`, subset a in field a of one int.

    Field a is the width·lanes bits from a·pitch up; bits a value leaves 0
    above its lanes stay 0 in every field, since a fold step acts on lanes
    alone. The fold doubles
    once per value: the subsets that hold position j are those without it,
    each combined with value j, so the packed int grows by one shifted
    `combine(acc, v * ones)` per value, where `ones` holds a 1 in every
    field so far; `_fold_layout` gives each position's `ones` and shift.
    `combine` must act on each field alone: OR and XOR do, and so does a
    sum when no field's total reaches 2^(width·lanes). A value that packs
    `lanes` values of `width` bits folds each lane alone under the same
    rule per lane.
    """
    acc = 0
    for v, (ones, shift) in zip(values, _fold_layout(len(values), width, lanes, pitch)[0]):
        acc |= combine(acc, v * ones) << shift
    return acc


@lru_cache(maxsize=8)
def _fold_layout(h: int, width: int, lanes: int, pitch: int
                 ) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The constants of folding h positions into fields of `lanes` lanes of `width` bits.

    Field a starts at bit a·pitch. Returns the
    per-position steps of `_packed_fold`, position j's (ones, shift) with a
    1 in each of the 2^j fields so far and shift = pitch·2^j, then over all
    2^h·lanes lanes `ones`, with a 1 in every lane, and `high`, the top bit
    of every lane; neither sets a bit between a field's last lane and the
    next field. They depend on h, the width, the lane count and the pitch
    alone, so they are built once, not per fold. Bounded, since an entry
    holds about three ints of pitch·2^h bits; an audit's widths cluster
    near n + log2(h).
    """
    steps = []
    ones, shift = 1, pitch
    for _ in range(h):
        steps.append((ones, shift))
        ones |= ones << shift
        shift <<= 1
    ones *= ((1 << width * lanes) - 1) // ((1 << width) - 1)  # a 1 in every lane
    return tuple(steps), ones, ones << (width - 1)


# the most bits one lane-packed int of 2^h fields may span when it holds more
# than one lane: each fold step multiplies a value, L lanes wide, by a ones
# pattern as wide as the fields so far, so past this an int with more lanes
# costs more than the separate folds it saves
_LANE_BITS = 4096


def _lane_count(width: int, slots: int, h: int) -> int:
    """The lanes L of each int when `slots` slots of `width` bits fold over h
    positions, by the layout rule `subset_matches` states."""
    # the most slots whose 2^h fields, whole hex digits each, fit `_LANE_BITS`
    fit = max(1, min(slots, (_LANE_BITS >> h) // 4 * 4 // width))
    return -(-slots // -(-slots // fit))  # evened out over as few ints as take them


# a hex digit -> 1 where it is odd, else 0: `subset_matches` reads its flags so
_ODD_DIGITS = bytes.maketrans(b"0123456789abcdef", b"\0\1" * 8)


def subset_matches(
    columns: Sequence[Sequence[int]],
    combine: Callable[[int, int], int],
    target: int,
    *,
    width: int,
    lanes: int,
) -> list[int]:
    """Every subset whose fold equals `target` in at least one lane, ascending.

    Each column holds one value per position, h positions in all, and a
    subset is a bit mask over them, folded by `_packed_fold`. A value packs
    `lanes` lanes of `width` bits, lane c at bit c·width, and each lane
    folds alone: so field a of a column's fold holds subset a's fold of
    lane c in lane index i = a·lanes + c. The caller fixes `width` so that
    no lane's fold reaches 2^width, a sum of h values of below 2^n needing
    (h·(2^n − 1)).bit_length() bits, and the target fits a lane. A lane
    that every value leaves 0 folds to 0 for every subset, so lanes > 1,
    where the last column may pad spare lanes, need a target of at least 1.

    The layout rule, which `_lane_count` and this fold share: the fields sit
    a pitch P = ⌈width·lanes/4⌉·4 bits apart, whole hex digits, and a
    caller with more slots than one int's lanes puts L = `_lane_count` of
    them in each int, the most whose 2^h fields span at most `_LANE_BITS`
    (4,096) bits, at least 1, then evened out over as few ints as that
    takes. Slot g·L + c then sits in lane c of column g.

    Per column the cost is a few big-int operations per position for the
    fold and four for the test, whatever 2^h is. Lane i of
    x = fold ^ target·ones is zero exactly when its subset folds to the
    target in its lane. With `high` the top bit of every lane,
    ((x | high) − ones) | x keeps a lane's top bit exactly when the lane is
    non-zero: x | high is at least 1 in every lane, so the subtraction
    borrows across no lane and clears the top bit only where the lower
    bits were all 0, and then x's own top bit decides. The columns' tests
    are ANDed, and each field's lanes are ORed into its first.

    Since no lane's fold outgrows its width, the bits above a field's lanes
    stay 0, and `ones` and `high` cover lanes only. Shifted down by
    width − 1, field a's flag is the lowest bit of hex digit a·P/4, so
    character a of the walk `format(flags >> (width − 1), "x")[::-(P // 4)]`
    is an odd digit exactly when subset a matches (below 4 bits a lane puts
    the next lane's flag in the same digit, which leaves its parity alone).
    A `bytes.translate` turns the digits into 0 and 1 and
    `itertools.compress` lists the matches, so the walk is linear in the
    size of the packed int with no Python step per match or per subset.
    """
    if not columns:
        return []
    if target >> width:
        raise ValueError(f"the target does not fit a lane of {width} bits")
    if lanes != 1 and target < 1:
        raise ValueError("lane-packed columns need a target >= 1: a spare lane folds to 0")
    pitch = -(-width * lanes // 4) * 4
    _, ones, high = _fold_layout(len(columns[0]), width, lanes, pitch)
    aimed = target * ones
    live = high  # the top bit of each lane no column has yet found zero
    for column in columns:
        x = _packed_fold(column, combine, width, lanes, pitch) ^ aimed
        live &= ((x | high) - ones) | x
    hits = live ^ high
    flags = hits
    for c in range(1, lanes):  # lane 0 of field a gathers the flags of a's other lanes
        flags |= hits >> c * width
    digits = format(flags >> (width - 1), "x")[::-(pitch // 4)]  # digit a is subset a's
    return list(compress(range(len(digits)), digits.encode().translate(_ODD_DIGITS)))


def group_of(mask: int, order: Sequence[str]) -> frozenset[str]:
    """The holders of `order` whose bits are set in `mask`."""
    return frozenset(name for j, name in enumerate(order) if (mask >> j) & 1)


def authorized_family(
    expr: PolicyExpr,
    universe: Sequence[str],
    max_size: int | None = None,
) -> frozenset[frozenset[str]]:
    """All non-empty subsets of the universe that satisfy the policy.

    Read off the policy's truth table, optionally capped at groups of
    `max_size` members, an int of at least 1. A size cap is the only way
    to express seat-count style limits; the expression language alone cannot.
    """
    if max_size is not None and (type(max_size) is not int or max_size < 1):
        raise ValueError("max_size must be an int >= 1")
    names = check_universe(universe)
    limit = len(names) if max_size is None else max_size
    bits = format(truth_table(expr, names), "b")[::-1]  # bit a at position a
    return frozenset(
        group_of(a, names) for a, bit in enumerate(bits)
        if bit == "1" and 0 < a.bit_count() <= limit
    )
