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
from functools import partial
from typing import Callable, Iterable, Sequence

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
    "is_monotone",
    "variables",
    "truth_table",
    "subset_matches",
    "group_of",
    "authorized_family",
]

MAX_UNIVERSE = 20  # every subset consumer enumerates 2^|universe| subsets

# Open "(" and "not" levels the parser accepts. The parser and every tree
# walk recurse once or more per level, so deeper text would hit Python's
# recursion limit instead of a ParseError.
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
    names = tuple(universe)
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


def render(expr: PolicyExpr) -> str:
    """Canonical text form with minimal parentheses; reparses to an equal AST."""

    def go(node: PolicyExpr, parent_prec: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Not):
            return "not " + go(node.child, 3)
        if isinstance(node, And):
            text = " and ".join(go(c, 2) for c in node.children)
            prec = 2
        else:
            text = " or ".join(go(c, 1) for c in node.children)
            prec = 1
        return f"({text})" if prec < parent_prec else text

    return go(expr, 0)


def evaluate(expr: PolicyExpr, present: Iterable[str]) -> bool:
    """Standard Boolean semantics; Var(x) is true iff x is present."""
    members = frozenset(present)

    def go(node: PolicyExpr) -> bool:
        if isinstance(node, Var):
            return node.name in members
        if isinstance(node, And):
            return all(go(c) for c in node.children)
        if isinstance(node, Or):
            return any(go(c) for c in node.children)
        return not go(node.child)

    return go(expr)


def is_monotone(expr: PolicyExpr) -> bool:
    """Syntactic check: true iff the AST contains no NOT node."""
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Not):
        return False
    return all(is_monotone(c) for c in expr.children)


def variables(expr: PolicyExpr) -> tuple[str, ...]:
    """Holder names mentioned in the expression, in first-mention order."""
    seen: dict[str, None] = {}

    def go(node: PolicyExpr) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name)
        elif isinstance(node, Not):
            go(node.child)
        else:
            for c in node.children:
                go(c)

    go(expr)
    return tuple(seen)


# ---------------------------------------------------------------------------
# the subset space: subset a of `order` is the bit mask whose bit j picks
# order[j]


def truth_table(expr: PolicyExpr, order: Sequence[str]) -> int:
    """The policy's value on every subset of `order`, as one bit mask.

    Bit a of the result is `evaluate(expr, group_of(a, order))`. A variable's
    pattern is `_packed_fold` of its name's one-hot column under OR at width 1.
    A name that is not in `order` is never present, so its variable reads false.
    """
    full = (1 << (1 << len(order))) - 1

    def go(node: PolicyExpr) -> int:
        if isinstance(node, Var):
            return _packed_fold([x == node.name for x in order], operator.or_, 1)
        if isinstance(node, Not):
            return full ^ go(node.child)
        tables = [go(c) for c in node.children]
        out = tables[0]
        for t in tables[1:]:
            out = (out & t) if isinstance(node, And) else (out | t)
        return out

    return go(expr)


def _packed_fold(values: Sequence[int], combine: Callable[[int, int], int],
                 width: int) -> int:
    """Every subset's fold of `values`, subset a in field a of one int.

    Field a is the `width` bits from a·width up. The fold doubles once per
    value: the subsets that hold position j are those without it, each
    combined with value j, so the packed int grows by one shifted
    `combine(acc, v * ones)` per value, where `ones` holds a 1 in every
    field so far. `combine` must act on each field alone: OR and XOR do,
    and so does a sum when no field's total reaches 2^width.
    """
    acc, ones, shift = 0, 1, width
    for v in values:
        acc |= combine(acc, v * ones) << shift
        ones |= ones << shift
        shift <<= 1
    return acc


def _fold_width(h: int, top: int, target: int = 0) -> int:
    """The field width for folding h values of at most `top`.

    h·top bounds every subset's sum (OR and XOR stay below 2^top.bit_length()),
    and a field must also hold the target it is compared against.
    """
    return max(h * top, target, 1).bit_length()


def subset_matches(
    columns: Sequence[Sequence[int]],
    combine: Callable[[int, int], int],
    target: int,
) -> list[int]:
    """Every subset whose fold equals `target` in at least one column, ascending.

    Each column holds one value per position, h positions in all, and a
    subset is a bit mask over them, folded by `_packed_fold`. All columns
    share one field width, w = max(h·max value, target).bit_length(), so
    no sum overflows its field and the target always fits.

    Per column the cost is a few big-int operations per position for the
    fold and a few for the test, whatever 2^h is. Field a of
    x = fold ^ target·ones is zero exactly when subset a folds to the
    target, and with `low` the lower w − 1 bits of every field and `high`
    its top bit, ~(((x & low) + low) | x | low) & high sets the top bit of
    exactly the zero fields: the sum carries into a top bit from any set
    low bit and never past it. The columns' hits are ORed, and one pass
    over their binary digits lists the set ones, so the walk is linear in
    the size of the packed int plus the number of matches.
    """
    if not columns:
        return []
    h = len(columns[0])
    width = _fold_width(h, max(map(max, columns)) if h else 0, target)
    ones = ((1 << (width << h)) - 1) // ((1 << width) - 1)  # a 1 in every field
    high = ones << (width - 1)
    low = high - ones
    aimed = target * ones
    hits = 0
    for column in columns:
        x = _packed_fold(column, combine, width) ^ aimed
        hits |= ~(((x & low) + low) | x | low) & high
    flags = format(hits >> (width - 1), "b")[::-width]  # character a is subset a's flag
    found = []
    a = flags.find("1")
    while a >= 0:
        found.append(a)
        a = flags.find("1", a + 1)
    return found


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
    `max_size` members. A size cap is the only way to express seat-count
    style limits; the expression language alone cannot.
    """
    names = check_universe(universe)
    limit = len(names) if max_size is None else max_size
    bits = format(truth_table(expr, names), "b")[::-1]  # bit a at position a
    return frozenset(
        group_of(a, names) for a, bit in enumerate(bits)
        if bit == "1" and 0 < a.bit_count() <= limit
    )
