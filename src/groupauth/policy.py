"""Boolean policy expressions over named key holders.

Concrete syntax::

    expr  := term ("or" term)*
    term  := factor ("and" factor)*
    factor:= "not" factor | NAME | "(" expr ")"

`&`, `|` and `!` are accepted as aliases for `and`, `or` and `not`.
NAME is [A-Za-z_][A-Za-z0-9_]*. Precedence is not > and > or; `and`/`or`
chains are flattened into n-ary nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    "subset_fold",
    "group_of",
    "authorized_family",
]

MAX_UNIVERSE = 20  # every subset consumer enumerates 2^|universe| subsets

# Open "(" and "not" levels the parser accepts. The parser and every tree
# walk recurse once or more per level, so deeper text would hit Python's
# recursion limit instead of a ParseError.
_MAX_DEPTH = 100


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
    """Validate a holder universe: non-empty, distinct, bounded, sane names."""
    names = tuple(universe)
    if not names:
        raise PolicyError("universe must not be empty")
    if len(names) > MAX_UNIVERSE:
        raise PolicyError(f"universe larger than {MAX_UNIVERSE} holders")
    if len(set(names)) != len(names):
        raise PolicyError("universe contains duplicate names")
    for name in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise PolicyError(f"invalid holder name: {name!r}")
    return names


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()&|!]))")
_KEYWORDS = {"and": "and", "or": "or", "not": "not"}
_ALIASES = {"&": "and", "|": "or", "!": "not"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, value, position) triples; kind is 'name', 'op' or 'end'."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        start = match.start("name") if match.group("name") else match.start("op")
        if match.group("name"):
            word = match.group("name")
            if word in _KEYWORDS:
                tokens.append(("op", word, start))
            else:
                tokens.append(("name", word, start))
        else:
            sym = match.group("op")
            tokens.append(("op", _ALIASES.get(sym, sym), start))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], universe: tuple[str, ...]):
        self._tokens = tokens
        self._index = 0
        self._universe = set(universe)
        self._depth = 0

    @property
    def token(self) -> tuple[str, str, int]:
        return self._tokens[self._index]

    def advance(self) -> None:
        self._index += 1

    def descend(self, pos: int) -> None:
        """Step past an opening "(" or "not", one nesting level deeper."""
        if self._depth == _MAX_DEPTH:
            raise ParseError(f"policy nested deeper than {_MAX_DEPTH} levels", pos)
        self._depth += 1
        self.advance()

    def expect_op(self, value: str) -> None:
        kind, val, pos = self.token
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", pos)
        self.advance()

    def parse_expr(self) -> PolicyExpr:
        children = [self.parse_term()]
        while self.token[:2] == ("op", "or"):
            self.advance()
            children.append(self.parse_term())
        if len(children) == 1:
            return children[0]
        flat: list[PolicyExpr] = []
        for child in children:
            flat.extend(child.children if isinstance(child, Or) else [child])
        return Or(tuple(flat))

    def parse_term(self) -> PolicyExpr:
        children = [self.parse_factor()]
        while self.token[:2] == ("op", "and"):
            self.advance()
            children.append(self.parse_factor())
        if len(children) == 1:
            return children[0]
        flat: list[PolicyExpr] = []
        for child in children:
            flat.extend(child.children if isinstance(child, And) else [child])
        return And(tuple(flat))

    def parse_factor(self) -> PolicyExpr:
        kind, value, pos = self.token
        if kind == "op" and value == "not":
            self.descend(pos)
            inner = Not(self.parse_factor())
            self._depth -= 1
            return inner
        if kind == "op" and value == "(":
            self.descend(pos)
            inner = self.parse_expr()
            self.expect_op(")")
            self._depth -= 1
            return inner
        if kind == "name":
            if value not in self._universe:
                raise UnknownHolder(f"unknown holder {value!r} (at position {pos})")
            self.advance()
            return Var(value)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {value!r}", pos)


def parse(text: str, universe: Sequence[str]) -> PolicyExpr:
    """Parse policy text over the given universe of holder names."""
    names = check_universe(universe)
    parser = _Parser(_tokenize(text), names)
    expr = parser.parse_expr()
    kind, value, pos = parser.token
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return expr


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

    Bit a of the result is `evaluate(expr, group_of(a, order))`. A name that
    is not in `order` is never present, so its variable reads false.
    """
    size = 1 << len(order)
    full = (1 << size) - 1
    pos = {name: j for j, name in enumerate(order)}

    def go(node: PolicyExpr) -> int:
        if isinstance(node, Var):
            j = pos.get(node.name)
            if j is None:
                return 0
            pattern = ((1 << (1 << j)) - 1) << (1 << j)
            width = 1 << (j + 1)
            while width < size:
                pattern |= pattern << width
                width *= 2
            return pattern & full
        if isinstance(node, Not):
            return full ^ go(node.child)
        tables = [go(c) for c in node.children]
        out = tables[0]
        for t in tables[1:]:
            out = (out & t) if isinstance(node, And) else (out | t)
        return out

    return go(expr)


def subset_fold(values: Sequence[int], combine: Callable[[int, int], int]) -> list[int]:
    """Fold `values` over every subset of their positions, starting from 0.

    Entry a of the result combines the values at the set bits of a, via the
    low-bit recurrence acc[a] = combine(acc[a without its lowest bit],
    value at that bit): one `combine` call per non-empty subset.
    """
    acc = [0] * (1 << len(values))
    for a in range(1, len(acc)):
        low = a & -a
        acc[a] = combine(acc[a ^ low], values[low.bit_length() - 1])
    return acc


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
