"""Compile policies into key-share material.

Two compilation targets:

* A monotone policy (AND/OR only) becomes one prime-index set per holder,
  by recursive descent over the expression: an OR node hands its whole
  index set to every child, an AND node partitions it among its children.
  A group of holders can recover every message bit exactly when the union
  of its index sets covers all indices, and `bl_split` guarantees that this
  happens for precisely the policy-satisfying groups.

* An arbitrary family of groups (possibly non-monotone, e.g. capped in
  size) becomes a `SlotPlan`: an ordered list of slots, each one an index
  partition plus a holder-to-part assignment. A slot authenticates exactly
  the groups made of one assigned holder per part and nobody else, so the
  plan's slots jointly authenticate exactly the requested family.

Descent partitions alone do not guarantee the covers-all/satisfies
equivalence: with unlucky partition choices, two copies of an index set
handed down different OR branches can complement each other and hand a
single holder full coverage. `bl_split` therefore checks that no maximal
unauthorized set, computed from the expression tree, covers every index
and, when a plain attempt fails, re-partitions with one reserved index per
maximal unauthorized set, routed away from that set's members; that
construction makes the equivalence unconditional.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .errors import GroupAuthError
from .nscrypt import KeyShare, NsPrivateKey, check_share_primes, system_primes
from .policy import (And, Or, PolicyExpr, Var, check_universe, evaluate, group_of,
                     is_monotone, variables)

__all__ = [
    "NonMonotoneError",
    "InsufficientPrimes",
    "GroupLargerThanPrimeCount",
    "SlotAssignment",
    "SlotPlan",
    "ShareSequence",
    "bl_split",
    "authorized_groups",
    "slots_baseline",
    "slots_packed",
    "issue_monotone",
    "issue_sequence",
]

class NonMonotoneError(GroupAuthError):
    """The expression contains NOT and cannot be index-split directly."""


class InsufficientPrimes(GroupAuthError):
    """Too few prime indices to honor the policy structure."""


class GroupLargerThanPrimeCount(GroupAuthError):
    """A requested group has more members than there are prime indices."""


# ---------------------------------------------------------------------------
# maximal unauthorized sets: subset masks over `order`, bit j picking order[j]


def _maximal_unsat(expr: PolicyExpr, order: tuple[str, ...]) -> list[int]:
    """Sorted masks of the maximal groups that fail a monotone expression.

    Bottom-up over the tree: Var x fails within everyone but x, AND fails
    where any child fails (the union of their sets), OR where every child
    fails (intersections of one set per child). Each step keeps the maximal.
    """
    full = (1 << len(order)) - 1
    pos = {name: j for j, name in enumerate(order)}

    def go(node: PolicyExpr) -> list[int]:
        if isinstance(node, Var):
            return [full ^ (1 << pos[node.name])]
        kept, *rest = [go(c) for c in node.children]
        for sets in rest:
            kept = _keep_maximal({*kept, *sets} if isinstance(node, And)
                                 else {a & b for a in kept for b in sets})
        return kept

    return sorted(go(expr))


def _keep_maximal(masks: set[int]) -> list[int]:
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# index partitioning


def _balanced_parts(items: list[int], k: int) -> list[list[int]]:
    if len(items) < k:
        raise InsufficientPrimes(
            f"cannot split {len(items)} indices into {k} non-empty parts")
    q, r = divmod(len(items), k)
    parts, start = [], 0
    for i in range(k):
        size = q + (1 if i < r else 0)
        parts.append(items[start:start + size])
        start += size
    return parts


def _descend(expr: PolicyExpr, indices: list[int], partition) -> dict[str, set[int]]:
    """The descent walk: a Var collects its indices, an OR copies them to every
    child, and an AND hands each child its part of `partition(node, items)`."""
    acc: dict[str, set[int]] = {}

    def walk(node: PolicyExpr, items: list[int]) -> None:
        if isinstance(node, Var):
            acc.setdefault(node.name, set()).update(items)
        elif isinstance(node, Or):
            for child in node.children:
                walk(child, items)
        else:
            for child, part in zip(node.children, partition(node, items)):
                walk(child, part)

    walk(expr, list(indices))
    return acc


def _plain_descent(expr: PolicyExpr, indices: list[int]) -> dict[str, set[int]]:
    return _descend(expr, indices,
                    lambda node, items: _balanced_parts(sorted(items), len(node.children)))


def _guided_descent(
    expr: PolicyExpr,
    indices: list[int],
    order: tuple[str, ...],
    maximal: list[int],
) -> dict[str, set[int]]:
    """Descent with one reserved index per maximal unauthorized set.

    Each reserved index is steered, at every AND node, into a child that is
    false under its unauthorized set; OR nodes copy it to all children, which
    are all false there too. It thus only reaches holders outside that set,
    so the set never covers it, while any satisfying group still covers
    everything. The remaining indices fill the children evenly.
    """
    # reserve the trailing indices; the leading ones keep their usual layout
    reserved = {indices[len(indices) - len(maximal) + u]: group_of(m, order)
                for u, m in enumerate(maximal)}

    def route(node: And, items: list[int]) -> list[list[int]]:
        k = len(node.children)
        buckets: list[list[int]] = [[] for _ in range(k)]
        free: list[int] = []
        for x in sorted(items):
            group = reserved.get(x)
            if group is None:
                free.append(x)
                continue
            false_children = [
                i for i, c in enumerate(node.children)
                if not (c.name in group if isinstance(c, Var) else evaluate(c, group))
            ]
            assert false_children, "reserved index reached a satisfied AND"
            target = min(false_children, key=lambda i: (len(buckets[i]), i))
            buckets[target].append(x)
        for i in range(k):
            if not buckets[i]:
                if not free:
                    raise InsufficientPrimes(
                        "reserved indices crowd out an AND branch; "
                        "more prime indices are needed")
                buckets[i].append(free.pop())
        # the smallest bucket, lowest child first on ties, takes the next index
        sizes = [(len(bucket), i) for i, bucket in enumerate(buckets)]
        heapq.heapify(sizes)
        while free:
            size, target = sizes[0]
            buckets[target].append(free.pop())
            heapq.heapreplace(sizes, (size + 1, target))
        return buckets

    return _descend(expr, indices, route)


def _split_is_exact(split: dict[str, set[int]], order: tuple[str, ...],
                    maximal: list[int]) -> bool:
    """True iff no maximal unauthorized set covers every index.

    OR hands its indices to every child and AND partitions them, so every
    satisfying group covers all indices by construction; coverage only
    grows as holders are added, so if any unauthorized group covers every
    index, a maximal one does.
    """
    every = set().union(*split.values())
    return all(
        set().union(*(split.get(name, ()) for name in group_of(m, order))) != every
        for m in maximal
    )


def bl_split(
    expr: PolicyExpr,
    prime_indices: list[int] | range,
) -> dict[str, frozenset[int]]:
    """Split prime indices over the holders of a monotone expression.

    Returns holder -> index set such that a group's sets cover every index
    exactly when the group satisfies the expression. AND nodes partition
    their indices into balanced contiguous runs; if the resulting split is
    not exact it is rebuilt with guided routing, which is exact by
    construction. Raises InsufficientPrimes when the expression
    structurally needs more indices than provided, and NonMonotoneError
    for expressions containing NOT.
    """
    if not is_monotone(expr):
        raise NonMonotoneError("index splitting requires an AND/OR-only policy")
    indices = list(prime_indices)
    if len(set(indices)) != len(indices):
        raise ValueError("prime indices must be distinct")
    order = check_universe(variables(expr))
    if not indices:
        raise InsufficientPrimes("no prime indices to split")
    maximal = _maximal_unsat(expr, order)
    # exact over n indices means at most n maximal sets: all but some index's holders
    if len(maximal) > len(indices):
        raise InsufficientPrimes(
            f"policy separates {len(maximal)} maximal unauthorized sets "
            f"but only {len(indices)} prime indices are available")

    split = _plain_descent(expr, indices)
    if not _split_is_exact(split, order, maximal):
        split = _guided_descent(expr, indices, order, maximal)
        if not _split_is_exact(split, order, maximal):
            raise AssertionError("guided split failed exactness check")

    return {name: frozenset(s) for name, s in split.items()}


# ---------------------------------------------------------------------------
# slot plans for exact (possibly non-monotone) families


@dataclass
class SlotAssignment:
    """One sequence slot: an ordered index partition plus holder assignments.

    The slot authenticates the groups formed by picking exactly one
    assigned holder from every part (the transversal rule); any group with
    an unassigned member present, or two members in one part, or a part
    unrepresented, is rejected by the merge arithmetic.
    """

    parts: tuple[frozenset[int], ...]
    member_part: dict[str, int]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a slot needs at least one part")
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise ValueError("slot parts must be non-empty")
            if part & seen:
                raise ValueError("slot parts must be disjoint")
            seen |= part
        k = len(self.parts)
        assigned = set(self.member_part.values())
        if not all(0 <= i < k for i in assigned):
            raise ValueError("part index out of range")
        if assigned != set(range(k)):
            raise ValueError("every part needs at least one assigned holder")

    @property
    def indices(self) -> frozenset[int]:
        return frozenset().union(*self.parts)


def authorized_groups(slot: SlotAssignment) -> frozenset[frozenset[str]]:
    """All groups this slot authenticates, per the transversal rule."""
    k = len(slot.parts)
    classes: list[list[str]] = [[] for _ in range(k)]
    for holder, i in slot.member_part.items():
        classes[i].append(holder)
    return frozenset(
        frozenset(choice) for choice in itertools.product(*classes)
    )


@dataclass
class SlotPlan:
    """An ordered list of slots over a holder universe and n prime indices."""

    universe: tuple[str, ...]
    n: int
    slots: list[SlotAssignment] = field(default_factory=list)

    def __post_init__(self):
        every = frozenset(range(self.n))
        for slot in self.slots:
            if slot.indices != every:
                raise ValueError("slot parts must cover all prime indices")
            if not set(slot.member_part) <= set(self.universe):
                raise ValueError("slot assigns a holder outside the universe")

    def authorized_family(self) -> frozenset[frozenset[str]]:
        out: set[frozenset[str]] = set()
        for slot in self.slots:
            out |= authorized_groups(slot)
        return frozenset(out)


def _canonical_group_key(universe: tuple[str, ...]):
    pos = {name: i for i, name in enumerate(universe)}

    def key(group: frozenset[str]):
        return (len(group), tuple(sorted(pos[h] for h in group)))

    return key


def _slot_for_classes(
    classes: list[list[str]],
    n: int,
) -> SlotAssignment:
    if len(classes) > n:
        raise GroupLargerThanPrimeCount(
            f"group of {len(classes)} members exceeds {n} prime indices")
    parts = [frozenset(p) for p in _balanced_parts(list(range(n)), len(classes))]
    member_part = {h: i for i, cls in enumerate(classes) for h in cls}
    return SlotAssignment(parts=tuple(parts), member_part=member_part)


def slots_baseline(
    family: frozenset[frozenset[str]],
    n: int,
    universe: tuple[str, ...],
) -> SlotPlan:
    """One slot per group; members take distinct parts in universe order."""
    key = _canonical_group_key(universe)
    pos = {name: i for i, name in enumerate(universe)}
    slots = []
    for group in sorted(family, key=key):
        members = sorted(group, key=pos.__getitem__)
        slots.append(_slot_for_classes([[m] for m in members], n))
    return SlotPlan(universe=universe, n=n, slots=slots)


def _grow_classes(
    seed: frozenset[str],
    remaining: set[frozenset[str]],
    universe: tuple[str, ...],
) -> list[list[str]]:
    """Greedily extend singleton classes while every transversal stays inside
    the remaining family.

    One pass suffices: classes only grow, so the transversals a holder would
    add to a class only grow too, and a holder refused once stays refused.
    """
    pos = {name: i for i, name in enumerate(universe)}
    classes = [[m] for m in sorted(seed, key=pos.__getitem__)]
    used = set(seed)
    for ci in range(len(classes)):
        for holder in universe:
            if holder in used:
                continue
            others = [cls for i, cls in enumerate(classes) if i != ci]
            if all(frozenset([holder, *pick]) in remaining
                   for pick in itertools.product(*others)):
                classes[ci].append(holder)
                used.add(holder)
    return classes


def slots_packed(
    family: frozenset[frozenset[str]],
    n: int,
    universe: tuple[str, ...],
) -> SlotPlan:
    """Greedy packing: each slot covers as many remaining groups as it can.

    Candidate slots come from growing a seed group's singleton classes into
    per-part holder classes whose full transversal set stays inside the
    remaining family, so the plan never authenticates a group outside the
    requested family and never drops one. Of equal covers, the first seed in
    canonical order wins. Slot count is best-effort, not minimal, and never
    exceeds the baseline plan's.
    """
    key = _canonical_group_key(universe)
    remaining = set(family)
    slots = []
    while remaining:
        best = max((_grow_classes(seed, remaining, universe)
                    for seed in sorted(remaining, key=key)),
                   key=lambda classes: math.prod(map(len, classes)))
        slot = _slot_for_classes(best, n)
        slots.append(slot)
        remaining -= authorized_groups(slot)
    return SlotPlan(universe=universe, n=n, slots=slots)


# ---------------------------------------------------------------------------
# share issuance


@dataclass(frozen=True)
class ShareSequence:
    """A holder's ordered per-slot share list; None marks slots with no share.

    Also used for holders assigned in no slot at all: their sequence is all
    None, but their presence still corrupts every merge through null
    responses, which is what locks them out.
    """

    holder: str
    s: int
    p: int
    n: int
    slots: tuple[frozenset[int] | None, ...]

    def __post_init__(self):
        # a null answer draws n random bits, so n is bounded like a key's
        system_primes(self.n)
        for prime_set in self.slots:
            if prime_set is not None:
                check_share_primes(prime_set, self.n)


def issue_monotone(
    split: dict[str, frozenset[int]],
    priv: NsPrivateKey,
) -> dict[str, KeyShare]:
    """Resolve a monotone split's index sets into per-holder key shares."""
    shares = {}
    for holder, idxs in split.items():
        if not idxs or not all(0 <= i < priv.n for i in idxs):
            raise ValueError(f"bad index set for holder {holder!r}")
        shares[holder] = KeyShare(
            holder=holder,
            s=priv.s,
            p=priv.p,
            prime_subset=frozenset(priv.primes[i] for i in idxs),
        )
    return shares


def issue_sequence(
    plan: SlotPlan,
    priv: NsPrivateKey,
) -> dict[str, ShareSequence]:
    """Resolve a slot plan into per-holder share sequences (prime values)."""
    if plan.n != priv.n:
        raise ValueError("plan and key disagree on prime count")
    sequences = {}
    for holder in plan.universe:
        entries: list[frozenset[int] | None] = []
        for slot in plan.slots:
            part = slot.member_part.get(holder)
            if part is None:
                entries.append(None)
            else:
                entries.append(frozenset(priv.primes[i] for i in slot.parts[part]))
        sequences[holder] = ShareSequence(
            holder=holder, s=priv.s, p=priv.p, n=priv.n, slots=tuple(entries))
    return sequences
