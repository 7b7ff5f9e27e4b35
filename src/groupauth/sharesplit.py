"""Compile policies into key-share material.

Two compilation targets:

* A monotone policy (AND/OR only) becomes one prime-index set per holder,
  by recursive descent over the expression: an OR node hands its whole
  index set to every child, an AND node partitions it among its children.
  A group of holders can recover every message bit exactly when the union
  of its index sets covers all indices, and `bl_split` guarantees that this
  happens for precisely the policy-satisfying groups.

* An arbitrary family of groups (possibly non-monotone, e.g. capped in
  size) becomes a `SlotPlan`: an ordered list of slots, each one a
  holder-to-part assignment whose k parts take the k balanced contiguous
  runs of the prime indices. A slot authenticates exactly
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

import itertools
import operator
from dataclasses import dataclass, field
from functools import partial, reduce

from . import policy
from .errors import GroupAuthError
from .nscrypt import KeyShare, NsPrivateKey, Share, ShareSequence, public_key_of
from .policy import And, Or, PolicyExpr, Var, _fold, check_universe, group_of, variables
from .protocol import Deployment, _session_shape

__all__ = [
    "NonMonotoneError",
    "InsufficientPrimes",
    "SlotAssignment",
    "SlotPlan",
    "bl_split",
    "authorized_groups",
    "slots_baseline",
    "slots_packed",
    "issue_monotone",
    "issue_sequence",
    "check_sequence_only",
    "compile_policy",
]

class NonMonotoneError(GroupAuthError):
    """The expression contains NOT and cannot be index-split directly."""


class InsufficientPrimes(GroupAuthError):
    """Too few prime indices to honor the policy structure.

    Raised by a split with fewer prime indices than its parts or its maximal
    unauthorized sets, and by a slot whose group has more members than there
    are prime indices.
    """


# ---------------------------------------------------------------------------
# maximal unauthorized sets: subset masks over `order`, bit j picking order[j]


def _maximal_unsat(expr: PolicyExpr, order: tuple[str, ...]) -> list[int]:
    """Sorted masks of the maximal groups that fail a monotone expression.

    The tree's `_fold`: Var x fails within everyone but x, AND fails where
    any child fails (the union of their sets), OR where every child fails
    (intersections of one set per child). Each step keeps the maximal. The
    NOT step raises NonMonotoneError, which is how `bl_split` refuses NOT.
    """
    full = (1 << len(order)) - 1
    return sorted(_fold(
        expr, lambda name: [full ^ (1 << order.index(name))],
        partial(reduce, lambda kept, sets: _keep_maximal({*kept, *sets})),
        partial(reduce, lambda kept, sets: _keep_maximal({a & b for a in kept for b in sets})),
        _refuse_not))


def _refuse_not(_) -> list[int]:
    raise NonMonotoneError(
        "policy is non-monotone (contains NOT); monotone mode needs AND/OR only")


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


def _balanced_parts(items: list[int] | range, k: int) -> list[list[int]] | list[range]:
    """`items` cut into k contiguous runs whose sizes differ by at most 1, the larger first.

    The one index layout of the package: an AND node's split of its indices
    among its children, and every sequence slot's split of range(n) into parts.
    """
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
    everything. At an AND node each index goes to the least-loaded child it
    may enter, the lowest first on ties: the reserved indices ascending, each
    into a child false under its set, then the free ones from the largest down.
    """
    # reserve the trailing indices; the leading ones keep their usual layout
    reserved = {indices[len(indices) - len(maximal) + u]: group_of(m, order)
                for u, m in enumerate(maximal)}

    def route(node: And, items: list[int]) -> list[list[int]]:
        ranked = sorted(items)
        buckets: list[list[int]] = [[] for _ in node.children]
        sizes = [0] * len(buckets)
        for x in ([x for x in ranked if x in reserved]
                  + [x for x in reversed(ranked) if x not in reserved]):
            group = reserved.get(x)
            if group is None:
                target = sizes.index(min(sizes))
            else:
                # through the module, so perfbench's wrapper of policy.evaluate counts it
                false_children = [i for i, c in enumerate(node.children)
                                  if not policy.evaluate(c, group)]
                assert false_children, "reserved index reached a satisfied AND"
                target = min(false_children, key=sizes.__getitem__)
            buckets[target].append(x)
            sizes[target] += 1
        if 0 in sizes:
            raise InsufficientPrimes(
                "reserved indices crowd out an AND branch; more prime indices are needed")
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
    for expressions containing NOT, from the fold that finds the maximal
    unauthorized sets, so only after the index and universe checks.
    """
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
    """One sequence slot: the holders assigned to each of its k parts.

    `member_part` maps each assigned holder to its part, numbered 0..k-1,
    each part with at least one holder. The slot's prime indices split into
    k balanced contiguous runs, `_balanced_parts(range(n), k)`, part i
    taking run i. The slot authenticates the groups formed by picking
    exactly one assigned holder from every part (the transversal rule); any
    group with an unassigned member present, or two members in one part, or
    a part unrepresented, is rejected by the merge arithmetic.
    """

    member_part: dict[str, int]

    def __post_init__(self):
        parts = set(self.member_part.values())
        if not parts or parts != set(range(len(parts))):
            raise ValueError("slot parts must be numbered 0..k-1, each with a holder")

    @property
    def k(self) -> int:
        """The slot's number of parts."""
        return len(set(self.member_part.values()))


def authorized_groups(slot: SlotAssignment) -> frozenset[frozenset[str]]:
    """All groups this slot authenticates, per the transversal rule."""
    classes: list[list[str]] = [[] for _ in range(slot.k)]
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
        for slot in self.slots:
            if slot.k > self.n:
                raise InsufficientPrimes(
                    f"group of {slot.k} members exceeds {self.n} prime indices")
            if not set(slot.member_part) <= set(self.universe):
                raise ValueError("slot assigns a holder outside the universe")

    def authorized_family(self) -> frozenset[frozenset[str]]:
        out: set[frozenset[str]] = set()
        for slot in self.slots:
            out |= authorized_groups(slot)
        return frozenset(out)


def _seeds(family: frozenset[frozenset[str]], universe: tuple[str, ...]) -> dict[int, list[int]]:
    """The family's groups in the order both planners take them, smaller groups
    first and equal sizes by their members' universe positions. Each maps its
    subset mask, bit j for universe[j], to those positions ascending."""
    pos = {name: j for j, name in enumerate(universe)}
    ranked = sorted((len(group), sorted(map(pos.__getitem__, group))) for group in family)
    return {sum(1 << j for j in members): members for _, members in ranked}


def _slot(classes: list[list[int]], universe: tuple[str, ...]) -> SlotAssignment:
    """The slot whose part i holds the holders at universe positions classes[i]."""
    return SlotAssignment({universe[j]: i for i, cls in enumerate(classes) for j in cls})


def slots_baseline(
    family: frozenset[frozenset[str]],
    n: int,
    universe: tuple[str, ...],
) -> SlotPlan:
    """One slot per group, in the seed order `slots_packed` also takes; the
    members take distinct parts in universe order."""
    slots = [_slot([[j] for j in members], universe)
             for members in _seeds(family, universe).values()]
    return SlotPlan(universe=universe, n=n, slots=slots)


def _transversals(classes: list[list[int]]) -> list[int]:
    """The masks of the groups made of one holder (bit position) per class."""
    picks = [0]
    for cls in classes:
        picks = [pick | 1 << j for pick in picks for j in cls]
    return picks


def _grow_seed(
    seed: list[int],
    remaining: set[int],
    holders: list[int],
) -> list[list[int]]:
    """Greedily extend a seed's singleton classes while every transversal stays
    inside the remaining family.

    Groups are subset masks and holders bit positions. `seed` lists the seed
    group's members ascending, and `holders` the candidates in universe order.
    One pass suffices: classes only grow, so the transversals a holder would
    add to a class only grow too, and a holder refused once stays refused.
    """
    classes = [[j] for j in seed]
    used = set(seed)
    for ci in range(len(classes)):
        picks = _transversals(classes[:ci] + classes[ci + 1:])
        for j in holders:
            if j not in used and all(pick | 1 << j in remaining for pick in picks):
                classes[ci].append(j)
                used.add(j)
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
    `_seeds` order wins. Slot count is best-effort, not minimal, and never
    exceeds the baseline plan's.

    Groups are subset masks, bit j for universe[j]. Two rules spare growths
    without changing the plan:

    * Reuse. A seed's grown classes are kept, and reused in a later round
      while every group they authenticate is still unplaced. That is exact: a
      growth decides once per (class, holder), and a holder joins when every
      group it would add is unplaced. Each group checked for a join is one of
      the grown classes' transversals, so while none of those is placed every
      join still holds; and a refusal still holds because the unplaced groups
      only shrink.
    * Bound. k classes of distinct holders that occur in unplaced groups have
      at most the balanced product of k sizes summing to the number of those
      holders. A seed of k members whose bound is at most the best cover so
      far is not grown: it could only tie, and the first of equal covers wins.
    """
    seeds = _seeds(family, universe)
    remaining = set(seeds)
    grown: dict[int, tuple[list[list[int]], set[int]]] = {}  # seed -> classes, their groups
    slots = []
    while remaining:
        seeds = {seed: members for seed, members in seeds.items() if seed in remaining}
        live = reduce(operator.or_, remaining)
        holders = [j for j in range(len(universe)) if live >> j & 1]
        best, best_cover = None, 0
        for seed, members in seeds.items():
            if seed not in grown:
                k = len(members)
                q, r = divmod(len(holders), k)
                if (q + 1) ** r * q ** (k - r) <= best_cover:
                    continue
                classes = _grow_seed(members, remaining, holders)
                grown[seed] = classes, set(_transversals(classes))
            if len(grown[seed][1]) > best_cover:
                best, best_cover = seed, len(grown[seed][1])
        classes, placed = grown[best]
        slots.append(_slot(classes, universe))
        remaining -= placed
        grown = {seed: entry for seed, entry in grown.items() if entry[1].isdisjoint(placed)}
    return SlotPlan(universe=universe, n=n, slots=slots)


# ---------------------------------------------------------------------------
# share issuance, and the whole compile


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
    columns: dict[str, list[frozenset[int] | None]] = {h: [] for h in plan.universe}
    for slot in plan.slots:
        parts = [frozenset(priv.primes[i] for i in run)
                 for run in _balanced_parts(range(plan.n), slot.k)]
        for holder, entries in columns.items():
            part = slot.member_part.get(holder)
            entries.append(None if part is None else parts[part])
    return {holder: ShareSequence(holder=holder, s=priv.s, p=priv.p, n=priv.n,
                                  slots=tuple(entries))
            for holder, entries in columns.items()}


def check_sequence_only(mode: str, max_size: int | None = None, pack: bool = False) -> None:
    """Refuse a size cap or packing in monotone mode: its split has no groups to cap."""
    if mode == "monotone" and (max_size is not None or pack):
        what = "a size cap applies" if max_size is not None else "packing applies"
        raise ValueError(f"{what} to sequence mode only")


def compile_policy(expr: PolicyExpr, universe: tuple[str, ...], priv: NsPrivateKey, mode: str, *,
                   merge: str | None = None, max_size: int | None = None, pack: bool = False,
                   ) -> tuple[dict[str, Share], Deployment, frozenset[frozenset[str]] | None]:
    """Each universe holder's share, in universe order, the `Deployment`, and the family
    that `slots_packed` (if `pack`) or `slots_baseline` planned; None in monotone mode,
    whose `bl_split` enumerates no subsets. Refuses what `check_sequence_only` and
    `Deployment` refuse, a universe holder the monotone split gives no share
    (ValueError), and an empty family (GroupAuthError)."""
    check_sequence_only(mode, max_size, pack)
    universe = check_universe(universe)
    if mode == "monotone":
        split = bl_split(expr, range(priv.n))
        unnamed = [h for h in universe if h not in split]
        if unnamed:
            raise ValueError("monotone mode issues no share to a holder the policy "
                             f"does not name: {', '.join(unnamed)}")
        shares, family = issue_monotone(split, priv), None
    else:
        family = policy.authorized_family(expr, universe, max_size)
        if not family:
            raise GroupAuthError("policy authorizes no groups at this size cap")
        plan = (slots_packed if pack else slots_baseline)(family, priv.n, universe)
        shares = issue_sequence(plan, priv)
    pub, slot_count = public_key_of(priv), len(shares[universe[0]].slots)
    deployment = Deployment(pub.n, pub.p, pub.v, *_session_shape(pub, mode, merge, slot_count))
    return {h: shares[h] for h in universe}, deployment, family
