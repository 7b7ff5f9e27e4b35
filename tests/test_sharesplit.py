import hashlib
import itertools
import math
import random

import pytest

from groupauth import files
from groupauth.errors import GroupAuthError
from groupauth.nscrypt import (KeyShare, Share, ShareSequence, keygen, residue_bits,
                               system_primes)
from groupauth.policy import (And, Or, Var, authorized_family, evaluate, group_of, parse,
                             truth_table, variables)
from groupauth.sharesplit import (
    InsufficientPrimes,
    NonMonotoneError,
    SlotAssignment,
    SlotPlan,
    authorized_groups,
    bl_split,
    issue_monotone,
    issue_sequence,
    slots_baseline,
    slots_packed,
)
from groupauth.sharesplit import (_balanced_parts, _grow_seed, _maximal_unsat, _plain_descent,
                                  _split_is_exact)
from conftest import TEN, TEN_POLICY, random_family, random_monotone_expr

ABCDE = ("A", "B", "C", "D", "E")


def family_of(*names):
    return frozenset(frozenset(name) for name in names)


def covers_iff_satisfies(expr, split, n_indices):
    """Exhaustive oracle for the split's defining property."""
    holders = variables(expr)
    full = set(range(n_indices))
    for r in range(len(holders) + 1):
        for combo in itertools.combinations(holders, r):
            covered = set()
            for h in combo:
                covered |= split.get(h, frozenset())
            if (covered == full) != evaluate(expr, combo):
                return False
    return True


class TestBlSplit:
    def test_pair_policy_fixture(self):
        expr = parse("(A1 and A2) or (A1 and A3)", ("A1", "A2", "A3"))
        split = bl_split(expr, range(8))
        assert split == {
            "A1": frozenset({0, 1, 2, 3}),
            "A2": frozenset({4, 5, 6, 7}),
            "A3": frozenset({4, 5, 6, 7}),
        }

    def test_single_variable(self):
        split = bl_split(parse("A", ("A",)), range(8))
        assert split == {"A": frozenset(range(8))}

    def test_insufficient_primes(self):
        expr = parse("A and B and C", ("A", "B", "C"))
        with pytest.raises(InsufficientPrimes):
            bl_split(expr, range(2))

    def test_deep_and_fanin_splits(self):
        # the AND fan-ins along a-b-c-d multiply to 8 > 7 indices, yet plain
        # descent gives a-d one index each, x {0-3} and y {4, 5, 6}
        expr = parse("((a and b and c and d) or x) and y", tuple("abcdxy"))
        split = bl_split(expr, range(7))
        assert split == {"a": {0}, "b": {1}, "c": {2}, "d": {3},
                         "x": {0, 1, 2, 3}, "y": {4, 5, 6}}
        assert covers_iff_satisfies(expr, split, 7)

    def test_non_monotone_rejected(self):
        expr = parse("A and not B", ("A", "B"))
        with pytest.raises(NonMonotoneError):
            bl_split(expr, range(8))

    def test_every_index_assigned(self):
        rng = random.Random(3)
        produced = 0
        while produced < 40:
            expr = random_monotone_expr(rng, ABCDE)
            try:
                split = bl_split(expr, range(12))
            except InsufficientPrimes:
                continue  # e.g. more maximal unauthorized sets than 12 indices
            produced += 1
            union = set()
            for idxs in split.values():
                assert idxs, "holder with empty share set"
                union |= idxs
            assert union == set(range(12))

    @pytest.mark.parametrize("n", [8, 12])
    def test_cover_iff_satisfy(self, n):
        # expressions that need more separating indices than n provides are
        # regenerated; the guarantee applies whenever the split succeeds
        rng = random.Random(1000 * n)
        produced = 0
        while produced < 60:
            expr = random_monotone_expr(rng, ABCDE[: rng.randint(2, 5)])
            try:
                split = bl_split(expr, range(n))
            except InsufficientPrimes:
                continue
            produced += 1
            assert covers_iff_satisfies(expr, split, n)

    def test_known_descent_trap_is_repaired(self):
        # plain contiguous partitioning would give {a,d} full coverage here
        expr = parse("(a and b) or (c and d)", ("a", "b", "c", "d"))
        split = bl_split(expr, range(8))
        assert covers_iff_satisfies(expr, split, 8)

    def test_determinism(self):
        expr = parse("(A and B) or ((A or B) and (C or D or E))", ABCDE)
        assert bl_split(expr, range(12)) == bl_split(expr, range(12))

    # Both policies fail the plain split's exactness check, so these pin the
    # guided repair's layout.
    @pytest.mark.parametrize("text, universe, expected", [
        ("(A and B) or ((A or B) and (C or D or E))", ABCDE, {
            "A": {1, 3, 5, 7, 8, 10, 11},
            "B": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11},
            "C": {0, 2, 4, 6, 9, 10},
            "D": {0, 2, 4, 6, 9, 10},
            "E": {0, 2, 4, 6, 9, 10},
        }),
        ("(A and (B or C)) or ((B or C) and (D or E) and (F or G or H))",
         tuple("ABCDEFGH"), {
            "A": {1, 3, 5, 7, 9, 10},
            "B": {0, 2, 4, 5, 6, 8, 11},
            "C": {0, 2, 4, 5, 6, 8, 11},
            "D": {1, 4, 7, 10},
            "E": {1, 4, 7, 10},
            "F": {0, 3, 6, 9},
            "G": {0, 3, 6, 9},
            "H": {0, 3, 6, 9},
        }),
    ], ids=["airplane", "session-mono12"])
    def test_guided_split_pinned(self, text, universe, expected):
        expr = parse(text, universe)
        assert not _split_is_exact(_plain_descent(expr, list(range(12))), universe,
                                   _maximal_unsat(expr, universe))
        assert bl_split(expr, range(12)) == {h: frozenset(v) for h, v in expected.items()}

    # D alone satisfies this, so both maximal unauthorized sets, {A, C} and
    # {B, C}, lack D. Plain descent is inexact here over 2 and 3 indices.
    CROWD = "D or (A and B) or (C and D)"

    @pytest.mark.parametrize("n", [2, 3])
    def test_crowd_policy_needs_guided_descent(self, n):
        expr = parse(self.CROWD, tuple("ABCD"))
        order = tuple("DABC")
        maximal = _maximal_unsat(expr, order)
        assert len(maximal) == 2
        assert not _split_is_exact(_plain_descent(expr, list(range(n))), order, maximal)

    def test_guided_descent_crowd_out_refused(self):
        # both maximal sets hold C and lack D, so at (C and D) both reserved
        # indices go to D, and with no free index C is left empty
        expr = parse(self.CROWD, tuple("ABCD"))
        with pytest.raises(InsufficientPrimes, match=(
                "^reserved indices crowd out an AND branch; more prime indices are needed$")):
            bl_split(expr, range(2))

    def test_guided_descent_one_free_index(self):
        # the free index 0 fills C, and A as the lower tie in (A and B)
        expr = parse(self.CROWD, tuple("ABCD"))
        split = bl_split(expr, range(3))
        assert split == {"D": {0, 1, 2}, "A": {0, 2}, "B": {1}, "C": {0}}
        assert covers_iff_satisfies(expr, split, 3)

    def test_separation_bound(self):
        # a 3-of-5 threshold has 10 maximal unauthorized pairs and cannot be
        # index-split exactly over 8 indices
        terms = [" and ".join(c) for c in itertools.combinations(ABCDE, 3)]
        expr = parse(" or ".join(f"({t})" for t in terms), ABCDE)
        with pytest.raises(InsufficientPrimes):
            bl_split(expr, range(8))
        split = bl_split(expr, range(12))
        assert covers_iff_satisfies(expr, split, 12)

    def test_plain_exactness_check_matches_oracle(self):
        # plain descent is inexact on some of these; the maximal-set check
        # must agree with exhaustive enumeration either way
        rng = random.Random(66)
        inexact = 0
        for _ in range(300):
            names = tuple("ABCDEFGH")[: rng.randint(2, 8)]
            expr = random_monotone_expr(rng, names, depth=rng.randint(2, 4))
            n = rng.choice([8, 12, 16])
            try:
                split = _plain_descent(expr, list(range(n)))
            except InsufficientPrimes:
                continue
            order = variables(expr)
            exact = _split_is_exact(split, order, _maximal_unsat(expr, order))
            assert exact == covers_iff_satisfies(expr, split, n)
            inexact += not exact
        assert inexact > 0


def test_maximal_sets_miss_disjoint_indices():
    # two maximal unauthorized sets together are authorized, so in an exact
    # split they cover every index: no index is missed by two of them, and
    # the indices missed, summed over the maximal sets, are at most n
    rng = random.Random(24)
    splits = 0
    for _ in range(3000):
        names = tuple("ABCDEFGHI")[:rng.randint(2, 9)]
        expr = random_monotone_expr(rng, names, depth=rng.randint(1, 5))
        n = rng.randint(2, 64)
        try:
            split = bl_split(expr, range(n))
        except InsufficientPrimes:
            continue
        order = variables(expr)
        missed = [set(range(n)).difference(*(split.get(h, ()) for h in group_of(m, order)))
                  for m in _maximal_unsat(expr, order)]
        assert all(missed)
        assert sum(map(len, missed)) == len(set().union(*missed)) <= n
        splits += 1
    assert splits > 2500


def reference_maximal_unsat(table, nvars):
    """A shift-per-subset scan of the truth table, the oracle for `_maximal_unsat`."""
    out = []
    for a in range(1 << nvars):
        if (table >> a) & 1:
            continue
        if all((table >> (a | (1 << j))) & 1
               for j in range(nvars) if not (a >> j) & 1):
            out.append(a)
    return out


def test_maximal_unsat_matches_reference():
    rng = random.Random(55)
    for nvars in range(1, 11):
        order = tuple("ABCDEFGHIJ")[:nvars]
        for _ in range(20):
            # repeated holders included: the generator draws names with
            # replacement, so a name may sit under several branches
            expr = random_monotone_expr(rng, order, depth=rng.randint(1, 4))
            assert _maximal_unsat(expr, order) == \
                reference_maximal_unsat(truth_table(expr, order), nvars)


def test_maximal_unsat_closed_forms():
    # an AND of 9 two-holder ORs fails exactly when one pair is absent
    pairs = [(Var(f"a{i}"), Var(f"b{i}")) for i in range(9)]
    and_of_ors = And(tuple(Or(p) for p in pairs))
    assert len(_maximal_unsat(and_of_ors, variables(and_of_ors))) == 9
    # an OR of 10 two-holder ANDs fails when each pair misses one holder
    pairs = [(Var(f"a{i}"), Var(f"b{i}")) for i in range(10)]
    or_of_ands = Or(tuple(And(p) for p in pairs))
    assert len(_maximal_unsat(or_of_ands, variables(or_of_ands))) == 1024
    with pytest.raises(InsufficientPrimes, match="separates 1024 maximal"):
        bl_split(or_of_ands, range(64))


def reference_grow_classes(seed, remaining, universe):
    """Sweeps until nothing changes, the oracle for one-pass `_grow_seed`."""
    pos = {name: i for i, name in enumerate(universe)}
    classes = [[m] for m in sorted(seed, key=pos.__getitem__)]
    used = set(seed)
    changed = True
    while changed:
        changed = False
        for ci in range(len(classes)):
            for holder in universe:
                if holder in used:
                    continue
                others = [cls for i, cls in enumerate(classes) if i != ci]
                new_groups = [
                    frozenset([holder, *pick])
                    for pick in itertools.product(*others)
                ]
                if all(g in remaining for g in new_groups):
                    classes[ci].append(holder)
                    used.add(holder)
                    changed = True
    return classes


def test_grow_classes_matches_reference():
    rng = random.Random(77)
    for _ in range(150):
        universe = tuple("ABCDEFG")[: rng.randint(2, 7)]
        family = set(random_family(rng, universe, rng.choice([0.3, 0.6, 0.9])))
        masks = {sum(1 << universe.index(h) for h in group) for group in family}
        for seed in family:
            members = sorted(universe.index(h) for h in seed)
            grown = _grow_seed(members, masks, list(range(len(universe))))
            assert [[universe[j] for j in cls] for cls in grown] == \
                reference_grow_classes(seed, family, universe)


def reference_slots_packed(family, n, universe):
    """Every remaining seed regrown from scratch each round, the oracle for
    `slots_packed`'s reused growths and bound, its seed order and its slots."""
    pos = {name: i for i, name in enumerate(universe)}

    def key(group):  # smaller groups first, equal sizes by their members' positions
        return len(group), tuple(sorted(pos[h] for h in group))

    remaining = set(family)
    slots = []
    while remaining:
        best = max((reference_grow_classes(seed, remaining, universe)
                    for seed in sorted(remaining, key=key)),
                   key=lambda classes: math.prod(map(len, classes)))
        slot = SlotAssignment({h: i for i, cls in enumerate(best) for h in cls})
        slots.append(slot)
        remaining -= authorized_groups(slot)
    return SlotPlan(universe=universe, n=n, slots=slots)


# Compile outputs pinned by SHA-256, holder order and part order included:
# the compile code may get simpler or faster, never lay out another split
# or plan.

def split_digest(cases):
    digest = hashlib.sha256()
    for expr, n in cases:
        try:
            split = bl_split(expr, range(n))
        except InsufficientPrimes:
            digest.update(b"refused;")
            continue
        digest.update(repr([(h, sorted(s)) for h, s in split.items()]).encode())
    return digest.hexdigest()


def plan_digest(plans):
    digest = hashlib.sha256()
    for plan in plans:
        digest.update(repr((plan.universe, plan.n, [
            ([sorted(part) for part in _balanced_parts(range(plan.n), slot.k)],
             list(slot.member_part.items()))
            for slot in plan.slots])).encode())
    return digest.hexdigest()


def test_split_digest_pinned():
    rng = random.Random(2024)
    cases = [(parse("(A and (B or C)) or ((B or C) and (D or E) and (F or G or H))",
                    tuple("ABCDEFGH")), 12)]
    for _ in range(400):
        names = tuple("ABCDEFGH")[: rng.randint(2, 8)]
        cases.append((random_monotone_expr(rng, names, depth=rng.randint(2, 4)),
                      rng.choice([4, 8, 12, 16, 32, 64])))
    guided = 0
    for expr, n in cases:
        order = variables(expr)
        maximal = _maximal_unsat(expr, order)
        try:
            plain = _plain_descent(expr, list(range(n)))
        except InsufficientPrimes:
            continue
        guided += len(maximal) <= n and not _split_is_exact(plain, order, maximal)
    assert guided >= 10
    assert split_digest(cases) == (
        "9e495030f3de77e3d14633d6d096ca04955fb1e2983158e816c1268a653533d4")


@pytest.mark.parametrize("text, universe, cap, slots, expected", [
    ("(A and B) or ((A or B) and (C or D or E))", ABCDE, 3, 5,
     "14cd0b138f14616a28ae74d9f71060a5ff7821b6e2194dc6f443dd6eb46034ec"),
    (TEN_POLICY, TEN, 4, 26,
     "9f70bc6ace1dad93fe81f536465b36da806dfd203efb124521fa342ebf7c17a7"),
], ids=["audit5", "audit10"])
def test_benchmark_plans_pinned(text, universe, cap, slots, expected):
    family = authorized_family(parse(text, universe), universe, cap)
    packed = slots_packed(family, 16, universe)
    assert len(packed.slots) == slots
    assert plan_digest([packed, slots_baseline(family, 16, universe)]) == expected


def test_random_plans_pinned():
    rng = random.Random(31)
    plans = []
    for _ in range(200):
        universe = tuple("ABCDEFG")[: rng.randint(1, 7)]
        family = random_family(rng, universe, rng.choice([0.2, 0.5, 0.8]))
        if not family:
            continue
        n = rng.choice([8, 12, 16])
        plans += [slots_packed(family, n, universe), slots_baseline(family, n, universe)]
    assert plan_digest(plans) == (
        "d5f5691d48ed168cc1d61929455ed518a2a9909ba1e4fde8c2c810bcbf2ef91f")


def threshold_family(k, m):
    """Every k-holder group of the universe H0..H(m-1): a k-of-m threshold capped at k."""
    universe = tuple(f"H{i}" for i in range(m))
    return frozenset(map(frozenset, itertools.combinations(universe, k))), universe


def planned(planner, family, n, universe):
    """A plan's layout digest, or the type and message of the planner's refusal."""
    try:
        return plan_digest([planner(family, n, universe)])
    except GroupAuthError as exc:
        return type(exc), str(exc)


def test_packed_plans_match_reference_on_random_families():
    rng = random.Random(4600)
    refused = 0
    for _ in range(250):
        universe = tuple("ABCDEFGH")[: rng.randint(1, 8)]
        family = random_family(rng, universe, rng.choice([0.2, 0.5, 0.8]))
        if not family:
            continue
        n = rng.choice([2, 3, 8, 16])
        outcome = planned(slots_packed, family, n, universe)
        assert outcome == planned(reference_slots_packed, family, n, universe)
        refused += isinstance(outcome, tuple)
    assert refused > 30


@pytest.mark.parametrize("k, m", [(3, 8), (4, 8), (3, 12)])
def test_packed_threshold_plans_match_reference(k, m):
    family, universe = threshold_family(k, m)
    for n in (2, 16):
        assert planned(slots_packed, family, n, universe) == \
            planned(reference_slots_packed, family, n, universe)


def test_packed_audit10_plan_matches_reference():
    family = authorized_family(parse(TEN_POLICY, TEN), TEN, 4)
    assert planned(slots_packed, family, 16, TEN) == \
        planned(reference_slots_packed, family, 16, TEN)


def test_4_of_14_plan_pinned():
    family, universe = threshold_family(4, 14)
    plan = slots_packed(family, 12, universe)
    assert len(family) == 1001 and len(plan.slots) == 66
    assert plan.authorized_family() == family


@pytest.mark.parametrize("case, slots, expected", [
    ("reversed", 23, "3b5abea0c1076dbc6cb94b8242fd563d565f5f0c069fe12ba28e175016e75615"),
    ("2-of-12", 11, "15e72f78c20a61cb0eebd52e839e54b417c0b3fbf5a5057dc7120c38d08d829a"),
], ids=["reversed", "2-of-12"])
def test_plans_pinned_where_name_order_is_not_position_order(case, slots, expected):
    # both planners rank groups and lay out parts by universe position: a
    # planner that went by holder names would lay out other plans here, where
    # G comes first and H10 precedes H2 as a string
    if case == "reversed":
        family = random_family(random.Random(44), tuple("ABCDEFG"), 0.5)
        universe = tuple("GFEDCBA")
    else:
        family, universe = threshold_family(2, 12)
    packed = slots_packed(family, 16, universe)
    assert len(packed.slots) == slots
    assert plan_digest([packed, slots_baseline(family, 16, universe)]) == expected


class TestSlotAssignment:
    def test_validation(self):
        for member_part in ({}, {"A": 0, "B": 2}, {"A": 1}, {"A": -1, "B": 0}):
            with pytest.raises(ValueError):
                SlotAssignment(member_part)
        assert SlotAssignment({"A": 0, "B": 1, "C": 1}).k == 2

    def test_transversal_groups_two_parts(self):
        slot = SlotAssignment({"A": 0, "B": 0, "C": 1, "D": 1, "E": 1})
        assert authorized_groups(slot) == frozenset(
            frozenset(g) for g in ["AC", "AD", "AE", "BC", "BD", "BE"])

    def test_transversal_groups_unassigned_member(self):
        slot = SlotAssignment({"A": 0, "C": 1, "D": 2, "E": 2})
        assert authorized_groups(slot) == frozenset(
            frozenset(g) for g in ["ACD", "ACE"])

    def test_single_part(self):
        slot = SlotAssignment({"A": 0})
        assert authorized_groups(slot) == frozenset({frozenset({"A"})})


def test_balanced_parts_layout():
    """Every slot's layout: k contiguous, non-empty runs covering range(n),
    sizes within 1 of each other, the larger runs first."""
    for n in range(1, 65):
        for k in range(1, n + 1):
            runs = _balanced_parts(range(n), k)
            assert len(runs) == k
            assert [i for run in runs for i in run] == list(range(n))
            sizes = [len(run) for run in runs]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)
    assert _balanced_parts(range(12), 3) == [range(0, 4), range(4, 8), range(8, 12)]
    with pytest.raises(InsufficientPrimes):
        _balanced_parts(range(2), 3)


class TestBaselinePlans:
    def test_pair_family_structure(self):
        plan = slots_baseline(family_of("AB"), 12, ABCDE)
        assert len(plan.slots) == 1
        slot = plan.slots[0]
        assert slot.member_part == {"A": 0, "B": 1}

    def test_singleton_group(self):
        plan = slots_baseline(frozenset({frozenset({"A"})}), 12, ABCDE)
        assert len(plan.slots) == 1
        assert plan.slots[0].member_part == {"A": 0}

    def test_airplane_family_exact(self, airplane):
        plan = slots_baseline(airplane.expected_family, 12, ABCDE)
        assert len(plan.slots) == 16
        assert plan.authorized_family() == airplane.expected_family

    def test_too_large_group(self):
        for planner in (slots_baseline, slots_packed):
            for family in (frozenset({frozenset(ABCDE)}), family_of("AB", "CD", "ABCD")):
                with pytest.raises(InsufficientPrimes):
                    planner(family, 3, ABCDE)


class TestPackedPlans:
    def test_six_pair_family_packs_to_one_slot(self):
        fam = frozenset(frozenset(g) for g in ["AC", "AD", "AE", "BC", "BD", "BE"])
        plan = slots_packed(fam, 12, ABCDE)
        assert len(plan.slots) == 1
        assert plan.authorized_family() == fam

    def test_trivial_family(self):
        fam = frozenset({frozenset({"A1", "A2"})})
        plan = slots_packed(fam, 8, ("A1", "A2"))
        assert len(plan.slots) == 1
        assert plan.authorized_family() == fam

    def test_airplane_family_exact_and_compact(self, airplane):
        packed = slots_packed(airplane.expected_family, 12, ABCDE)
        baseline = slots_baseline(airplane.expected_family, 12, ABCDE)
        assert packed.authorized_family() == airplane.expected_family
        assert len(packed.slots) <= 16
        assert len(packed.slots) <= len(baseline.slots)

    def test_hand_packed_plan_validates(self, airplane):
        # the bundled 7-slot demo plan authenticates exactly the demo family,
        # row by row
        plan = airplane.plan
        expected_rows = [
            ["AC", "AD", "AE", "BC", "BD", "BE"],
            ["ABC", "ABD", "ABE"],
            ["ACD", "ACE"],
            ["BCD", "BCE"],
            ["ADE"],
            ["BDE"],
            ["AB"],
        ]
        for slot, row in zip(plan.slots, expected_rows):
            assert authorized_groups(slot) == frozenset(frozenset(g) for g in row)
        assert plan.authorized_family() == airplane.expected_family

    def test_random_families_exact(self):
        rng = random.Random(17)
        all_groups = [
            frozenset(c)
            for r in range(1, 6)
            for c in itertools.combinations(ABCDE, r)
        ]
        for _ in range(50):
            fam = frozenset(g for g in all_groups if rng.random() < 0.3)
            if not fam:
                continue
            packed = slots_packed(fam, 12, ABCDE)
            baseline = slots_baseline(fam, 12, ABCDE)
            assert packed.authorized_family() == fam
            assert baseline.authorized_family() == fam
            assert len(packed.slots) <= len(baseline.slots)

    def test_plan_determinism(self, airplane):
        a = slots_packed(airplane.expected_family, 12, ABCDE)
        b = slots_packed(airplane.expected_family, 12, ABCDE)
        assert a == b
        assert slots_baseline(airplane.expected_family, 12, ABCDE) == \
            slots_baseline(airplane.expected_family, 12, ABCDE)


class TestIssuance:
    def test_monotone_shares(self, small):
        assert small.shares["A1"].prime_subset == frozenset({2, 3, 5, 7})
        assert small.shares["A1"].s == 5642069
        assert small.shares["A2"].prime_subset == frozenset({11, 13, 17, 19})
        for share in small.shares.values():
            assert share.prime_subset

    def test_single_holder_gets_all(self):
        _, priv = keygen(8)
        split = bl_split(parse("A", ("A",)), range(8))
        shares = issue_monotone(split, priv)
        assert shares["A"].prime_subset == frozenset(priv.primes)

    def test_sequence_column_a(self, airplane):
        seq = airplane.shares["A"]
        assert seq.slots == (
            frozenset({2, 3, 5, 7, 11, 13}),
            frozenset({2, 3, 5, 7}),
            frozenset({2, 3, 5, 7}),
            None,
            frozenset({2, 3, 5, 7}),
            None,
            frozenset({2, 3, 5, 7, 11, 13}),
        )

    def test_sequence_column_e_last_null(self, airplane):
        assert airplane.shares["E"].slots[6] is None

    def test_one_slot_plan(self):
        _, priv = keygen(8)
        plan = slots_baseline(frozenset({frozenset({"A"})}), 8, ("A",))
        seqs = issue_sequence(plan, priv)
        assert seqs["A"].slots == (frozenset(priv.primes),)

    def test_plan_key_mismatch(self, airplane):
        _, priv8 = keygen(8)
        with pytest.raises(ValueError):
            issue_sequence(airplane.plan, priv8)


class TestPlanValidation:
    def test_more_parts_than_indices(self):
        slot = SlotAssignment({"A": 0, "B": 1, "C": 2})
        with pytest.raises(InsufficientPrimes,
                           match=r"^group of 3 members exceeds 2 prime indices$"):
            SlotPlan(universe=("A", "B", "C"), n=2, slots=[slot])
        assert SlotPlan(universe=("A", "B", "C"), n=3, slots=[slot]).slots == [slot]

    def test_slot_holder_outside_universe(self):
        slot = SlotAssignment({"Z": 0})
        with pytest.raises(ValueError):
            SlotPlan(universe=("A",), n=4, slots=[slot])


def ten_holder_plan(n=16):
    """The `audit10` benchmark's packed plan: the ten-holder policy, groups of at most 4."""
    family = authorized_family(parse(TEN_POLICY, TEN), TEN, 4)
    return slots_packed(family, n, TEN)


class TestShareReading:
    """`reading`: a share's primes together, and one mask per slot."""

    def test_masks_read_each_slot(self, airplane):
        _, priv = keygen(16, seed=3)
        rng = random.Random(2)
        for shares in (airplane.shares, issue_sequence(ten_holder_plan(), priv)):
            for share in shares.values():
                primes, masks = share.reading
                assert len(masks) == len(share.slots)
                assert set(primes) == set().union(*(s for s in share.slots if s is not None))
                for _ in range(20):
                    # a random part of the primes times a cofactor: a mix of set
                    # and clear bits in each slot
                    u = rng.randrange(1, share.p) * math.prod(
                        q for q in primes if rng.random() < 0.5)
                    bits = residue_bits(u, primes)
                    # an audit reads once per key, over all n primes
                    wide = residue_bits(u, system_primes(share.n))
                    for slot, mask in zip(share.slots, masks):
                        assert (mask is None) == (slot is None)
                        if slot is not None:
                            assert bits & mask == wide & mask == residue_bits(u, slot)

    def test_key_share_reads_its_one_slot(self, small):
        rng = random.Random(4)
        for share in small.shares.values():
            primes, masks = share.reading
            assert primes == tuple(sorted(share.prime_subset)) and len(masks) == 1
            for _ in range(20):
                u = rng.randrange(1, share.p) * math.prod(
                    q for q in primes if rng.random() < 0.5)
                assert residue_bits(u, small.priv.primes) & masks[0] == residue_bits(u, primes)

    def test_key_share_is_a_share_of_one_slot(self, small):
        # small's split, and a 64-prime split of the ten-holder policy
        _, priv = keygen(64, seed=7)
        wide = issue_monotone(bl_split(parse(TEN_POLICY, TEN), range(64)), priv)
        assert len(wide) == len(TEN)
        for share in [*small.shares.values(), *wide.values()]:
            assert isinstance(share, Share)
            assert share.slots == (share.prime_subset,)
            one_slot = ShareSequence(share.holder, share.s, share.p, 64, (share.prime_subset,))
            assert share.reading == one_slot.reading

    @staticmethod
    def check_reading_is_no_field(fresh, share):
        before = (repr(fresh), hash(fresh), files.dumps(fresh))
        assert "reading" not in fresh.__dict__
        fresh.reading
        assert "reading" in fresh.__dict__
        assert fresh == share and hash(fresh) == hash(share)
        assert (repr(fresh), hash(fresh), files.dumps(fresh)) == before
        assert "reading" not in repr(fresh) and "reading" not in files.dumps(fresh)
        assert files.from_document(files.to_document(fresh)) == fresh

    def test_reading_is_no_field(self, airplane):
        share = airplane.shares["A"]
        self.check_reading_is_no_field(
            ShareSequence(share.holder, share.s, share.p, share.n, share.slots), share)

    def test_key_share_reading_is_no_field(self, small):
        share = small.shares["A1"]
        self.check_reading_is_no_field(
            KeyShare(share.holder, share.s, share.p, share.prime_subset), share)
