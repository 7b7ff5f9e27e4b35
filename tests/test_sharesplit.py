import hashlib
import itertools
import random

import pytest

from groupauth.nscrypt import keygen
from groupauth.policy import (And, Or, Var, authorized_family, evaluate, parse, truth_table,
                             variables)
from groupauth.sharesplit import (
    GroupLargerThanPrimeCount,
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
from groupauth.sharesplit import (_grow_classes, _maximal_unsat, _plain_descent,
                                  _split_is_exact)
from conftest import random_monotone_expr

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


def random_family(rng, universe, density):
    return frozenset(
        frozenset(c)
        for r in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, r)
        if rng.random() < density)


def reference_grow_classes(seed, remaining, universe):
    """Sweeps until nothing changes, the oracle for one-pass `_grow_classes`."""
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
        for seed in family:
            assert _grow_classes(seed, family, universe) == \
                reference_grow_classes(seed, family, universe)


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
            ([sorted(part) for part in slot.parts], list(slot.member_part.items()))
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


TEN = tuple("ABCDEFGHIJ")
TEN_POLICY = ("(A and B) or ((A or B) and (C or D or E))"
              " or ((C or D) and (F or G) and (H or I or J))")


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


class TestSlotAssignment:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlotAssignment(parts=(), member_part={})
        with pytest.raises(ValueError):
            SlotAssignment(parts=(frozenset(),), member_part={"A": 0})
        with pytest.raises(ValueError):
            SlotAssignment(parts=(frozenset({0}), frozenset({0})),
                           member_part={"A": 0, "B": 1})
        with pytest.raises(ValueError):
            SlotAssignment(parts=(frozenset({0}), frozenset({1})),
                           member_part={"A": 0})  # part 1 unassigned

    def test_transversal_groups_two_parts(self):
        slot = SlotAssignment(
            parts=(frozenset(range(6)), frozenset(range(6, 12))),
            member_part={"A": 0, "B": 0, "C": 1, "D": 1, "E": 1})
        assert authorized_groups(slot) == frozenset(
            frozenset(g) for g in ["AC", "AD", "AE", "BC", "BD", "BE"])

    def test_transversal_groups_unassigned_member(self):
        slot = SlotAssignment(
            parts=(frozenset(range(4)), frozenset(range(4, 8)), frozenset(range(8, 12))),
            member_part={"A": 0, "C": 1, "D": 2, "E": 2})
        assert authorized_groups(slot) == frozenset(
            frozenset(g) for g in ["ACD", "ACE"])

    def test_single_part(self):
        slot = SlotAssignment(parts=(frozenset(range(12)),), member_part={"A": 0})
        assert authorized_groups(slot) == frozenset({frozenset({"A"})})


class TestBaselinePlans:
    def test_pair_family_structure(self):
        plan = slots_baseline(family_of("AB"), 12, ABCDE)
        assert len(plan.slots) == 1
        slot = plan.slots[0]
        assert slot.member_part == {"A": 0, "B": 1}
        assert slot.parts == (frozenset(range(6)), frozenset(range(6, 12)))

    def test_singleton_group(self):
        plan = slots_baseline(frozenset({frozenset({"A"})}), 12, ABCDE)
        assert len(plan.slots) == 1
        assert plan.slots[0].parts == (frozenset(range(12)),)

    def test_airplane_family_exact(self, airplane):
        plan = slots_baseline(airplane.expected_family, 12, ABCDE)
        assert len(plan.slots) == 16
        assert plan.authorized_family() == airplane.expected_family

    def test_too_large_group(self):
        for planner in (slots_baseline, slots_packed):
            for family in (frozenset({frozenset(ABCDE)}), family_of("AB", "CD", "ABCD")):
                with pytest.raises(GroupLargerThanPrimeCount):
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

    def test_parts_partition_indices(self, airplane):
        for plan in (airplane.plan,
                     slots_packed(airplane.expected_family, 12, ABCDE)):
            for slot in plan.slots:
                union = set()
                for part in slot.parts:
                    assert part
                    assert not (part & union)
                    union |= part
                assert union == set(range(12))


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
    def test_slot_must_cover_all_indices(self):
        slot = SlotAssignment(parts=(frozenset({0, 1}),), member_part={"A": 0})
        with pytest.raises(ValueError):
            SlotPlan(universe=("A",), n=4, slots=[slot])

    def test_slot_holder_outside_universe(self):
        slot = SlotAssignment(parts=(frozenset(range(4)),), member_part={"Z": 0})
        with pytest.raises(ValueError):
            SlotPlan(universe=("A",), n=4, slots=[slot])
