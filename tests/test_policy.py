import functools
import gc
import itertools
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupauth import fixtures
from groupauth.nscrypt import KeyShare
from groupauth.policy import (
    And,
    Not,
    Or,
    ParseError,
    PolicyError,
    UnknownHolder,
    Var,
    authorized_family,
    evaluate,
    parse,
    render,
    subset_matches,
    variables,
)
from groupauth.policy import _LANE_BITS, _lane_count, _packed_fold
from groupauth.protocol import audit
from groupauth.sharesplit import InsufficientPrimes, NonMonotoneError, _maximal_unsat, bl_split
from conftest import random_monotone_expr

ABCDE = ("A", "B", "C", "D", "E")
INTRO = "(A and B) or ((A or B) and (C or D or E))"
NOT_REFUSED = ("^policy is non-monotone \\(contains NOT\\); "
               "monotone mode needs AND/OR only$")


# policy text `depth` levels deep, innermost holder A
NESTED = {
    "and-or": lambda depth: functools.reduce(
        lambda text, i: f"(B {'and' if i % 2 else 'or'} {text})", range(depth), "A"),
    "not": lambda depth: "not " * depth + "A",
    "not-paren": lambda depth: (
        "not (" * (depth // 2) + "not " * (depth % 2) + "A" + ")" * (depth // 2)),
}


def with_nots(rng, expr):
    """The expression with random subtrees negated."""
    if not isinstance(expr, Var):
        expr = type(expr)(tuple(with_nots(rng, c) for c in expr.children))
    return Not(expr) if rng.random() < 0.3 else expr


def brute_eval(expr, present):
    """Independent recursive evaluator used as the oracle."""
    if isinstance(expr, Var):
        return expr.name in present
    if isinstance(expr, Not):
        return not brute_eval(expr.child, present)
    results = [brute_eval(c, present) for c in expr.children]
    return all(results) if isinstance(expr, And) else any(results)


class TestParse:
    def test_intro_policy_shape(self):
        expr = parse(INTRO, ABCDE)
        assert expr == Or((
            And((Var("A"), Var("B"))),
            And((Or((Var("A"), Var("B"))), Or((Var("C"), Var("D"), Var("E"))))),
        ))

    def test_pair_policy_shape(self):
        expr = parse("(A1 and A2) or (A1 and A3)", ("A1", "A2", "A3"))
        assert expr == Or((
            And((Var("A1"), Var("A2"))),
            And((Var("A1"), Var("A3"))),
        ))
        # a name that recurs under a later branch keeps its first place
        assert variables(expr) == ("A1", "A2", "A3")
        assert variables(parse("(B and A) or (A and C)", ABCDE)) == ("B", "A", "C")

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse("A and", ("A",))
        assert "end of input" in str(err.value)

    def test_unknown_holder(self):
        with pytest.raises(UnknownHolder):
            parse("A and Z", ABCDE)

    def test_aliases(self):
        assert parse("A & B | !C", ABCDE) == parse("A and B or not C", ABCDE)

    def test_precedence(self):
        # not > and > or
        expr = parse("not A and B or C", ABCDE)
        assert expr == Or((And((Not(Var("A")), Var("B"))), Var("C")))

    def test_nary_flattening(self):
        expr = parse("A and B and C", ABCDE)
        assert expr == And((Var("A"), Var("B"), Var("C")))

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("A + B", ABCDE)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("A B", ABCDE)

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_depth_100_parses(self, shape):
        expr = parse(NESTED[shape](100), ("A", "B"))
        assert parse(render(expr), ("A", "B")) == expr
        groups = [frozenset(g) for g in ({"A"}, {"B"}, {"A", "B"})]
        assert [evaluate(expr, g) for g in groups] == [brute_eval(expr, g) for g in groups]
        assert authorized_family(expr, ("A", "B")) == {
            g for g in groups if brute_eval(expr, g)}
        assert variables(expr) == (("B", "A") if shape == "and-or" else ("A",))
        if shape == "and-or":  # B and (B or (B and ...)) is B, so only {A} fails
            assert _maximal_unsat(expr, ("A", "B")) == [0b01]
        else:
            with pytest.raises(NonMonotoneError, match=NOT_REFUSED):
                bl_split(expr, range(8))

    @pytest.mark.parametrize("shape", NESTED)
    def test_nesting_depth_101_refused(self, shape):
        # the parser used to recurse until RecursionError
        text = NESTED[shape](101)
        with pytest.raises(ParseError, match="nested deeper than 100 levels") as err:
            parse(text, ("A", "B"))
        assert err.value.position == max(text.rfind("("), text.rfind("not"))

    def test_universe_validation(self):
        with pytest.raises(PolicyError):
            parse("A", ())
        with pytest.raises(PolicyError):
            parse("A", ("A", "A"))
        with pytest.raises(PolicyError):
            parse("A", tuple(f"h{i}" for i in range(21)))

    @pytest.mark.parametrize("name", ["and", "or", "not"])
    def test_keyword_holder_name_refused(self, name):
        # parse reads these as keywords, so no policy could name the holder
        with pytest.raises(PolicyError, match=f"^invalid holder name: '{name}'$"):
            parse("A", ("A", name))

    def test_holder_name_length_cap(self):
        # share_<name>.json must fit a 255-byte file name
        name = "B" * 64
        assert parse(f"A and {name}", ("A", name)) == And((Var("A"), Var(name)))
        with pytest.raises(PolicyError, match="^holder name longer than 64 characters"):
            parse("A", ("A", name + "B"))

    @pytest.mark.parametrize("text, message, position", [
        ("A + B", "unexpected character '+'", 2),
        ("A and\t\xe9", "unexpected character '\xe9'", 6),
        ("A and", "unexpected end of input", 5),
        ("", "unexpected end of input", 0),
        ("A and or B", "unexpected 'or'", 6),
        ("| A", "unexpected 'or'", 0),
        ("()", "unexpected ')'", 1),
        ("(A and B", "expected ')'", 8),
        ("(A B)", "expected ')'", 3),
        ("A B", "trailing input 'B'", 2),
        ("A )", "trailing input ')'", 2),
        ("A ! B", "trailing input 'not'", 2),
        ("(" * 101 + "A" + ")" * 101, "policy nested deeper than 100 levels", 100),
    ])
    def test_parse_error_table(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, ABCDE)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_unknown_holder_message(self):
        with pytest.raises(UnknownHolder) as err:
            parse("A and Z", ABCDE)
        assert str(err.value) == "unknown holder 'Z' (at position 6)"

    def test_tokens(self):
        # only lower-case keywords are operators; any Unicode space separates
        holders = ("A", "B", "AND", "and_")
        assert parse("AND and and_", holders) == And((Var("AND"), Var("and_")))
        assert parse("A\tand\nB\xa0or\r\nnot AND", holders) == parse(
            "A and B or not AND", holders)

    def test_parse_leaves_no_garbage_cycles(self):
        # what a parse builds, it frees by reference counting, failed or not
        gc.collect()
        gc.disable()
        try:
            parse(INTRO, ABCDE)
            for text in ["(A and", "A and Z", NESTED["not-paren"](101)]:
                try:
                    parse(text, ABCDE)
                except PolicyError:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()


HOSTILE_UNIVERSE = ("A", "B", "AND", "and_")
HOSTILE_TEXT = st.lists(st.sampled_from([
    "A", "B", "Z", "AND", "and_", "and", "or", "not", "&", "|", "!", "(", ")",
    " ", "\t", "\n", "\xa0", "\xe9", "1", "_", "+", "",
]), max_size=24).map("".join)


@given(HOSTILE_TEXT)
def test_parse_outcomes_are_a_tree_or_a_policy_error(text):
    try:
        tree = parse(text, HOSTILE_UNIVERSE)
    except UnknownHolder:
        return
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        return
    assert parse(render(tree), HOSTILE_UNIVERSE) == tree
    assert set(variables(tree)) <= set(HOSTILE_UNIVERSE)


H21 = tuple(f"h{i}" for i in range(21))


def _audit_21():
    small = fixtures.small_system()
    share = small.shares["A1"]
    shares = {h: KeyShare(holder=h, s=share.s, p=share.p, prime_subset=share.prime_subset)
              for h in H21}
    audit(small.priv, shares, frozenset(), mode="monotone", merge="or")


@pytest.mark.parametrize("call", [
    lambda: parse("h0", H21),
    lambda: authorized_family(Var("h0"), H21),
    lambda: bl_split(Or(tuple(Var(h) for h in H21)), range(12)),
    _audit_21,
], ids=["parse", "authorized_family", "bl_split", "audit"])
def test_21_holders_rejected_everywhere(call):
    with pytest.raises(PolicyError, match="larger than 20 holders"):
        call()


class TestRender:
    def test_roundtrip_fixed(self):
        for text in [INTRO, "A and not (B or C)", "not not A", "A or B or C and D"]:
            expr = parse(text, ABCDE)
            assert parse(render(expr), ABCDE) == expr

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            expr = random_monotone_expr(rng, ABCDE)
            assert parse(render(expr), ABCDE) == expr


class TestEvaluate:
    def test_intro_examples(self):
        expr = parse(INTRO, ABCDE)
        assert evaluate(expr, {"A", "C"})
        assert not evaluate(expr, {"C", "D"})

    def test_empty_set_monotone(self):
        rng = random.Random(5)
        for _ in range(50):
            expr = random_monotone_expr(rng, ABCDE)
            assert not evaluate(expr, set())

    def test_monotone_growth(self):
        rng = random.Random(6)
        for _ in range(100):
            expr = random_monotone_expr(rng, ABCDE)
            g = {h for h in ABCDE if rng.random() < 0.4}
            bigger = g | {rng.choice(ABCDE)}
            if evaluate(expr, g):
                assert evaluate(expr, bigger)


class TestMonotonicity:
    def test_intro_is_monotone(self):
        assert set(bl_split(parse(INTRO, ABCDE), range(8))) == set(ABCDE)

    def test_not_detected(self):
        with pytest.raises(NonMonotoneError, match=NOT_REFUSED):
            bl_split(parse("A and not B", ABCDE), range(8))

    def test_double_negation_is_syntactic(self):
        with pytest.raises(NonMonotoneError, match=NOT_REFUSED):
            bl_split(parse("not (not A)", ABCDE), range(8))

    def test_maximal_unsat_refuses_not(self):
        # the fold's NOT step refuses, so a caller of `_maximal_unsat` that
        # skips `bl_split` gets the same refusal
        with pytest.raises(NonMonotoneError, match=NOT_REFUSED):
            _maximal_unsat(parse("A and not B", ABCDE), ABCDE)

    def test_index_checks_come_first(self):
        # NOT is refused by the fold, after the distinct-index and empty-index checks
        expr = parse("A and not B", ABCDE)
        with pytest.raises(ValueError, match="^prime indices must be distinct$"):
            bl_split(expr, [0, 0])
        with pytest.raises(InsufficientPrimes, match="^no prime indices to split$"):
            bl_split(expr, [])


def has_not(expr):
    """Whether the tree holds a Not node, by a walk of its own."""
    if isinstance(expr, Var):
        return False
    if isinstance(expr, Not):
        return True
    return any(has_not(c) for c in expr.children)


@given(rng=st.randoms(use_true_random=False), negate=st.booleans())
def test_bl_split_refuses_exactly_the_trees_with_not(rng, negate):
    expr = random_monotone_expr(rng, ABCDE)
    if negate:
        expr = with_nots(rng, expr)
    if has_not(expr):
        with pytest.raises(NonMonotoneError, match=NOT_REFUSED):
            bl_split(expr, range(64))
    else:  # at most C(5, 2) maximal unauthorized sets and AND fan-in 27, both below 64
        assert set(bl_split(expr, range(64))) == set(variables(expr))


class TestAuthorizedFamily:
    def test_intro_capped_at_three(self):
        expr = parse(INTRO, ABCDE)
        family = authorized_family(expr, ABCDE, max_size=3)
        expected = {
            frozenset(s) for s in [
                "AB", "AC", "AD", "AE", "BC", "BD", "BE",
                "ABC", "ABD", "ABE", "ACD", "ACE", "ADE", "BCD", "BCE", "BDE",
            ]
        }
        assert family == expected
        assert len(family) == 16

    def test_intro_uncapped_contains_supersets(self):
        expr = parse(INTRO, ABCDE)
        family = authorized_family(expr, ABCDE)
        assert frozenset("ABCD") in family
        assert frozenset("ABCDE") in family

    def test_two_holder_and(self):
        expr = parse("A1 and A2", ("A1", "A2"))
        assert authorized_family(expr, ("A1", "A2")) == {frozenset({"A1", "A2"})}

    def test_matches_brute_force(self):
        # monotone and negated expressions, over the full universe and over
        # one that omits a policy holder (who then reads as absent)
        rng = random.Random(21)
        for _ in range(60):
            monotone = random_monotone_expr(rng, ABCDE)
            for expr in (monotone, with_nots(rng, monotone)):
                for universe in (ABCDE, ABCDE[:4]):
                    family = authorized_family(expr, universe)
                    oracle = set()
                    for r in range(1, len(universe) + 1):
                        for combo in itertools.combinations(universe, r):
                            if brute_eval(expr, set(combo)):
                                oracle.add(frozenset(combo))
                    assert family == frozenset(oracle)
                    assert all(evaluate(expr, g) for g in family)

    def test_max_size_filter(self):
        expr = parse("A or B", ABCDE)
        family = authorized_family(expr, ABCDE, max_size=1)
        assert family == {frozenset({"A"}), frozenset({"B"})}

    @pytest.mark.parametrize("max_size", [0, -1, True, 2.0, "3"])
    def test_max_size_must_be_an_int_of_at_least_one(self, max_size):
        # a cap below 1 gave the empty family, and True read as 1
        with pytest.raises(ValueError, match=r"^max_size must be an int >= 1$"):
            authorized_family(parse(INTRO, ABCDE), ABCDE, max_size)



def fold_widths(columns, n):
    """The lane widths for folding columns of values below 2^n, by both rules:
    the audit's, the bit length of the largest column's sum and at least n,
    and the looser (h·(2^n − 1)).bit_length() for h values a column."""
    return (max(n, max(map(sum, columns)).bit_length(), 1),
            max(len(columns[0]) * ((1 << n) - 1), 1).bit_length())


def unpacked_fold(values, combine, width):
    """`_packed_fold` at one lane of `width` bits, one entry per subset."""
    total = width << len(values)
    digits = format(_packed_fold(values, combine, width, 1, width), f"0{total}b")
    return [int(digits[i - width:i], 2) for i in range(total, 0, -width)]


# The three @given tests that take a `combine` parametrization are module
# functions: as methods, each case runs on a new instance, which Hypothesis
# flags as a differing executor wherever its pytest plugin is not loaded.
@pytest.mark.parametrize("combine", [operator.or_, operator.add, operator.xor])
@given(values=st.lists(st.integers(min_value=0, max_value=1 << 70), max_size=7))
def test_subset_fold_entry_folds_its_set_bits(combine, values):
    for width in fold_widths([values], max(values, default=0).bit_length()):
        folded = unpacked_fold(values, combine, width)
        assert len(folded) == 1 << len(values)
        for a, value in enumerate(folded):
            members = [v for j, v in enumerate(values) if (a >> j) & 1]
            assert value == functools.reduce(combine, members, 0), (a, width)


def list_fold(values, combine):
    """Every subset's fold as a list, doubled once per value: the reference layout."""
    acc = [0]
    for v in values:
        acc += [combine(x, v) for x in acc]
    return acc


def list_matches(columns, combine, target):
    return sorted({a for column in columns
                   for a, value in enumerate(list_fold(column, combine)) if value == target})


@st.composite
def fold_cases(draw):
    """Columns of h values below 2^n, with the edge values 0, 1, 2^n - 1 and m
    drawn often, and n."""
    n = draw(st.integers(min_value=2, max_value=64))
    h = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    value = st.one_of(st.sampled_from([0, 1, (1 << n) - 1, m]),
                      st.integers(min_value=0, max_value=(1 << n) - 1))
    column = st.lists(value, min_size=h, max_size=h)
    return draw(st.lists(column, min_size=1, max_size=4)), m, n


@pytest.mark.parametrize("combine", [operator.or_, operator.add, operator.xor])
@given(case=fold_cases())
def test_subset_matches_list_fold(combine, case):
    columns, m, n = case
    for width in fold_widths(columns, n):
        got = subset_matches(columns, combine, m, width=width, lanes=1)
        assert got == list_matches(columns, combine, m), width


class TestSubsetMatches:
    @pytest.mark.parametrize("combine", [operator.or_, operator.add, operator.xor])
    def test_ten_holders_many_matches(self, combine):
        # 1,024 fields a column and 26 columns, as in the ten-holder audit;
        # columns of one m and zeros match half of all subsets
        rng = random.Random(17)
        m = 0x68A0
        columns = [[rng.choice([0, m, rng.randrange(1 << 16)]) for _ in range(10)]
                   for _ in range(24)]
        columns += [[m] + [0] * 9, [m] * 10]
        for width in fold_widths(columns, 16):
            matches = subset_matches(columns, combine, m, width=width, lanes=1)
            assert len(matches) >= 512
            assert matches == list_matches(columns, combine, m), width


def pack_lanes(columns, width, lanes):
    """Per-slot columns as `audit` packs them: slot g·lanes + c in lane c of int g."""
    return [[sum(column[j] << c * width for c, column in enumerate(columns[g:g + lanes]))
             for j in range(len(columns[0]))]
            for g in range(0, len(columns), lanes)]


@st.composite
def lane_cases(draw):
    """Slot columns of h values below 2^n, a lane count with a partial last int
    drawn often, a width, and a target that some subset often folds to.

    The width is either of `fold_widths`; under the audit's rule a slot of
    values at 2^n - 1 sets its lane's top bit."""
    n = draw(st.integers(min_value=1, max_value=20))
    h = draw(st.integers(min_value=1, max_value=6))
    lanes = draw(st.integers(min_value=1, max_value=6))
    top = (1 << n) - 1
    value = st.one_of(st.sampled_from([0, 1, top]), st.integers(min_value=0, max_value=top))
    columns = draw(st.lists(st.lists(value, min_size=h, max_size=h),
                            min_size=1, max_size=3 * lanes))
    width = draw(st.sampled_from(fold_widths(columns, n)))
    column, subset = draw(st.sampled_from(columns)), draw(st.integers(0, (1 << h) - 1))
    folded = [v for j, v in enumerate(column) if subset >> j & 1]
    return columns, lanes, width, folded, draw(st.integers(min_value=1, max_value=top))


@pytest.mark.parametrize("combine", [operator.or_, operator.add, operator.xor])
@given(case=lane_cases())
def test_lane_matches_list_fold(combine, case):
    columns, lanes, width, folded, drawn = case
    packed = pack_lanes(columns, width, lanes)
    for m in (functools.reduce(combine, folded, 0), drawn):
        if m >= 1:  # a lane-packed target is at least 1
            got = subset_matches(packed, combine, m, width=width, lanes=lanes)
            assert got == list_matches(columns, combine, m), (m, lanes)


class TestLaneMatches:
    def test_zero_target_refused_with_lanes(self):
        # a spare lane of the last int folds to 0 for every subset, so target 0
        # would match them all: refused, while with one lane only the empty subset does
        columns = [[1, 2], [2, 1], [3, 3]]
        packed = pack_lanes(columns, 3, 2)
        with pytest.raises(ValueError, match="^lane-packed columns need a target >= 1"):
            subset_matches(packed, operator.add, 0, width=3, lanes=2)
        assert subset_matches(columns, operator.add, 0, width=3, lanes=1) == [0]

    def test_width_is_given_and_holds_the_target(self):
        packed = pack_lanes([[1, 2], [2, 1]], 3, 2)
        for layout in ({"lanes": 2}, {"width": 3}):  # the caller fixes both
            with pytest.raises(TypeError, match="missing 1 required keyword-only argument"):
                subset_matches(packed, operator.add, 3, **layout)
        with pytest.raises(ValueError, match="^the target does not fit a lane of 3 bits$"):
            subset_matches(packed, operator.add, 8, width=3, lanes=2)
        assert subset_matches(packed, operator.add, 3, width=3, lanes=2) == [3]


# (width, lanes) whose fields of width·lanes bits are no whole hex digits, so
# the walk pads each; below 4 bits a lane puts the next lane's flag inside the
# hex digit that holds its field's flag
UNEVEN_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 3), (5, 2), (7, 3)]


class TestHexWalk:
    @pytest.mark.parametrize("width, lanes", UNEVEN_FIELDS)
    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_every_subset_matches(self, h, width, lanes):
        # 1 in every lane of every value: every non-empty subset ORs to 1, and
        # with one lane every subset, the empty one too, sums zeros to 0
        packed = pack_lanes([[1] * h] * lanes, width, lanes)
        every = list(range(1, 1 << h))
        assert subset_matches(packed, operator.or_, 1, width=width, lanes=lanes) == every
        if lanes == 1:
            assert subset_matches([[0] * h], operator.add, 0, width=width, lanes=1) == [0, *every]

    @pytest.mark.parametrize("width, lanes", UNEVEN_FIELDS)
    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_only_the_last_field_matches(self, h, width, lanes):
        # ones in the last lane of one int, or in the one lane of a partial
        # second int: only the subset of all h sums to h there
        for slots in ([[0] * h] * (lanes - 1) + [[1] * h], [[0] * h] * lanes + [[1] * h]):
            packed = pack_lanes(slots, width, lanes)
            got = subset_matches(packed, operator.add, h, width=width, lanes=lanes)
            assert got == list_matches(slots, operator.add, h) == [(1 << h) - 1]

    @pytest.mark.parametrize("width, lanes", UNEVEN_FIELDS)
    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_nothing_matches(self, h, width, lanes):
        slots = [[1] * h] * lanes
        packed = pack_lanes(slots, width, lanes)
        for combine in (operator.or_, operator.add, operator.xor):
            assert subset_matches(packed, combine, h + 1, width=width, lanes=lanes) == []

    @pytest.mark.parametrize("width, lanes", UNEVEN_FIELDS)
    def test_pitch_spaces_fields(self, width, lanes):
        # field a starts at a·pitch and nothing sits between its lanes and the next
        values = [(1 << width * lanes) - 1 - j for j in range(3)]
        pitch = -(-width * lanes // 4) * 4
        folded = _packed_fold(values, operator.or_, width, lanes, pitch)
        field = (1 << width * lanes) - 1
        assert [folded >> a * pitch & field for a in range(8)] == list_fold(values, operator.or_)
        assert folded >> 8 * pitch == 0
        assert all(folded >> a * pitch + width * lanes & (1 << pitch - width * lanes) - 1 == 0
                   for a in range(8))


def test_lane_count_keeps_packed_ints_within_lane_bits():
    # every width of n to n + 4 bits for n in [2, 64], 1 to 12 positions and
    # 1 to 30 slots: an int of more than one lane, its 2^h fields padded to
    # whole hex digits, spans at most `_LANE_BITS`, the slots take as few ints
    # as the most lanes that fit would, and as few lanes as fill those ints
    def pitch(width, lanes):
        return -(-width * lanes // 4) * 4

    for width in range(2, 69):
        for h in range(1, 13):
            for slots in range(1, 31):
                lanes = _lane_count(width, slots, h)
                fit = max([k for k in range(1, slots + 1)
                           if pitch(width, k) << h <= _LANE_BITS], default=1)
                assert 1 <= lanes <= fit, (width, h, slots)
                assert lanes == 1 or pitch(width, lanes) << h <= _LANE_BITS
                ints = -(-slots // fit)
                assert -(-slots // lanes) == ints and lanes == -(-slots // ints), (width, h, slots)
