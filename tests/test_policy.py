import functools
import itertools
import random

import pytest

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
    is_monotone,
    parse,
    render,
)
from groupauth.protocol import audit
from groupauth.sharesplit import bl_split
from conftest import random_monotone_expr

ABCDE = ("A", "B", "C", "D", "E")
INTRO = "(A and B) or ((A or B) and (C or D or E))"


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
        assert is_monotone(parse(INTRO, ABCDE))

    def test_not_detected(self):
        assert not is_monotone(parse("A and not B", ABCDE))

    def test_double_negation_is_syntactic(self):
        assert not is_monotone(parse("not (not A)", ABCDE))


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

