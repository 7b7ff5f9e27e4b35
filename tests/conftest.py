import itertools
import random

import pytest

from groupauth import fixtures, policy

# the ten-holder policy of the `audit10` and `session-seq64` benchmark workloads
TEN = tuple("ABCDEFGHIJ")
TEN_POLICY = ("(A and B) or ((A or B) and (C or D or E))"
              " or ((C or D) and (F or G) and (H or I or J))")


@pytest.fixture(scope="session")
def airplane():
    return fixtures.airplane_system()


@pytest.fixture(scope="session")
def small():
    return fixtures.small_system()


def random_monotone_expr(rng: random.Random, names: tuple[str, ...], depth: int = 3):
    """Random AND/OR tree over the given names (no NOT)."""

    def gen(d):
        if d == 0 or rng.random() < 0.35:
            return policy.Var(rng.choice(names))
        node_cls = policy.And if rng.random() < 0.5 else policy.Or
        children = []
        for _ in range(rng.randint(2, 3)):
            kid = gen(d - 1)
            if isinstance(kid, node_cls):
                children.extend(kid.children)
            else:
                children.append(kid)
        if len(children) < 2:
            return children[0]
        return node_cls(tuple(children))

    return gen(depth)


def random_family(rng: random.Random, universe: tuple[str, ...], density: float):
    """Each non-empty subset of the universe, kept with probability `density`."""
    return frozenset(
        frozenset(c)
        for r in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, r)
        if rng.random() < density)


@pytest.fixture
def monotone_expr_gen():
    return random_monotone_expr
