"""Built-in demo systems with frozen known-answer values.

Two desk-scale systems ship with the package:

* ``airplane``: five holders A..E, two of them managers, with the policy
  "(A and B) or ((A or B) and (C or D or E))" capped at groups of three.
  It runs over the 12-prime system and a hand-packed 7-slot plan, each
  slot given as its holder-to-part assignment alone: like every plan, a
  slot's parts are balanced contiguous runs of the prime indices.

* ``small``: three holders where A1 pairs with A2 or with A3, run in
  monotone mode over the 8-prime system.

All numbers here are verified by the test suite against independent
recomputation. Two entries in the source tabulation of the airplane
vectors are inconsistent with the rest and are recorded as errata below:
the ciphertext for message 2919 (tabulated as 1073741824, which does not
decrypt to 2919; the consistent value is 5802616398374) and row 7 of the
response table, whose B and C entries are swapped (B holds the high
primes in row 7, so B answers 2880 and C answers the null 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nscrypt, policy, sharesplit

__all__ = [
    "DemoSystem",
    "airplane_system",
    "small_system",
    "AIRPLANE_POLICY",
    "AIRPLANE_UNIVERSE",
    "AIRPLANE_MAX_SIZE",
    "AIRPLANE_P",
    "AIRPLANE_S",
    "AIRPLANE_V",
    "AIRPLANE_MESSAGE",
    "AIRPLANE_CIPHERTEXT",
    "AIRPLANE_CIPHERTEXT_TABULATED",
    "AIRPLANE_RESPONSES",
    "AIRPLANE_RESPONSES_TABULATED_ROW7",
    "AIRPLANE_ERRATA",
    "SMALL_POLICY",
    "SMALL_UNIVERSE",
    "SMALL_P",
    "SMALL_S",
    "SMALL_MESSAGE",
    "SMALL_CIPHERTEXT",
    "SMALL_CONTRIBUTIONS",
]

# --- airplane system -------------------------------------------------------

AIRPLANE_UNIVERSE = ("A", "B", "C", "D", "E")
AIRPLANE_POLICY = "(A and B) or ((A or B) and (C or D or E))"
AIRPLANE_MAX_SIZE = 3
AIRPLANE_N = 12
AIRPLANE_P = 7420738134871  # least prime above the product of the first 12 primes
AIRPLANE_S = 5642069

AIRPLANE_V = (
    1042080239371, 6961378167419, 556387338943, 6467374518496,
    6101909563954, 7161849266528, 6408801185994, 6664307396372,
    6792283659586, 4009453191992, 4858036635332, 3535089085276,
)

AIRPLANE_MESSAGE = 2919
# erratum: tabulated as 1073741824, which does not decrypt to 2919
AIRPLANE_CIPHERTEXT = 5802616398374
AIRPLANE_CIPHERTEXT_TABULATED = 1073741824

# 7-slot plan: per slot, holder -> part index; a k-part slot splits the 12
# indices into balanced runs, 0-5 / 6-11 for two parts, 0-3 / 4-7 / 8-11 for three
_AIRPLANE_PLAN_ROWS: list[dict[str, int]] = [
    {"A": 0, "B": 0, "C": 1, "D": 1, "E": 1},
    {"A": 0, "B": 1, "C": 2, "D": 2, "E": 2},
    {"A": 0, "C": 1, "D": 2, "E": 2},
    {"B": 0, "C": 1, "D": 2, "E": 2},
    {"A": 0, "D": 1, "E": 2},
    {"B": 0, "D": 1, "E": 2},
    {"A": 0, "B": 1},
]

# Expected per-holder response sequences for message 2919 under null=1.
# Row 7 (last entry) carries the recomputed values; the source tabulation
# swaps B and C there, which would break the AB group it is meant to serve.
AIRPLANE_RESPONSES = {
    "A": (39, 7, 7, 1, 7, 1, 39),
    "B": (39, 96, 1, 7, 1, 7, 2880),
    "C": (2880, 2816, 96, 96, 1, 1, 1),
    "D": (2880, 2816, 2816, 2816, 96, 96, 1),
    "E": (2880, 2816, 2816, 2816, 2816, 2816, 1),
}
AIRPLANE_RESPONSES_TABULATED_ROW7 = {"A": 39, "B": 1, "C": 2880, "D": 1, "E": 1}

# machine-readable record of the two known inconsistencies in the source
# tabulation; the computed values are what the system actually produces
AIRPLANE_ERRATA = {
    "ciphertext-for-2919": {
        "tabulated": AIRPLANE_CIPHERTEXT_TABULATED,
        "computed": AIRPLANE_CIPHERTEXT,
    },
    "response-row-7": {
        "tabulated": AIRPLANE_RESPONSES_TABULATED_ROW7,
        "computed": {h: values[-1] for h, values in AIRPLANE_RESPONSES.items()},
    },
}

# --- small system ----------------------------------------------------------

SMALL_UNIVERSE = ("A1", "A2", "A3")
SMALL_POLICY = "(A1 and A2) or (A1 and A3)"
SMALL_N = 8
# a prime above the product of the first 8 primes, matching the vectors; not
# the least (that is P_8 + 23), so a key over it pays a primality test
SMALL_P = 9700247
SMALL_S = 5642069

SMALL_MESSAGE = 202
SMALL_CIPHERTEXT = 7202882
SMALL_CONTRIBUTIONS = {"A1": 10, "A2": 192, "A3": 192}
SMALL_SPLIT_PRIMES = {
    "A1": frozenset({2, 3, 5, 7}),
    "A2": frozenset({11, 13, 17, 19}),
    "A3": frozenset({11, 13, 17, 19}),
}


@dataclass(frozen=True)
class DemoSystem:
    """A fully assembled demo: keys, policy, shares, and known answers."""

    pub: nscrypt.NsPublicKey
    priv: nscrypt.NsPrivateKey
    universe: tuple[str, ...]
    policy_text: str
    mode: str
    merge: str
    expected_family: frozenset[frozenset[str]]
    shares: dict[str, nscrypt.Share]
    message: int
    plan: sharesplit.SlotPlan | None = None


def airplane_system() -> DemoSystem:
    """The five-holder sequence-mode demo over the hand-packed 7-slot plan."""
    pub, priv = nscrypt.keygen(AIRPLANE_N, force_p=AIRPLANE_P, force_s=AIRPLANE_S)
    expr = policy.parse(AIRPLANE_POLICY, AIRPLANE_UNIVERSE)
    family = policy.authorized_family(expr, AIRPLANE_UNIVERSE, AIRPLANE_MAX_SIZE)
    plan = sharesplit.SlotPlan(
        universe=AIRPLANE_UNIVERSE,
        n=AIRPLANE_N,
        slots=[sharesplit.SlotAssignment(dict(members)) for members in _AIRPLANE_PLAN_ROWS],
    )
    shares = sharesplit.issue_sequence(plan, priv)
    return DemoSystem(
        pub=pub,
        priv=priv,
        universe=AIRPLANE_UNIVERSE,
        policy_text=AIRPLANE_POLICY,
        mode="sequence",
        merge="sum",
        expected_family=family,
        shares=dict(shares),
        message=AIRPLANE_MESSAGE,
        plan=plan,
    )


def small_system() -> DemoSystem:
    """The three-holder monotone-mode demo."""
    pub, priv = nscrypt.keygen(SMALL_N, force_p=SMALL_P, force_s=SMALL_S)
    expr = policy.parse(SMALL_POLICY, SMALL_UNIVERSE)
    family = policy.authorized_family(expr, SMALL_UNIVERSE)
    split = sharesplit.bl_split(expr, range(SMALL_N))
    shares = sharesplit.issue_monotone(split, priv)
    return DemoSystem(
        pub=pub,
        priv=priv,
        universe=SMALL_UNIVERSE,
        policy_text=SMALL_POLICY,
        mode="monotone",
        merge="or",
        expected_family=family,
        shares=dict(shares),
        message=SMALL_MESSAGE,
        plan=None,
    )
