"""Challenge-response group authentication.

The verifier draws one secret message per session, encrypts it under the
system public key, and hands that one ciphertext to every present token.
Tokens answer with one value per slot: a partial decryption where they
hold a share, a null value (1, or a random non-zero) where they do not.
Responses carry no holder identity; the verifier merges them (bitwise OR
in monotone mode, per-slot sum or XOR in sequence mode) and accepts
exactly when some merged value equals the message. The verifier never
sees the secret exponent, any prime set, or the policy: those live only
in the share material.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import Callable

from .errors import GroupAuthError
from .nscrypt import (
    KeyShare,
    NsPrivateKey,
    NsPublicKey,
    Share,
    binds,
    encrypt,
    partial_decrypt,
    public_key_of,
)
from .policy import _lane_count, check_universe, group_of, subset_matches

__all__ = [
    "MODES",
    "MERGES",
    "NULL_POLICIES",
    "Deployment",
    "Challenge",
    "VerifierState",
    "ResponseVector",
    "Verdict",
    "AuditReport",
    "UnboundShare",
    "make_challenge",
    "token_respond",
    "merge_monotone",
    "merge_sequence",
    "merge_responses",
    "verify",
    "audit",
]

# mode -> the merges a session in that mode takes, its default first
_MODE_MERGES = {"monotone": ("or",), "sequence": ("sum", "xor")}
MODES = tuple(_MODE_MERGES)
MERGES = tuple(sorted({m for merges in _MODE_MERGES.values() for m in merges}))
NULL_POLICIES = ("one", "random-nonzero")

_MERGE_OPS = {"or": operator.or_, "sum": operator.add, "xor": operator.xor}


def _default_merge(mode: str) -> str | None:
    """The merge a session takes when none is named: the first its mode takes."""
    return _MODE_MERGES[mode][0] if mode in MODES else None


def _check_session(mode: str, merge: str, slot_count: int) -> None:
    """Shared shape rules of a challenge and its verifier state."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if merge not in MERGES:
        raise ValueError(f"unknown merge {merge!r}")
    if merge not in _MODE_MERGES[mode]:
        raise ValueError("or-merge is for monotone mode, sum/xor for sequence mode")
    if type(slot_count) is not int:  # exact, so True is no slot count
        raise ValueError("slot_count must be an int")
    if slot_count < 1:
        raise ValueError("slot_count must be >= 1")
    if mode == "monotone" and slot_count != 1:
        raise ValueError("monotone mode has exactly one slot")


@dataclass(frozen=True)
class Deployment(NsPublicKey):
    """The verifier's one, public input: the public key and the session shape of `compile`."""

    mode: str
    merge: str
    slot_count: int

    def __post_init__(self):
        super().__post_init__()
        _check_session(self.mode, self.merge, self.slot_count)


def _session_shape(key: NsPublicKey, mode: str | None, merge: str | None,
                   slot_count: int | None) -> tuple[str, str, int]:
    """A session's mode, merge and slot count, once checked.

    With no mode, a `Deployment` key gives its own, and its merge and slot
    count where those are None too; any other key gives monotone mode. A
    merge left None is then the mode's first, and a slot count 1. A
    `Deployment` key refuses a mode, merge or slot count other than its own.
    """
    deployed = isinstance(key, Deployment)
    if mode is None:
        mode = key.mode if deployed else "monotone"
        if deployed:
            merge = key.merge if merge is None else merge
            slot_count = key.slot_count if slot_count is None else slot_count
    merge = merge if merge is not None else _default_merge(mode)
    slot_count = 1 if slot_count is None else slot_count
    if deployed and (mode, merge, slot_count) != (key.mode, key.merge, key.slot_count):
        raise ValueError(
            f"the deployment runs {key.mode}/{key.merge} sessions of {key.slot_count} "
            f"slot(s), not {mode}/{merge} of {slot_count}")
    _check_session(mode, merge, slot_count)
    return mode, merge, slot_count


@dataclass(frozen=True)
class Challenge:
    """What the verifier sends to every token: one ciphertext, no identities."""

    session_id: str
    mode: str
    merge: str
    slot_count: int
    ciphertexts: tuple[int, ...]

    def __post_init__(self):
        _check_session(self.mode, self.merge, self.slot_count)
        if len(self.ciphertexts) != 1:
            raise ValueError("a session has exactly one ciphertext")


@dataclass(frozen=True)
class VerifierState:
    """The verifier's secret side of a session, its one message. Never sent to tokens."""

    session_id: str
    mode: str
    merge: str
    slot_count: int
    plaintexts: tuple[int, ...]

    def __post_init__(self):
        _check_session(self.mode, self.merge, self.slot_count)
        if len(self.plaintexts) != 1:
            raise ValueError("a session has exactly one plaintext")
        if self.plaintexts[0] < 1:
            raise ValueError("plaintexts are positive")


@dataclass(frozen=True)
class ResponseVector:
    """One token's per-slot answers; deliberately carries no holder field."""

    session_id: str
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("a response carries at least one value")
        if min(self.values) < 0:
            raise ValueError("response values are non-negative")


@dataclass(frozen=True)
class Verdict:
    session_id: str
    accepted: bool
    matching_slot: int | None

    def __post_init__(self):
        # an accepted verdict names the slot that matched; a rejection none
        if self.accepted is True:
            if type(self.matching_slot) is not int or self.matching_slot < 0:
                raise ValueError("an accepted verdict's matching_slot must be an int >= 0")
        elif self.accepted is not False:
            raise ValueError("a verdict's accepted must be a bool")
        elif self.matching_slot is not None:
            raise ValueError("a rejected verdict's matching_slot must be null")


def make_challenge(
    pub: NsPublicKey,
    mode: str | None = None,
    merge: str | None = None,
    slot_count: int | None = None,
    rng: random.Random | None = None,
    force_m: int | None = None,
) -> tuple[Challenge, VerifierState]:
    """Draw one secret message, encrypt it, and open a session.

    The message is uniform over [1, 2^n), and its one ciphertext serves
    every slot. With `rng` None, m and the session id come from the
    operating system's generator. `rng` is for tests and benchmarks only:
    the Mersenne Twister is linear, so its state leaks through the session
    ids, and a verifier that reuses one would let an observer predict m.
    `force_m` pins the message, mirroring the keygen overrides, so fixed
    known-answer sessions can be reproduced; one outside [1, 2^n) is
    refused before anything is drawn. With no mode, a `Deployment` as
    `pub` opens a session of its own shape, filling in the merge and slot
    count left None, and any other key a monotone session of one slot. A
    mode given, even a `Deployment`'s own, takes that mode's default merge
    and one slot where those are None, as under any key; a `Deployment`
    then refuses the resulting shape unless it is its own, so
    `make_challenge(deployment, mode="sequence")` is refused for a
    deployment of more than one slot.
    """
    mode, merge, slot_count = _session_shape(pub, mode, merge, slot_count)  # before any draw
    rng = rng if rng is not None else random.SystemRandom()
    m = _message(pub.n, rng, force_m)
    session_id = f"{rng.getrandbits(64):016x}"  # m first, then the id, as `audit` draws them
    c = encrypt(pub, m)
    return (Challenge(session_id, mode, merge, slot_count, (c,)),
            VerifierState(session_id, mode, merge, slot_count, (m,)))


def _message(n: int, rng: random.Random, force_m: int | None) -> int:
    """A session's message: `force_m` if it pins one, else drawn from `rng` over [1, 2^n).

    A pinned m must be an exact int in [1, 2^n), refused before anything is
    drawn.
    """
    if force_m is None:
        return rng.randrange(1, 1 << n)
    if type(force_m) is not int:  # exact, so True is no message
        raise ValueError("force_m must be an int")
    if not 0 < force_m < 1 << n:
        raise ValueError(f"plaintext must be in [1, 2^{n})")
    return force_m


def token_respond(
    share: Share,
    challenge: Challenge,
    null_policy: str = "one",
    rng: random.Random | None = None,
) -> ResponseVector:
    """Compute a token's per-slot response vector.

    Where the token holds a share it answers the partial decryption of the
    session's ciphertext; where it holds none it answers a null value, whose
    presence corrupts the merge and is what rejects over-full groups. A
    token reads through `nscrypt.partial_decrypt`, one `pow` over every
    slot's primes, then answers each slot under its `Share.reading` mask;
    a token with no share reads nothing and pays no `pow`. With `rng`
    None, random-nonzero nulls come from the operating system's generator;
    `rng` is for tests and benchmarks, as in `make_challenge`.
    """
    rng = rng if rng is not None else random.SystemRandom()
    n = _answerable(share, challenge.mode, challenge.slot_count, null_policy)
    bits = partial_decrypt(share, challenge.ciphertexts[0])
    return ResponseVector(challenge.session_id,
                          tuple(_answer(bits, share.reading[1], null_policy, n, rng)))


def _answerable(share: Share, mode: str, slot_count: int, null_policy: str) -> int:
    """Refuse a share that cannot answer this challenge shape; else its null width n.

    A null is drawn below 2^n. A key share answers its one slot and never a
    null, so its width is 0.
    """
    if null_policy not in NULL_POLICIES:
        raise ValueError(f"unknown null policy {null_policy!r}")
    if isinstance(share, KeyShare):
        if mode != "monotone":
            raise ValueError("a single key share answers monotone challenges")
        return 0
    if mode != "sequence":
        raise ValueError("a share sequence answers sequence challenges")
    if len(share.slots) != slot_count:
        raise ValueError("share sequence length does not match the challenge")
    return share.n


def _answer(
    bits: int, masks: tuple[int | None, ...], null_policy: str, n: int, rng: random.Random,
) -> list[int]:
    """One value per slot: `bits & mask` where a share is held, else a null.

    `bits` must cover every held slot's primes. Nulls are 1, or drawn from
    [2, 2^n) with `rng` in slot order.
    """
    values = []
    for mask in masks:
        if mask is not None:
            values.append(bits & mask)
        elif null_policy == "one":
            values.append(1)
        else:
            values.append(rng.randrange(2, 1 << n))
    return values


def merge_monotone(responses: list[ResponseVector]) -> int:
    """Bitwise OR of single-slot responses; empty input merges to 0 (reject)."""
    out = 0
    for r in responses:
        if len(r.values) != 1:
            raise ValueError("monotone responses carry exactly one value")
        out |= r.values[0]
    return out


def merge_sequence(responses: list[ResponseVector], merge: str) -> list[int]:
    """Per-slot arithmetic sum or XOR across all responses."""
    if merge not in _MODE_MERGES["sequence"]:
        raise ValueError(f"unknown sequence merge {merge!r}")
    if not responses:
        return []
    length = len(responses[0].values)
    if any(len(r.values) != length for r in responses):
        raise ValueError("response vectors disagree on slot count")
    combine = _MERGE_OPS[merge]
    return [reduce(combine, (r.values[i] for r in responses), 0) for i in range(length)]


def merge_responses(state: VerifierState, responses: list[ResponseVector]) -> list[int]:
    """Merge responses with the session's mode and merge; a per-slot list.

    Raises GroupAuthError for a response to another session.
    """
    for i, r in enumerate(responses):
        if r.session_id != state.session_id:
            raise GroupAuthError(
                f"response {i} is for session {r.session_id}, "
                f"state is session {state.session_id}")
    if state.mode == "monotone":
        return [merge_monotone(responses)]
    return merge_sequence(responses, state.merge)


def verify(state: VerifierState, merged: list[int]) -> Verdict:
    """Accept iff some merged value equals the session's plaintext.

    A non-empty merge must have one value per session slot; the empty merge
    of no responses is a rejection.
    """
    if merged and len(merged) != state.slot_count:
        raise ValueError(
            f"merged has {len(merged)} values, the session has {state.slot_count} slots")
    try:
        matching = merged.index(state.plaintexts[0])
    except ValueError:
        matching = None
    return Verdict(state.session_id, matching is not None, matching)


class UnboundShare(ValueError):
    """An audited share whose key (p, s) the audit key does not bind."""


@dataclass
class AuditReport:
    """Brute-force sweep of every subset against the expected family.

    Holds the audited universe, the expected family, and for each trial the
    set of subsets accepted in it; subsets a trial rejects are not listed.
    """

    universe: tuple[str, ...]
    expected: frozenset[frozenset[str]]
    accepted_by_trial: list[frozenset[frozenset[str]]] = field(default_factory=list)
    merge: str | None = None  # the merge the trials ran under, set by `audit`

    @property
    def trials(self) -> int:
        return len(self.accepted_by_trial)

    @property
    def all_exact(self) -> bool:
        return all(acc == self.expected for acc in self.accepted_by_trial)

    def false_accepts(self) -> frozenset[frozenset[str]]:
        """Subsets outside the expected family accepted in any trial."""
        seen: set[frozenset[str]] = set()
        for accepted in self.accepted_by_trial:
            seen |= accepted - self.expected
        return frozenset(seen)

    def missed(self) -> frozenset[frozenset[str]]:
        """Expected groups rejected in at least one trial."""
        out: set[frozenset[str]] = set()
        for accepted in self.accepted_by_trial:
            out |= self.expected - accepted
        return frozenset(out)


@lru_cache(maxsize=4)
def _groups(universe: tuple[str, ...]) -> Callable[[int], frozenset[str]]:
    """`group_of` over one universe, memoised by mask.

    Bounded twice, by universe and by mask, since a 20-holder audit has
    2^20 subsets.
    """
    return lru_cache(maxsize=1024)(partial(group_of, order=universe))


def audit(
    key: NsPublicKey | NsPrivateKey,
    shares: dict[str, Share],
    expected: frozenset[frozenset[str]],
    trials: int = 1,
    rng: random.Random | None = None,
    *,
    mode: str | None = None,
    merge: str | None = None,
    null_policy: str = "one",
    force_m: int | None = None,
) -> AuditReport:
    """Simulate every non-empty holder subset end to end, `trials` times.

    Each trial draws a fresh message (or reuses `force_m`), computes every
    holder's response to it, and merges those responses over all subsets;
    a subset is accepted exactly when `verify` would accept its merge. The
    report compares that against the expected family, and holds each
    trial's accepted subsets. `trials` must be an int of at least 1, since
    a report with no trials would read as exact. Mode and merge default as in
    `make_challenge`, and the report records the merge used. `key` is a
    public key or a private key, whose public key is derived once per
    object: its n bounds the messages, and it must bind every share.

    A call is one set-up and then one trial per message. The set-up draws
    nothing from `rng`, and refuses in this order: a bad `trials`; a bad
    universe; share sequences with no mode under a key that is not a
    `Deployment`, whose default is monotone; a bad session shape, or under
    a `Deployment` a shape other than its own, where a mode given takes
    its default merge as in `make_challenge` and the slot count is always
    the shares'; then, holder by holder, a share that `token_respond`
    would refuse, and with `UnboundShare`, naming the holder, a share
    whose key (p, s) `key` does not bind. A private key binds a share of
    its own (p, s) at no cost; any other share key, and each one under a
    public key or `Deployment`, is checked by `nscrypt.binds`, n `pow`s,
    once per distinct key per call. A trial takes its message by
    `_message`, which refuses a bad `force_m` before any draw, then draws
    the session id as `make_challenge` does, leaving `rng` where a session
    would, but encrypts nothing and builds no `Challenge` or
    `VerifierState`, then answers and folds.

    A bound key reads m itself. keygen sets v_i = q_i^(s^-1 mod p-1), so
    c^s = prod q_i^(m_i) (mod p), and that product is below p, so the
    residue is the product and a token's read, `nscrypt.partial_decrypt`,
    is `m & mask` for each slot it holds, for key shares and share
    sequences alike. A trial therefore skips that read: it answers
    `m & mask` per held slot, with no ciphertext, no `pow` and no
    `partial_decrypt`. The answers equal `token_respond`'s values, and
    nulls are drawn from `rng` in the same holder and slot order. No
    response objects are built. With `rng` None, messages and nulls come
    from the operating system's generator.

    The merges of all 2^h subsets of h holders are never listed: a trial
    answers each holder in lane-packed ints from `_lane_rows`, memoised
    per share layout, and one `policy.subset_matches` over those ints, at
    `_lane_rows`' lane width and count, finds the masks of the subsets
    whose merge equals m; that function states the fold's layout rule.

    Every subset of a trial shares the holders' one answer each. A token
    answers a challenge the same way whoever else is present, so with
    null_policy="one" the accepted sets are those of responding afresh per
    subset. With null_policy="random-nonzero" each holder draws its nulls
    once per trial and all subsets share those draws: each subset's
    acceptance probability is unchanged, but the subsets of one trial are
    no longer independent, and `rng` is consumed differently than by
    per-subset responses.
    """
    if type(trials) is not int:  # exact, so True is no trial count
        raise ValueError("trials must be an int")
    if trials < 1:
        raise ValueError("an audit needs at least one trial")
    pub = key if isinstance(key, NsPublicKey) else public_key_of(key)
    universe = check_universe(tuple(shares))
    first = shares[universe[0]]
    slot_count = len(first.slots)
    if mode is None and not isinstance(pub, Deployment) and not isinstance(first, KeyShare):
        # a bare key's default is monotone, which no share sequence answers
        raise ValueError('share sequences under a key that is not a Deployment need '
                         'mode="sequence"')
    # refuse a bad session shape before any share, as the first challenge would
    mode, merge, _ = _session_shape(pub, mode, merge, slot_count)
    # the share keys (p, s) known bound: a private key binds its own
    bound = {(key.p, key.s)} if isinstance(key, NsPrivateKey) else set()
    masks, null_widths = [], []  # per holder: its slot masks, its null width
    for h in universe:
        share = shares[h]
        null_widths.append(_answerable(share, mode, slot_count, null_policy))
        if (share.p, share.s) not in bound:
            if not binds(pub, share.p, share.s):
                raise UnboundShare(f"the audit key does not bind holder {h}'s share")
            bound.add((share.p, share.s))
        masks.append(share.reading[1])
    combine = _MERGE_OPS[merge]
    width, lanes, unit, rows, draws = _lane_rows(
        tuple(masks), pub.n, None if null_policy == "one" else tuple(null_widths))

    rng = rng if rng is not None else random.SystemRandom()
    group = _groups(universe)
    report = AuditReport(universe=universe, expected=frozenset(expected), merge=merge)
    for _ in range(trials):
        m = _message(pub.n, rng, force_m)
        rng.getrandbits(64)  # the session id, drawn as a session draws it
        every = m * unit
        columns = [[every & held | fixed for held, fixed in row] for row in rows]
        for j, top, spots in draws:  # holder, then slot, as `token_respond` draws
            for g, shift in spots:
                columns[g][j] |= rng.randrange(2, top) << shift
        matches = subset_matches(columns, combine, m, width=width, lanes=lanes)
        report.accepted_by_trial.append(frozenset(map(group, matches)))
    return report


@lru_cache(maxsize=8)
def _lane_rows(
    masks: tuple[tuple[int | None, ...], ...], n: int, null_widths: tuple[int, ...] | None,
) -> tuple[int, int, int, tuple[tuple[tuple[int, int], ...], ...],
           tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]:
    """How an audit packs its holders' slot answers into lanes of one width.

    `masks` holds each holder's slot masks (None: no share), `n` the bits
    of a message, and `null_widths` each holder's null width for random
    nulls, or None for null 1. Returns (width, lanes, unit, rows, draws).
    The lane width w is the bit length of the largest slot's sum of every
    holder's largest answer there (its mask, 1, or 2^(null width) − 1),
    and at least n: no subset's merge, sum, OR or XOR, outgrows a lane,
    and a message fits one. The lane count L is `policy._lane_count`'s, and
    slot g·L + c sits in lane c of int g; `unit` has a 1 in each of L
    lanes. rows[g] holds each holder's (held, fixed) for int g: its masks
    in the lanes where it holds a share and, for null 1, a 1 in the
    others. draws lists, for each holder j with random nulls, (j, 2^its
    null width, its null lanes as (int, shift) in slot order). Built once
    per layout, not per audit call.
    """
    slots = len(masks[0])
    tops = [0] * slots  # per slot: the sum of every holder's largest answer
    for j, holder in enumerate(masks):
        null_top = 1 if null_widths is None else (1 << null_widths[j]) - 1
        for slot, mask in enumerate(holder):
            tops[slot] += null_top if mask is None else mask
    width = max(n, max(tops).bit_length())
    lanes = _lane_count(width, slots, len(masks))
    rows = [[[0, 0] for _ in masks] for _ in range(0, slots, lanes)]
    draws = []
    for j, holder in enumerate(masks):
        spots = []
        for slot, mask in enumerate(holder):
            g, shift = divmod(slot, lanes)
            shift *= width
            if mask is not None:
                rows[g][j][0] |= mask << shift
            elif null_widths is None:
                rows[g][j][1] |= 1 << shift
            else:
                spots.append((g, shift))
        if spots:
            draws.append((j, 1 << null_widths[j], tuple(spots)))
    unit = ((1 << width * lanes) - 1) // ((1 << width) - 1)
    return width, lanes, unit, tuple(tuple(map(tuple, row)) for row in rows), tuple(draws)
