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
from functools import reduce

from .errors import GroupAuthError
from .nscrypt import (
    KeyShare,
    NsPrivateKey,
    NsPublicKey,
    encrypt,
    partial_decrypt,  # noqa: F401  (uncalled here; perfbench/spans.py wraps this name)
    public_key_of,
    residue_bits,
)
from .policy import check_universe, group_of, subset_fold
from .sharesplit import ShareSequence

__all__ = [
    "MODES",
    "MERGES",
    "NULL_POLICIES",
    "Challenge",
    "VerifierState",
    "ResponseVector",
    "Verdict",
    "AuditReport",
    "make_challenge",
    "token_respond",
    "merge_monotone",
    "merge_sequence",
    "merge_responses",
    "verify",
    "audit",
]

MODES = ("monotone", "sequence")
MERGES = ("or", "sum", "xor")
NULL_POLICIES = ("one", "random-nonzero")

_MERGE_OPS = {"or": operator.or_, "sum": operator.add, "xor": operator.xor}


def _default_merge(mode: str) -> str:
    """The merge a session takes when none is named: OR when monotone, else sum."""
    return "or" if mode == "monotone" else "sum"


def _check_mode_merge(mode: str, merge: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if merge not in MERGES:
        raise ValueError(f"unknown merge {merge!r}")
    if (merge == "or") != (mode == "monotone"):
        raise ValueError("or-merge is for monotone mode, sum/xor for sequence mode")


def _check_session(mode: str, merge: str, slot_count: int) -> None:
    """Shared shape rules of a challenge and its verifier state."""
    _check_mode_merge(mode, merge)
    if slot_count < 1:
        raise ValueError("slot_count must be >= 1")
    if mode == "monotone" and slot_count != 1:
        raise ValueError("monotone mode has exactly one slot")


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
        if self.accepted:
            if not isinstance(self.matching_slot, int) or self.matching_slot < 0:
                raise ValueError("an accepted verdict's matching_slot must be an int >= 0")
        elif self.matching_slot is not None:
            raise ValueError("a rejected verdict's matching_slot must be null")


def make_challenge(
    pub: NsPublicKey,
    mode: str = "monotone",
    merge: str | None = None,
    slot_count: int = 1,
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
    known-answer sessions can be reproduced.
    """
    rng = rng if rng is not None else random.SystemRandom()
    merge = merge if merge is not None else _default_merge(mode)
    _check_mode_merge(mode, merge)
    m = rng.randrange(1, 1 << pub.n) if force_m is None else force_m
    session_id = f"{rng.getrandbits(64):016x}"
    challenge = Challenge(
        session_id=session_id,
        mode=mode,
        merge=merge,
        slot_count=slot_count,
        ciphertexts=(encrypt(pub, m),),
    )
    state = VerifierState(
        session_id=session_id,
        mode=mode,
        merge=merge,
        slot_count=slot_count,
        plaintexts=(m,),
    )
    return challenge, state


def _null_value(null_policy: str, n: int, rng: random.Random) -> int:
    return 1 if null_policy == "one" else rng.randrange(2, 1 << n)


def token_respond(
    share: KeyShare | ShareSequence,
    challenge: Challenge,
    null_policy: str = "one",
    rng: random.Random | None = None,
) -> ResponseVector:
    """Compute a token's per-slot response vector.

    Where the token holds a share it answers the partial decryption of the
    session's ciphertext; where it holds none it answers a null value, whose
    presence corrupts the merge and is what rejects over-full groups. A
    token raises the ciphertext to s once, at its first share, and reads
    every slot's bits off that residue.
    """
    rng = rng if rng is not None else random.Random()
    return _respond(share, challenge, null_policy, rng, {})


def _residue(
    share: KeyShare | ShareSequence, c: int, residues: dict[tuple[int, int], int],
) -> int:
    """c^s mod p under the share's (p, s): from `residues`, or computed into it."""
    if not 1 <= c < share.p:
        raise ValueError("ciphertext out of range")
    key = (share.p, share.s)
    u = residues.get(key)
    if u is None:
        u = residues[key] = pow(c, share.s, share.p)
    return u


def _respond(
    share: KeyShare | ShareSequence,
    challenge: Challenge,
    null_policy: str,
    rng: random.Random,
    residues: dict[tuple[int, int], int],
) -> ResponseVector:
    """`token_respond`, reading c^s mod p from `residues` where it is there.

    `residues` maps a share's `(p, s)` to the residue of this challenge's
    ciphertext and is filled on a miss. An answer depends only on the share
    and the ciphertext, so tokens of one key answering one challenge may
    share a dict; a fresh dict is a token doing its own `pow`.
    """
    if null_policy not in NULL_POLICIES:
        raise ValueError(f"unknown null policy {null_policy!r}")
    c = challenge.ciphertexts[0]
    if isinstance(share, KeyShare):
        if challenge.mode != "monotone":
            raise ValueError("a single key share answers monotone challenges")
        value = residue_bits(_residue(share, c, residues), share.prime_subset)
        return ResponseVector(session_id=challenge.session_id, values=(value,))

    if challenge.mode != "sequence":
        raise ValueError("a share sequence answers sequence challenges")
    if len(share.slots) != challenge.slot_count:
        raise ValueError("share sequence length does not match the challenge")
    u = None  # c^s mod p, read at the first slot that holds a share
    values = []
    for prime_set in share.slots:
        if prime_set is None:
            values.append(_null_value(null_policy, share.n, rng))
            continue
        if u is None:
            u = _residue(share, c, residues)
        values.append(residue_bits(u, prime_set))
    return ResponseVector(session_id=challenge.session_id, values=tuple(values))


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
    if merge not in ("sum", "xor"):
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
    matching = None
    for i, value in enumerate(merged):
        if value == state.plaintexts[0]:
            matching = i
            break
    return Verdict(
        session_id=state.session_id,
        accepted=matching is not None,
        matching_slot=matching,
    )


@dataclass
class AuditReport:
    """Brute-force sweep of every subset against the expected family."""

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

    def subsets(self) -> list[frozenset[str]]:
        """Every non-empty subset of the universe, in bit-mask order."""
        return [group_of(a, self.universe) for a in range(1, 1 << len(self.universe))]

    def frequencies(self) -> dict[frozenset[str], float]:
        """Acceptance rate per subset across all trials."""
        counts = {g: 0 for g in self.subsets()}
        for accepted in self.accepted_by_trial:
            for g in accepted:
                counts[g] += 1
        t = max(self.trials, 1)
        return {g: c / t for g, c in counts.items()}

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


def _accepted_masks(responses: list[ResponseVector], state: VerifierState) -> set[int]:
    """Every subset of `responses` whose merge `verify` would accept.

    A subset is a bit mask over the responses' positions. Per slot,
    `subset_fold` merges every subset with the same OR, sum or XOR that
    `merge_responses` takes, so a subset is accepted exactly when some
    slot's merged value equals the plaintext. The plaintext is non-zero, so
    the empty subset's 0 never matches.
    """
    combine = _MERGE_OPS[state.merge]
    m = state.plaintexts[0]
    accepted: set[int] = set()
    for j in range(state.slot_count):
        merged = subset_fold([r.values[j] for r in responses], combine)
        accepted.update(a for a, value in enumerate(merged) if value == m)
    return accepted


def audit(
    priv: NsPrivateKey,
    shares: dict[str, KeyShare | ShareSequence],
    expected: frozenset[frozenset[str]],
    trials: int = 1,
    rng: random.Random | None = None,
    *,
    mode: str,
    merge: str | None = None,
    null_policy: str = "one",
    force_m: int | None = None,
) -> AuditReport:
    """Simulate every non-empty holder subset end to end, `trials` times.

    Each trial draws a fresh challenge (or reuses `force_m`), computes every
    holder's response to it, and merges those responses over all subsets;
    a subset is accepted exactly when `verify` would accept its merge. The
    report compares that against the expected family and tallies per-subset
    acceptance frequencies. `trials` must be at least 1, since a report
    with no trials would read as exact. `merge` defaults as in
    `make_challenge`, and the report records the one used. Challenges are
    drawn under `public_key_of(priv)`, which derives the public key once per
    key object, so repeated calls on one `priv` pay for it once.

    A response depends only on the share and the ciphertext, so a trial
    raises its ciphertext to s once per distinct share `(p, s)`, not once
    per holder, and every holder of that key reads its bits off the one
    residue. The responses equal `token_respond`'s, and nulls are drawn
    from `rng` in the same holder and slot order.

    Every subset of a trial shares the holders' one response each. A token
    answers a challenge the same way whoever else is present, so with
    null_policy="one" the accepted sets are those of responding afresh per
    subset. With null_policy="random-nonzero" each holder draws its nulls
    once per trial and all subsets share those draws: each subset's
    acceptance probability is unchanged, but the subsets of one trial are
    no longer independent, and `rng` is consumed differently than by
    per-subset responses.
    """
    if trials < 1:
        raise ValueError("an audit needs at least one trial")
    universe = check_universe(tuple(shares))
    rng = rng if rng is not None else random.Random()
    merge = merge if merge is not None else _default_merge(mode)
    pub = public_key_of(priv)
    slot_count = 1
    for share in shares.values():
        if isinstance(share, ShareSequence):
            slot_count = len(share.slots)
            break

    report = AuditReport(universe=universe, expected=frozenset(expected), merge=merge)
    for _ in range(trials):
        challenge, state = make_challenge(
            pub, mode=mode, merge=merge, slot_count=slot_count,
            rng=rng, force_m=force_m)
        residues: dict[tuple[int, int], int] = {}
        responses = [_respond(shares[h], challenge, null_policy, rng, residues)
                     for h in universe]
        report.accepted_by_trial.append(frozenset(
            group_of(a, universe) for a in _accepted_masks(responses, state)))
    return report
