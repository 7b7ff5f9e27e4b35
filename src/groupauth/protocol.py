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
    encrypt,
    partial_decrypt,  # noqa: F401  (uncalled here; perfbench/spans.py wraps this name)
    public_key_of,
    residue_bits,
)
from .numtheory import SMALL_PRIME_RANK, SMALL_PRIMES
from .policy import check_universe, group_of, subset_matches

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


def _session_merge(key: NsPublicKey, mode: str, merge: str | None, slot_count: int) -> str:
    """A session's merge, defaulted from its mode, once its shape is checked.

    A `Deployment` key also refuses a mode, merge or slot count other than its own.
    """
    merge = merge if merge is not None else _default_merge(mode)
    if isinstance(key, Deployment) and \
            (mode, merge, slot_count) != (key.mode, key.merge, key.slot_count):
        raise ValueError(
            f"the deployment runs {key.mode}/{key.merge} sessions of {key.slot_count} "
            f"slot(s), not {mode}/{merge} of {slot_count}")
    _check_session(mode, merge, slot_count)
    return merge


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
    known-answer sessions can be reproduced. A `Deployment` as `pub` refuses
    a mode, merge or slot count other than its own.
    """
    merge = _session_merge(pub, mode, merge, slot_count)  # before anything is drawn
    rng = rng if rng is not None else random.SystemRandom()
    m, session_id, c = _draw(pub, rng, force_m)
    return (Challenge(session_id, mode, merge, slot_count, (c,)),
            VerifierState(session_id, mode, merge, slot_count, (m,)))


def _draw(pub: NsPublicKey, rng: random.Random, force_m: int | None) -> tuple[int, str, int]:
    """A session's message m, then its 64-bit id from `rng`, then m's ciphertext.

    m is drawn from `rng` unless `force_m` pins it. A pinned m must be an
    exact int, refused before anything is drawn, and `encrypt` refuses one
    outside [1, 2^n).
    """
    if force_m is None:
        m = rng.randrange(1, 1 << pub.n)
    elif type(force_m) is int:  # exact, so True is no message
        m = force_m
    else:
        raise ValueError("force_m must be an int")
    return m, f"{rng.getrandbits(64):016x}", encrypt(pub, m)


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
    token reads, then answers, over its share's `reading`, as
    `Share.reading` sets out; a token with no share reads nothing
    and pays no `pow`. With `rng` None, random-nonzero nulls come from the
    operating system's generator; `rng` is for tests and benchmarks, as in
    `make_challenge`.
    """
    rng = rng if rng is not None else random.SystemRandom()
    n = _answerable(share, challenge.mode, challenge.slot_count, null_policy)
    primes, masks = share.reading
    bits = _read(share.p, share.s, primes, challenge.ciphertexts[0])
    return ResponseVector(challenge.session_id,
                          tuple(_answer(bits, masks, null_policy, n, rng)))


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


def _read(p: int, s: int, primes: tuple[int, ...], c: int) -> int:
    """The bits of c^s mod p over `primes`, by `residue_bits`: a token's read.

    With no primes there is nothing to read, and no `pow` is paid.
    """
    if not primes:
        return 0
    if not 1 <= c < p:
        raise ValueError("ciphertext out of range")
    return residue_bits(pow(c, s, p), primes)


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
    mode: str,
    merge: str | None = None,
    null_policy: str = "one",
    force_m: int | None = None,
) -> AuditReport:
    """Simulate every non-empty holder subset end to end, `trials` times.

    Each trial draws a fresh message (or reuses `force_m`), computes every
    holder's response to it, and merges those responses over all subsets;
    a subset is accepted exactly when `verify` would accept its merge. The
    report compares that against the expected family and tallies per-subset
    acceptance frequencies. `trials` must be an int of at least 1, since a
    report with no trials would read as exact. `merge` defaults as in
    `make_challenge`, and the report records the one used. Messages are
    encrypted under `key`, a public key or a private key, whose public key
    is derived once per object. A `Deployment` key refuses a mode, merge or
    slot count (the shares') other than its own.

    A call is one set-up and then one trial per message. The set-up checks
    the universe, the session shape, and every share as `token_respond`
    would, with the same messages, and builds the per-key read table and
    the merge op. A trial does only per-message work: it draws m and the
    session id from `rng` as `make_challenge` does, but builds no
    `Challenge` or `VerifierState`, then reads, answers and folds.

    The residue c^s mod p depends only on the key and the ciphertext, so a
    trial reads once per key `(p, s)`, not once per holder: one `pow`, and
    one `residue_bits` over the first k system primes, where k is one past
    the highest prime rank that any holder of that key reads. That prefix
    holds every prime of the key's shares, so `bits & mask` is each
    holder's exact answer, for key shares and share sequences alike. The
    answers equal `token_respond`'s values, and nulls are drawn from `rng`
    in the same holder and slot order. No response objects are built: the
    answers go straight to `policy.subset_matches` as its columns. The
    ciphertext range check runs once per key and trial. With `rng` None,
    messages and nulls come from the operating system's generator.

    The merges of all 2^h subsets of h holders are never listed. Per slot,
    `subset_matches` packs every subset's merged value into one field of a
    single int, w = max(h·max value, m).bit_length() bits wide so no sum
    overflows, folds each holder in with one big-int `combine`, and finds
    the subsets equal to m with one zero-field test; the field layout's
    constants are built once per (h, w). So a trial costs one `pow` and one
    bit read per key, one list of answers per holder, a few big-int
    operations per holder and slot, one pass over the packed digits, and a
    bounded memo lookup per accepted subset. Measured in-process with
    Python 3.11 on a 2-vCPU Intel Xeon VM, an `audit(trials=1)` call takes
    about 0.05 ms on the 5-holder, 5-slot `audit5` deployment, of which the
    `pow` is about 0.02 ms, and about 0.36 ms on the 10-holder, 26-slot
    `audit10` one.

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
    universe, merge, trial = _audit_setup(pub, shares, mode, merge, null_policy)
    rng = rng if rng is not None else random.SystemRandom()
    group = _groups(universe)
    report = AuditReport(universe=universe, expected=frozenset(expected), merge=merge)
    for _ in range(trials):
        report.accepted_by_trial.append(frozenset(map(group, trial(rng, force_m))))
    return report


def _audit_setup(
    pub: NsPublicKey, shares: dict[str, Share], mode: str, merge: str | None,
    null_policy: str,
) -> tuple[tuple[str, ...], str, Callable[[random.Random, int | None], list[int]]]:
    """An audit's set-up: its universe, its merge and its per-message trial.

    `trial(rng, force_m)` draws one message through `_draw` and returns the
    masks of the subsets that accept it, ascending.
    """
    universe = check_universe(tuple(shares))
    slot_count = len(shares[universe[0]].slots)
    # refuse a bad session shape before any share, as the first challenge would
    merge = _session_merge(pub, mode, merge, slot_count)
    ranks: dict[tuple[int, int], int] = {}  # key (p, s) -> its read's prime count k
    answerers = []  # per holder: its key, its slot masks, its null width
    for h in universe:
        share = shares[h]
        n = _answerable(share, mode, slot_count, null_policy)
        primes, masks = share.reading
        key = share.p, share.s
        ranks[key] = max(ranks.get(key, 0), SMALL_PRIME_RANK[primes[-1]] + 1 if primes else 0)
        answerers.append((key, masks, n))
    reads = [(key, SMALL_PRIMES[:k]) for key, k in ranks.items()]  # per key: its prime prefix
    combine = _MERGE_OPS[merge]

    def trial(rng: random.Random, force_m: int | None) -> list[int]:
        m, _, c = _draw(pub, rng, force_m)  # the session id is drawn, as in a session
        bits = {key: _read(*key, primes, c) for key, primes in reads}
        answers = [_answer(bits[key], masks, null_policy, n, rng) for key, masks, n in answerers]
        return subset_matches(list(zip(*answers)), combine, m)

    return universe, merge, trial
