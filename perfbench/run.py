#!/usr/bin/env python3
"""Session-and-audit benchmark for groupauth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process: it builds the deployment several times
(set-up), then replays a seeded round of operations until S seconds have
passed, always finishing the round it is in. Every operation's outputs are
checked by the benchmark's own arithmetic, outside the timed region. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; with `--trace 1` the metrics are the
per-layer figures of a traced pass instead of the end-to-end ones. A
result record also goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "groupauth" / "__init__.py").is_file():
    raise SystemExit(f"error: no groupauth sources under {SRC}")
sys.path.insert(0, str(SRC))

from groupauth import files, nscrypt, numtheory, policy, protocol, sharesplit  # noqa: E402

from spans import Tracer  # noqa: E402

if Path(protocol.__file__).resolve().parent != SRC / "groupauth":
    raise SystemExit(f"error: groupauth was imported from {protocol.__file__}, not {SRC}")

MODULES = {m.__name__.rsplit(".", 1)[1]: m
           for m in (files, nscrypt, numtheory, policy, protocol, sharesplit)}

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0


def _first_primes(count: int) -> tuple[int, ...]:
    """The benchmark's own prime table, by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


PRIMES = _first_primes(64)
PRIME_INDEX = {q: i for i, q in enumerate(PRIMES)}


# --- workloads ---------------------------------------------------------------
# The policies are given twice: as text for the program, and as a predicate
# the benchmark evaluates itself, so the expected family is not taken from
# the program under test.

TEN = tuple("ABCDEFGHIJ")
TEN_POLICY = ("(A and B) or ((A or B) and (C or D or E))"
              " or ((C or D) and (F or G) and (H or I or J))")


def _ten_authorized(g: frozenset[str]) -> bool:
    return bool({"A", "B"} <= g
                or (g & {"A", "B"} and g & {"C", "D", "E"})
                or (g & {"C", "D"} and g & {"F", "G"} and g & {"H", "I", "J"}))


FIVE = tuple("ABCDE")
FIVE_POLICY = "(A and B) or ((A or B) and (C or D or E))"  # the airplane policy


def _five_authorized(g: frozenset[str]) -> bool:
    return bool({"A", "B"} <= g or (g & {"A", "B"} and g & {"C", "D", "E"}))


EIGHT = tuple("ABCDEFGH")
EIGHT_POLICY = "(A and (B or C)) or ((B or C) and (D or E) and (F or G or H))"


def _eight_authorized(g: frozenset[str]) -> bool:
    return bool(("A" in g and g & {"B", "C"})
                or (g & {"B", "C"} and g & {"D", "E"} and g & {"F", "G", "H"}))


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sequence" (slots_packed plan, sum merge) or "monotone" (bl_split, OR merge)
    n: int
    universe: tuple[str, ...]
    policy: str
    authorized: Callable[[frozenset[str]], bool]
    cap: int | None  # largest authorized group; None for no cap
    messages: int  # distinct messages per group (per round for an audit)
    audit: bool = False  # an operation is one protocol.audit trial
    wire: bool = False  # challenge and responses cross files.dumps / json.loads


WORKLOADS = {
    w.name: w for w in (
        Workload("session-mono12", "monotone", 12, EIGHT, EIGHT_POLICY, _eight_authorized,
                 cap=None, messages=4, wire=True),
        Workload("audit5", "sequence", 16, FIVE, FIVE_POLICY, _five_authorized,
                 cap=3, messages=8, audit=True),
        # Runnable, but not in BENCHMARK.json: their operations take 40 ms and
        # 5 s on current code, too long for a steady best-of-rounds figure on
        # a shared machine (see README.md).
        Workload("session-seq64", "sequence", 64, TEN, TEN_POLICY, _ten_authorized,
                 cap=3, messages=1),
        Workload("audit10", "sequence", 16, TEN, TEN_POLICY, _ten_authorized,
                 cap=4, messages=1, audit=True),
    )
}


def _subsets(universe: tuple[str, ...]) -> list[frozenset[str]]:
    return [frozenset(c) for k in range(1, len(universe) + 1)
            for c in itertools.combinations(universe, k)]


def own_family(w: Workload) -> frozenset[frozenset[str]]:
    return frozenset(g for g in _subsets(w.universe)
                     if (w.cap is None or len(g) <= w.cap) and w.authorized(g))


# --- set-up ------------------------------------------------------------------


@dataclass
class Deployment:
    pub: object
    priv: object
    shares: dict
    family: frozenset[frozenset[str]]  # the benchmark's own
    slot_count: int
    # holder -> per-slot bit mask of the share's prime indices (None: no share),
    # read off the share material through the benchmark's prime table
    masks: dict[str, tuple[int | None, ...]]
    problems: list[str] = field(default_factory=list)


def build(w: Workload, seed: int):
    """What set-up times: keygen, parse, family or split, slot plan, issue."""
    pub, priv = nscrypt.keygen(w.n, seed=seed)
    expr = policy.parse(w.policy, w.universe)
    if w.mode == "monotone":
        split = sharesplit.bl_split(expr, range(w.n))
        return pub, priv, None, sharesplit.issue_monotone(split, priv)
    family = policy.authorized_family(expr, w.universe, w.cap)
    plan = sharesplit.slots_packed(family, w.n, w.universe)
    return pub, priv, family, sharesplit.issue_sequence(plan, priv)


def _mask(prime_set, problems: list[str]) -> int | None:
    if prime_set is None:
        return None
    unknown = [q for q in prime_set if q not in PRIME_INDEX]
    if unknown:
        problems.append(f"share holds non-system primes {sorted(unknown)}")
    return sum(1 << PRIME_INDEX[q] for q in prime_set if q in PRIME_INDEX)


def deployment(w: Workload, built) -> Deployment:
    """Checks the built deployment and derives what the checks need."""
    pub, priv, program_family, shares = built
    family = own_family(w)
    problems: list[str] = []
    if priv.primes != PRIMES[:w.n]:
        problems.append("key primes differ from the first n primes")
    if program_family is not None and program_family != family:
        problems.append("policy.authorized_family differs from the policy's own reading")
    if w.mode == "monotone":
        masks = {h: (_mask(shares[h].prime_subset, problems) if h in shares else None,)
                 for h in w.universe}
        slot_count = 1
    else:
        masks = {h: tuple(_mask(s, problems) for s in shares[h].slots) for h in w.universe}
        slot_count = len(shares[w.universe[0]].slots)
    return Deployment(pub, priv, shares, family, slot_count, masks, problems)


def timed_build(w: Workload, seed: int, seconds: list[float]):
    """Builds the deployment once and appends the time taken to `seconds`."""
    start = time.perf_counter()
    built = build(w, seed)
    seconds.append(time.perf_counter() - start)
    return built


def timed_setups(w: Workload, seed: int) -> tuple[list[float], Deployment]:
    """Builds the deployment repeatedly; returns each build's seconds."""
    seconds: list[float] = []
    while len(seconds) < SETUP_MIN_REPEATS or sum(seconds) < SETUP_MIN_SECONDS:
        built = timed_build(w, seed, seconds)
    return seconds, deployment(w, built)


# --- the seeded round --------------------------------------------------------


@dataclass(frozen=True)
class Op:
    group: tuple[str, ...]  # present holders in universe order; () for an audit trial
    m: int
    authorized: bool
    seed: int  # seeds the operation's own random.Random (session ids)


def session_groups(w: Workload, dep: Deployment) -> list[tuple[frozenset[str], bool]]:
    """Every group of the workload's mix, with whether it is authorized.

    Without a cap: every non-empty subset. With a cap: the authorized family,
    every unauthorized group within the cap, and every group one over the
    cap that contains an authorized group (these test null lock-out).
    """
    everyone = _subsets(w.universe)
    if w.cap is None:
        return [(g, g in dep.family) for g in everyone]
    within = [(g, g in dep.family) for g in everyone if len(g) <= w.cap]
    over = [(g, False) for g in everyone
            if len(g) == w.cap + 1 and any(f < g for f in dep.family)]
    return within + over


def make_round(w: Workload, dep: Deployment, seed: int) -> list[Op]:
    """The seeded operation list one round replays.

    Every message m also runs as its complement, so each bit position is set
    equally often in a round whatever the seed: work that is linear in m's
    bits (the prime-index walks) then sums to the same total for every seed.
    """
    rng = random.Random(f"{w.name}/{seed}")
    full = (1 << w.n) - 1
    groups = [((), True)] if w.audit else session_groups(w, dep)
    ops = []
    for group, authorized in groups:
        members = tuple(h for h in w.universe if h in group)
        for _ in range(w.messages):
            m = rng.randrange(1, full)
            for message in (m, full ^ m):
                ops.append(Op(members, message, authorized, rng.getrandbits(64)))
    rng.shuffle(ops)
    return ops


# --- operations and their checks ---------------------------------------------


@dataclass
class Outcome:
    seconds: float
    ok: bool
    false_accepts: int = 0
    wire_bytes: int = 0


def _crypto_ok(dep: Deployment, challenge, m: int) -> bool:
    """pow(c, s, p) must be the product of the primes of m's bits."""
    expected = 1
    for i in range(dep.priv.n):
        if (m >> i) & 1:
            expected *= PRIMES[i]
    return all(pow(c, dep.priv.s, dep.priv.p) == expected for c in challenge.ciphertexts)


def run_session(w: Workload, dep: Deployment, op: Op, fault: str | None = None) -> Outcome:
    """One session: challenge, every present token responds, merge, verify.

    `fault` exists for the self-test: "flip" flips one bit of the first
    response before the verifier merges it, "reject" turns the verdict
    into a rejection.
    """
    rng = random.Random(op.seed)
    texts: list[str] = []
    start = time.perf_counter()
    challenge, state = protocol.make_challenge(
        dep.pub, mode=w.mode, slot_count=dep.slot_count, rng=rng, force_m=op.m)
    if w.wire:
        texts.append(files.dumps(challenge))
        challenge = files.from_document(json.loads(texts[0]))
    responses = [protocol.token_respond(dep.shares[h], challenge, rng=rng) for h in op.group]
    if w.wire:
        sent = [files.dumps(r) for r in responses]
        texts += sent
        responses = [files.from_document(json.loads(t)) for t in sent]
    if fault == "flip":
        first = responses[0]
        responses[0] = dataclasses.replace(first, values=(first.values[0] ^ 1,) + first.values[1:])
    if w.mode == "monotone":
        merged = [protocol.merge_monotone(responses)]
    else:
        merged = protocol.merge_sequence(responses, "sum")
    verdict = protocol.verify(state, merged)
    seconds = time.perf_counter() - start
    if fault == "reject":
        verdict = dataclasses.replace(verdict, accepted=False, matching_slot=None)

    ok = state.plaintexts == (op.m,) and _crypto_ok(dep, challenge, op.m)
    for h, r in zip(op.group, responses):
        expected = tuple(1 if mask is None else op.m & mask for mask in dep.masks[h])
        ok = ok and r.session_id == state.session_id and r.values == expected
    if w.mode == "monotone":
        own = [0]
        for r in responses:
            own[0] |= r.values[0]
    else:
        own = [sum(column) for column in zip(*(r.values for r in responses))]
    own_accept = op.m in own
    ok = ok and verdict.accepted == own_accept and (verdict.accepted or not op.authorized)
    return Outcome(seconds, ok, int(verdict.accepted and not op.authorized),
                   sum(map(len, texts)))


def own_sum_accepts(dep: Deployment, universe: tuple[str, ...], m: int) -> set[frozenset[str]]:
    """Every subset the exact null-1 sum-merge predicate accepts for m.

    Per slot, subset sums are built with the low-bit recurrence
    sums[a] = sums[a without its lowest member] + value of that member.
    """
    h = len(universe)
    accepted_masks: set[int] = set()
    for j in range(dep.slot_count):
        values = [1 if dep.masks[x][j] is None else m & dep.masks[x][j] for x in universe]
        sums = [0] * (1 << h)
        for a in range(1, 1 << h):
            low = a & -a
            sums[a] = sums[a ^ low] + values[low.bit_length() - 1]
            if sums[a] == m:
                accepted_masks.add(a)
    return {frozenset(universe[i] for i in range(h) if (a >> i) & 1) for a in accepted_masks}


def run_audit(w: Workload, dep: Deployment, op: Op, fault: str | None = None) -> Outcome:
    """One protocol.audit trial over every subset, its message pinned to op.m.

    `fault="reject"` drops one authorized group from the accepted set.
    """
    rng = random.Random(op.seed)
    start = time.perf_counter()
    report = protocol.audit(dep.priv, dep.shares, dep.family, trials=1, rng=rng,
                            mode="sequence", merge="sum", null_policy="one", force_m=op.m)
    seconds = time.perf_counter() - start
    if report.trials != 1:
        return Outcome(seconds, False)
    accepted = report.accepted_by_trial[0]
    if fault == "reject":
        accepted = accepted - {min(dep.family, key=sorted)}
    extra = accepted - dep.family
    ok = dep.family <= accepted and extra <= own_sum_accepts(dep, w.universe, op.m)
    return Outcome(seconds, ok, len(extra))


def run_op(w: Workload, dep: Deployment, op: Op, fault: str | None = None) -> Outcome:
    return (run_audit if w.audit else run_session)(w, dep, op, fault)


# --- runs ----------------------------------------------------------------------


@dataclass
class Tally:
    # per operation of the round: its best time over the rounds run, in ms
    # (None while it has not yet succeeded)
    best_ms: list[float | None]
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    false_accepts: int = 0
    wire_bytes: int = 0
    errors: list[str] = field(default_factory=list)


def run_rounds(w: Workload, dep: Deployment, ops: list[Op], seconds: float,
               between_rounds: Callable[[], object] | None = None) -> Tally:
    """Replays whole rounds of `ops` until `seconds` have passed.

    `between_rounds`, if given, runs after each round, untimed by the round.
    """
    tally = Tally(best_ms=[None] * len(ops))
    best = tally.best_ms
    start = time.perf_counter()
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            tally.attempted += 1
            try:
                outcome = run_op(w, dep, op)
            except Exception as exc:  # a program error fails the operation, not the run
                tally.failed += 1
                if len(tally.errors) < 5:
                    tally.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if not outcome.ok:
                tally.failed += 1
                continue
            ms = outcome.seconds * 1000.0
            if best[i] is None or ms < best[i]:
                best[i] = ms
            tally.false_accepts += outcome.false_accepts
            tally.wire_bytes += outcome.wire_bytes
        tally.rounds += 1
        if between_rounds is not None:
            between_rounds()
    return tally


def timing_metrics(tally: Tally) -> dict[str, float]:
    """Latency and throughput from each operation's best time over the rounds.

    Other tenants of a shared machine only ever slow an operation down, so
    the best of several repetitions spread over the run is the steadiest
    estimate of what the code itself costs.
    """
    times = [t for t in tally.best_ms if t is not None]
    out = {"op_p50_ms": statistics.median(times),
           "ops_per_s": 1000.0 * len(times) / sum(times)}
    # a p90 needs at least ten samples beyond it
    if len(times) >= 100:
        out["op_p90_ms"] = statistics.quantiles(times, n=10)[8]
    return out


END_TO_END_UNITS = {"op_p50_ms": "ms", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, phase). Phase "op" figures are per operation of the traced
# pass, phase "setup" figures per deployment build.
PER_LAYER = {
    "numtheory.prime_index.calls": ("count", "op"),
    "numtheory.prime_index.ms": ("ms", "op"),
    "numtheory.is_probable_prime.calls": ("count", "op"),
    "nscrypt.partial_decrypt.calls": ("count", "op"),
    "nscrypt.partial_decrypt.ms": ("ms", "op"),
    "nscrypt.encrypt.ms": ("ms", "op"),
    "nscrypt.keygen.ms": ("ms", "setup"),
    "policy.parse.ms": ("ms", "setup"),
    "policy.authorized_family.ms": ("ms", "setup"),
    "policy.evaluate.calls": ("count", "setup"),
    "sharesplit.bl_split.ms": ("ms", "setup"),
    "sharesplit.slots_packed.ms": ("ms", "setup"),
    "sharesplit.slots": ("count", "setup"),
    "sharesplit.issue.ms": ("ms", "setup"),
    "protocol.make_challenge.ms": ("ms", "op"),
    "protocol.token_respond.calls": ("count", "op"),
    "protocol.token_respond.ms": ("ms", "op"),
    "protocol.merge.ms": ("ms", "op"),
    "protocol.verify.ms": ("ms", "op"),
    "protocol.audit.ms": ("ms", "op"),
    "protocol.false_accepts": ("count", "op"),
    "files.dumps.ms": ("ms", "op"),
    "files.from_document.ms": ("ms", "op"),
    "files.wire_bytes": ("B", "op"),
}


def per_layer_metrics(setup_trace: Tracer, setups: int, op_trace: Tracer, tally: Tally,
                      dep: Deployment) -> dict[str, float]:
    ops = tally.attempted
    special = {"sharesplit.slots": dep.slot_count * setups,
               "protocol.false_accepts": tally.false_accepts,
               "files.wire_bytes": tally.wire_bytes}
    out = {}
    for name, (unit, phase) in PER_LAYER.items():
        tracer, count = (setup_trace, setups) if phase == "setup" else (op_trace, ops)
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            total = tracer.calls.get(stem, 0)
        elif kind == "ms":
            total = 1000.0 * tracer.self_s.get(stem, 0.0)
        else:
            total = special[name]
        out[name] = total / count
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "machine": platform.machine()}

    if args.trace:
        with Tracer(MODULES) as setup_trace:
            setup_seconds, dep = timed_setups(w, args.seed)
    else:
        setup_seconds, dep = timed_setups(w, args.seed)
    ops = make_round(w, dep, args.seed)

    if args.trace:
        # Untraced then traced, half the time each: the per-layer figures
        # come from the traced pass, the overhead from comparing the two.
        plain = run_rounds(w, dep, ops, args.seconds / 2)
        with Tracer(MODULES) as op_trace:
            traced = run_rounds(w, dep, ops, args.seconds / 2)
        runs = [plain, traced]
    else:
        # More set-up samples, one after each round, so that setup_s is the
        # median over the whole run rather than over its first second.
        runs = [run_rounds(w, dep, ops, args.seconds,
                           between_rounds=lambda: timed_build(w, args.seed, setup_seconds))]

    attempted = sum(t.attempted for t in runs)
    failed = sum(t.failed for t in runs)
    record.update({
        "round_ops": len(ops), "rounds": sum(t.rounds for t in runs),
        "slots": dep.slot_count, "setups": len(setup_seconds),
        "attempted": attempted, "failed": failed,
        "false_accepts": sum(t.false_accepts for t in runs),
        "setup_problems": dep.problems,
        "errors": [e for t in runs for e in t.errors],
    })
    print(f"{w.name} seed {args.seed}: {len(ops)} operations per round, "
          f"{record['rounds']} rounds, {attempted} attempted, {failed} failed, "
          f"{record['false_accepts']} false accepts, {dep.slot_count} slots")
    for problem in dep.problems + record["errors"]:
        print(f"  problem: {problem}")
    if any(all(t is None for t in r.best_ms) for r in runs):
        print("error: every operation failed its checks; there is no timing to report",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(setup_trace, len(setup_seconds), op_trace, traced, dep)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        untraced_timing, traced_timing = timing_metrics(plain), timing_metrics(traced)
        record["untraced"], record["traced"] = untraced_timing, traced_timing
        record["trace_overhead_pct"] = {
            k: 100.0 * (traced_timing[k] / untraced_timing[k] - 1.0) for k in untraced_timing}
    else:
        timing = timing_metrics(runs[0])
        metrics = {"op_p50_ms": timing["op_p50_ms"],
                   "ops_per_s": timing["ops_per_s"],
                   "setup_s": statistics.median(setup_seconds),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
        if "op_p90_ms" in timing:
            record["op_p90_ms"] = timing["op_p90_ms"]
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if "op_p90_ms" in record:
        timed = sum(t is not None for t in runs[0].best_ms)
        print(f"  op_p90_ms = {record['op_p90_ms']:.6g} ms (over {timed} operations)")
    if args.trace:
        for k, pct in record["trace_overhead_pct"].items():
            print(f"  trace overhead on {k}: {pct:+.1f}%")
    print(f"  record: {out_file.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": not dep.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
