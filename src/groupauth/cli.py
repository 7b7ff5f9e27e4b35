"""Command-line interface.

Subcommands cover the whole pipeline: generate keys, compile a policy into
share files, open a challenge session, answer it from a share file, verify
responses, audit a deployment by brute force, and run the built-in demos.

Exit codes: 0 success, 1 verification or compile failure, 2 usage or input
schema error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import fixtures, files, nscrypt, policy, protocol, sharesplit
from .errors import GroupAuthError, SchemaError

__all__ = ["run_cli", "main"]

# --null choices to the library's null-response policies
_NULL_POLICIES = {"one": "one", "random": "random-nonzero"}


def _hex(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be hex, got {text!r}") from None


def _universe_arg(text: str) -> tuple[str, ...]:
    return policy.check_universe([part.strip() for part in text.split(",") if part.strip()])


def _format_group(group: frozenset[str], universe: tuple[str, ...]) -> str:
    pos = {name: i for i, name in enumerate(universe)}
    return ",".join(sorted(group, key=pos.__getitem__))


def _format_family(family, universe) -> str:
    key = lambda g: (len(g), _format_group(g, universe))
    return "{" + "; ".join(_format_group(g, universe) for g in sorted(family, key=key)) + "}"


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_keygen(args) -> int:
    if (args.force_p is None) != (args.force_s is None):
        raise SchemaError("--force-p and --force-s must be given together")
    strategy = "seeded-random" if args.seed is not None else "deterministic-least-prime"
    pub, priv = nscrypt.keygen(
        args.n, strategy=strategy, seed=args.seed,
        force_p=args.force_p, force_s=args.force_s)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    files.save(pub, out / "pub.json")
    files.save(priv, out / "priv.json")
    print(f"wrote {out / 'pub.json'} and {out / 'priv.json'} (n={pub.n}, p={pub.p})")
    return 0


def cmd_compile(args) -> int:
    universe = _universe_arg(args.universe)
    expr = policy.parse(args.policy, universe)
    priv = files.load(args.key, expect_kind="ns-private")

    if args.mode == "monotone":
        if not policy.is_monotone(expr):
            raise sharesplit.NonMonotoneError(
                "policy is non-monotone (contains NOT); monotone mode needs AND/OR only")
        split = sharesplit.bl_split(expr, range(priv.n))
        shares = sharesplit.issue_monotone(split, priv)
        summary = f"monotone split over {priv.n} primes"
    else:
        family = policy.authorized_family(expr, universe, args.max_size)
        if not family:
            raise GroupAuthError("policy authorizes no groups at this size cap")
        build = sharesplit.slots_packed if args.pack else sharesplit.slots_baseline
        plan = build(family, priv.n, universe)
        shares = sharesplit.issue_sequence(plan, priv)
        summary = f"{len(family)} authorized groups compiled into {len(plan.slots)} slots"

    # created only once the shares exist, so a refused run leaves nothing behind
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for holder, share in shares.items():
        files.save(share, out / f"share_{holder}.json")
    print(f"{summary}; wrote {len(shares)} share files to {out}")
    return 0


def cmd_challenge(args) -> int:
    pub = files.load(args.pub, expect_kind="ns-public")
    challenge, state = protocol.make_challenge(
        pub, mode=args.mode, merge=args.merge, slot_count=args.slots,
        rng=None if args.seed is None else random.Random(args.seed), force_m=args.force_m)
    files.save(challenge, args.output)
    files.save(state, args.state)
    print(f"session {challenge.session_id}: challenge -> {args.output}, "
          f"state -> {args.state}")
    return 0


def cmd_respond(args) -> int:
    share = files.load(args.share)
    if not isinstance(share, (nscrypt.KeyShare, sharesplit.ShareSequence)):
        raise SchemaError(f"{args.share}: not a share file", field="kind")
    challenge = files.load(args.challenge, expect_kind="challenge")
    response = protocol.token_respond(
        share, challenge, null_policy=_NULL_POLICIES[args.null], rng=random.Random(args.seed))
    files.save(response, args.output)
    print(f"session {response.session_id}: response -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    state = files.load(args.state, expect_kind="verifier-state")
    responses = [files.load(path, expect_kind="response") for path in args.responses]
    merged = protocol.merge_responses(state, responses)
    verdict = protocol.verify(state, merged)
    if args.output:
        files.save(verdict, args.output)
    if args.json:
        print(json.dumps(files.to_document(verdict), sort_keys=True))
    else:
        outcome = "accepted" if verdict.accepted else "rejected"
        slot = f" at slot {verdict.matching_slot}" if verdict.accepted else ""
        print(f"session {verdict.session_id}: {outcome}{slot}")
    return 0 if verdict.accepted else 1


def _load_share_dir(directory: str) -> dict[str, object]:
    shares = {}
    for path in sorted(Path(directory).glob("*.json")):
        obj = files.load(path)
        if isinstance(obj, (nscrypt.KeyShare, sharesplit.ShareSequence)):
            shares[obj.holder] = obj
    if not shares:
        raise SchemaError(f"no share files found in {directory}")
    return shares


def cmd_audit(args) -> int:
    universe = _universe_arg(args.universe)
    expr = policy.parse(args.policy, universe)
    priv = files.load(args.key, expect_kind="ns-private")
    all_shares = _load_share_dir(args.shares)
    holders = tuple(h for h in universe if h in all_shares)
    if not holders:
        raise SchemaError("no share files match the given universe")
    shares = {h: all_shares[h] for h in holders}

    sequence = any(isinstance(s, sharesplit.ShareSequence) for s in shares.values())
    mode = "sequence" if sequence else "monotone"
    null_policy = _NULL_POLICIES[args.null]
    expected = policy.authorized_family(expr, holders, args.max_size)

    report = protocol.audit(
        priv, shares, expected, trials=args.trials, rng=random.Random(args.seed),
        mode=mode, merge=args.merge, null_policy=null_policy, force_m=args.force_m)
    frequencies = sorted(report.frequencies().items(),
                         key=lambda kv: (len(kv[0]), _format_group(kv[0], holders)))

    if args.json:
        doc = {
            "trials": report.trials,
            "all_exact": report.all_exact,
            "expected": sorted(_format_group(g, holders) for g in report.expected),
            "false_accepts": sorted(_format_group(g, holders) for g in report.false_accepts()),
            "missed": sorted(_format_group(g, holders) for g in report.missed()),
            "frequencies": {_format_group(g, holders): freq for g, freq in frequencies},
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        rows = [[_format_group(g, holders), "yes" if g in report.expected else "no",
                 f"{freq:.2f}"] for g, freq in frequencies]
        _print_table(["subset", "authorized", "accept rate"], rows)
        print(f"{report.trials} trial(s), mode={mode}, merge={report.merge}, "
              f"null={null_policy}")
        print("result: exact" if report.all_exact else
              f"result: MISMATCH (false accepts: "
              f"{_format_family(report.false_accepts(), holders)}, "
              f"missed: {_format_family(report.missed(), holders)})")
    return 0 if report.all_exact else 1


def _demo_airplane(emit_json: bool) -> int:
    system = fixtures.airplane_system()
    pub, priv = system.pub, system.priv
    plan = system.plan
    assert plan is not None

    ok = pub.v == fixtures.AIRPLANE_V
    c = nscrypt.encrypt(pub, system.message)
    roundtrip = nscrypt.decrypt(priv, c) == system.message

    challenge, _state = protocol.make_challenge(
        pub, mode="sequence", merge="sum", slot_count=len(plan.slots),
        rng=random.Random(0), force_m=system.message)
    responses = {
        holder: protocol.token_respond(system.shares[holder], challenge, "one")
        for holder in system.universe
    }
    table_ok = all(
        responses[h].values == fixtures.AIRPLANE_RESPONSES[h]
        for h in system.universe
    )
    report = protocol.audit(
        priv, system.shares, system.expected_family,
        mode="sequence", merge="sum", null_policy="one", force_m=system.message)
    exact = report.all_exact

    if emit_json:
        print(json.dumps({
            "fixture": "airplane",
            "public_key_reproduced": ok,
            "ciphertext": str(c),
            "ciphertext_tabulated": str(fixtures.AIRPLANE_CIPHERTEXT_TABULATED),
            "responses_reproduced": table_ok,
            "audit_exact": exact,
        }, sort_keys=True, indent=2))
        return 0 if (ok and roundtrip and table_ok and exact) else 1

    print(f"demo: airplane (n={pub.n}, p={pub.p}, 5 holders, policy {system.policy_text})")
    print(f"public key values {'reproduced' if ok else 'MISMATCH'}:")
    for i, vi in enumerate(pub.v):
        print(f"  v[{i:2d}] = {vi}")
    print()
    print(f"challenge on message {system.message}: ciphertext = {c}")
    print(f"  note: the source tabulation lists {fixtures.AIRPLANE_CIPHERTEXT_TABULATED}, "
          f"which does not decrypt to {system.message}; the value above does "
          f"(roundtrip {'ok' if roundtrip else 'FAILED'})")
    print()
    print("share sequences (prime values per slot; '-' = no share):")
    headers = ["slot"] + list(system.universe) + ["groups authenticated"]
    rows = []
    for idx, slot in enumerate(plan.slots):
        row = [str(idx + 1)]
        for holder in system.universe:
            part = slot.member_part.get(holder)
            row.append("-" if part is None else
                       ",".join(str(priv.primes[i]) for i in sorted(slot.parts[part])))
        row.append(_format_family(sharesplit.authorized_groups(slot), system.universe))
        rows.append(row)
    _print_table(headers, rows)
    print()
    print(f"responses (null = 1) {'reproduced' if table_ok else 'MISMATCH'}; "
          "row 7 recomputed (source tabulation swaps B and C there):")
    headers = ["slot"] + list(system.universe)
    rows = [
        [str(i + 1)] + [str(responses[h].values[i]) for h in system.universe]
        for i in range(len(plan.slots))
    ]
    _print_table(headers, rows)
    print()
    accepted = report.accepted_by_trial[0]
    print(f"audit of all {2 ** len(system.universe) - 1} subsets "
          f"(sum merge, null = 1, message {system.message}):")
    print(f"  accepted {len(accepted)} groups: {_format_family(accepted, system.universe)}")
    print(f"  expected {len(report.expected)} groups -> "
          f"{'exact match' if exact else 'MISMATCH'}")
    return 0 if (ok and roundtrip and table_ok and exact) else 1


def _demo_small(emit_json: bool) -> int:
    system = fixtures.small_system()
    pub, priv = system.pub, system.priv

    split_ok = all(
        system.shares[h].prime_subset == fixtures.SMALL_SPLIT_PRIMES[h]
        for h in system.universe
    )
    c = nscrypt.encrypt(pub, system.message)
    cipher_ok = c == fixtures.SMALL_CIPHERTEXT

    challenge, _state = protocol.make_challenge(
        pub, mode="monotone", rng=random.Random(0), force_m=system.message)
    contributions = {
        h: protocol.token_respond(system.shares[h], challenge).values[0]
        for h in system.universe
    }
    contrib_ok = contributions == fixtures.SMALL_CONTRIBUTIONS

    report = protocol.audit(
        priv, system.shares, system.expected_family,
        mode="monotone", merge="or", force_m=system.message)
    exact = report.all_exact

    if emit_json:
        print(json.dumps({
            "fixture": "small",
            "split_reproduced": split_ok,
            "ciphertext": str(c),
            "ciphertext_ok": cipher_ok,
            "contributions": {h: str(v) for h, v in contributions.items()},
            "audit_exact": exact,
        }, sort_keys=True, indent=2))
        return 0 if (split_ok and cipher_ok and contrib_ok and exact) else 1

    print(f"demo: small (n={pub.n}, p={pub.p}, policy {system.policy_text})")
    print(f"split {'reproduced' if split_ok else 'MISMATCH'}:")
    for holder in system.universe:
        primes = ",".join(str(q) for q in sorted(system.shares[holder].prime_subset))
        print(f"  {holder}: {{{primes}}}")
    print(f"challenge on message {system.message}: ciphertext = {c} "
          f"({'matches' if cipher_ok else 'MISMATCH'})")
    print("contributions: " + ", ".join(
        f"{h} -> {contributions[h]}" for h in system.universe))
    both = contributions["A1"] | contributions["A2"]
    lone = contributions["A2"] | contributions["A3"]
    print(f"  A1,A2 merge to {both} ({'accepted' if both == system.message else 'rejected'})")
    print(f"  A2,A3 merge to {lone} ({'accepted' if lone == system.message else 'rejected'})")
    accepted = report.accepted_by_trial[0]
    print(f"audit of all 7 subsets: accepted {_format_family(accepted, system.universe)} "
          f"-> {'exact match' if exact else 'MISMATCH'}")
    return 0 if (split_ok and cipher_ok and contrib_ok and exact) else 1


def cmd_demo(args) -> int:
    if args.fixture == "airplane":
        return _demo_airplane(args.json)
    return _demo_small(args.json)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupauth",
        description="Group authentication via split knapsack private keys.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n", type=int, required=True, help="number of system primes")
    p.add_argument("--seed", type=_hex,
                   help="hex seed for seeded-random generation; for tests only: the key "
                        "comes from a Mersenne Twister and is only as secret as the seed")
    p.add_argument("--force-p", type=int, help="pin the prime modulus")
    p.add_argument("--force-s", type=int, help="pin the secret exponent")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("compile", help="compile a policy into share files")
    p.add_argument("--policy", required=True, help="policy expression text")
    p.add_argument("--universe", required=True, help="comma-separated holder names")
    p.add_argument("--max-size", type=int, default=None, help="largest allowed group")
    p.add_argument("--mode", choices=["monotone", "sequence"], required=True)
    p.add_argument("--pack", action="store_true",
                   help="pack multiple groups per slot (sequence mode)")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("challenge", help="open a session: challenge + verifier state")
    p.add_argument("--pub", required=True, help="public key file")
    p.add_argument("--mode", choices=["monotone", "sequence"], default="monotone")
    p.add_argument("--slots", type=int, default=1, help="slot count (sequence mode)")
    p.add_argument("--merge", choices=["or", "sum", "xor"], default=None)
    p.add_argument("--seed", type=_hex,
                   help="hex seed, for tests only (default: the OS generator)")
    p.add_argument("--force-m", type=int, help="pin the challenge plaintext (decimal)")
    p.add_argument("-o", "--output", required=True, help="challenge file")
    p.add_argument("--state", required=True, help="verifier state file (keep local)")
    p.set_defaults(func=cmd_challenge)

    p = sub.add_parser("respond", help="answer a challenge from one share file")
    p.add_argument("--share", required=True, help="this holder's share file")
    p.add_argument("--challenge", required=True, help="challenge file")
    p.add_argument("--null", choices=["one", "random"], default="one")
    p.add_argument("--seed", type=_hex, help="hex seed for random nulls")
    p.add_argument("-o", "--output", required=True, help="response file")
    p.set_defaults(func=cmd_respond)

    p = sub.add_parser("verify", help="merge responses and check them")
    p.add_argument("--state", required=True, help="verifier state file")
    p.add_argument("--responses", nargs="+", required=True, help="response files")
    p.add_argument("-o", "--output", default=None, help="optional verdict file")
    p.add_argument("--json", action="store_true", help="machine-readable verdict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="brute-force every subset against the policy")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--shares", required=True, help="directory of share files")
    p.add_argument("--policy", required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=_hex, help="hex seed")
    p.add_argument("--merge", choices=["or", "sum", "xor"], default=None)
    p.add_argument("--null", choices=["one", "random"], default="one")
    p.add_argument("--force-m", type=int, help="pin the challenge plaintext (decimal)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("demo", help="run a built-in known-answer demo")
    p.add_argument("--fixture", choices=["airplane", "small"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_demo)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
