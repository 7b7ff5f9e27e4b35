"""Command-line interface.

Subcommands cover the whole pipeline: generate a key, compile a policy into
share files, open a challenge session, answer it from a share file, verify
responses, audit a deployment by brute force, and run the built-in demos.

Exit codes: 0 success, 1 verification or compile failure, 2 usage or input
schema error.
"""

from __future__ import annotations

import argparse
import json
import os
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
        value = int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be hex, got {text!r}") from None
    if value < 0:  # `random.Random` seeds -x as x
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _universe_arg(text: str) -> tuple[str, ...]:
    # every part, so an empty name ("A,,B") is refused like any invalid one;
    # a blank argument is the empty universe, refused as such
    parts = text.split(",") if text.strip() else []
    return policy.check_universe([part.strip() for part in parts])


def _format_group(group: frozenset[str], universe: tuple[str, ...]) -> str:
    return ",".join(name for name in universe if name in group)


def _format_family(family, universe) -> str:
    names = sorted((len(g), _format_group(g, universe)) for g in family)
    return "{" + "; ".join(name for _, name in names) + "}"


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _check_outputs(inputs: list[tuple[str, str | Path]],
                   outputs: list[tuple[str, str | Path]]) -> None:
    """Refuse an output file that is also an input or another output, before anything
    is written, so `challenge -o x.json --state ./x.json` cannot leave the secret state
    where the challenge was named.

    Each entry is a flag and its path; paths compare resolved, links followed, by
    `os.path.realpath`, which leaves a link loop to the open that follows (before
    Python 3.13, `Path.resolve` raised RuntimeError there).
    """
    named = {os.path.realpath(path): flag for flag, path in inputs}
    for flag, path in outputs:
        resolved = os.path.realpath(path)
        if resolved in named:
            raise ValueError(f"{named[resolved]} and {flag} both name {path}")
        named[resolved] = flag


def _seeded_rng(seed: int | None) -> random.Random | None:
    """A Mersenne Twister for `--seed`; without one, None, so the OS generator is used."""
    return None if seed is None else random.Random(seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_keygen(args) -> int:
    _, priv = nscrypt.keygen(args.n, seed=args.seed)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    files.save(priv, out / "priv.json")
    print(f"wrote {out / 'priv.json'} (n={priv.n}, p={priv.p})")
    return 0


def cmd_compile(args) -> int:
    universe = _universe_arg(args.universe)
    expr = policy.parse(args.policy, universe)
    out = Path(args.output)
    names = [*(f"share_{holder}.json" for holder in universe), "deployment.json"]
    _check_outputs([("--key", args.key)], [("-o", out / name) for name in names])
    priv = files.load(args.key, expect_kind="ns-private")
    shares, deployment, family = sharesplit.compile_policy(
        expr, universe, priv, args.mode, merge=args.merge, max_size=args.max_size, pack=args.pack)
    summary = (f"monotone split over {priv.n} primes" if family is None else
               f"{len(family)} authorized groups compiled into {deployment.slot_count} slots")

    # created only once the shares exist, so a refused run leaves nothing behind
    out.mkdir(parents=True, exist_ok=True)
    for holder, share in shares.items():
        files.save(share, out / f"share_{holder}.json")
    files.save(deployment, out / "deployment.json")
    print(f"{summary}; wrote {len(shares)} share files and deployment.json to {out}")
    return 0


def cmd_challenge(args) -> int:
    _check_outputs([("--deployment", args.deployment)],
                   [("-o", args.output), ("--state", args.state)])
    deployment = files.load(args.deployment, expect_kind="deployment")
    challenge, state = protocol.make_challenge(
        deployment, rng=_seeded_rng(args.seed), force_m=args.force_m)
    files.save(challenge, args.output)
    try:
        files.save(state, args.state)
    except OSError:  # no state could verify the challenge, so a refused run leaves neither
        Path(args.output).unlink(missing_ok=True)
        raise
    print(f"session {challenge.session_id}: challenge -> {args.output}, "
          f"state -> {args.state}")
    return 0


def cmd_respond(args) -> int:
    _check_outputs([("--share", args.share), ("--challenge", args.challenge)],
                   [("-o", args.output)])
    share = files.load(args.share)
    if not isinstance(share, nscrypt.Share):
        raise SchemaError(f"{args.share}: not a share file", field="kind")
    challenge = files.load(args.challenge, expect_kind="challenge")
    response = protocol.token_respond(
        share, challenge, null_policy=_NULL_POLICIES[args.null], rng=_seeded_rng(args.seed))
    files.save(response, args.output)
    print(f"session {response.session_id}: response -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    _check_outputs([("--state", args.state), *(("--responses", r) for r in args.responses)],
                   [("-o", args.output)] if args.output else [])
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


def _load_share_dir(directory: str, holders: tuple[str, ...]
                    ) -> tuple[protocol.Deployment, dict[str, nscrypt.Share]]:
    """`directory`'s one deployment file and each holder's one share file; others' are ignored."""
    deployment, shares, paths = None, {}, {}  # paths[None]: the deployment's file
    for path in sorted(Path(directory).glob("*.json")):
        obj = files.load(path)
        if isinstance(obj, protocol.Deployment):
            if deployment is not None:
                raise SchemaError(f"{directory}: two deployment files, "
                                  f"{paths[None]} and {path}")
            deployment, paths[None] = obj, path
        elif isinstance(obj, nscrypt.Share) and obj.holder in holders:
            if obj.holder in shares:
                raise SchemaError(f"{directory}: holder {obj.holder} has two share files, "
                                  f"{paths[obj.holder]} and {path}")
            shares[obj.holder], paths[obj.holder] = obj, path
    if deployment is None:
        raise SchemaError(f"{directory}: no deployment file")
    missing = [h for h in holders if h not in shares]
    if missing:
        raise SchemaError(f"{directory}: no share file for holder(s) {', '.join(missing)}")
    return deployment, {h: shares[h] for h in holders}


def cmd_audit(args) -> int:
    holders = _universe_arg(args.universe)
    expr = policy.parse(args.policy, holders)
    deployment, shares = _load_share_dir(args.shares, holders)
    sharesplit.check_sequence_only(deployment.mode, args.max_size)  # as in `compile`
    null_policy = _NULL_POLICIES[args.null]
    expected = policy.authorized_family(expr, holders, args.max_size)

    try:
        report = protocol.audit(
            deployment, shares, expected, trials=args.trials, rng=_seeded_rng(args.seed),
            null_policy=null_policy, force_m=args.force_m)
    except protocol.UnboundShare as exc:
        raise SchemaError(f"{args.shares}: {exc}") from None
    frequencies = report.frequencies()  # every subset, each named once below
    names = {g: _format_group(g, holders) for g in frequencies}

    if args.json:
        doc = {
            "trials": report.trials,
            "mode": deployment.mode,
            "merge": report.merge,
            "null": null_policy,
            "all_exact": report.all_exact,
            "expected": sorted(names[g] for g in report.expected),
            "false_accepts": sorted(names[g] for g in report.false_accepts()),
            "missed": sorted(names[g] for g in report.missed()),
            "frequencies": {names[g]: freq for g, freq in frequencies.items()},
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        rows = [[names[g], "yes" if g in report.expected else "no", f"{frequencies[g]:.2f}"]
                for g in sorted(frequencies, key=lambda g: (len(g), names[g]))]
        _print_table(["subset", "authorized", "accept rate"], rows)
        print(f"{report.trials} trial(s), mode={deployment.mode}, merge={report.merge}, "
              f"null={null_policy}")
        print("result: exact" if report.all_exact else
              f"result: MISMATCH (false accepts: "
              f"{_format_family(report.false_accepts(), holders)}, "
              f"missed: {_format_family(report.missed(), holders)})")
    return 0 if report.all_exact else 1


def _demo_run(system: fixtures.DemoSystem):
    """A fixture's session on its own message: the ciphertext, every holder's response, the audit."""
    challenge, _state = protocol.make_challenge(
        system.deployment, rng=random.Random(0), force_m=system.message)
    responses = {h: protocol.token_respond(system.shares[h], challenge) for h in system.universe}
    report = protocol.audit(
        system.deployment, system.shares, system.expected_family, force_m=system.message)
    return challenge.ciphertexts[0], responses, report


def _demo_airplane(emit_json: bool) -> dict[str, bool]:
    system = fixtures.airplane_system()
    pub, priv = system.pub, system.priv
    plan = system.plan
    assert plan is not None
    c, responses, report = _demo_run(system)
    checks = {
        "public_key_reproduced": pub.v == fixtures.AIRPLANE_V,
        "ciphertext_roundtrip": nscrypt.decrypt(priv, c) == system.message,
        "responses_reproduced": all(
            responses[h].values == fixtures.AIRPLANE_RESPONSES[h] for h in system.universe),
        "audit_exact": report.all_exact,
    }

    if emit_json:
        print(json.dumps({
            "fixture": "airplane",
            "ciphertext": str(c),
            "ciphertext_tabulated": str(fixtures.AIRPLANE_CIPHERTEXT_TABULATED),
            **checks,
        }, sort_keys=True, indent=2))
        return checks

    print(f"demo: airplane (n={pub.n}, p={pub.p}, 5 holders, policy {system.policy_text})")
    print(f"public key values "
          f"{'reproduced' if checks['public_key_reproduced'] else 'MISMATCH'}:")
    for i, vi in enumerate(pub.v):
        print(f"  v[{i:2d}] = {vi}")
    print()
    print(f"challenge on message {system.message}: ciphertext = {c}")
    print(f"  note: the source tabulation lists {fixtures.AIRPLANE_CIPHERTEXT_TABULATED}, "
          f"which does not decrypt to {system.message}; the value above does "
          f"(roundtrip {'ok' if checks['ciphertext_roundtrip'] else 'FAILED'})")
    print()
    print("share sequences (prime values per slot; '-' = no share):")
    headers = ["slot"] + list(system.universe) + ["groups authenticated"]
    rows = []
    for idx, slot in enumerate(plan.slots):
        row = [str(idx + 1)]
        for holder in system.universe:
            primes = system.shares[holder].slots[idx]
            row.append("-" if primes is None else ",".join(map(str, sorted(primes))))
        row.append(_format_family(sharesplit.authorized_groups(slot), system.universe))
        rows.append(row)
    _print_table(headers, rows)
    print()
    print(f"responses (null = 1) "
          f"{'reproduced' if checks['responses_reproduced'] else 'MISMATCH'}; "
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
          f"{'exact match' if checks['audit_exact'] else 'MISMATCH'}")
    return checks


def _demo_small(emit_json: bool) -> dict[str, bool]:
    system = fixtures.small_system()
    pub = system.pub
    c, responses, report = _demo_run(system)
    contributions = {h: r.values[0] for h, r in responses.items()}
    checks = {
        "split_reproduced": all(
            system.shares[h].prime_subset == fixtures.SMALL_SPLIT_PRIMES[h]
            for h in system.universe),
        "ciphertext_ok": c == fixtures.SMALL_CIPHERTEXT,
        "contributions_reproduced": contributions == fixtures.SMALL_CONTRIBUTIONS,
        "audit_exact": report.all_exact,
    }

    if emit_json:
        print(json.dumps({
            "fixture": "small",
            "ciphertext": str(c),
            "contributions": {h: str(v) for h, v in contributions.items()},
            **checks,
        }, sort_keys=True, indent=2))
        return checks

    print(f"demo: small (n={pub.n}, p={pub.p}, policy {system.policy_text})")
    print(f"split {'reproduced' if checks['split_reproduced'] else 'MISMATCH'}:")
    for holder in system.universe:
        primes = ",".join(str(q) for q in sorted(system.shares[holder].prime_subset))
        print(f"  {holder}: {{{primes}}}")
    print(f"challenge on message {system.message}: ciphertext = {c} "
          f"({'matches' if checks['ciphertext_ok'] else 'MISMATCH'})")
    listed = ", ".join(f"{h} -> {contributions[h]}" for h in system.universe)
    print(f"contributions: {listed} "
          f"({'reproduced' if checks['contributions_reproduced'] else 'MISMATCH'})")
    both = protocol.merge_monotone([responses["A1"], responses["A2"]])
    lone = protocol.merge_monotone([responses["A2"], responses["A3"]])
    print(f"  A1,A2 merge to {both} ({'accepted' if both == system.message else 'rejected'})")
    print(f"  A2,A3 merge to {lone} ({'accepted' if lone == system.message else 'rejected'})")
    accepted = report.accepted_by_trial[0]
    print(f"audit of all 7 subsets: accepted {_format_family(accepted, system.universe)} "
          f"-> {'exact match' if checks['audit_exact'] else 'MISMATCH'}")
    return checks


# fixture -> its demo, which prints its report and returns its named checks
_DEMOS = {"airplane": _demo_airplane, "small": _demo_small}


def cmd_demo(args) -> int:
    return 0 if all(_DEMOS[args.fixture](args.json).values()) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupauth",
        description="Group authentication via split knapsack private keys.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags `compile` and `audit` share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--policy", required=True, help="policy expression text")
    shared.add_argument("--universe", required=True, help="comma-separated holder names")
    shared.add_argument("--max-size", type=int, default=None,
                        help="largest allowed group, at least 1")

    p = sub.add_parser("keygen", help="generate a private key")
    p.add_argument("--n", type=int, required=True, help="number of system primes")
    p.add_argument("--seed", type=_hex,
                   help="hex seed of the secret exponent, for tests only: s comes from a "
                        "Mersenne Twister and is only as secret as the seed (p is the "
                        "least prime above the prime product either way)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser(
        "compile", parents=[shared], help="compile a policy into share files",
        description="Compile a policy into one share file per holder and deployment.json. "
                    "--max-size and --pack apply to sequence mode only; monotone refuses them.")
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--mode", choices=protocol.MODES, required=True)
    p.add_argument("--merge", choices=protocol.MERGES, default=None,
                   help="or (monotone), sum (sequence default) or xor; xor cancels "
                        "holders' equal answers, even with --null random (README Caveats)")
    p.add_argument("--pack", action="store_true",
                   help="pack several groups per slot (sequence mode): fewer slots, more false "
                        "accepts. Airplane policy, cap 3, n=12, null 1, sum merge, all 4,095 "
                        "messages: 5 slots and 3,922 false accepts (message and group pairs), "
                        "against 16 slots and 2,359 unpacked")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("challenge", help="open a session: challenge + verifier state")
    p.add_argument("--deployment", required=True, help="deployment.json from compile")
    p.add_argument("--seed", type=_hex,
                   help="hex seed, for tests only (default: the OS generator)")
    p.add_argument("--force-m", type=int, help="pin the challenge plaintext (decimal)")
    p.add_argument("-o", "--output", required=True, help="challenge file")
    p.add_argument("--state", required=True, help="verifier state file (keep local)")
    p.set_defaults(func=cmd_challenge)

    p = sub.add_parser("respond", help="answer a challenge from one share file")
    p.add_argument("--share", required=True, help="this holder's share file")
    p.add_argument("--challenge", required=True, help="challenge file")
    p.add_argument("--null", choices=_NULL_POLICIES, default="one")
    p.add_argument("--seed", type=_hex,
                   help="hex seed for random nulls, for tests only (default: the OS generator)")
    p.add_argument("-o", "--output", required=True, help="response file")
    p.set_defaults(func=cmd_respond)

    p = sub.add_parser("verify", help="merge responses and check them")
    p.add_argument("--state", required=True, help="verifier state file")
    p.add_argument("--responses", nargs="+", required=True, help="response files")
    p.add_argument("-o", "--output", default=None, help="optional verdict file")
    p.add_argument("--json", action="store_true", help="machine-readable verdict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", parents=[shared],
                       help="brute-force every subset against the policy")
    p.add_argument("--shares", required=True,
                   help="directory with one deployment file and a share file per universe holder")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=_hex,
                   help="hex seed for messages and random nulls (default: the OS generator)")
    p.add_argument("--null", choices=_NULL_POLICIES, default="one")
    p.add_argument("--force-m", type=int, help="pin the challenge plaintext (decimal)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("demo", help="run a built-in known-answer demo")
    p.add_argument("--fixture", choices=_DEMOS, required=True)
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
    except (SchemaError, ValueError, OSError) as exc:  # SchemaError before its base class
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
