"""`sharesplit.compile_policy`: its refusals, and the CLI held to it by a differential test."""

import contextlib
import dataclasses
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_expr
from groupauth import files, nscrypt, policy, protocol, sharesplit
from groupauth.cli import run_cli
from groupauth.errors import GroupAuthError, SchemaError
from groupauth.sharesplit import compile_policy

ABC = ("A", "B", "C")


@pytest.fixture(scope="module")
def priv():
    return nscrypt.keygen(8, seed=1)[1]


class TestCompilePolicy:
    def test_monotone(self, priv):
        expr = policy.parse("(A and B) or (A and C)", ABC)
        shares, deployment, family = compile_policy(expr, ABC, priv, "monotone")
        assert shares == sharesplit.issue_monotone(sharesplit.bl_split(expr, range(8)), priv)
        assert tuple(shares) == ABC
        assert family is None
        pub = nscrypt.public_key_of(priv)
        assert deployment == protocol.Deployment(pub.n, pub.p, pub.v, "monotone", "or", 1)

    @pytest.mark.parametrize("pack", [False, True])
    @pytest.mark.parametrize("merge", [None, "sum", "xor"])
    def test_sequence(self, priv, pack, merge):
        expr = policy.parse("(A and B) or (A and C) or (B and C)", ABC)
        shares, deployment, family = compile_policy(expr, ABC, priv, "sequence",
                                                    merge=merge, max_size=2, pack=pack)
        assert family == policy.authorized_family(expr, ABC, 2)
        plan = (sharesplit.slots_packed if pack else sharesplit.slots_baseline)(family, 8, ABC)
        assert shares == sharesplit.issue_sequence(plan, priv)
        assert tuple(shares) == ABC
        assert (deployment.mode, deployment.merge, deployment.slot_count) == (
            "sequence", merge or "sum", len(plan.slots))
        report = protocol.audit(deployment, shares, family, trials=3, rng=random.Random(1),
                                mode="sequence", merge=deployment.merge)
        assert report.all_exact

    def test_monotone_unnamed_holder(self, priv):
        # the split issued C nothing, and `audit` then silently audited A and B alone
        with pytest.raises(ValueError, match="^monotone mode issues no share to a holder "
                                             "the policy does not name: C$"):
            compile_policy(policy.parse("A and B", ABC), ABC, priv, "monotone")

    @pytest.mark.parametrize("options, what", [({"max_size": 2}, "a size cap applies"),
                                               ({"pack": True}, "packing applies"),
                                               ({"max_size": 2, "pack": True},
                                                "a size cap applies")])
    def test_monotone_sequence_options(self, priv, options, what):
        expr = policy.parse("(A and B) or (A and C)", ABC)
        with pytest.raises(ValueError, match=f"^{what} to sequence mode only$"):
            compile_policy(expr, ABC, priv, "monotone", **options)

    def test_empty_capped_family(self, priv):
        expr = policy.parse("A and B and C", ABC)
        with pytest.raises(GroupAuthError,
                           match="^policy authorizes no groups at this size cap$"):
            compile_policy(expr, ABC, priv, "sequence", max_size=2)

    def test_monotone_sum_merge(self, priv):
        expr = policy.parse("(A and B) or (A and C)", ABC)
        with pytest.raises(ValueError, match="^or-merge is for monotone mode, sum/xor for "
                                             "sequence mode$"):
            compile_policy(expr, ABC, priv, "monotone", merge="sum")


# ---------------------------------------------------------------------------
# the differential test: the CLI does what the library does, file for file


def _cli(*argv) -> tuple[int, str, str]:
    """`run_cli(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _exit_code(call) -> tuple[int, str]:
    """The exit code and stderr `run_cli` gives a library call's outcome."""
    try:
        return 0, call()
    except (SchemaError, ValueError) as exc:  # SchemaError before its base class
        return 2, f"error: {exc}\n"
    except GroupAuthError as exc:
        return 1, f"error: {exc}\n"


def _save_all(directory: Path, shares, deployment) -> Path:
    directory.mkdir()
    for holder, share in shares.items():
        files.save(share, directory / f"share_{holder}.json")
    files.save(deployment, directory / "deployment.json")
    return directory


@st.composite
def compiles(draw):
    """A compile's inputs: a random policy over at most 5 holders, its mode, options,
    key size, seed and null policy, and the holders present in a session."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    names = tuple("ABCDE"[:draw(st.integers(1, 5))])
    mode = draw(st.sampled_from(protocol.MODES))
    expr = random_monotone_expr(rng, names)
    if mode == "sequence" and draw(st.booleans()):
        expr = policy.And((expr, policy.Not(policy.Var(rng.choice(names)))))
    named = set(policy.variables(expr))
    # mostly the named holders; sometimes also one the policy leaves out
    universe = tuple(h for h in names if h in named or draw(st.integers(0, 3)) == 0)
    options = {}
    if mode == "sequence":
        options = {"merge": draw(st.sampled_from([None, "sum", "xor"])),
                   "max_size": draw(st.sampled_from([None, *range(1, len(universe) + 1)])),
                   "pack": draw(st.booleans())}
    elif draw(st.booleans()):
        options = {"merge": "or"}
    present = draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    return (policy.render(expr), universe, mode, options, draw(st.sampled_from([8, 12, 16])),
            draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(["one", "random"])),
            [h for h in universe if h in present])


@settings(max_examples=60, deadline=None)
@given(case=compiles())
def test_cli_compiles_and_audits_as_the_library(case):
    text, universe, mode, options, n, seed, null, present = case
    expr = policy.parse(text, universe)
    flags = [*(["--merge", options["merge"]] if options.get("merge") else []),
             *(["--pack"] if options.get("pack") else [])]
    policy_flags = ["--policy", text, "--universe", ",".join(universe),
                    *(["--max-size", options["max_size"]] if options.get("max_size") else [])]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        assert _cli("keygen", "--n", n, "--seed", f"{seed:x}", "-o", root / "keys")[0] == 0
        priv = nscrypt.keygen(n, seed=seed)[1]
        assert (root / "keys/priv.json").read_text() == files.dumps(priv)

        # compile: the same files, or the same refusal and no directory
        out = root / "out" / "shares"
        code, stdout, stderr = _cli("compile", *policy_flags, "--mode", mode, *flags,
                                    "--key", root / "keys/priv.json", "-o", out)
        expected_code, compiled = _exit_code(lambda: compile_policy(expr, universe, priv, mode,
                                                                    **options))
        assert code == expected_code
        if code:
            assert (stdout, stderr) == ("", compiled)
            assert not (root / "out").exists()
            return
        shares, deployment, _ = compiled
        assert {p.name: p.read_text() for p in out.iterdir()} == {
            "deployment.json": files.dumps(deployment),
            **{f"share_{h}.json": files.dumps(share) for h, share in shares.items()}}

        # audit: the same accepted sets from a seeded single trial
        expected = policy.authorized_family(expr, universe, options.get("max_size"))
        null_policy = {"one": "one", "random": "random-nonzero"}[null]

        def library_audit(key, audited):
            return protocol.audit(key, audited, expected, trials=1, rng=random.Random(seed),
                                  null_policy=null_policy)

        audit_flags = [*policy_flags, "--trials", 1, "--seed", f"{seed:x}", "--null", null,
                       "--json"]
        report = library_audit(deployment, shares)
        code, stdout, _ = _cli("audit", "--shares", out, *audit_flags)
        assert code == (0 if report.all_exact else 1)
        doc = json.loads(stdout)
        assert (doc["mode"], doc["merge"], doc["null"]) == (mode, deployment.merge, null_policy)
        accepted = {g for g, freq in doc["frequencies"].items() if freq == 1}
        assert accepted == {",".join(h for h in universe if h in g)
                            for g in report.accepted_by_trial[0]}

        # one session: the same verdict for a drawn group
        challenge, state = protocol.make_challenge(deployment, rng=random.Random(seed))
        verdict = protocol.verify(state, protocol.merge_responses(
            state, [protocol.token_respond(shares[h], challenge) for h in present]))
        assert _cli("challenge", "--deployment", out / "deployment.json", "--seed", f"{seed:x}",
                    "-o", root / "c.json", "--state", root / "s.json")[0] == 0
        for h in present:
            assert _cli("respond", "--share", out / f"share_{h}.json",
                        "--challenge", root / "c.json", "-o", root / f"r_{h}.json")[0] == 0
        code, stdout, _ = _cli("verify", "--state", root / "s.json", "--json", "--responses",
                               *(root / f"r_{h}.json" for h in present))
        assert (code, json.loads(stdout)) == (0 if verdict.accepted else 1,
                                              files.to_document(verdict))

        # three foreign or tampered inputs: exit 2 from the CLI, an error from the library
        foreign_shares, foreign, _ = compile_policy(
            expr, universe, nscrypt.keygen(n, seed=seed + 1)[1], mode, **options)
        holder = universe[-1]
        v = deployment.v
        cases = {
            "foreign deployment": (foreign, shares),
            "foreign share": (deployment, {**shares, holder: foreign_shares[holder]}),
            "swapped values": (dataclasses.replace(deployment, v=(v[1], v[0], *v[2:])), shares),
        }
        for name, (key, audited) in cases.items():
            with pytest.raises(ValueError):
                library_audit(key, audited)
            directory = _save_all(root / name.replace(" ", "_"), audited, key)
            code, stdout, stderr = _cli("audit", "--shares", directory, *audit_flags)
            assert (code, stdout) == (2, ""), name
            assert stderr.startswith("error: "), name

