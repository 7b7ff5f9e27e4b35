import builtins
import hashlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import groupauth
from groupauth import files, fixtures, nscrypt, numtheory
from groupauth.cli import run_cli
from groupauth.errors import SchemaError
from groupauth.nscrypt import keygen
from groupauth.protocol import Deployment, ResponseVector, Verdict, make_challenge, verify

LONG = "9" * 5000  # more digits than Python's default int_max_str_digits
# JSON arrays nested this deep pass the decoder's recursion limit: about 1,000
# levels on Python 3.10 and 3.11, a C limit of 10,000 on 3.13
DEEP = 100_000


class TestSchemas:
    def test_key_roundtrip(self, tmp_path, airplane):
        deployment = airplane.deployment
        files.save(deployment, tmp_path / "deployment.json")
        files.save(airplane.priv, tmp_path / "priv.json")
        assert files.load(tmp_path / "deployment.json", expect_kind="deployment") == deployment
        assert files.load(tmp_path / "priv.json", expect_kind="ns-private") == airplane.priv

    def test_public_key_has_no_kind_of_its_own(self, tmp_path, airplane):
        # a public key is written and read only inside a deployment file
        with pytest.raises(TypeError, match="no schema for NsPublicKey"):
            files.dumps(airplane.pub)
        doc = dict(files.to_document(airplane.deployment), kind="ns-public")
        path = tmp_path / "pub.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert str(err.value) == f"{path}: unknown file kind 'ns-public'"
        assert err.value.field == "kind"

    def test_integers_are_decimal_strings(self, airplane):
        doc = json.loads(files.dumps(airplane.deployment))
        assert doc["p"] == "7420738134871"
        assert all(isinstance(x, str) and x.isdigit() for x in doc["v"])

    def test_share_roundtrips(self, tmp_path, airplane, small):
        seq = airplane.shares["A"]
        files.save(seq, tmp_path / "a.json")
        assert files.load(tmp_path / "a.json") == seq
        mono = small.shares["A1"]
        files.save(mono, tmp_path / "m.json")
        assert files.load(tmp_path / "m.json") == mono

    def test_message_roundtrips(self, tmp_path, airplane):
        challenge, state = make_challenge(
            airplane.pub, mode="sequence", merge="sum", slot_count=7,
            rng=random.Random(0), force_m=2919)
        response = ResponseVector(session_id=challenge.session_id, values=(1, 2, 3))
        verdict = Verdict(session_id=challenge.session_id, accepted=True,
                          matching_slot=1)
        for obj, kind in [(challenge, "challenge"), (state, "verifier-state"),
                          (response, "response"), (verdict, "verdict")]:
            path = tmp_path / f"{kind}.json"
            files.save(obj, path)
            loaded = files.load(path, expect_kind=kind)
            assert loaded == obj

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == "kind"

    def test_bad_field_named(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "deployment", "n": 2, "p": 123, "v": ["1", "2"], '
                        '"mode": "monotone", "merge": "or", "slot_count": 1}')
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == "p"

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            files.load(path)

    def test_share_with_non_system_prime_rejected(self, tmp_path, airplane, small):
        mono = files.to_document(small.shares["A1"])
        mono["primes"] = ["2", "100003"]
        seq = files.to_document(airplane.shares["A"])
        seq["slots"][0] = ["2", "41"]  # 41 is the 13th prime; the system has 12
        for doc in (mono, seq):
            path = tmp_path / "share.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError):
                files.load(path)

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
    def test_only_ascii_digits(self, tmp_path, airplane, digit):
        dep_doc = files.to_document(airplane.deployment)
        seq_doc = files.to_document(airplane.shares["A"])
        docs = [
            dict(dep_doc, p=digit),
            dict(dep_doc, v=[digit] + dep_doc["v"][1:]),
            dict(seq_doc, slots=[[digit]] + seq_doc["slots"][1:]),
        ]
        for doc in docs:
            with pytest.raises(SchemaError):
                files.from_document(doc)
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError):
                files.load(path)

    @pytest.mark.parametrize("kind, field", [
        ("deployment", "n"), ("ns-private", "n"), ("share-sequence", "n"),
        ("challenge", "slot_count"), ("verifier-state", "slot_count"),
        ("verdict", "matching_slot"),
    ])
    def test_int_fields_reject_booleans(self, tmp_path, airplane, kind, field):
        challenge, state = make_challenge(
            airplane.pub, mode="sequence", merge="sum", slot_count=1,
            rng=random.Random(0), force_m=2919)
        verdict = Verdict(session_id="x", accepted=True, matching_slot=1)
        obj = {"deployment": airplane.deployment, "ns-private": airplane.priv,
               "share-sequence": airplane.shares["A"], "challenge": challenge,
               "verifier-state": state, "verdict": verdict}[kind]
        doc = dict(files.to_document(obj), **{field: True})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == field

    @pytest.mark.parametrize("slot_count, plaintexts", [(3, ["2919", "2919"]), (7, [])])
    def test_malformed_verifier_state_rejected(self, tmp_path, airplane,
                                               slot_count, plaintexts):
        _, state = make_challenge(airplane.pub, mode="sequence", merge="sum",
                                  slot_count=7, rng=random.Random(0), force_m=2919)
        doc = dict(files.to_document(state), slot_count=slot_count, plaintexts=plaintexts)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(path, expect_kind="verifier-state")

    @pytest.mark.parametrize("primes", [
        numtheory.SMALL_PRIMES[1:13],
        numtheory.SMALL_PRIMES[:11] + (41,),
        tuple(numtheory.first_n_primes(65)),
    ], ids=["3-to-41", "skips-37", "65-primes"])
    def test_private_key_must_use_first_n_primes(self, tmp_path, primes):
        # Share bits are read at the global prime ranks, so a key over any
        # other primes would compile into shares that answer wrongly.
        p = numtheory.next_prime_above(math.prod(primes))
        s = next(s for s in range(3, p) if math.gcd(s, p - 1) == 1)
        doc = {"kind": "ns-private", "n": len(primes), "p": str(p), "s": str(s),
               "primes": [str(q) for q in primes]}
        path = tmp_path / "priv.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(path, expect_kind="ns-private")

    @pytest.mark.parametrize("kind, field, value", [
        ("deployment", "p", LONG), ("deployment", "v", [LONG]),
        ("share-sequence", "slots", [[LONG]]),
    ], ids=["p", "v", "slots"])
    def test_overlong_integer_names_field(self, tmp_path, airplane, kind, field, value):
        doc = files.to_document(
            airplane.deployment if kind == "deployment" else airplane.shares["A"])
        doc[field] = value
        with pytest.raises(SchemaError) as err:
            files.from_document(doc)
        assert err.value.field == field
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == field

    def test_integer_digits_bounded(self):
        # every integer a file holds is below twice the 64-prime product
        limit = len(str(2 * math.prod(numtheory.SMALL_PRIMES)))
        assert limit == 126
        doc = {"kind": "response", "session_id": "x", "values": ["9" * limit]}
        assert files.from_document(doc).values == (10 ** limit - 1,)
        doc["values"] = ["1" + "0" * limit]
        with pytest.raises(SchemaError) as err:
            files.from_document(doc)
        assert err.value.field == "values"

    def test_huge_share_modulus_refused_before_use(self, tmp_path, small):
        # loading such a share used to succeed, and each answer then took seconds
        doc = files.to_document(small.shares["A1"])
        doc["p"] = doc["s"] = "7" * 4000
        with pytest.raises(SchemaError) as err:
            files.from_document(doc)
        assert err.value.field == "p"
        path = tmp_path / "share.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            files.load(path)
        assert err.value.field == "p"

    def test_json_number_past_digit_limit(self, tmp_path):
        path = tmp_path / "deployment.json"
        path.write_text('{"kind": "deployment", "n": ' + LONG + "}")
        with pytest.raises(SchemaError):
            files.load(path)

    def test_json_nested_past_recursion_limit(self, tmp_path):
        # the decoder raises RecursionError, which escaped as a traceback
        path = tmp_path / "share.json"
        path.write_text("[" * DEEP + "]" * DEEP)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not valid JSON "):
            files.load(path)

    def test_public_key_over_64_primes_rejected(self, tmp_path):
        # messages are read off at most 64 prime ranks; a 65th value used to
        # load and then silently reject authorized groups
        pub, _ = keygen(64)
        doc = files.to_document(Deployment(pub.n, pub.p, pub.v, "monotone", "or", 1))
        doc["n"], doc["v"] = 65, doc["v"] + ["2"]
        with pytest.raises(ValueError):
            files.from_document(doc)
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(path, expect_kind="deployment")

    def test_public_modulus_must_exceed_prime_product(self, tmp_path, small):
        # 9,973 is prime but below the 8-prime product 9,699,690: such a key
        # used to load, and its sessions rejected the authorized {A1, A2}
        p = 9973
        doc = dict(files.to_document(small.deployment), p=str(p),
                   v=[str(v % p) for v in small.pub.v])
        with pytest.raises(ValueError, match="modulus must exceed the prime product"):
            files.from_document(doc)
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="modulus must exceed the prime product"):
            files.load(path, expect_kind="deployment")

    @pytest.mark.parametrize("accepted, slot", [(True, -7), (False, 3), (True, None)])
    def test_verdict_slot_matches_outcome(self, tmp_path, accepted, slot):
        doc = {"kind": "verdict", "session_id": "x", "accepted": accepted,
               "matching_slot": slot}
        with pytest.raises(ValueError, match="matching_slot"):
            files.from_document(doc)
        path = tmp_path / "verdict.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="matching_slot"):
            files.load(path, expect_kind="verdict")

    def test_verify_writes_valid_verdicts(self, small):
        _, state = make_challenge(small.pub, rng=random.Random(0), force_m=small.message)
        for merged, slot in (([small.message], 0), ([small.message + 1], None)):
            verdict = verify(state, merged)
            assert verdict.matching_slot == slot
            assert files.from_document(files.to_document(verdict)) == verdict

    @pytest.mark.parametrize("kind", ["ns-private", "deployment", "share-monotone",
                                      "share-sequence"])
    def test_composite_modulus_rejected(self, tmp_path, small, airplane, kind):
        # such a key used to load, and decrypt(encrypt(1)) then raised; such a
        # share of small's A1 answered 1 where 10 was due, rejecting {A1, A2}
        system = small if kind == "share-monotone" else airplane
        priv = system.priv
        p = next(c for c in range(priv.p + 2, priv.p + 10_000, 2)
                 if math.gcd(priv.s, c - 1) == 1 and any(c % q == 0 for q in range(3, 100, 2)))
        obj = {"ns-private": priv, "deployment": system.deployment,
               "share-monotone": small.shares["A1"], "share-sequence": airplane.shares["C"]}[kind]
        doc = dict(files.to_document(obj), p=str(p))
        with pytest.raises(SchemaError) as err:
            files.from_document(doc)
        assert err.value.field == "p"
        path = tmp_path / "key.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            files.load(path, expect_kind=kind)
        assert err.value.field == "p"

    @pytest.mark.parametrize("n", [1, 65, 10**7])
    def test_share_sequence_n_bounded(self, tmp_path, airplane, n):
        # a null answer draws n random bits: n = 10**7 used to load, and each
        # answer's cost grew with n without limit
        doc = dict(files.to_document(airplane.shares["D"]), n=n)
        with pytest.raises(ValueError, match=r"n must be in \[2, 64\]"):
            files.from_document(doc)
        path = tmp_path / "share.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(path, expect_kind="share-sequence")

    def test_wrong_kind_rejected(self, tmp_path, airplane):
        files.save(airplane.deployment, tmp_path / "deployment.json")
        with pytest.raises(SchemaError):
            files.load(tmp_path / "deployment.json", expect_kind="ns-private")


class TestCliExitCodes:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run_cli(["keygen", "--wat", "7"]) == 2

    def test_schema_violation_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "deployment", "n": 2, "p": "7", "v": ["1", "2"], '
                       '"mode": "monotone", "merge": "or", "slot_count": "1"}')
        code = run_cli(["challenge", "--deployment", str(bad),
                        "-o", str(tmp_path / "c.json"), "--state", str(tmp_path / "s.json")])
        assert code == 2
        assert "field 'slot_count' must be int" in capsys.readouterr().err

    def test_monotone_refuses_not(self, tmp_path, capsys):
        run_cli(["keygen", "--n", "8", "-o", str(tmp_path)])
        code = run_cli([
            "compile", "--policy", "A and not B", "--universe", "A,B",
            "--mode", "monotone", "--key", str(tmp_path / "priv.json"),
            "-o", str(tmp_path / "shares")])
        assert code == 1
        assert "monotone" in capsys.readouterr().err

    def test_deep_policy_is_parse_error(self, tmp_path, capsys):
        code = run_cli([
            "compile", "--policy", "(" * 400 + "A" + ")" * 400, "--universe", "A",
            "--mode", "monotone",
            "--key", str(tmp_path / "priv.json"), "-o", str(tmp_path / "shares")])
        assert code == 1
        assert "error: policy nested deeper than 100 levels (at position 100)" in (
            capsys.readouterr().err)

    def test_help_is_zero(self):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("command", [
        "keygen", "compile", "challenge", "respond", "verify", "audit", "demo"])
    def test_subcommand_help_is_zero(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: groupauth {command} ")

    def test_deeply_nested_share_is_2(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root)
        deep = root / "deep.json"
        deep.write_text("[" * DEEP + "]" * DEEP)
        capsys.readouterr()
        assert run_cli(["respond", "--share", str(deep), "--challenge",
                        str(root / "challenge.json"), "-o", str(root / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {deep}: not valid JSON (")
        assert not (root / "r.json").exists()

    @pytest.mark.parametrize("command,flag", [
        ("challenge", "--deployment"), ("respond", "--share"), ("verify", "--state"),
        ("compile", "--key"), ("audit", "--shares")])
    def test_missing_input_file_is_2(self, pipeline, capsys, command, flag):
        root = pipeline
        args = {
            "challenge": ["--deployment", "-o", str(root / "c.json"),
                          "--state", str(root / "s.json")],
            "respond": ["--share", "--challenge", str(root / "c.json"),
                        "-o", str(root / "r.json")],
            "verify": ["--state", "--responses", str(root / "r.json")],
            "compile": ["--policy", "A and B", "--universe", "A,B", "--mode", "sequence",
                        "--key", "-o", str(root / "out")],
            "audit": ["--policy", "A and B", "--universe", "A,B", "--shares"],
        }[command]
        missing = root / "absent.json"
        at = args.index(flag) + 1
        capsys.readouterr()
        assert run_cli([command, *args[:at], str(missing), *args[at:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestKeygenCli:
    def test_byte_identical_under_seed(self, tmp_path):
        for sub in ("one", "two"):
            code = run_cli(["keygen", "--n", "8", "--seed", "c0ffee",
                            "-o", str(tmp_path / sub)])
            assert code == 0
            assert [p.name for p in (tmp_path / sub).iterdir()] == ["priv.json"]
        assert (tmp_path / "one/priv.json").read_bytes() == (tmp_path / "two/priv.json").read_bytes()

    def test_seeded_key_is_the_librarys(self, tmp_path, monkeypatch):
        # a seed seeds s alone: the CLI's --seed 5 drew another p than keygen(12, seed=5)
        assert run_cli(["keygen", "--n", "12", "--seed", "5", "-o", str(tmp_path)]) == 0
        _, priv = keygen(12, seed=5)
        assert priv.p == fixtures.AIRPLANE_P == 7420738134871
        assert (tmp_path / "priv.json").read_bytes() == files.dumps(priv).encode()
        assert run_cli(["compile", "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3", "--mode", "sequence",
                        "--pack", "--key", str(tmp_path / "priv.json"),
                        "-o", str(tmp_path / "shares")]) == 0
        calls = []
        real = numtheory.is_probable_prime
        monkeypatch.setattr(numtheory, "is_probable_prime",
                            lambda x: calls.append(x) or real(x))
        assert files.load(tmp_path / "priv.json") == priv
        assert files.load(tmp_path / "shares/share_A.json").p == priv.p
        assert calls == []

    def test_module_entry_point_writes_keys(self, tmp_path):
        src = str(Path(groupauth.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "groupauth.cli", "keygen", "--n", "12", "--seed", "5eed",
             "-o", str(tmp_path / "keys")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert run_cli(["keygen", "--n", "12", "--seed", "5eed", "-o", str(tmp_path / "ref")]) == 0
        for sub in ("keys", "ref"):
            assert [p.name for p in (tmp_path / sub).iterdir()] == ["priv.json"]
        assert (tmp_path / "keys/priv.json").read_bytes() == (tmp_path / "ref/priv.json").read_bytes()

    def test_force_flags_gone(self, tmp_path, capsys):
        # the modulus and secret are pinned through the library's keygen only
        for flag in ("--force-p", "--force-s"):
            assert run_cli(["keygen", "--n", "8", flag, "9700247", "-o", str(tmp_path / "k")]) == 2
            assert f"unrecognized arguments: {flag} 9700247" in capsys.readouterr().err
        assert not (tmp_path / "k").exists()
        assert run_cli(["keygen", "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            "usage: groupauth keygen [-h] --n N [--seed SEED] -o OUTPUT\n")


class TestRefusedRunsLeaveNoDirectory:
    def test_keygen_bad_n(self, tmp_path, capsys):
        out = tmp_path / "kd" / "keys"
        assert run_cli(["keygen", "--n", "65", "-o", str(out)]) == 2
        assert "n must be in [2, 64]" in capsys.readouterr().err
        assert not (tmp_path / "kd").exists()

    def test_compile_monotone_not(self, tmp_path, capsys):
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        code = run_cli([
            "compile", "--policy", "A and not B", "--universe", "A,B",
            "--mode", "monotone", "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 1  # a compile failure, as in TestCliExitCodes
        assert "monotone" in capsys.readouterr().err
        assert not (tmp_path / "sd").exists()

    @pytest.mark.parametrize("flag, what", [(["--max-size", "1"], "a size cap applies"),
                                            (["--pack"], "packing applies")],
                             ids=["max-size", "pack"])
    def test_compile_monotone_sequence_flag(self, tmp_path, capsys, flag, what):
        # a monotone split ignored both flags: with --max-size 1 it authorized pairs
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        capsys.readouterr()
        code = run_cli([
            "compile", "--policy", "(A and B) or (A and C) or (B and C)",
            "--universe", "A,B,C", *flag, "--mode", "monotone",
            "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {what} to sequence mode only\n"
        assert not (tmp_path / "sd").exists()

    @pytest.mark.parametrize("universe, message", [
        *((u, "invalid holder name: ''") for u in ["A,,B", "A,B,", ",A,B", "A, ,B"]),
        *((u, "universe must not be empty") for u in ["", " "]),
    ])
    def test_compile_empty_holder_name(self, tmp_path, capsys, universe, message):
        # empty names were dropped, so "A,,B" compiled for A and B
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        args = ["compile", "--policy", "A and B", "--mode", "monotone",
                "--key", str(tmp_path / "priv.json")]
        capsys.readouterr()
        invalid = run_cli([*args, "--universe", "A,B-", "-o", str(tmp_path / "bad")])
        assert capsys.readouterr().err == "error: invalid holder name: 'B-'\n"
        out = tmp_path / "sd" / "shares"
        assert run_cli([*args, "--universe", universe, "-o", str(out)]) == invalid
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sd").exists()

    @pytest.mark.parametrize("policy_text, universe, message", [
        ("A and B", "A,B,and", "invalid holder name: 'and'"),
        (f"A and {'B' * 65}", f"A,{'B' * 65}",
         f"holder name longer than 64 characters: '{'B' * 64}'..."),
    ], ids=["keyword", "65-characters"])
    def test_compile_unusable_holder_name(self, tmp_path, capsys, policy_text, universe,
                                          message):
        # "and" got a share file no policy can name, and a long name failed
        # mid-run with "File name too long" after writing other shares
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        capsys.readouterr()
        code = run_cli([
            "compile", "--policy", policy_text, "--universe", universe, "--mode", "sequence",
            "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sd").exists()

    @pytest.mark.parametrize("max_size", ["0", "-1"])
    def test_compile_max_size_below_one(self, tmp_path, capsys, max_size):
        # exited 1 with "policy authorizes no groups at this size cap"
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        capsys.readouterr()
        code = run_cli([
            "compile", "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
            "--mode", "sequence", "--max-size", max_size,
            "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: max_size must be an int >= 1\n"
        assert not (tmp_path / "sd").exists()

    @pytest.mark.parametrize("missing", ["state", "challenge"])
    def test_challenge_missing_directory(self, pipeline, capsys, missing):
        # the challenge was saved before the state, so a --state under a
        # missing directory left a challenge that no state could verify
        root = pipeline
        paths = {"challenge": root / "c.json", "state": root / "st.json"}
        paths[missing] = root / "nodir" / paths[missing].name
        capsys.readouterr()
        code = run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                        "--seed", "1", "-o", str(paths["challenge"]),
                        "--state", str(paths["state"])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert not any(path.exists() for path in paths.values())
        assert not (root / "nodir").exists()

    def test_compile_64_character_holder_name(self, tmp_path):
        name = "B" * 64
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "shares"
        assert run_cli([
            "compile", "--policy", f"A and {name}", "--universe", f"A,{name}",
            "--mode", "sequence", "--key", str(tmp_path / "priv.json"), "-o", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "deployment.json", "share_A.json", f"share_{name}.json"]

    def test_compile_monotone_unnamed_holder(self, tmp_path, capsys):
        # the split gave C no share file, and `audit` then refused the deployment
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        capsys.readouterr()
        code = run_cli([
            "compile", "--policy", "A and B", "--universe", "A,B,C", "--mode", "monotone",
            "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: monotone mode issues no share to a holder the policy does not name: C\n")
        assert not (tmp_path / "sd").exists()

    def test_compile_monotone_refuses_sequence_merge(self, tmp_path, capsys):
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        capsys.readouterr()
        code = run_cli([
            "compile", "--policy", "A and B", "--universe", "A,B", "--mode", "monotone",
            "--merge", "sum", "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: or-merge is for monotone mode, sum/xor for sequence mode\n")
        assert not (tmp_path / "sd").exists()

    def test_compile_no_groups(self, tmp_path, capsys):
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        out = tmp_path / "sd" / "shares"
        code = run_cli([
            "compile", "--policy", "A and B", "--universe", "A,B", "--max-size", "1",
            "--mode", "sequence", "--key", str(tmp_path / "priv.json"), "-o", str(out)])
        assert code == 1
        assert "no groups" in capsys.readouterr().err
        assert not (tmp_path / "sd").exists()


@pytest.fixture
def pipeline(tmp_path, airplane):
    """The airplane key and its policy compiled under it: sequence mode, packed."""
    keys = tmp_path / "keys"
    shares = tmp_path / "shares"
    keys.mkdir()
    files.save(airplane.priv, keys / "priv.json")
    assert run_cli([
        "compile", "--policy", fixtures.AIRPLANE_POLICY,
        "--universe", "A,B,C,D,E", "--max-size", "3",
        "--mode", "sequence", "--pack",
        "--key", str(keys / "priv.json"), "-o", str(shares)]) == 0
    return tmp_path


def _challenge_session(root, seed="0f"):
    assert run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                    "--seed", seed, "--force-m", "2919",
                    "-o", str(root / "challenge.json"),
                    "--state", str(root / "state.json")]) == 0


class TestPipeline:
    def test_authorized_group_accepted(self, pipeline):
        root = pipeline
        _challenge_session(root)
        for holder in ("A", "C"):
            assert run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                            "--challenge", str(root / "challenge.json"),
                            "-o", str(root / f"r_{holder}.json")]) == 0
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_A.json"), str(root / "r_C.json")])
        assert code == 0

    def test_unauthorized_pair_rejected(self, pipeline):
        root = pipeline
        _challenge_session(root)
        for holder in ("C", "D"):
            assert run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                            "--challenge", str(root / "challenge.json"),
                            "-o", str(root / f"r_{holder}.json")]) == 0
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_C.json"), str(root / "r_D.json")])
        assert code == 1

    def test_verify_json_output(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root)
        for holder in ("A", "B"):
            run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                     "--challenge", str(root / "challenge.json"),
                     "-o", str(root / f"r_{holder}.json")])
        capsys.readouterr()
        code = run_cli(["verify", "--state", str(root / "state.json"), "--json",
                        "--responses", str(root / "r_A.json"), str(root / "r_B.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["accepted"] is True

    @pytest.mark.parametrize("holders", ["AC", "CD"], ids=["accepted", "rejected"])
    def test_verify_output_file_is_the_json_verdict(self, pipeline, capsys, holders):
        root = pipeline
        _challenge_session(root)
        for holder in holders:
            assert run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                            "--challenge", str(root / "challenge.json"),
                            "-o", str(root / f"r_{holder}.json")]) == 0
        args = ["verify", "--state", str(root / "state.json"),
                "--responses", *(str(root / f"r_{h}.json") for h in holders)]
        capsys.readouterr()
        json_code = run_cli([*args, "--json"])
        printed = json.loads(capsys.readouterr().out)
        assert run_cli([*args, "-o", str(root / "verdict.json")]) == json_code
        written = json.loads((root / "verdict.json").read_text())
        assert written == printed and written["kind"] == "verdict"
        assert json_code == (0 if holders == "AC" else 1)

    def test_respond_refuses_non_share_file(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root)
        capsys.readouterr()
        deployment = root / "shares/deployment.json"
        assert run_cli(["respond", "--share", str(deployment),
                        "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {deployment}: not a share file\n"
        assert not (root / "r.json").exists()

    @staticmethod
    def _break_a_file(shares, case):
        """Write one file that breaks its schema into `shares`; its path and the error."""
        if case == "stray file":
            path, doc, message = shares / "notes.json", {"name": "x"}, "unknown file kind None"
        elif case == "old pub.json":  # as keygen once wrote it beside priv.json
            doc = json.loads((shares / "deployment.json").read_text())
            path, message = shares / "pub.json", "unknown file kind 'ns-public'"
            doc = {"kind": "ns-public", "n": doc["n"], "p": doc["p"], "v": doc["v"]}
        elif case == "empty slot":  # [] written where null was meant: it answered 0
            path = shares / "share_C.json"
            doc = json.loads(path.read_text())
            empty = doc["slots"].index(None)
            doc["slots"][empty] = []
            message = (f"slot {empty} holds an empty prime set: a slot with no share is None, "
                       "null in a file")
        elif case == "repeated prime":  # ["2", "2"] loaded as {2}
            path = shares / "share_C.json"
            doc = json.loads(path.read_text())
            held = next(slot for slot in doc["slots"] if slot)
            held.append(held[0])
            message = "field 'slots' names a prime twice"
        else:
            path, message = shares / "share_C.json", "field 'p' must be a prime"
            doc = dict(json.loads(path.read_text()), p="12")
        path.write_text(json.dumps(doc))
        return path, message

    @pytest.mark.parametrize("case", ["stray file", "old pub.json", "share p", "empty slot",
                                      "repeated prime"])
    def test_audit_names_the_file_that_breaks_its_schema(self, pipeline, capsys, case):
        # the error named no file: "error: unknown file kind None"
        shares = pipeline / "shares"
        path, message = self._break_a_file(shares, case)
        capsys.readouterr()
        assert run_cli(["audit", "--shares", str(shares), "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3", "--force-m", "2919"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("case", ["old pub.json", "share p", "empty slot",
                                      "repeated prime"])
    def test_respond_names_the_file_that_breaks_its_schema(self, pipeline, capsys, case):
        root = pipeline
        _challenge_session(root)
        path, message = self._break_a_file(root / "shares", case)
        capsys.readouterr()
        assert run_cli(["respond", "--share", str(path), "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (root / "r.json").exists()

    def test_challenge_deterministic_under_seed(self, pipeline):
        root = pipeline
        blobs = []
        for name in ("x", "y"):
            assert run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                            "--seed", "deadbeef",
                            "-o", str(root / f"c_{name}.json"),
                            "--state", str(root / f"s_{name}.json")]) == 0
            blobs.append((root / f"c_{name}.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_challenge_without_seed_uses_os_generator(self, pipeline, monkeypatch):
        # with the OS generator stood in for by Random(4), no seed must match --seed 4
        root = pipeline
        monkeypatch.setattr(random, "SystemRandom", lambda: random.Random(4))
        blobs = []
        for name, seed in (("x", []), ("y", ["--seed", "4"])):
            assert run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                            *seed,
                            "-o", str(root / f"c_{name}.json"),
                            "--state", str(root / f"s_{name}.json")]) == 0
            blobs.append((root / f"s_{name}.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["respond", "audit"])
    def test_nulls_without_seed_use_os_generator(self, pipeline, monkeypatch, capsys, command):
        # with the OS generator stood in for by Random(4), no seed must match --seed 4
        root = pipeline
        _challenge_session(root)
        holder = next(h for h in "ABCDE" if None in json.loads(
            (root / f"shares/share_{h}.json").read_text())["slots"])
        args = {
            "respond": ["--share", str(root / f"shares/share_{holder}.json"),
                        "--challenge", str(root / "challenge.json"), "-o", str(root / "r.json")],
            "audit": ["--shares", str(root / "shares"),
                      "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                      "--max-size", "3", "--trials", "20", "--json"],
        }[command]
        drawn = []
        monkeypatch.setattr(random, "SystemRandom", lambda: drawn.append(1) or random.Random(4))
        capsys.readouterr()
        outputs = []
        for seed in ([], ["--seed", "4"]):
            assert run_cli([command, *args, "--null", "random", *seed]) in (0, 1)
            outputs.append(capsys.readouterr().out + (
                (root / "r.json").read_text() if command == "respond" else ""))
        assert drawn == [1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("null", ["one", "random"])
    def test_audit_json_names_settings(self, pipeline, capsys, null):
        root = pipeline
        run_cli(["audit", "--shares", str(root / "shares"),
                 "--policy", fixtures.AIRPLANE_POLICY,
                 "--universe", "A,B,C,D,E", "--max-size", "3",
                 "--force-m", "2919", "--null", null, "--seed", "1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        policy = {"one": "one", "random": "random-nonzero"}[null]
        assert (doc["mode"], doc["merge"], doc["null"]) == ("sequence", "sum", policy)

    def test_audit_command_exact(self, pipeline, capsys):
        root = pipeline
        code = run_cli(["audit", "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3",
                        "--force-m", "2919", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_exact"] is True
        assert doc["false_accepts"] == [] and doc["missed"] == []
        assert len(doc["expected"]) == 16

    def test_audit_baseline_false_accepts_exit_1(self, tmp_path, capsys):
        # the installed-script check in CI: the airplane baseline plan at
        # n = 12 is not exact under null 1 and the sum merge, so a seeded audit
        # lists false accepts and exits 1, but never misses an authorized group
        airplane = ["--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                    "--max-size", "3"]
        assert run_cli(["keygen", "--n", "12", "--seed", "1", "-o", str(tmp_path / "k")]) == 0
        assert run_cli(["compile", *airplane, "--mode", "sequence",
                        "--key", str(tmp_path / "k/priv.json"), "-o", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        code = run_cli(["audit", *airplane, "--shares", str(tmp_path / "s"),
                        "--seed", "1", "--trials", "50", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["all_exact"] is False
        assert doc["missed"] == []
        assert doc["false_accepts"] and not set(doc["false_accepts"]) & set(doc["expected"])

    @pytest.mark.parametrize("null", ["one", "random"])
    def test_audit_text_names_settings(self, pipeline, capsys, null):
        root = pipeline
        run_cli(["audit", "--shares", str(root / "shares"),
                 "--policy", fixtures.AIRPLANE_POLICY,
                 "--universe", "A,B,C,D,E", "--max-size", "3",
                 "--force-m", "2919", "--null", null, "--seed", "1"])
        out = capsys.readouterr().out
        policy = {"one": "one", "random": "random-nonzero"}[null]
        assert f"1 trial(s), mode=sequence, merge=sum, null={policy}\n" in out

    def test_audit_refuses_holder_without_share(self, pipeline, capsys):
        root = pipeline
        (root / "shares/share_E.json").unlink()
        args = ["audit", "--shares", str(root / "shares"), "--max-size", "3",
                "--force-m", "2919"]
        capsys.readouterr()
        assert run_cli([*args, "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {root / 'shares'}: no share file for holder(s) E\n"
        # a smaller universe audits the holders it names
        assert run_cli([*args, "--policy", "(A and B) or ((A or B) and (C or D))",
                        "--universe", "A,B,C,D"]) == 0
        assert "result: exact" in capsys.readouterr().out

    @pytest.mark.parametrize("case", [
        "key flag", "merge flag", "no deployment", "two deployments", "slot count"])
    def test_audit_refuses_without_one_matching_deployment(self, pipeline, capsys, case):
        # the key, mode and merge come from the one deployment file in --shares
        root = pipeline
        shares = root / "shares"
        deployment = shares / "deployment.json"
        flags = {"key flag": ["--key", str(root / "keys/priv.json")],
                 "merge flag": ["--merge", "xor"]}.get(case, [])
        if case == "no deployment":
            deployment.unlink()
        elif case == "two deployments":
            (shares / "zz_deployment.json").write_bytes(deployment.read_bytes())
        elif case == "slot count":
            doc = json.loads(deployment.read_text())
            deployment.write_text(json.dumps(dict(doc, slot_count=doc["slot_count"] - 1)))
        capsys.readouterr()
        assert run_cli(["audit", "--shares", str(shares), *flags,
                        "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                        "--max-size", "3", "--force-m", "2919"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith({
            "key flag": f"error: unrecognized arguments: --key {root / 'keys/priv.json'}\n",
            "merge flag": "error: unrecognized arguments: --merge xor\n",
            "no deployment": f"error: {shares}: no deployment file\n",
            "two deployments": f"error: {shares}: two deployment files, "
                               f"{deployment} and {shares / 'zz_deployment.json'}\n",
            "slot count": "error: the deployment runs sequence/sum sessions of 4 slot(s), "
                          "not sequence/sum of 5\n",
        }[case])

    def test_bad_seed_is_one_usage_error(self, pipeline, capsys):
        root = pipeline
        commands = {
            "keygen": ["--n", "8", "-o", str(root / "k")],
            "challenge": ["--deployment", str(root / "shares/deployment.json"),
                          "-o", str(root / "c.json"), "--state", str(root / "s.json")],
            "respond": ["--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "c.json"), "-o", str(root / "r.json")],
            "audit": ["--shares", str(root / "shares"),
                      "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E"],
        }
        for command, rest in commands.items():
            capsys.readouterr()
            assert run_cli([command, *rest, "--seed", "zz"]) == 2
            assert f"groupauth {command}: error: argument --seed: must be hex, got 'zz'" in (
                capsys.readouterr().err)

    def test_negative_seed_is_one_usage_error(self, pipeline, capsys):
        # random.Random seeds -x as x, so a negative seed would replay another's stream
        root = pipeline
        assert run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                        "-o", str(root / "c0.json"), "--state", str(root / "s0.json")]) == 0
        before = sorted(root.rglob("*"))
        commands = {
            "keygen": ["--n", "8", "-o", str(root / "k")],
            "challenge": ["--deployment", str(root / "shares/deployment.json"),
                          "-o", str(root / "c.json"), "--state", str(root / "s.json")],
            "respond": ["--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "c0.json"), "-o", str(root / "r.json")],
            "audit": ["--shares", str(root / "shares"),
                      "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E"],
        }
        for command, rest in commands.items():
            capsys.readouterr()
            assert run_cli([command, *rest, "--seed", "-5"]) == 2
            assert (f"groupauth {command}: error: argument --seed: must be non-negative, "
                    "got '-5'") in capsys.readouterr().err
        assert sorted(root.rglob("*")) == before

    @pytest.mark.parametrize("max_size", ["0", "-1"])
    def test_audit_max_size_below_one(self, pipeline, capsys, max_size):
        # checked against an empty family, all 16 groups were false accepts
        root = pipeline
        capsys.readouterr()
        code = run_cli(["audit", "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                        "--max-size", max_size, "--force-m", "2919"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: max_size must be an int >= 1\n"

    def test_audit_without_trials_is_usage_error(self, pipeline, capsys):
        root = pipeline
        code = run_cli(["audit", "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "result: exact" not in captured.out
        assert "at least one trial" in captured.err

    def test_malformed_state_is_usage_error(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root)
        assert run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r_A.json")]) == 0
        doc = json.loads((root / "state.json").read_text())
        for bad in (dict(doc, slot_count=3, plaintexts=["2919", "2919"]),
                    dict(doc, plaintexts=[])):
            (root / "state.json").write_text(json.dumps(bad))
            code = run_cli(["verify", "--state", str(root / "state.json"),
                            "--responses", str(root / "r_A.json")])
            assert code == 2
            assert "plaintext" in capsys.readouterr().err

    def test_two_ciphertexts_are_usage_error(self, pipeline, capsys):
        # one message per session: a challenge with one ciphertext per slot
        # is refused by load, so respond exits 2
        root = pipeline
        _challenge_session(root)
        doc = json.loads((root / "challenge.json").read_text())
        slots = doc["slot_count"]
        assert slots > 1
        doc["ciphertexts"] *= slots
        (root / "challenge.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(root / "challenge.json", expect_kind="challenge")
        capsys.readouterr()
        assert run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r_A.json")]) == 2
        assert "ciphertext" in capsys.readouterr().err
        assert not (root / "r_A.json").exists()

    def test_per_index_random_flag_gone(self, pipeline):
        root = pipeline
        assert run_cli(["challenge", "--deployment", str(root / "shares/deployment.json"),
                        "--per-index-random",
                        "-o", str(root / "challenge.json"),
                        "--state", str(root / "state.json")]) == 2
        assert not (root / "challenge.json").exists()

    def test_session_mismatch_detected(self, pipeline):
        root = pipeline
        _challenge_session(root, seed="0f")
        run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                 "--challenge", str(root / "challenge.json"),
                 "-o", str(root / "r_A.json")])
        # fresh session, stale response
        _challenge_session(root, seed="1234")
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_A.json")])
        assert code == 1


_AIRPLANE_COMPILE = ["compile", "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                     "--max-size", "3", "--mode", "sequence"]
_CHALLENGE = ["challenge", "--deployment", "shares/deployment.json", "--seed", "1"]
_RESPOND = ["respond", "--share", "shares/share_A.json", "--challenge", "challenge.json"]
_VERIFY = ["verify", "--state", "state.json", "--responses", "r_A.json", "r_C.json"]


@pytest.mark.parametrize("argv", [
    # key files named as two of the files compile writes into keys/
    [*_AIRPLANE_COMPILE, "--key", "keys/deployment.json", "-o", "keys"],
    [*_AIRPLANE_COMPILE, "--key", "keys/share_B.json", "-o", "./keys"],
    # the challenge and the state, which holds the secret message, in one file
    [*_CHALLENGE, "-o", "x.json", "--state", "./x.json"],
    [*_CHALLENGE, "-o", "shares/deployment.json", "--state", "st.json"],
    [*_CHALLENGE, "-o", "c.json", "--state", "keys/../shares/deployment.json"],
    [*_RESPOND, "-o", "shares/share_A.json"],
    [*_RESPOND, "-o", "challenge.json"],
    [*_VERIFY, "-o", "state.json"],
    [*_VERIFY, "-o", "r_C.json"],
    [*_VERIFY, "-o", "state-link.json"],
], ids=["compile-key-deployment", "compile-key-share", "challenge-output-state",
        "challenge-output-deployment", "challenge-state-deployment", "respond-output-share",
        "respond-output-challenge", "verify-output-state", "verify-output-response",
        "verify-output-links-to-state"])
def test_output_naming_another_file_is_refused(pipeline, capsys, monkeypatch, argv):
    # each run overwrote an input, or wrote two outputs to one file, and exited 0
    root = pipeline
    _challenge_session(root)
    for holder in ("A", "C"):
        assert run_cli(["respond", "--share", f"{root}/shares/share_{holder}.json",
                        "--challenge", f"{root}/challenge.json",
                        "-o", f"{root}/r_{holder}.json"]) == 0
    for name in ("deployment.json", "share_B.json"):
        (root / "keys" / name).write_bytes((root / "keys/priv.json").read_bytes())
    (root / "state-link.json").symlink_to("state.json")
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    monkeypatch.chdir(root)
    capsys.readouterr()
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert re.fullmatch(r"error: \S+ and \S+ both name \S+\n", captured.err)
    assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == before


def test_output_through_a_link_loop_is_an_error(pipeline, capsys):
    # the clash check resolves paths without raising on a loop; the write then fails
    root = pipeline
    _challenge_session(root)
    (root / "loop.json").symlink_to("loop.json")
    capsys.readouterr()
    assert run_cli(["respond", "--share", f"{root}/shares/share_A.json",
                    "--challenge", f"{root}/challenge.json", "-o", f"{root}/loop.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


class TestMonotoneCliFlow:
    def test_monotone_compile_and_verify(self, tmp_path, small):
        keys = tmp_path / "keys"
        shares = tmp_path / "shares"
        keys.mkdir()
        files.save(small.priv, keys / "priv.json")
        assert run_cli(["compile", "--policy", "(A1 and A2) or (A1 and A3)",
                        "--universe", "A1,A2,A3", "--mode", "monotone",
                        "--key", str(keys / "priv.json"), "-o", str(shares)]) == 0
        assert run_cli(["challenge", "--deployment", str(shares / "deployment.json"),
                        "--seed", "aa",
                        "--force-m", "202",
                        "-o", str(tmp_path / "c.json"),
                        "--state", str(tmp_path / "s.json")]) == 0
        for holder in ("A1", "A2"):
            assert run_cli(["respond", "--share", str(shares / f"share_{holder}.json"),
                            "--challenge", str(tmp_path / "c.json"),
                            "-o", str(tmp_path / f"r_{holder}.json")]) == 0
        assert run_cli(["verify", "--state", str(tmp_path / "s.json"),
                        "--responses", str(tmp_path / "r_A1.json"),
                        str(tmp_path / "r_A2.json")]) == 0
        # the pair that must not cooperate
        assert run_cli(["respond", "--share", str(shares / "share_A3.json"),
                        "--challenge", str(tmp_path / "c.json"),
                        "-o", str(tmp_path / "r_A3.json")]) == 0
        assert run_cli(["verify", "--state", str(tmp_path / "s.json"),
                        "--responses", str(tmp_path / "r_A2.json"),
                        str(tmp_path / "r_A3.json")]) == 1

    def test_audit_refuses_two_share_files_for_a_holder(self, tmp_path, capsys):
        # the later file used to win: a stale share of A from "A or B or C"
        # let A alone in, and an audit read the deployment as broken
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        shares, stale = tmp_path / "shares", tmp_path / "stale"
        for policy_text, out in [("(A and B) or C", shares), ("A or B or C", stale)]:
            assert run_cli(["compile", "--policy", policy_text, "--universe", "A,B,C",
                            "--mode", "monotone", "--key", str(tmp_path / "priv.json"),
                            "-o", str(out)]) == 0
        (shares / "zz_old_A.json").write_bytes((stale / "share_A.json").read_bytes())
        args = ["audit", "--shares", str(shares), "--force-m", "255"]
        capsys.readouterr()
        assert run_cli([*args, "--policy", "(A and B) or C", "--universe", "A,B,C"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {shares}: holder A has two share files, "
                                f"{shares / 'share_A.json'} and {shares / 'zz_old_A.json'}\n")
        # a holder outside the universe may have any number of files
        assert run_cli([*args, "--policy", "C", "--universe", "B,C"]) == 0
        assert "result: exact" in capsys.readouterr().out


    def test_audit_refuses_max_size_on_monotone_shares(self, tmp_path, capsys):
        # a monotone split has no size cap: the 4- and 5-holder groups were
        # listed as false accepts and the audit exited 1
        assert run_cli(["keygen", "--n", "12", "--seed", "5", "-o", str(tmp_path)]) == 0
        deployment = ["--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E"]
        assert run_cli(["compile", *deployment, "--mode", "monotone",
                        "--key", str(tmp_path / "priv.json"), "-o", str(tmp_path / "shares")]) == 0
        capsys.readouterr()
        assert run_cli(["audit", *deployment, "--shares", str(tmp_path / "shares"),
                        "--max-size", "3", "--trials", "3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a size cap applies to sequence mode only\n"

    def test_audit_refuses_key_shares_under_sequence_deployment(self, tmp_path, capsys):
        assert run_cli(["keygen", "--n", "8", "--seed", "1", "-o", str(tmp_path)]) == 0
        shares = tmp_path / "shares"
        assert run_cli(["compile", "--policy", "(A and B) or C", "--universe", "A,B,C",
                        "--mode", "monotone", "--key", str(tmp_path / "priv.json"),
                        "-o", str(shares)]) == 0
        doc = json.loads((shares / "deployment.json").read_text())
        (shares / "deployment.json").write_text(json.dumps(dict(doc, mode="sequence",
                                                                merge="sum")))
        capsys.readouterr()
        assert run_cli(["audit", "--shares", str(shares), "--policy", "(A and B) or C",
                        "--universe", "A,B,C", "--force-m", "255"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a single key share answers monotone challenges\n"


def test_audit_reads_merge_from_deployment(tmp_path, capsys):
    # audit took its merge from its own flag, default sum, so this xor
    # deployment, which admits six over-full groups, audited as exact
    assert run_cli(["keygen", "--n", "12", "--seed", "5", "-o", str(tmp_path)]) == 0
    shares = tmp_path / "shares"
    deployment = ["--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                  "--max-size", "3"]
    assert run_cli(["compile", *deployment, "--mode", "sequence", "--merge", "xor",
                    "--key", str(tmp_path / "priv.json"), "-o", str(shares)]) == 0
    capsys.readouterr()
    assert run_cli(["audit", *deployment, "--shares", str(shares), "--trials", "20",
                    "--seed", "1", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["mode"], doc["merge"], doc["all_exact"]) == ("sequence", "xor", False)
    assert doc["false_accepts"] == sorted(
        ["A,B,C,D", "A,B,C,E", "A,B,D,E", "A,C,D,E", "B,C,D,E", "A,B,C,D,E"])
    assert doc["missed"] == []


# SHA-256 of `groupauth audit`'s stdout for the airplane shares named in
# reverse (--universe E,D,C,B,A), four seeded trials with random nulls: under
# the airplane policy (exact, exit 0) and under one that misses D,C and E,D,C
# and accepts ten groups it does not name (exit 1), computed before subsets
# were named once per audit
REVERSED_AUDIT_DIGESTS = {
    ("airplane", "text"): (0, "ceffdfdeb47bb340954269d0fcb8a9ca9c3e70e2f4b25b69f6df765f39d0f8a1"),
    ("airplane", "json"): (0, "cfe589641a2fde6a5cf3557361e71d6beebdf494c8afb8f4534b8ad8ef108315"),
    ("other", "text"): (1, "ed186d980b2c05c7889f337452c9313218fe5632b1322ef21b3cd681a9f72ead"),
    ("other", "json"): (1, "c118ce75a578b2b73072c0ece63d9a62d522474660fdef7dadeb748e62ca7a77"),
}


@pytest.mark.parametrize("policy_name, output", sorted(REVERSED_AUDIT_DIGESTS))
def test_audit_output_pinned_for_reversed_universe(pipeline, capsys, policy_name, output):
    # a subset is named in universe order, not alphabetically, and the rows
    # are sorted by size, then by that name
    policy_text = {"airplane": fixtures.AIRPLANE_POLICY, "other": "(A and B) or (C and D)"}
    code = run_cli(["audit", "--policy", policy_text[policy_name], "--universe", "E,D,C,B,A",
                    "--max-size", "3", "--shares", str(pipeline / "shares"), "--trials", "4",
                    "--seed", "7", "--null", "random", *(["--json"] if output == "json" else [])])
    stdout = capsys.readouterr().out
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == (
        REVERSED_AUDIT_DIGESTS[policy_name, output])


def test_packed_compile_of_a_4_of_14_threshold(tmp_path, capsys):
    # the CLI reads an OR of the 1,001 four-holder ANDs over H0..H13 and packs it
    universe = [f"H{i}" for i in range(14)]
    threshold = " or ".join(" and ".join(c) for c in itertools.combinations(universe, 4))
    assert run_cli(["keygen", "--n", "12", "--seed", "1", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["compile", "--policy", threshold, "--universe", ",".join(universe),
                    "--max-size", "4", "--mode", "sequence", "--pack",
                    "--key", str(tmp_path / "priv.json"), "-o", str(tmp_path / "shares")]) == 0
    assert "1001 authorized groups compiled into 66 slots" in capsys.readouterr().out


@pytest.mark.parametrize("keys", [("5", "6"), ("6", "5"), (None, None), ("other p", "5"),
                                  ("swapped", "5")],
                         ids=["seed 5 beside 6", "seed 6 beside 5", "unseeded pair", "other p",
                              "swapped values"])
def test_audit_refuses_another_keys_deployment(tmp_path, capsys, keys):
    # The first key's deployment beside the second key's shares. Every key of
    # one n shares p, the least prime above the prime product, so only the
    # public values tell two keys apart. A deployment under another p failed
    # on a ciphertext out of range, and seed 5's beside seed 6's shares
    # audited as all 16 groups missed. With v[1] and v[2] swapped, a check of
    # v[0] alone passed it, and the audit printed MISMATCH and exited 1.
    deployment = ["--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                  "--max-size", "3"]
    dirs = []
    for i, key in enumerate(keys):
        keys_dir, shares = tmp_path / f"keys{i}", tmp_path / f"shares{i}"
        if key == "other p":
            keys_dir.mkdir()
            other_p = numtheory.next_prime_above(fixtures.AIRPLANE_P)
            files.save(keygen(12, seed=5, force_p=other_p)[1], keys_dir / "priv.json")
        else:
            seed = "5" if key == "swapped" else key
            assert run_cli(["keygen", "--n", "12", *(["--seed", seed] if seed else []),
                            "-o", str(keys_dir)]) == 0
        assert run_cli(["compile", *deployment, "--mode", "sequence",
                        "--key", str(keys_dir / "priv.json"), "-o", str(shares)]) == 0
        dirs.append(shares)
    doc = json.loads((dirs[0] / "deployment.json").read_text())
    assert (doc["p"] == json.loads((dirs[1] / "deployment.json").read_text())["p"]) == (
        keys[0] != "other p")
    if keys[0] == "swapped":
        doc["v"][1], doc["v"][2] = doc["v"][2], doc["v"][1]
    (dirs[1] / "deployment.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["audit", *deployment, "--shares", str(dirs[1]), "--trials", "3",
                    "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {dirs[1]}: the audit key does not bind holder A's share\n"


class TestFileAccessBoundaries:
    def _record_opens(self, monkeypatch):
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        return opened

    def test_respond_reads_only_its_own_share(self, pipeline, monkeypatch):
        root = pipeline
        _challenge_session(root)
        opened = self._record_opens(monkeypatch)
        assert run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r_A.json")]) == 0
        reads = [p for p in opened if "share_" in p]
        assert reads and all(p.endswith("share_A.json") for p in reads)

    def test_challenge_reads_only_the_deployment(self, pipeline, monkeypatch):
        root = pipeline
        opened = self._record_opens(monkeypatch)
        _challenge_session(root)
        # no priv.json or share file: what it writes is all else it opens
        reads = [p for p in opened if Path(p).name not in ("challenge.json", "state.json")]
        assert reads == [str(root / "shares/deployment.json")]

    def test_verify_never_reads_private_key(self, pipeline, monkeypatch):
        root = pipeline
        _challenge_session(root)
        run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                 "--challenge", str(root / "challenge.json"),
                 "-o", str(root / "r_A.json")])
        opened = self._record_opens(monkeypatch)
        run_cli(["verify", "--state", str(root / "state.json"),
                 "--responses", str(root / "r_A.json")])
        assert not any(p.endswith("priv.json") for p in opened)

    def test_audit_never_reads_private_key(self, pipeline, monkeypatch):
        root = pipeline
        opened = self._record_opens(monkeypatch)
        assert run_cli(["audit", "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E",
                        "--max-size", "3", "--force-m", "2919"]) == 0
        # the share directory is all it opens: its deployment file and share files
        assert opened and all(Path(p).parent == root / "shares" for p in opened)
        assert str(root / "shares/deployment.json") in opened


def _readme_walkthrough():
    """Each `groupauth ...` command of README's CLI walkthrough block, split into argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("groupauth ")]


class TestReadmeWalkthrough:
    def test_every_step_runs(self, tmp_path, monkeypatch, capsys):
        steps = _readme_walkthrough()
        assert [argv[0] for argv in steps] == [
            "keygen", "compile", "challenge", "respond", "respond", "verify", "audit"]
        monkeypatch.chdir(tmp_path)
        for argv in steps:
            # a packed plan has false accepts, so its audit may report them
            allowed = (0, 1) if argv[0] == "audit" else (0,)
            assert run_cli(argv) in allowed, (argv, capsys.readouterr().err)


class TestDemoCommand:
    @pytest.mark.parametrize("fixture", ["airplane", "small"])
    def test_demo_exits_zero(self, fixture, capsys):
        assert run_cli(["demo", "--fixture", fixture]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out

    def test_airplane_demo_notes_row7(self, capsys):
        run_cli(["demo", "--fixture", "airplane"])
        out = capsys.readouterr().out
        assert "row 7" in out and "swaps B and C" in out

    def test_demo_json(self, capsys):
        assert run_cli(["demo", "--fixture", "airplane", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["audit_exact"] is True

    @pytest.mark.parametrize("fixture, check, line", [
        ("airplane", "ciphertext_roundtrip", "(roundtrip FAILED)"),
        ("small", "contributions_reproduced", "A3 -> 192 (MISMATCH)"),
    ])
    def test_json_carries_every_exit_check(self, fixture, check, line, monkeypatch, capsys):
        # a failed check turned the exit code 1 while the JSON read all true
        assert run_cli(["demo", "--fixture", fixture, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[check] is True
        if fixture == "airplane":
            monkeypatch.setattr(nscrypt, "decrypt", lambda priv, c: 0)
        else:
            monkeypatch.setitem(fixtures.SMALL_CONTRIBUTIONS, "A1", 11)
        assert run_cli(["demo", "--fixture", fixture, "--json"]) == 1
        failed = [key for key, value in json.loads(capsys.readouterr().out).items()
                  if value is False]
        assert failed == [check]
        assert run_cli(["demo", "--fixture", fixture]) == 1
        assert line in capsys.readouterr().out
