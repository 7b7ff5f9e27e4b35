import builtins
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groupauth
from groupauth import files, fixtures, numtheory
from groupauth.cli import run_cli
from groupauth.errors import SchemaError
from groupauth.nscrypt import keygen
from groupauth.protocol import ResponseVector, Verdict, make_challenge, verify

LONG = "9" * 5000  # more digits than Python's default int_max_str_digits


class TestSchemas:
    def test_key_roundtrip(self, tmp_path):
        pub, priv = keygen(12, force_p=fixtures.AIRPLANE_P, force_s=fixtures.AIRPLANE_S)
        files.save(pub, tmp_path / "pub.json")
        files.save(priv, tmp_path / "priv.json")
        assert files.load(tmp_path / "pub.json", expect_kind="ns-public") == pub
        assert files.load(tmp_path / "priv.json", expect_kind="ns-private") == priv

    def test_integers_are_decimal_strings(self, tmp_path):
        pub, _ = keygen(12, force_p=fixtures.AIRPLANE_P, force_s=fixtures.AIRPLANE_S)
        doc = json.loads(files.dumps(pub))
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
        path.write_text('{"kind": "ns-public", "n": 2, "p": 123, "v": ["1", "2"]}')
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
        pub_doc = files.to_document(airplane.pub)
        seq_doc = files.to_document(airplane.shares["A"])
        docs = [
            dict(pub_doc, p=digit),
            dict(pub_doc, v=[digit] + pub_doc["v"][1:]),
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
        ("ns-public", "n"), ("ns-private", "n"), ("share-sequence", "n"),
        ("challenge", "slot_count"), ("verifier-state", "slot_count"),
        ("verdict", "matching_slot"),
    ])
    def test_int_fields_reject_booleans(self, tmp_path, airplane, kind, field):
        challenge, state = make_challenge(
            airplane.pub, mode="sequence", merge="sum", slot_count=1,
            rng=random.Random(0), force_m=2919)
        verdict = Verdict(session_id="x", accepted=True, matching_slot=1)
        obj = {"ns-public": airplane.pub, "ns-private": airplane.priv,
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
        ("ns-public", "p", LONG), ("ns-public", "v", [LONG]),
        ("share-sequence", "slots", [[LONG]]),
    ], ids=["p", "v", "slots"])
    def test_overlong_integer_names_field(self, tmp_path, airplane, kind, field, value):
        doc = files.to_document(airplane.pub if kind == "ns-public" else airplane.shares["A"])
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
        path = tmp_path / "pub.json"
        path.write_text('{"kind": "ns-public", "n": ' + LONG + "}")
        with pytest.raises(SchemaError):
            files.load(path)

    def test_public_key_over_64_primes_rejected(self, tmp_path):
        # messages are read off at most 64 prime ranks; a 65th value used to
        # load and then silently reject authorized groups
        pub, _ = keygen(64)
        doc = files.to_document(pub)
        doc["n"], doc["v"] = 65, doc["v"] + ["2"]
        with pytest.raises(ValueError):
            files.from_document(doc)
        path = tmp_path / "pub.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            files.load(path, expect_kind="ns-public")

    def test_public_modulus_must_exceed_prime_product(self, tmp_path, small):
        # 9,973 is prime but below the 8-prime product 9,699,690: such a key
        # used to load, and its sessions rejected the authorized {A1, A2}
        p = 9973
        doc = dict(files.to_document(small.pub), p=str(p),
                   v=[str(v % p) for v in small.pub.v])
        with pytest.raises(ValueError, match="modulus must exceed the prime product"):
            files.from_document(doc)
        path = tmp_path / "pub.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="modulus must exceed the prime product"):
            files.load(path, expect_kind="ns-public")

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

    @pytest.mark.parametrize("kind", ["ns-private", "ns-public", "share-monotone",
                                      "share-sequence"])
    def test_composite_modulus_rejected(self, tmp_path, small, airplane, kind):
        # such a key used to load, and decrypt(encrypt(1)) then raised; such a
        # share of small's A1 answered 1 where 10 was due, rejecting {A1, A2}
        system = small if kind == "share-monotone" else airplane
        priv = system.priv
        p = next(c for c in range(priv.p + 2, priv.p + 10_000, 2)
                 if math.gcd(priv.s, c - 1) == 1 and any(c % q == 0 for q in range(3, 100, 2)))
        obj = {"ns-private": priv, "ns-public": system.pub,
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
        files.save(airplane.pub, tmp_path / "pub.json")
        with pytest.raises(SchemaError):
            files.load(tmp_path / "pub.json", expect_kind="ns-private")


class TestCliExitCodes:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run_cli(["keygen", "--wat", "7"]) == 2

    def test_schema_violation_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ns-public", "n": 2, "p": "x", "v": []}')
        code = run_cli(["challenge", "--pub", str(bad),
                        "-o", str(tmp_path / "c.json"), "--state", str(tmp_path / "s.json")])
        assert code == 2

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


class TestKeygenCli:
    def test_forced_key_matches_table(self, tmp_path):
        code = run_cli(["keygen", "--n", "12",
                        "--force-p", "7420738134871", "--force-s", "5642069",
                        "-o", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "pub.json").read_text())
        assert [int(x) for x in doc["v"]] == list(fixtures.AIRPLANE_V)

    def test_byte_identical_under_seed(self, tmp_path):
        for sub in ("one", "two"):
            code = run_cli(["keygen", "--n", "8", "--seed", "c0ffee",
                            "-o", str(tmp_path / sub)])
            assert code == 0
        assert (tmp_path / "one/pub.json").read_bytes() == (tmp_path / "two/pub.json").read_bytes()
        assert (tmp_path / "one/priv.json").read_bytes() == (tmp_path / "two/priv.json").read_bytes()

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
        for name in ("pub.json", "priv.json"):
            assert (tmp_path / "keys" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_force_flags_must_pair(self, tmp_path):
        assert run_cli(["keygen", "--n", "8", "--force-p", "9700247",
                        "-o", str(tmp_path)]) == 2


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
def pipeline(tmp_path):
    """keygen + compile the five-holder demo policy, sequence mode, packed."""
    keys = tmp_path / "keys"
    shares = tmp_path / "shares"
    assert run_cli(["keygen", "--n", "12",
                    "--force-p", "7420738134871", "--force-s", "5642069",
                    "-o", str(keys)]) == 0
    assert run_cli([
        "compile", "--policy", fixtures.AIRPLANE_POLICY,
        "--universe", "A,B,C,D,E", "--max-size", "3",
        "--mode", "sequence", "--pack",
        "--key", str(keys / "priv.json"), "-o", str(shares)]) == 0
    return tmp_path


def _challenge_session(root, slots, seed="0f"):
    assert run_cli(["challenge", "--pub", str(root / "keys/pub.json"),
                    "--mode", "sequence", "--slots", str(slots),
                    "--seed", seed, "--force-m", "2919",
                    "-o", str(root / "challenge.json"),
                    "--state", str(root / "state.json")]) == 0


def _slot_count(root):
    doc = json.loads((root / "shares/share_A.json").read_text())
    return len(doc["slots"])


class TestPipeline:
    def test_authorized_group_accepted(self, pipeline):
        root = pipeline
        _challenge_session(root, _slot_count(root))
        for holder in ("A", "C"):
            assert run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                            "--challenge", str(root / "challenge.json"),
                            "-o", str(root / f"r_{holder}.json")]) == 0
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_A.json"), str(root / "r_C.json")])
        assert code == 0

    def test_unauthorized_pair_rejected(self, pipeline):
        root = pipeline
        _challenge_session(root, _slot_count(root))
        for holder in ("C", "D"):
            assert run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                            "--challenge", str(root / "challenge.json"),
                            "-o", str(root / f"r_{holder}.json")]) == 0
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_C.json"), str(root / "r_D.json")])
        assert code == 1

    def test_verify_json_output(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root, _slot_count(root))
        for holder in ("A", "B"):
            run_cli(["respond", "--share", str(root / f"shares/share_{holder}.json"),
                     "--challenge", str(root / "challenge.json"),
                     "-o", str(root / f"r_{holder}.json")])
        capsys.readouterr()
        code = run_cli(["verify", "--state", str(root / "state.json"), "--json",
                        "--responses", str(root / "r_A.json"), str(root / "r_B.json")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["accepted"] is True

    def test_challenge_deterministic_under_seed(self, pipeline):
        root = pipeline
        slots = _slot_count(root)
        blobs = []
        for name in ("x", "y"):
            assert run_cli(["challenge", "--pub", str(root / "keys/pub.json"),
                            "--mode", "sequence", "--slots", str(slots),
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
            assert run_cli(["challenge", "--pub", str(root / "keys/pub.json"), *seed,
                            "-o", str(root / f"c_{name}.json"),
                            "--state", str(root / f"s_{name}.json")]) == 0
            blobs.append((root / f"s_{name}.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_audit_command_exact(self, pipeline, capsys):
        root = pipeline
        code = run_cli(["audit", "--key", str(root / "keys/priv.json"),
                        "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3",
                        "--force-m", "2919", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_exact"] is True
        assert doc["false_accepts"] == [] and doc["missed"] == []
        assert len(doc["expected"]) == 16

    @pytest.mark.parametrize("null", ["one", "random"])
    def test_audit_text_names_settings(self, pipeline, capsys, null):
        root = pipeline
        run_cli(["audit", "--key", str(root / "keys/priv.json"),
                 "--shares", str(root / "shares"),
                 "--policy", fixtures.AIRPLANE_POLICY,
                 "--universe", "A,B,C,D,E", "--max-size", "3",
                 "--force-m", "2919", "--null", null, "--seed", "1"])
        out = capsys.readouterr().out
        policy = {"one": "one", "random": "random-nonzero"}[null]
        assert f"1 trial(s), mode=sequence, merge=sum, null={policy}\n" in out

    def test_bad_seed_is_one_usage_error(self, pipeline, capsys):
        root = pipeline
        commands = {
            "keygen": ["--n", "8", "-o", str(root / "k")],
            "challenge": ["--pub", str(root / "keys/pub.json"),
                          "-o", str(root / "c.json"), "--state", str(root / "s.json")],
            "respond": ["--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "c.json"), "-o", str(root / "r.json")],
            "audit": ["--key", str(root / "keys/priv.json"), "--shares", str(root / "shares"),
                      "--policy", fixtures.AIRPLANE_POLICY, "--universe", "A,B,C,D,E"],
        }
        for command, rest in commands.items():
            capsys.readouterr()
            assert run_cli([command, *rest, "--seed", "zz"]) == 2
            assert f"groupauth {command}: error: argument --seed: must be hex, got 'zz'" in (
                capsys.readouterr().err)

    def test_audit_without_trials_is_usage_error(self, pipeline, capsys):
        root = pipeline
        code = run_cli(["audit", "--key", str(root / "keys/priv.json"),
                        "--shares", str(root / "shares"),
                        "--policy", fixtures.AIRPLANE_POLICY,
                        "--universe", "A,B,C,D,E", "--max-size", "3", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "result: exact" not in captured.out
        assert "at least one trial" in captured.err

    def test_malformed_state_is_usage_error(self, pipeline, capsys):
        root = pipeline
        _challenge_session(root, _slot_count(root))
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
        slots = _slot_count(root)
        assert slots > 1
        _challenge_session(root, slots)
        doc = json.loads((root / "challenge.json").read_text())
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
        assert run_cli(["challenge", "--pub", str(root / "keys/pub.json"),
                        "--mode", "sequence", "--slots", str(_slot_count(root)),
                        "--per-index-random",
                        "-o", str(root / "challenge.json"),
                        "--state", str(root / "state.json")]) == 2
        assert not (root / "challenge.json").exists()

    def test_session_mismatch_detected(self, pipeline):
        root = pipeline
        slots = _slot_count(root)
        _challenge_session(root, slots, seed="0f")
        run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                 "--challenge", str(root / "challenge.json"),
                 "-o", str(root / "r_A.json")])
        # fresh session, stale response
        _challenge_session(root, slots, seed="1234")
        code = run_cli(["verify", "--state", str(root / "state.json"),
                        "--responses", str(root / "r_A.json")])
        assert code == 1


class TestMonotoneCliFlow:
    def test_monotone_compile_and_verify(self, tmp_path):
        keys = tmp_path / "keys"
        shares = tmp_path / "shares"
        assert run_cli(["keygen", "--n", "8",
                        "--force-p", "9700247", "--force-s", "5642069",
                        "-o", str(keys)]) == 0
        assert run_cli(["compile", "--policy", "(A1 and A2) or (A1 and A3)",
                        "--universe", "A1,A2,A3", "--mode", "monotone",
                        "--key", str(keys / "priv.json"), "-o", str(shares)]) == 0
        assert run_cli(["challenge", "--pub", str(keys / "pub.json"),
                        "--mode", "monotone", "--seed", "aa",
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
        _challenge_session(root, _slot_count(root))
        opened = self._record_opens(monkeypatch)
        assert run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                        "--challenge", str(root / "challenge.json"),
                        "-o", str(root / "r_A.json")]) == 0
        reads = [p for p in opened if "share_" in p]
        assert reads and all(p.endswith("share_A.json") for p in reads)

    def test_verify_never_reads_private_key(self, pipeline, monkeypatch):
        root = pipeline
        _challenge_session(root, _slot_count(root))
        run_cli(["respond", "--share", str(root / "shares/share_A.json"),
                 "--challenge", str(root / "challenge.json"),
                 "-o", str(root / "r_A.json")])
        opened = self._record_opens(monkeypatch)
        run_cli(["verify", "--state", str(root / "state.json"),
                 "--responses", str(root / "r_A.json")])
        assert not any(p.endswith("priv.json") for p in opened)


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
