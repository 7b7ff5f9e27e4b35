"""The public names the package declares, and the benchmark's hooks and self-test."""

import ast
import importlib
import importlib.util
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import groupauth
from groupauth import policy, protocol, sharesplit

MODULES = sorted(m.name for m in pkgutil.iter_modules(groupauth.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SELFTEST = SPANS.parent / "selftest.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"groupauth.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"groupauth.{name}.__all__ lists missing {attr!r}"


def test_root_reexports_are_declared():
    # a name the package root imports from a submodule must be public there,
    # so deleting it from the submodule's __all__ also shows up here
    tree = ast.parse(Path(groupauth.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"groupauth.{node.module}")
            declared = getattr(module, "__all__", ())
            for alias in node.names:
                assert alias.name in declared, f"groupauth.{node.module}.{alias.name}"


def test_readme_library_use_runs(capsys):
    # each print in README's "Library use" block shows its output in a trailing comment
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    shown = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(shown) == 2
    assert capsys.readouterr().out.splitlines() == shown


def test_library_imports_only_the_standard_library():
    # the package declares no dependencies, so every absolute import is stdlib
    for path in sorted(Path(groupauth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


@pytest.mark.parametrize("name", ["protocol", "files"])
def test_runtime_does_not_import_the_compiler(name):
    # tokens and the verifier run from share material alone: share types
    # live in nscrypt, so neither module needs the policy compiler
    path = Path(groupauth.__file__).parent / f"{name}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        assert not any(m.rpartition(".")[2] == "sharesplit" for m in modules), (
            f"{name}.py imports sharesplit")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_exist():
    # perfbench/spans.py wraps these attributes by name; a missing one
    # breaks `perfbench/run.py --trace 1`
    spans = _spans()
    for module_name, attr, _stem, _kind in spans.HOOKS:
        module = importlib.import_module(f"groupauth.{module_name}")
        assert callable(getattr(module, attr, None)), f"groupauth.{module_name}.{attr}"


def test_traced_split_counts_evaluate():
    # the guided descent called the `evaluate` that sharesplit imported, so
    # the tracer's wrapper of policy.evaluate saw none of its calls
    spans = _spans()
    modules = {name: importlib.import_module(f"groupauth.{name}")
               for name in {module_name for module_name, *_ in spans.HOOKS}}
    # session-mono12's policy in perfbench/run.py, whose split takes the guided descent
    expr = policy.parse("(A and (B or C)) or ((B or C) and (D or E) and (F or G or H))",
                        tuple("ABCDEFGH"))
    with spans.Tracer(modules) as tracer:
        sharesplit.bl_split(expr, range(12))
    assert tracer.calls["policy.evaluate"] > 0


def test_traced_tokens_count_partial_decrypt(airplane, small):
    # every token reads through the `partial_decrypt` that protocol imported,
    # which the tracer wraps; an audit reads m itself and calls it never
    spans = _spans()
    modules = {name: importlib.import_module(f"groupauth.{name}")
               for name in {module_name for module_name, *_ in spans.HOOKS}}
    with spans.Tracer(modules) as tracer:
        for system in (airplane, small):
            challenge, _ = protocol.make_challenge(system.deployment, rng=random.Random(0))
            for share in system.shares.values():
                protocol.token_respond(share, challenge)
    tokens = len(airplane.shares) + len(small.shares)
    assert tracer.calls["nscrypt.partial_decrypt"] == tracer.calls["protocol.token_respond"]
    assert tracer.calls["nscrypt.partial_decrypt"] == tokens
    with spans.Tracer(modules) as tracer:
        protocol.audit(airplane.deployment, airplane.shares, airplane.expected_family,
                       rng=random.Random(0))
    assert tracer.calls["protocol.audit"] == 1
    assert tracer.calls["nscrypt.partial_decrypt"] == tracer.calls["protocol.token_respond"] == 0


def test_benchmark_selftest_passes():
    # the self-test injects faults (a flipped response bit, a rejected
    # authorized group) that the benchmark's correctness checks must catch;
    # a library change that stops them biting fails here
    proc = subprocess.run([sys.executable, str(SELFTEST)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
