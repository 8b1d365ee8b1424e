"""Each CLI process imports only the modules its command runs.

Every probe is a child `python -S -E -B` with `src` as its working
directory, as `python -S -E -m lexinduce` runs there: no site-packages
and no environment. `-B` keeps the probes from writing `__pycache__`
into the source tree, which `-E` would otherwise allow. The file
needs no pytest, so `python -S -E tests/test_imports.py` runs the same
checks in that mode.
"""
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# The modules a bare interpreter lacks after `import lexinduce.cli` (and,
# with arguments, after `main(arguments)`), one a line into the file `argv[1]`.
PROBE = """
import sys
bare = set(sys.modules)
import lexinduce.cli
code = lexinduce.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
with open(sys.argv[1], "w") as fh:
    fh.write("".join(name + "\\n" for name in sorted(set(sys.modules) - bare)))
sys.exit(code)
"""

# Loaded by nothing on the CLI's path, whatever the command.
NEVER = {"dataclasses", "inspect", "typing", "logging"}
# Loaded only by the commands that format a decimal: `generate`'s write and `evaluate --sweep`.
DECIMAL = {"decimal", "numbers"}
COMMAND_MODULES = {f"lexinduce.{m}" for m in ("acd", "graph", "inference", "otic", "metagraph", "evaluation", "synth")}


def _child(*args):
    return subprocess.run([sys.executable, "-S", "-E", "-B", *args], cwd=SRC, capture_output=True, timeout=120)


def loaded(tmp, *argv):
    """The modules a child loads beyond a bare interpreter; its command must exit 0."""
    out = os.path.join(tmp, "modules.txt")
    proc = _child("-c", PROBE, out, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    with open(out, encoding="utf-8") as fh:
        return set(fh.read().split())


def instance(tmp):
    """A small synth instance; returns its directory."""
    inst = os.path.join(tmp, "inst")
    proc = _child("-m", "lexinduce", "synth", "--out-dir", inst, "--langs", "4", "--senses", "40", "--seed", "2")
    assert proc.returncode == 0, proc.stderr.decode()
    return inst


def test_importing_the_cli_loads_no_command_module(tmp_path):
    got = loaded(str(tmp_path))
    assert "lexinduce.cli" in got
    assert not got & (NEVER | COMMAND_MODULES | DECIMAL)


def test_evaluate_loads_only_evaluation(tmp_path):
    inst = instance(str(tmp_path))
    gold = os.path.join(inst, "gold_aa-ab.tsv")
    got = loaded(str(tmp_path), "evaluate", "--pred", gold, "--gold", gold, "--src", "aa", "--tgt", "ab",
                 "--manifest", os.path.join(inst, "manifest.tsv"), "--sweep", "0:1:0.5")
    assert "lexinduce.evaluation" in got
    assert not got & (NEVER | COMMAND_MODULES - {"lexinduce.evaluation"})


def test_generate_otic_loads_metagraph_only_with_the_filter(tmp_path):
    inst = instance(str(tmp_path))
    argv = ["generate", "--algo", "otic", "--src", "aa", "--tgt", "ab", "--pivot", "ac",
            "--manifest", os.path.join(inst, "manifest.tsv"), "--out", os.path.join(str(tmp_path), "p.tsv")]
    plain = loaded(str(tmp_path), *argv)
    assert {"lexinduce.acd", "lexinduce.graph", "lexinduce.inference", "lexinduce.otic"} <= plain
    assert not plain & (NEVER | {"lexinduce.metagraph", "lexinduce.evaluation", "lexinduce.synth"})
    assert "lexinduce.metagraph" in loaded(str(tmp_path), *argv, "--bcc-filter")


SUBMODULES = ("acd", "dictio", "entries", "errors", "evaluation", "graph", "inference", "metagraph", "otic", "synth")


def test_every_export_resolves_and_star_import_binds_it():
    import lexinduce

    star = {}
    exec("from lexinduce import *", star)
    listed = dir(lexinduce)
    for name in lexinduce.__all__:
        assert star[name] is getattr(lexinduce, name), name
        assert name in listed, name
    for name in SUBMODULES:  # bound by `import lexinduce` before the names became lazy
        assert getattr(lexinduce, name).__name__ == f"lexinduce.{name}"
        assert name in listed, name


def test_an_unknown_name_is_an_attribute_error():
    import lexinduce

    try:
        lexinduce.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("lexinduce.no_such_name resolved")


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                test(*[tmp][: test.__code__.co_argcount])
            print(f"ok {name}")
