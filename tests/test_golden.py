"""Byte-identity pins for the command line.

For every cdga in every bundled model file, at its default cap, the exact
`--json` standard output of `cat`, `tc --n 2` and `minimal-model` is pinned,
and so is that of `secat` for every morphism, together with every
certificate file that `--emit-certs` writes for `cat`, `tc` and `secat`.
Cases away from the defaults (`EXTRA_CASES`) pin large linear systems, the
n = 3 diagonal and the deepest minimal models too.  A refactor that keeps these bytes keeps the
reports and the certificate corpus.

Regenerate the pinned data (only for an intended output change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from conftest import MODELS

from secat.cli import main
from secat.lang import parse_document

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_outputs.json"
# command key -> its options {flag name: value} at the defaults
COMMANDS = {"cat": {}, "tc": {"n": 2}, "minimal-model": {}}
# the command run on each morphism of a document
MORPHISM_COMMAND = "secat"
# (file name, cdga label, command key, options) run away from the defaults:
# cat T at cap 16 solves a 3533 x 3467 module-retraction system; at cap 18
# its full level-2 system would be 13476 x 12799 and level 3 is 6681 x 6549.
# tc T at n = 3 works on the diagonal T (x) M (x) M of T's minimal model M,
# and at n = 4 on T (x) M^{(x) 3} beside the multiplication source T^{(x) 4}.
# minimal-model T at cap 22 and W at cap 26 are the deepest models built, with
# 58 and 83 generators.
EXTRA_CASES = [("truncated_mix.cdga", "T", "cat", {"cap": 16}),
               ("truncated_mix.cdga", "T", "cat", {"cap": 18}),
               ("truncated_mix.cdga", "T", "tc", {"n": 3}),
               ("truncated_mix.cdga", "T", "tc", {"n": 4}),
               ("truncated_mix.cdga", "T", "minimal-model", {"cap": 22}),
               ("wedge.cdga", "W", "minimal-model", {"cap": 26})]


def cases():
    """(case id, file name, cdga or morphism label, command key, options),
    in a fixed order.

    The options are {} for a run at the defaults; each names a flag and its
    value, and appears in the case id as flag name then value ("cap18").
    """
    out = []
    for path in sorted(MODELS.glob("*.cdga")):
        doc = parse_document(path.read_text())
        for kind, label in doc.order:
            if kind == "cdga":
                for key in COMMANDS:
                    out.append((f"{path.name}:{label}:{key}", path.name, label, key, {}))
            else:
                key = MORPHISM_COMMAND
                out.append((f"{path.name}:{label}:{key}", path.name, label, key, {}))
    for filename, label, key, options in EXTRA_CASES:
        tag = ":".join(f"{flag}{value}" for flag, value in options.items())
        out.append((f"{filename}:{label}:{key}:{tag}", filename, label, key, options))
    return out


def run_case(filename, label, key, options):
    """{"stdout": the --json output, "certs": {file name: contents}}."""
    if key == MORPHISM_COMMAND:
        defaults, pick = {}, "--map"
    else:
        defaults, pick = COMMANDS[key], "--name"
    argv = [key, str(MODELS / filename), pick, label, "--json"]
    for flag, value in {**defaults, **options}.items():
        argv += [f"--{flag}", str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        if key != "minimal-model":
            argv += ["--emit-certs", tmp]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0, f"{argv} exited with {code}"
        certs = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(pathlib.Path(tmp).iterdir())}
    return {"stdout": buf.getvalue(), "certs": certs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case,filename,label,key,options", cases(),
                         ids=[c[0] for c in cases()])
def test_cli_output_is_byte_identical(golden, case, filename, label, key, options):
    assert case in golden, f"no pinned output for {case}; regenerate the data"
    got = run_case(filename, label, key, options)
    want = golden[case]
    assert got["stdout"] == want["stdout"]
    assert sorted(got["certs"]) == sorted(want["certs"])
    for name, text in want["certs"].items():
        assert got["certs"][name] == text, f"certificate {name} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {case: run_case(f, label, key, options)
            for case, f, label, key, options in cases()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
