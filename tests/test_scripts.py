"""The two script-level byte-identity gates, and a smoke test of time_cli.

`scripts/run_worked_examples.py --json` must print exactly the pinned tables
in `tests/golden/worked_examples.json`, and `scripts/fuzz_certificates.py -v`
must reject every one of its corruptions with exactly the pinned details in
`tests/golden/fuzz_details.txt`.  Both run as their own processes, as they
are run by hand.  Regenerate the pinned files (only for an intended output
change) with

    python3 scripts/run_worked_examples.py --json > tests/golden/worked_examples.json
    python3 scripts/fuzz_certificates.py -v > tests/golden/fuzz_details.txt
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKED = ROOT / "tests" / "golden" / "worked_examples.json"
FUZZ_DETAILS = ROOT / "tests" / "golden" / "fuzz_details.txt"


def _run(script, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, cwd=ROOT, check=False)


def test_worked_examples_json_is_byte_identical():
    out = _run("run_worked_examples.py", "--json")
    assert out.returncode == 0, out.stderr
    assert out.stdout == WORKED.read_text(encoding="utf-8")


def test_fuzz_certificates_rejects_every_corruption():
    out = _run("fuzz_certificates.py", "-v")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "RESULT: all 122 corruptions rejected (100%)" in out.stdout
    assert out.stdout == FUZZ_DETAILS.read_text(encoding="utf-8")


def test_time_cli_runs_a_query_abba():
    out = _run("time_cli.py", "src", "src", "--", "cat",
               "models/sphere3.cdga", "--json")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["A", "B", "B", "A"]
    assert all(", exit 0, stdout sha256 " in line for line in lines[:4])
    assert len({line.rsplit(" ", 1)[1] for line in lines[:4]}) == 1
    assert lines[4:] == ["stdout identical in all runs"]


def _time_cli():
    spec = importlib.util.spec_from_file_location("time_cli", ROOT / "scripts" / "time_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("outcomes", [
    [(0, "aa"), (0, "bb"), (0, "bb"), (0, "aa")],
    [(0, "aa"), (3, "aa"), (3, "aa"), (0, "aa")],
], ids=["stdout", "exit-code"])
def test_time_cli_fails_when_the_runs_disagree(monkeypatch, capsys, outcomes):
    """A different stdout or exit code in any run makes time_cli exit 1."""
    time_cli = _time_cli()
    runs = iter(outcomes)

    def run_once(src, argv):
        code, digest = next(runs)
        return 0.5, 20.0, code, digest

    monkeypatch.setattr(time_cli, "run_once", run_once)
    assert time_cli.main(["a", "b", "--", "cat", "x.cdga"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "stdout or exit code DIFFERS between runs"
