"""Write the CLI golden outputs that ``test_scenario_cli.py`` compares against.

Run from the repository root after a change that is meant to alter CLI
output, and commit the rewritten files with that change::

    PYTHONPATH=src python tests/_golden.py

Each file in tests/golden/ records one command on one shipped scenario:
its arguments (scenario path relative to the repository root), exit code,
the CSV it wrote and what it printed on stdout. A file is written only
when it is missing or its recorded output no longer matches by
:func:`assert_matches_record`, the comparison the tests make, so rounding
noise within the tolerance leaves the recorded files as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from robust_fusion.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# command -> (extra arguments, scenario stems it runs on; None for all)
COMMANDS = {
    "lfd": ([], None),
    "evaluate": ([], None),
    "saddle": (["--members", "11"], None),
    # sweep takes a single-sensor template
    "sweep": (["--k-list", "1,2,3,5,8,13,40,101"], ("binary_symmetric", "kl_ball")),
}


def cases():
    """(golden file name, argv) for every shipped scenario and command."""
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        for command, (extra, stems) in COMMANDS.items():
            if stems is not None and scenario.stem not in stems:
                continue
            argv = [command, "--scenario", str(scenario.relative_to(ROOT)), *extra]
            yield f"{scenario.stem}.{command}.json", argv


def run(argv) -> dict:
    """Run the CLI in-process and record its output."""
    resolved = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*resolved, "--out", str(out)])
        csv_text = out.read_text(encoding="utf-8") if out.exists() else ""
    return {"argv": argv, "exit": code, "csv": csv_text, "stdout": stdout.getvalue()}


NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def assert_matches_golden(actual: str, expected: str) -> None:
    """Equal text with every number token in place; integers must match
    exactly and floats (a '.' or exponent) within 1e-12."""
    got, want = NUMBER.split(actual), NUMBER.split(expected)
    if len(got) != len(want):
        raise AssertionError((actual, expected))
    for i, (a, e) in enumerate(zip(got, want)):
        if i % 2 == 1 and any(c in e for c in ".eE"):
            if not abs(float(a) - float(e)) <= 1e-12:
                raise AssertionError((a, e))
        elif a != e:
            raise AssertionError((actual, expected))


def assert_matches_record(actual: dict, expected: dict) -> None:
    """A run of :func:`run` against the record of the same command: equal
    arguments and exit code, and CSV and stdout by
    :func:`assert_matches_golden`."""
    if actual["argv"] != expected["argv"] or actual["exit"] != expected["exit"]:
        raise AssertionError((actual["argv"], actual["exit"], expected["argv"], expected["exit"]))
    assert_matches_golden(actual["csv"], expected["csv"])
    assert_matches_golden(actual["stdout"], expected["stdout"])


if __name__ == "__main__":
    for name, argv in cases():
        path = GOLDEN / name
        actual = run(argv)
        if path.exists():
            try:
                assert_matches_record(actual, json.loads(path.read_text(encoding="utf-8")))
                continue
            except AssertionError:
                pass
        path.write_text(json.dumps(actual, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
