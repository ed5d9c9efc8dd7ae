"""Write the CLI golden outputs that ``test_scenario_cli.py`` compares against.

Run from the repository root after a change that is meant to alter CLI
output, and commit the rewritten files with that change::

    PYTHONPATH=src python tests/_golden.py

Each file in tests/golden/ records one command on one shipped scenario:
its arguments (scenario path relative to the repository root), exit code,
the CSV it wrote and what it printed on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
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


if __name__ == "__main__":
    for name, argv in cases():
        (GOLDEN / name).write_text(json.dumps(run(argv), indent=1) + "\n", encoding="utf-8")
