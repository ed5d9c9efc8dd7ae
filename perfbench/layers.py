"""Which workload each per-layer metric is largest on, against the expected one.

Usage, from the repository root:

    python3 perfbench/layers.py --seed 1 --seconds 20

Runs ``run.py --trace 1`` once per workload, one after another, and prints
one row per per-layer metric: its per-pass value on every workload, the
workload where it is largest, and the workload the benchmark expects it to
move (EXPECTED). Rows where the two differ are marked MISMATCH; they are
reported, not hidden.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("evaluate", "scale", "certify", "design")

# layer metric prefix -> workload whose wall_s it should move
EXPECTED = {
    "fusion.exact_error.": "evaluate",
    "fusion.saddle_verify.": "certify",
    "fusion.optimize_thresholds.": "design",
    "fusion.best_fusion_threshold.": "design",
    "fusion.k_sweep.": "scale",
    "ordering.convolve.": "scale",
    "ordering.atoms_stochastically_larger.": "certify",
    "sensor.channel_from_quantizer.": "design",
    "sensor.level_boundaries.": "design",
    "sensor.member_channel.": "certify",
    "sensor.default_quantizer.": "evaluate",
    "roots.leftmost_true.": "design",
    "lfd.joint_boundedness_check.": "certify",
    "lfd.gaussian_band_lfd.": "evaluate",
    "lfd.kl_dabak_lfd.": "evaluate",
    "lfd.huber_clipped_lfd.": "evaluate",
    "scenario.": "evaluate",
    "cli.main.": "evaluate",
}


def expected(metric: str) -> str | None:
    return next((w for p, w in EXPECTED.items() if metric.startswith(p)), None)


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    results = {w: traced_metrics(w, args.seed, args.seconds) for w in WORKLOADS}
    header = ["metric", *WORKLOADS, "largest", "expected", ""]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for metric in results[WORKLOADS[0]]:
        want = expected(metric)
        values = {w: results[w][metric]["value"] for w in WORKLOADS}
        largest = max(WORKLOADS, key=values.get) if any(values.values()) else "-"
        mark = "" if want is None or largest == want else "MISMATCH"
        cells = [f"{values[w]:.4g}" for w in WORKLOADS]
        print(f"| {metric} | " + " | ".join(cells) + f" | {largest} | {want or '-'} | {mark} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
