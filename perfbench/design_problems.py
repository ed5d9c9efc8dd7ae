"""The fixed problems of the design workload, and how they were chosen.

    python3 perfbench/design_problems.py    # rewrites design_problems.json

Draws a pool of (band, band) problems with D=(1,1) and (band,
contamination) problems with D=(2,1) from a fixed seed, and runs
``optimize_thresholds`` (default arguments) on each while counting channel
builds. It keeps, per shape, the KEEP problems whose build count is closest
to the shape's median: the optimizer's work varies several-fold between
problems, and picking problems of equal work makes the design workload's
wall time independent of the workload seed. The p_error recorded for each
problem is the value the optimizer returned when the file was written; the
benchmark fails a later design that is worse by more than 1e-9. Takes
about five minutes on one core.
"""

from __future__ import annotations

import json
import statistics
import sys
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PATH = HERE / "design_problems.json"
POOL_SEED = 20261017
POOL_SIZE = 30
KEEP = 8
SHAPES = {
    "band-band": ([("gaussian-band", 2), ("gaussian-band", 2)], [1, 1]),
    "band-contamination": ([("gaussian-band", 3), ("eps-contamination", 2)], [2, 1]),
}


def load() -> dict[str, list[dict]]:
    """Problems per shape: {"band-band": [{"id", "sensors", "num_levels", "p_error"}, ...], ...}."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import robust_fusion.scenario as scenario
    from robust_fusion import fusion

    import workloads

    builds = 0
    original = fusion.channel_from_quantizer

    def counting(*args, **kwargs):
        nonlocal builds
        builds += 1
        return original(*args, **kwargs)

    fusion.channel_from_quantizer = counting
    rng = np.random.default_rng(POOL_SEED)
    chosen = {}
    for shape, (kinds, num_levels) in SHAPES.items():
        pool = []
        for i in range(POOL_SIZE):
            sensors = [workloads.draw_sensor(rng, kind, levels, "default") for kind, levels in kinds]
            pairs = [scenario.build_lfd_pair(s, j) for j, s in enumerate(sensors)]
            builds = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = fusion.optimize_thresholds(pairs, num_levels, workloads.PRIOR0)
            pool.append({
                "id": f"{shape}-{i}",
                "sensors": sensors,
                "num_levels": num_levels,
                "p_error": result.report.p_error,
                "channel_builds": builds,
            })
            print(shape, i, builds, result.report.p_error, flush=True)
        median = statistics.median(p["channel_builds"] for p in pool)
        pool.sort(key=lambda p: (abs(p["channel_builds"] - median), p["id"]))
        chosen[shape] = pool[:KEEP]
    PATH.write_text(json.dumps(chosen, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
