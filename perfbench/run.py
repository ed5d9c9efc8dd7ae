"""Benchmark of robust_fusion on four seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0

One client in one fresh process issues the workload's fixed job list back
to back (a closed loop), round(--seconds / pass_s) times, where pass_s is
the workload's nominal pass time; the pass count never depends on the
machine's speed, so the operation count repeats exactly. Times are
reported at a reference machine speed (see speed.py). The package is
imported from ``src/`` of this checkout.
Every output is checked by ``oracle.py``, which shares no code with the
package. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones from span
tracing, and the spans go to ``.perfbench_out/``. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
SAME_AS_FIRST = "same as pass 1"


def import_package():
    """robust_fusion from this checkout's src/, never from anywhere else."""
    if not (SRC / "robust_fusion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robust_fusion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import robust_fusion
    import robust_fusion.cli  # noqa: F401  (the package does not import its CLI)

    if Path(robust_fusion.__file__).resolve().parent != SRC / "robust_fusion":
        raise SystemExit(f"perfbench: imported robust_fusion from {robust_fusion.__file__}")
    return robust_fusion


def setup(workload: str, seed: int):
    """Import, scenario generation and warm-up: everything before the first job."""
    rf = import_package()
    import workloads

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=TMP_ROOT))
    try:
        wl = workloads.WORKLOADS[workload](rf, seed, workdir)
        workloads.warm_up(rf, workdir)
    except BaseException:
        cleanup(workdir)
        raise
    return rf, wl, workdir


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass  # another run still has files there


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, scaled) wall time of SETUP_PROBES fresh interpreters doing only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
        with speed.SpeedSampler() as sampler:
            t0 = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
            seconds = perf_counter() - t0
        times.append((seconds, sampler.scale(seconds)))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return times


def environment(threads_env: str | None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "ROBUST_FUSION_THREADS": "unset" if threads_env is None else threads_env,
    }


def run_pass(jobs, tracer=None):
    """Run the job list once; returns (seconds inside jobs, the same scaled, outcomes)."""
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    seconds = 0.0
    outcomes = []
    try:
        with speed.SpeedSampler() as sampler:
            for job in jobs:
                t0 = perf_counter()
                outcomes.append(job.run())
                seconds += perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, sampler.scale(seconds), outcomes


def judge(jobs, passes: list[list]) -> tuple[list[tuple[int, str, str, str]], int]:
    """Failed operations as (pass, job, kind, reason), and the unexplained wrong count.

    kind is "refused", "wrong" or "known-wrong" (a wrong output on an input
    that shows a defect the benchmark lists, see workloads.KNOWN_DEFECTS).
    The first pass is checked against the oracle; every later pass must
    repeat the first pass's outputs exactly.
    """
    failures = []
    first = passes[0]
    first_kind = {}
    for job, outcome in zip(jobs, first):
        if outcome.refused:
            first_kind[job.name] = "refused"
            failures.append((1, job.name, "refused", outcome.refused))
            continue
        try:
            problems = job.check(outcome)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            known = job.known_defect(problems)
            kind = "known-wrong" if known else "wrong"
            reason = "; ".join(problems) + (f" [known defect: {known}]" if known else "")
            first_kind[job.name] = kind
            failures.append((1, job.name, kind, reason))
    for n, outcomes in enumerate(passes[1:], start=2):
        for job, a, b in zip(jobs, first, outcomes):
            if a.text != b.text:
                failures.append((n, job.name, "wrong", f"output differs from pass 1: {b.refused or b.text[:200]!r}"))
            elif job.name in first_kind:
                failures.append((n, job.name, first_kind[job.name], SAME_AS_FIRST))
    wrong = sum(1 for f in failures if f[2] == "wrong")
    return failures, wrong


# (metric, unit, source): source is ("span", function, calls|s|self_s) or a counter
PER_LAYER = [
    ("fusion.exact_error.calls", "count", ("span", "fusion.exact_error", "calls")),
    ("fusion.exact_error.s", "s", ("span", "fusion.exact_error", "s")),
    ("fusion.exact_error.self_s", "s", ("span", "fusion.exact_error", "self_s")),
    ("fusion.exact_error.enum_points", "count", ("count", "fusion.exact_error.enum_points")),
    ("fusion.exact_error.cross_check_skipped", "count", ("count", "fusion.exact_error.cross_check_skipped")),
    ("fusion.saddle_verify.s", "s", ("span", "fusion.saddle_verify", "s")),
    ("fusion.saddle_verify.self_s", "s", ("span", "fusion.saddle_verify", "self_s")),
    ("fusion.saddle_verify.combos", "count", ("count", "fusion.saddle_verify.combos")),
    ("fusion.saddle_verify.coverage", "ratio", ("ratio", "fusion.saddle_verify.combos", "fusion.saddle_verify.grid")),
    ("fusion.optimize_thresholds.s", "s", ("span", "fusion.optimize_thresholds", "s")),
    ("fusion.optimize_thresholds.self_s", "s", ("span", "fusion.optimize_thresholds", "self_s")),
    ("fusion.best_fusion_threshold.calls", "count", ("span", "fusion.best_fusion_threshold", "calls")),
    ("fusion.best_fusion_threshold.s", "s", ("span", "fusion.best_fusion_threshold", "s")),
    ("fusion.k_sweep.s", "s", ("span", "fusion.k_sweep", "s")),
    ("ordering.convolve.calls", "count", ("span", "ordering.convolve", "calls")),
    ("ordering.convolve.s", "s", ("span", "ordering.convolve", "s")),
    ("ordering.convolve.atoms_in", "count", ("count", "ordering.convolve.atoms_in")),
    ("ordering.convolve.atoms_out", "count", ("count", "ordering.convolve.atoms_out")),
    ("ordering.convolve.atoms_out_max", "count", ("max", "ordering.convolve.atoms_out_max")),
    ("ordering.convolve.merge_ratio", "ratio", ("ratio", "ordering.convolve.atoms_out", "ordering.convolve.atoms_in")),
    ("ordering.atoms_stochastically_larger.calls", "count", ("span", "ordering.atoms_stochastically_larger", "calls")),
    ("ordering.atoms_stochastically_larger.s", "s", ("span", "ordering.atoms_stochastically_larger", "s")),
    ("sensor.channel_from_quantizer.calls", "count", ("span", "sensor.channel_from_quantizer", "calls")),
    ("sensor.channel_from_quantizer.s", "s", ("span", "sensor.channel_from_quantizer", "s")),
    ("sensor.channel_from_quantizer.repeat_share", "ratio", ("repeat", "sensor.channel_from_quantizer")),
    ("sensor.level_boundaries.calls", "count", ("span", "sensor.level_boundaries", "calls")),
    ("sensor.level_boundaries.s", "s", ("span", "sensor.level_boundaries", "s")),
    ("sensor.member_channel.calls", "count", ("span", "sensor.member_channel", "calls")),
    ("sensor.member_channel.s", "s", ("span", "sensor.member_channel", "s")),
    ("sensor.default_quantizer.s", "s", ("span", "sensor.default_quantizer", "s")),
    ("roots.leftmost_true.calls", "count", ("span", "roots.leftmost_true", "calls")),
    ("roots.leftmost_true.s", "s", ("span", "roots.leftmost_true", "s")),
    ("lfd.joint_boundedness_check.calls", "count", ("span", "lfd.joint_boundedness_check", "calls")),
    ("lfd.joint_boundedness_check.s", "s", ("span", "lfd.joint_boundedness_check", "s")),
    ("lfd.gaussian_band_lfd.s", "s", ("span", "lfd.gaussian_band_lfd", "s")),
    ("lfd.kl_dabak_lfd.s", "s", ("span", "lfd.kl_dabak_lfd", "s")),
    ("lfd.huber_clipped_lfd.s", "s", ("span", "lfd.huber_clipped_lfd", "s")),
    ("scenario.load_scenario.s", "s", ("span", "scenario.load_scenario", "s")),
    ("scenario.build_sensors.s", "s", ("span", "scenario.build_sensors", "s")),
    ("cli.main.calls", "count", ("span", "cli.main", "calls")),
    ("cli.main.self_s", "s", ("span", "cli.main", "self_s")),
]


def layer_metrics(tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-pass values of every PER_LAYER metric plus the tracing overhead."""
    n = len(traced)
    totals = tracer.layer_totals()
    counts = tracer.counts
    column = {"calls": 0, "s": 1, "self_s": 2}
    out = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = totals.get(source[1], (0, 0.0, 0.0))[column[source[2]]] / n
        elif kind == "count":
            value = counts.get(source[1], 0) / n
        elif kind == "max":
            value = counts.get(source[1], 0)
        elif kind == "ratio":
            den = counts.get(source[2], 0)
            value = counts.get(source[1], 0) / den if den else 0.0
        else:  # repeat share of a function's calls
            calls = totals.get(source[1], (0, 0.0, 0.0))[0]
            value = counts.get(f"{source[1]}.repeats", 0) / calls if calls else 0.0
        out[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(traced)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - statistics.median(untraced), "unit": "s"}
    out["trace.spans"] = {"value": len(tracer.span_start) / n, "unit": "count"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "scale", "certify", "design"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import, generate and warm up (used to time set-up)")
    args = parser.parse_args(argv)

    threads_env = os.environ.get("ROBUST_FUSION_THREADS")
    os.environ["ROBUST_FUSION_THREADS"] = "1"  # one client, one worker

    if args.setup_probe:
        _, _, workdir = setup(args.workload, args.seed)
        cleanup(workdir)
        return 0

    import_package()  # fail fast, before any probe, when the sources are missing
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    rf, wl, workdir = setup(args.workload, args.seed)
    try:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer(rf)
        n_passes = max(1, round(args.seconds / wl.pass_s))
        if tracer is not None:
            n_passes = max(2, n_passes)  # at least one untraced and one traced pass
        passes = []  # (seconds, scaled seconds, outcomes, traced)
        for n in range(n_passes):
            traced = tracer is not None and n % 2 == 1
            passes.append((*run_pass(wl.jobs, tracer if traced else None), traced))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, wrong = judge(wl.jobs, [o for _, _, o, _ in passes])
    finally:
        cleanup(workdir)

    untraced = [scaled for _, scaled, _, t in passes if not t]
    traced_walls = [scaled for _, scaled, _, t in passes if t]
    attempted = len(wl.jobs) * len(passes)
    first_failed = sum(1 for f in failures if f[0] == 1)
    env = environment(threads_env)

    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print(f"jobs per pass {len(wl.jobs)}, passes {len(passes)}, "
          f"pass seconds {[round(s, 4) for s, _, _, _ in passes]}, "
          f"at reference speed {[round(s, 4) for _, s, _, _ in passes]}")
    if setup_times:
        print(f"setup seconds {[round(s, 4) for s, _ in setup_times]}, "
              f"at reference speed {[round(s, 4) for _, s in setup_times]}")
    print("environment " + json.dumps(env))
    for n, name, kind, reason in failures:
        if reason != SAME_AS_FIRST:
            print(f"failed pass {n} {name} {kind}: {reason}")
    repeats = sum(1 for f in failures if f[3] == SAME_AS_FIRST)
    if repeats:
        print(f"failed in later passes: {repeats} repeats of the pass 1 failures")

    if args.trace:
        metrics = layer_metrics(tracer, traced_walls, untraced)
        OUT_ROOT.mkdir(exist_ok=True)
        stem = OUT_ROOT / f"trace-{wl.name}-seed{args.seed}"
        tracer.save(stem, {"environment": env, "metrics": metrics})
        print(f"spans written to {stem}.npz and {stem}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"failed_share {first_failed / len(wl.jobs)!r} (failed {first_failed} of {len(wl.jobs)} jobs per pass)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
