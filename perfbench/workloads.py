"""Seeded workloads: scenario generation, jobs and their independent checks.

Each workload is a fixed list of jobs built from the seed. The seed draws
the continuous parameters, the sensor kinds and the quantizer style; the
network shapes (sensor counts and level counts), which set the cost of a
job, are fixed per workload so that runs on different seeds do the same
amount of work. The program sees only the generated scenario files (CLI
jobs) or scenario sensor objects (design jobs). Thresholds are drawn
inside each pair's likelihood-ratio range, so no job is refused for
invalid input.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import design_problems
import oracle

KINDS = ("gaussian-band", "eps-contamination", "kl-ball", "explicit-pmf")
PRIOR0 = 0.5
TAU = math.log(PRIOR0 / (1.0 - PRIOR0))
MASS_TOL = 1e-10
MASS_PROBLEM = "channel mass off by"
PROB_TOL = 1e-10


# -- sensor specs -------------------------------------------------------------


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _explicit_thresholds(rng, pair: oracle.Pair, count: int) -> list[float]:
    """Sorted LR thresholds, one inside each of ``count`` equal sub-intervals."""
    edges = np.linspace(pair.plot_lo, pair.plot_hi, count + 1)
    ys = [_u(rng, a + 0.2 * (b - a), b - 0.2 * (b - a)) for a, b in zip(edges, edges[1:])]
    return [math.exp(pair.log_lr(y)) for y in ys]


def _with_quantizer(rng, spec: dict, levels: int, style: str) -> dict:
    if style == "default":
        spec["quantizer"] = {"num_thresholds": levels - 1}
    else:
        pair = oracle.PAIR_BUILDERS[spec["kind"]](spec)
        spec["quantizer"] = {"thresholds": _explicit_thresholds(rng, pair, levels - 1)}
    return spec


def draw_sensor(rng, kind: str, levels: int, style: str) -> dict:
    """One sensor spec of the given kind and level count."""
    sigma = _u(rng, 0.7, 1.4)
    center = _u(rng, -0.5, 0.5)
    if kind == "explicit-pmf":
        pmf0 = rng.dirichlet([3.0] * levels)
        llr = np.cumsum(rng.uniform(0.3, 1.2, levels))
        pmf1 = pmf0 * np.exp(llr - llr.mean())
        pmf1 /= pmf1.sum()
        return {
            "kind": kind,
            "levels": list(range(levels)),
            "pmf0": [float(p) for p in pmf0],
            "pmf1": [float(p) for p in pmf1],
        }
    if kind == "gaussian-band":
        gap = _u(rng, 0.6, 1.6) * sigma
        hi0, lo1 = center - 0.5 * gap, center + 0.5 * gap
        spec = {
            "kind": kind,
            "band0": {"mu_lo": hi0 - _u(rng, 0.2, 1.0) * sigma, "mu_hi": hi0},
            "band1": {"mu_lo": lo1, "mu_hi": lo1 + _u(rng, 0.2, 1.0) * sigma},
            "sigma": sigma,
        }
    else:
        gap = _u(rng, 0.8, 2.0) * sigma
        radius = (0.01, 0.08) if kind == "eps-contamination" else (0.005, 0.04)
        spec = {
            "kind": kind,
            "nominal0": {"mean": center - 0.5 * gap, "sigma": sigma},
            "nominal1": {"mean": center + 0.5 * gap, "sigma": sigma},
            "eps0": _u(rng, *radius),
            "eps1": _u(rng, *radius),
        }
    return _with_quantizer(rng, spec, levels, style)


def draw_network(rng, levels: list[int], homogeneous: bool, kinds=KINDS) -> list[dict]:
    """Sensor specs for one network; a homogeneous one repeats a single spec."""
    def one(n_levels):
        kind = kinds[int(rng.integers(len(kinds)))]
        style = "default" if rng.random() < 0.5 else "explicit"
        return draw_sensor(rng, kind, n_levels, style)

    if homogeneous:
        spec = one(levels[0])
        return [json.loads(json.dumps(spec)) for _ in levels]
    return [one(n) for n in levels]


def scenario_doc(scenario_id: str, sensors: list[dict], seed: int) -> dict:
    return {
        "scenario_id": scenario_id,
        "prior0": PRIOR0,
        "log_threshold": None,
        "grid_points": 2001,
        "seed": seed,
        "sensors": sensors,
    }


# -- jobs ---------------------------------------------------------------------


@dataclass
class Outcome:
    """What one job returned, reduced to text that later passes must repeat."""

    refused: str | None  # reason, when the job exited non-zero or raised
    text: str  # exit code, captured stdout and CSV, or the design result
    value: object = None  # parsed payload for the check


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]  # the timed call
    check: Callable[[Outcome], list[str]]  # problems with a completed outcome
    # the listed defect that explains a failed check's problems, if any
    known_defect: Callable[[list[str]], str | None] = lambda problems: None


@dataclass
class Workload:
    name: str
    why: str
    # nominal seconds of one untraced pass; a run makes round(--seconds /
    # pass_s) passes, so the operation count never depends on machine speed
    pass_s: float
    jobs: list[Job] = field(default_factory=list)


# Defects of the library that some generated inputs show. A wrong output on
# such an input counts as a failed operation with the defect as its reason;
# any other wrong output makes the run incorrect.
KNOWN_DEFECTS = {
    "flat-threshold": (
        "a threshold sits on a flat stretch of a clipped log-LR (the default "
        "quantizer can put one there), and which level the stretch falls in "
        "then depends on exp/log rounding in level_boundaries"
    ),
}


def flat_threshold_defect(doc: dict, problems: list[str]) -> str | None:
    """KNOWN_DEFECTS["flat-threshold"] when it explains every problem found.

    It does when some sensor has a threshold on a flat stretch and every
    channel-mass mismatch is on such a sensor (wrong fusion probabilities
    then follow from the wrong channel). Without a mass mismatch on a
    flagged sensor, the problems stay unexplained.
    """
    flat = set()
    for i, spec in enumerate(doc["sensors"]):
        if spec["kind"] == "eps-contamination":
            _, pair, log_t = oracle.sensor_channel(spec)
            if any(pair.on_flat_stretch(lt) for lt in log_t):
                flat.add(i)
    mass = [int(p.split()[1]) for p in problems if MASS_PROBLEM in p]
    if mass and set(mass) <= flat:
        return f"sensors {sorted(flat)}: {KNOWN_DEFECTS['flat-threshold']}"
    return None


def cli_job(rf, name: str, doc: dict, workdir: Path, argv: list[str], check) -> Job:
    """A job that calls ``cli.main`` in-process on a generated scenario file."""
    path = workdir / f"{name}.json"
    out = workdir / f"{name}.csv"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    full = [argv[0], "--scenario", str(path), "--out", str(out), *argv[1:]]

    def run() -> Outcome:
        if out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = rf.cli.main(full)
        except Exception as exc:  # a crash is a refused job, never an abort
            return Outcome(f"exception {type(exc).__name__}: {exc}", f"exception {exc!r}")
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        if rc != 0:
            reason = stderr.getvalue().strip().splitlines()
            return Outcome(f"exit {rc}: {reason[-1] if reason else ''}", f"{rc}\n{text}")
        return Outcome(None, f"{rc}\n{stdout.getvalue()}\n{text}", (stdout.getvalue(), text))

    return Job(name, run, lambda o: check(o.value), lambda problems: flat_threshold_defect(doc, problems))


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# -- checks -------------------------------------------------------------------


def check_channels(rf, doc: dict) -> list[str]:
    """Level masses the CLI builds versus erf/erfc at the analytic boundaries.

    The channels are the ones ``cli evaluate`` builds (via
    ``scenario.build_sensors``); the reference recomputes each level's
    mass at y = mid + (log t - offset) / slope for the CLI's thresholds t.
    """
    problems = []
    built = rf.scenario.build_sensors(rf.scenario.Scenario.from_dict(doc))
    for b, spec in zip(built, doc["sensors"]):
        if spec["kind"] == "explicit-pmf":
            continue
        pair = oracle.PAIR_BUILDERS[spec["kind"]](spec)
        log_t = [math.log(t) for t in b.quantizer.thresholds]
        m0, m1 = oracle.channel_masses(pair, log_t)
        got0, got1 = b.channel.pmf0.probs, b.channel.pmf1.probs
        if got0.shape != m0.shape:
            problems.append(f"sensor {b.index}: {len(got0)} levels, expected {len(m0)}")
            continue
        err = max(np.max(np.abs(got0 - m0)), np.max(np.abs(got1 - m1)))
        if err > MASS_TOL:
            problems.append(f"sensor {b.index} ({spec['kind']}): {MASS_PROBLEM} {err:.3e}")
        if "num_thresholds" in spec["quantizer"]:
            ref = oracle.default_log_thresholds(pair, spec["quantizer"]["num_thresholds"])
            off = max(abs(a - r) for a, r in zip(log_t, ref))
            if off > 1e-8:
                problems.append(f"sensor {b.index}: default threshold off by {off:.3e}")
    return problems


def _check_eval_row(row: dict, doc: dict, k: int, brackets) -> list[str]:
    problems = []
    if row["scenario_id"] != doc["scenario_id"] or int(row["K"]) != k:
        problems.append(f"row identifies {row['scenario_id']} K={row['K']}")
    if row["method"] != "exact-convolution":
        problems.append(f"method {row['method']}")
    for col, br in zip(("p_false_alarm", "p_miss", "p_error"), brackets):
        value = float(row[col])
        if not oracle.in_bracket(value, br, PROB_TOL):
            problems.append(f"K={k} {col}={value!r} outside [{br[0]!r}, {br[1]!r}]")
    return problems


def check_evaluate(rf, doc: dict, method) -> Callable:
    def check(value) -> list[str]:
        _, text = value
        rows = _rows(text)
        if len(rows) != 1:
            return [f"expected 1 CSV row, got {len(rows)}"]
        channels = [oracle.sensor_channel(s)[0] for s in doc["sensors"]]
        brackets = oracle.error_bracket(channels, TAU, PRIOR0, method)
        problems = _check_eval_row(rows[0], doc, len(channels), brackets)
        return problems + check_channels(rf, doc)

    return check


def check_sweep(doc: dict, ks: list[int]) -> Callable:
    def check(value) -> list[str]:
        _, text = value
        rows = _rows(text)
        if [int(r["K"]) for r in rows] != ks:
            return [f"sweep rows for K={[r['K'] for r in rows]}, expected {ks}"]
        channel = oracle.sensor_channel(doc["sensors"][0])[0]
        problems = []
        for row, k in zip(rows, ks):
            f = oracle.bracket_identical(channel, k, 0, TAU)
            d1 = oracle.bracket_identical(channel, k, 1, TAU)
            m = (1.0 - d1[1], 1.0 - d1[0])
            e = (PRIOR0 * f[0] + (1 - PRIOR0) * m[0], PRIOR0 * f[1] + (1 - PRIOR0) * m[1])
            problems += _check_eval_row(row, doc, k, (f, m, e))
        return problems

    return check


def check_certify(doc: dict) -> Callable:
    """Class theory: KL balls are not jointly bounded, the other classes are."""
    expect_violated = any(s["kind"] == "kl-ball" for s in doc["sensors"])

    def check(value) -> list[str]:
        stdout, text = value
        verdict = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        saddle = [r for r in _rows(text) if r["check"] == "saddle"]
        if expect_violated:
            return [] if verdict.startswith("VIOLATED") else [f"verdict {verdict!r}, expected VIOLATED"]
        problems = [] if verdict == "HOLDS" else [f"verdict {verdict!r}, expected HOLDS"]
        if len(saddle) != 1:
            return problems + [f"{len(saddle)} saddle rows"]
        gap = float(saddle[0]["worst_gap"])
        if saddle[0]["holds"] != "True" or gap < -1e-9:
            problems.append(f"saddle row holds={saddle[0]['holds']} worst_gap={gap!r}")
        return problems

    return check


# -- design -------------------------------------------------------------------


def design_job(rf, problem_id: str, sensors: list[dict], num_levels: list[int], recorded: float) -> Job:
    def run() -> Outcome:
        stderr = io.StringIO()
        try:
            with redirect_stderr(stderr):
                pairs = [rf.scenario.build_lfd_pair(s, i) for i, s in enumerate(sensors)]
                result = rf.fusion.optimize_thresholds(pairs, num_levels, PRIOR0)
        except Exception as exc:  # a crash is a refused job, never an abort
            return Outcome(f"exception {type(exc).__name__}: {exc}", f"exception {exc!r}")
        thresholds = [list(q.thresholds) for q in result.quantizers]
        text = json.dumps([thresholds, result.log_threshold, result.report.p_error])
        return Outcome(None, text, result)

    def check(result) -> list[str]:
        problems = []
        pairs = [oracle.PAIR_BUILDERS[s["kind"]](s) for s in sensors]
        channels = [
            oracle.Channel(*oracle.channel_masses(p, [math.log(t) for t in q.thresholds]))
            for p, q in zip(pairs, result.quantizers)
        ]
        p_e = result.report.p_error
        again = oracle.tie_to_null_error(channels, result.log_threshold, PRIOR0)
        if abs(p_e - again) > PROB_TOL:
            problems.append(f"P_E {p_e!r} but re-evaluation gives {again!r}")
        start = [
            oracle.Channel(*oracle.channel_masses(p, oracle.default_log_thresholds(p, d)))
            for p, d in zip(pairs, num_levels)
        ]
        p_start = oracle.best_threshold_error(start, PRIOR0)
        if p_e > p_start + 1e-12:
            problems.append(f"P_E {p_e!r} above the quantile-start design's {p_start!r}")
        if p_e > recorded + 1e-9:
            problems.append(f"P_E {p_e!r} above the recorded {recorded!r}")
        return problems

    return Job(problem_id, run, lambda o: check(o.value))


# -- the four workloads ---------------------------------------------------------

# (K, levels per sensor, homogeneous). Joint level spaces stay at or below
# 4**9, under the library's 1e6 enumeration limit, so every job cross-checks.
EVALUATE_SHAPES = [
    (2, [2, 2], True), (2, [4, 3], False), (2, [3, 3], True),
    (3, [3, 3, 3], True), (3, [2, 3, 4], False), (3, [4, 4, 4], False),
    (4, [4] * 4, True), (4, [2, 3, 4, 3], False), (4, [2] * 4, True),
    (5, [3] * 5, True), (5, [4, 2, 4, 2, 4], False), (5, [2, 3, 2, 3, 2], False),
    (6, [3] * 6, True), (6, [4] * 6, False), (6, [2] * 6, True),
    (7, [4] * 7, False), (7, [3] * 7, True), (7, [2] * 7, True),
    (8, [4] * 8, True), (8, [3] * 8, False), (8, [2] * 8, True),
    (9, [4] * 9, False), (9, [3] * 9, True), (9, [2, 3, 4] * 3, False),
]


def evaluate_workload(rf, seed: int, workdir: Path) -> Workload:
    wl = Workload(
        "evaluate",
        "the everyday user call: CLI evaluate on small mixed networks, where "
        "the library's Python enumeration cross-check dominates",
        5.5,
    )
    rng = np.random.default_rng([seed, 1])
    for i, (k, levels, homogeneous) in enumerate(EVALUATE_SHAPES):
        name = f"eval-{i:02d}-k{k}-{'homo' if homogeneous else 'hetero'}"
        doc = scenario_doc(name, draw_network(rng, levels, homogeneous), seed)
        check = check_evaluate(rf, doc, oracle.bracket_enumerate)
        wl.jobs.append(cli_job(rf, name, doc, workdir, ["evaluate"], check))
    return wl


SCALE_SIZES = (10, 11, 10)
BINARY_KS = list(range(1, 200, 10)) + [200]
BAND_KS = list(range(2, 41, 2))


def scale_workload(rf, seed: int, workdir: Path) -> Workload:
    wl = Workload(
        "scale",
        "pure convolution past the enumeration limit (K=10-11 heterogeneous "
        "4-level networks) and long sensor-count sweeps: atom growth and memory",
        4.0,
    )
    rng = np.random.default_rng([seed, 2])
    for i, k in enumerate(SCALE_SIZES):
        name = f"scale-{i}-k{k}"
        doc = scenario_doc(name, draw_network(rng, [4] * k, False), seed)
        check = check_evaluate(rf, doc, oracle.bracket_mitm)
        wl.jobs.append(cli_job(rf, name, doc, workdir, ["evaluate"], check))
    a = _u(rng, 0.1, 0.35)
    binary = {"kind": "explicit-pmf", "levels": [0, 1], "pmf0": [1.0 - a, a], "pmf1": [a, 1.0 - a]}
    style = "default" if rng.random() < 0.5 else "explicit"
    band = draw_sensor(rng, "gaussian-band", 4, style)
    for name, sensor, ks in (("sweep-binary", binary, BINARY_KS), ("sweep-band4", band, BAND_KS)):
        doc = scenario_doc(name, [sensor], seed)
        k_list = ",".join(str(k) for k in ks)
        wl.jobs.append(
            cli_job(rf, name, doc, workdir, ["sweep", "--k-list", k_list], check_sweep(doc, ks))
        )
    return wl


# (name, [(kind, levels), ...]); every job runs `saddle --members 11`
CERTIFY_SHAPES = [
    ("band-k3", [("gaussian-band", 2)] * 3),
    ("band-k4", [("gaussian-band", 2)] * 4),  # 11**4 > 1e4: seeded subset
    ("contamination-k2", [("eps-contamination", 3)] * 2),
    ("contamination-k3", [("eps-contamination", 2)] * 3),
    ("kl-k2", [("kl-ball", 2)] * 2),  # full 99**2 grid, VIOLATED
    ("mixed-k3", [("gaussian-band", 3), ("eps-contamination", 2), ("explicit-pmf", 2)]),
]


def certify_workload(rf, seed: int, workdir: Path) -> Workload:
    wl = Workload(
        "certify",
        "saddle verification with 11 members per class: the combo loop with "
        "exact dominance checks plus joint boundedness, little else",
        28.0,
    )
    rng = np.random.default_rng([seed, 3])
    for name, shape in CERTIFY_SHAPES:
        sensors = []
        for kind, levels in shape:
            style = "default" if rng.random() < 0.5 else "explicit"
            sensors.append(draw_sensor(rng, kind, levels, style))
        doc = scenario_doc(name, sensors, seed)
        argv = ["saddle", "--members", "11"]
        wl.jobs.append(cli_job(rf, name, doc, workdir, argv, check_certify(doc)))
    return wl


def design_workload(rf, seed: int, workdir: Path) -> Workload:
    wl = Workload(
        "design",
        "threshold design by optimize_thresholds: repeated channel builds "
        "(level-boundary bisection) and fusion-threshold scans",
        9.0,
    )
    rng = np.random.default_rng([seed, 4])
    # one problem of each shape from the fixed set in design_problems.json
    for problems in design_problems.load().values():
        p = problems[int(rng.integers(len(problems)))]
        wl.jobs.append(design_job(rf, p["id"], p["sensors"], p["num_levels"], p["p_error"]))
    return wl


WORKLOADS = {
    "evaluate": evaluate_workload,
    "scale": scale_workload,
    "certify": certify_workload,
    "design": design_workload,
}


def warm_up(rf, workdir: Path) -> None:
    """One small CLI evaluate, so lazy imports and first-call costs are paid."""
    rng = np.random.default_rng(0)
    doc = scenario_doc("warm-up", draw_network(rng, [2, 2], False, ("gaussian-band",)), 0)
    job = cli_job(rf, "warm-up", doc, workdir, ["evaluate"], lambda v: [])
    outcome = job.run()
    if outcome.refused:
        raise RuntimeError(f"warm-up job refused: {outcome.refused}")
