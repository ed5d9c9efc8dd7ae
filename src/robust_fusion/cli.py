"""Command-line front end.

Subcommands::

    robust-fusion lfd      --scenario s.json [--out x.csv]
    robust-fusion evaluate --scenario s.json [--out x.csv] [--mc-samples N] [--seed S]
    robust-fusion saddle   --scenario s.json [--out x.csv] [--members N]
    robust-fusion sweep    --scenario s.json --k-list 1,3,5 [--out x.csv]

Data goes to the CSV (or stdout when --out is omitted); diagnostics go to
stderr. ``--seed`` overrides the scenario's seed for the Monte Carlo row of
``evaluate``, the only randomized output. Exit codes: 0 success, 2
domain/validation error, 3 IO error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from contextlib import nullcontext
from typing import Sequence

from . import fusion
from .scenario import Scenario, build_sensors, certify, load_scenario

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3

EVAL_COLUMNS = (
    "scenario_id",
    "K",
    "method",
    "p_false_alarm",
    "p_miss",
    "p_error",
    "ci_halfwidth",
    "seed",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _write_rows(path: str | None, header: Sequence[str], rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _report_row(scenario: Scenario, k: int, report: fusion.ErrorReport):
    return (
        scenario.scenario_id,
        k,
        report.method,
        report.p_false_alarm,
        report.p_miss,
        report.p_error,
        report.ci_halfwidth,
        report.seed,
    )


def _cmd_lfd(args) -> int:
    scenario = load_scenario(args.scenario)
    built = build_sensors(scenario)
    rows = []
    for b in built:
        if b.pair is None:
            rows.append((scenario.scenario_id, b.index, b.kind, "", "", ""))
            continue
        meta, q0, q1 = b.pair.meta, b.pair.q0, b.pair.q1
        if b.kind == "gaussian-band":
            params = f"q0_mean={_fmt(q0.mean)};q1_mean={_fmt(q1.mean)};sigma={_fmt(q0.sigma)}"
        elif b.kind == "kl-ball":
            params = (
                f"u={_fmt(meta['u'])};v={_fmt(meta['v'])};"
                f"q0_mean={_fmt(q0.mean)};q1_mean={_fmt(q1.mean)}"
            )
        else:
            params = f"c_lo={_fmt(meta['c_lo'])};c_hi={_fmt(meta['c_hi'])}"
        # each law's total mass, |Q_j(+inf) - 1|, from its closed-form cdf
        r0, r1 = (abs(law.cdf(math.inf) - 1.0) for law in (q0, q1))
        rows.append((scenario.scenario_id, b.index, b.kind, params, r0, r1))
    _write_rows(
        args.out,
        ("scenario_id", "sensor", "kind", "params", "q0_norm_residual", "q1_norm_residual"),
        rows,
    )
    return EXIT_OK


def _build_network(scenario: Scenario):
    built = build_sensors(scenario)
    channels = tuple(b.channel for b in built)
    return built, fusion.NetworkModel(channels, scenario.prior0, scenario.log_threshold)


def _cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    built, net = _build_network(scenario)
    rows = [_report_row(scenario, net.num_sensors, fusion.exact_error(net))]
    if args.mc_samples:
        seed = args.seed if args.seed is not None else scenario.seed
        mc = fusion.monte_carlo(net, args.mc_samples, seed)
        rows.append(_report_row(scenario, net.num_sensors, mc))
    _write_rows(args.out, EVAL_COLUMNS, rows)
    return EXIT_OK


def _cmd_saddle(args) -> int:
    scenario = load_scenario(args.scenario)
    cert = certify(*_build_network(scenario), args.members)
    sid, saddle = scenario.scenario_id, cert.saddle
    rows = [(sid, "boundedness", i, "", r.holds, r.worst_violation) for i, r in cert.boundedness]
    combo = ";".join(str(i) for i in saddle.worst_combo)
    rows.append((sid, "saddle", saddle.worst_side, combo, saddle.holds, saddle.worst_gap))
    verdict, failed = "HOLDS", [(i, r.witness) for i, r in cert.boundedness if not r.holds]
    if failed:  # the first failed boundedness check's witness, else the saddle gap
        i, w = failed[0]
        verdict = f"VIOLATED sensor={i} side={w.side} member={w.member!r} "
        verdict += f"t={_fmt(w.t)} gap={_fmt(w.gap)}"
    elif not saddle.holds:
        gap = _fmt(saddle.worst_gap)
        verdict = f"VIOLATED side={saddle.worst_side} combo={saddle.worst_combo} gap={gap}"
    _write_rows(args.out, ("scenario_id", "check", "subject", "combo", "holds", "worst_gap"), rows)
    print(verdict)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    built, net = _build_network(scenario)
    if len(built) != 1:
        raise ValueError("sweep expects a single-sensor template scenario")
    ks = [int(k) for k in args.k_list.split(",") if k.strip()]
    if not ks:
        raise ValueError("k-list is empty")
    results = fusion.k_sweep(
        built[0].channel, ks, scenario.prior0, scenario.log_threshold
    )
    rows = [_report_row(scenario, k, report) for k, report in results]
    _write_rows(args.out, EVAL_COLUMNS, rows)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing never mutates it)."""
    parser = argparse.ArgumentParser(
        prog="robust-fusion",
        description="Design and verify robust parallel-network detection rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p_lfd = sub.add_parser("lfd", help="construct LFDs and report parameters")
    common(p_lfd)
    p_eval = sub.add_parser("evaluate", help="exact (and optional Monte Carlo) errors")
    common(p_eval)
    p_eval.add_argument(
        "--mc-samples", type=int, default=0, help="add a Monte Carlo row with n samples"
    )
    p_eval.add_argument(
        "--seed", type=int, default=None, help="Monte Carlo seed (default: the scenario's)"
    )
    p_saddle = sub.add_parser("saddle", help="boundedness and saddle verification")
    common(p_saddle)
    p_saddle.add_argument(
        "--members",
        type=int,
        default=11,
        help="probes per KL-ball class per sensor in the saddle pass (boundedness "
        "covers every class whole; band and contamination sensors have no probes)",
    )
    p_sweep = sub.add_parser("sweep", help="exact P_E versus sensor count")
    common(p_sweep)
    p_sweep.add_argument(
        "--k-list", required=True, help="comma-separated sensor counts"
    )
    return parser


_COMMANDS = {
    "lfd": _cmd_lfd,
    "evaluate": _cmd_evaluate,
    "saddle": _cmd_saddle,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
