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
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from . import fusion
from .lfd import joint_boundedness_check
from .scenario import Scenario, build_sensors, load_scenario
from .sensor import randomized_binary_admissible

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
            extra = ""
            if b.channel.levels == (0, 1):
                ok = randomized_binary_admissible(b.channel.pmf0, b.channel.pmf1)
                extra = f"admissible={ok}"
            rows.append((scenario.scenario_id, b.index, b.kind, extra, "", ""))
            continue
        meta = b.pair.meta
        if b.kind == "gaussian-band":
            params = f"q0_mean={_fmt(meta['q0'].mean)};q1_mean={_fmt(meta['q1'].mean)};sigma={_fmt(meta['q0'].sigma)}"
        elif b.kind == "kl-ball":
            params = f"u={_fmt(meta['u'])};v={_fmt(meta['v'])};q0_mean={_fmt(meta['q0'].mean)};q1_mean={_fmt(meta['q1'].mean)}"
        else:
            params = f"c_lo={_fmt(meta['c_lo'])};c_hi={_fmt(meta['c_hi'])}"
        r0, r1 = b.pair.normalization_residuals(scenario.grid_points)
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
    built, net = _build_network(scenario)
    n = args.members
    rows = []
    overall_holds = True
    witness_text = ""

    # each class is probed once; the list feeds boundedness and the saddle
    probes = [(b.members(0, n), b.members(1, n)) for b in built]
    for b, (members0, members1) in zip(built, probes):
        if b.pair is None:
            continue
        # the log-LR's range on the grid, also where it is not monotone
        llr = b.pair.log_lr(b.pair.grid())
        t_grid = np.linspace(float(np.min(llr)), float(np.max(llr)), 101)
        report = joint_boundedness_check(b.pair, members0, members1, t_grid)
        rows.append(
            (
                scenario.scenario_id,
                "boundedness",
                b.index,
                "",
                report.holds,
                report.worst_violation,
            )
        )
        if not report.holds:
            overall_holds = False
            w = report.witness
            if not witness_text:
                witness_text = (
                    f" sensor={b.index} side={w.side} member={w.member!r} "
                    f"t={_fmt(w.t)} gap={_fmt(w.gap)}"
                )

    laws0 = [b.member_laws(0, members0) for b, (members0, _) in zip(built, probes)]
    laws1 = [b.member_laws(1, members1) for b, (_, members1) in zip(built, probes)]
    saddle = fusion.saddle_verify(net, laws0, laws1)
    rows.append(
        (
            scenario.scenario_id,
            "saddle",
            saddle.worst_side,
            ";".join(str(i) for i in saddle.worst_combo),
            saddle.holds,
            saddle.worst_gap,
        )
    )
    if not saddle.holds:
        overall_holds = False
        if not witness_text:
            witness_text = (
                f" side={saddle.worst_side} combo={saddle.worst_combo} "
                f"gap={_fmt(saddle.worst_gap)}"
            )

    _write_rows(
        args.out,
        ("scenario_id", "check", "subject", "combo", "holds", "worst_gap"),
        rows,
    )
    print(("HOLDS" if overall_holds else "VIOLATED" + witness_text))
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
        "--members", type=int, default=11, help="members per class per sensor"
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
