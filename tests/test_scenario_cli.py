"""Scenario round-trip and CLI subcommands, exit codes, CSV format."""

import csv
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robust_fusion import fusion, lfd, sensor
from robust_fusion import scenario as scenario_module
from robust_fusion.cli import main
from robust_fusion.scenario import Scenario, build_sensor, build_sensors, load_scenario

from _golden import GOLDEN, NUMBER, assert_matches_record, cases as golden_cases, run as run_golden
from _oracles import save_scenario
from test_fusion import STRADDLING_PRIOR0, STRADDLING_SENSORS, STRADDLING_TAU

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_band_scenario(tmp_path, sensors=2, thresholds=(1.0,), scenario_id="band"):
    doc = {
        "scenario_id": scenario_id,
        "prior0": 0.5,
        "log_threshold": None,
        "grid_points": 2001,
        "seed": 20260809,
        "sensors": [
            {
                "kind": "gaussian-band",
                "band0": {"mu_lo": -1.0, "mu_hi": 0.0},
                "band1": {"mu_lo": 1.0, "mu_hi": 2.0},
                "sigma": 1.0,
                "quantizer": {"thresholds": list(thresholds)},
            }
            for _ in range(sensors)
        ],
    }
    path = tmp_path / f"{scenario_id}.json"
    path.write_text(json.dumps(doc))
    return path


def make_majority_scenario(tmp_path, sensors=3):
    doc = {
        "scenario_id": "majority",
        "prior0": 0.5,
        "log_threshold": None,
        "grid_points": 2001,
        "seed": 20260809,
        "sensors": [
            {"kind": "explicit-pmf", "levels": [0, 1], "pmf0": [0.8, 0.2], "pmf1": [0.2, 0.8]}
            for _ in range(sensors)
        ],
    }
    path = tmp_path / "majority.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestScenarioRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        src = make_band_scenario(tmp_path)
        first = load_scenario(src)
        out = tmp_path / "rt.json"
        save_scenario(first, out)
        second = load_scenario(out)
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_float_precision_survives(self, tmp_path):
        value = 0.1234567890123456789  # more digits than a double holds
        doc = json.loads((make_band_scenario(tmp_path)).read_text())
        doc["prior0"] = value
        path = tmp_path / "prec.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        out = tmp_path / "prec_rt.json"
        save_scenario(scenario, out)
        assert load_scenario(out).prior0 == scenario.prior0

    @pytest.mark.parametrize("value", [2001, 3, None, 3.9, False, "abc"])
    def test_grid_points_is_accepted_and_ignored(self, tmp_path, value):
        """Older files carry ``grid_points``; any value loads, is not kept,
        and changes no output."""
        doc = json.loads(make_band_scenario(tmp_path).read_text())
        plain = {key: v for key, v in doc.items() if key != "grid_points"}
        scenario = Scenario.from_dict({**doc, "grid_points": value})
        assert scenario == Scenario.from_dict(plain)
        assert "grid_points" not in scenario.to_dict()
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**doc, "grid_points": value}))
        for command in ("lfd", "saddle"):
            assert main([command, "--scenario", str(path), "--out", str(tmp_path / "old.csv")]) == 0
            assert main([command, "--scenario", str(tmp_path / "band.json"), "--out", str(tmp_path / "new.csv")]) == 0
            assert (tmp_path / "old.csv").read_text() == (tmp_path / "new.csv").read_text()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="prior0"):
            Scenario("x", 1.5, ({"kind": "explicit-pmf"},))
        with pytest.raises(ValueError, match="unknown kind"):
            Scenario("x", 0.5, ({"kind": "nope"},))
        with pytest.raises(ValueError, match="missing required key"):
            Scenario.from_dict({"prior0": 0.5})

    def test_shipped_scenarios_parse_and_build(self):
        for name in ("band_pair", "kl_ball", "majority_k3", "composite", "binary_symmetric",
                     "kl_unequal_variance"):
            scenario = load_scenario(SCENARIOS / f"{name}.json")
            built = build_sensors(scenario)
            assert len(built) == len(scenario.sensors)

    def test_mirror_symmetric_kl_ball_has_equal_error_types(self):
        """kl_ball.json is symmetric under y -> 1 - y, so P_F = P_M.

        The KL log-LR is strictly increasing, so its cut needs no allowance
        for flat stretches; any such slack shows up as P_F != P_M.
        """
        scenario = load_scenario(SCENARIOS / "kl_ball.json")
        channels = tuple(b.channel for b in build_sensors(scenario))
        net = fusion.NetworkModel(channels, scenario.prior0, scenario.log_threshold)
        report = fusion.exact_error(net)
        assert abs(report.p_false_alarm - report.p_miss) < 1e-14


class TestCliEvaluate:
    def test_majority_row(self, tmp_path, capsys):
        path = make_majority_scenario(tmp_path)
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == [
            "scenario_id", "K", "method", "p_false_alarm", "p_miss",
            "p_error", "ci_halfwidth", "seed",
        ]
        assert rows[1][0] == "majority"
        assert rows[1][1] == "3"
        assert rows[1][2] == "exact-convolution"
        assert abs(float(rows[1][5]) - 0.104) < 1e-12

    def test_merged_sums_at_the_threshold_exit_0(self, tmp_path, capsys):
        """Three binary sensors whose LLR sums lie within 5e-10 of the
        threshold, on both sides of it: convolution and enumeration agree,
        so evaluate exits 0 with the enumeration's P_F. A merge width of
        1e-9 merged the sums and exited 2 (P_F 0.148054969663675)."""
        doc = {
            "scenario_id": "straddling",
            "prior0": STRADDLING_PRIOR0,
            "log_threshold": STRADDLING_TAU,
            "sensors": [
                {"kind": "explicit-pmf", "levels": [0, 1], "pmf0": list(p0), "pmf1": list(p1)}
                for p0, p1 in STRADDLING_SENSORS
            ],
        }
        path = tmp_path / "straddling.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--scenario", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_csv(out)[1][3] == "0.28723244195487696"

    def test_cross_check_disagreement_exits_2(self, tmp_path, capsys, monkeypatch):
        """A convolution/enumeration disagreement is a domain error: exit 2
        with an error line, no traceback and no CSV row."""
        enumerate_ = fusion._enumerate_decide_one
        monkeypatch.setattr(
            fusion, "_enumerate_decide_one", lambda *a: [p + 1e-9 for p in enumerate_(*a)]
        )
        path = make_majority_scenario(tmp_path)
        assert main(["evaluate", "--scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "error: convolution and enumeration disagree beyond 1e-10" in err
        assert "Traceback" not in err and out == ""

    def test_monte_carlo_row_appended(self, tmp_path):
        path = make_majority_scenario(tmp_path)
        out = tmp_path / "eval.csv"
        assert main([
            "evaluate", "--scenario", str(path), "--out", str(out),
            "--mc-samples", "20000",
        ]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[2][2] == "monte-carlo"
        assert rows[2][7] == "20260809"  # scenario seed recorded
        assert float(rows[2][6]) > 0.0

    def test_mc_rows_reproducible(self, tmp_path):
        path = make_majority_scenario(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main([
                "evaluate", "--scenario", str(path), "--out", str(out),
                "--mc-samples", "20000", "--seed", "5",
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_band_pair_three_default_thresholds_exit_0(self, tmp_path):
        """Tie sums a few ulps either side of the threshold decide 0 on
        both the convolution and the enumeration path, so they agree."""
        doc = json.loads((SCENARIOS / "band_pair.json").read_text())
        for sensor in doc["sensors"]:
            sensor["quantizer"] = {"num_thresholds": 3}
        path = tmp_path / "band3.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--scenario", str(path), "--out", str(out)]) == 0
        assert read_csv(out)[1][2] == "exact-convolution"

    def test_threshold_above_contamination_clip_level_exit_0(self, tmp_path, capsys):
        """An LR threshold above the upper clip level leaves an empty level,
        which is dropped; evaluate and saddle both run."""
        doc = {
            "scenario_id": "contamination-high-threshold",
            "prior0": 0.5,
            "log_threshold": None,
            "grid_points": 2001,
            "seed": 1,
            "sensors": [{
                "kind": "eps-contamination",
                "nominal0": {"mean": -0.5, "sigma": 1.0},
                "nominal1": {"mean": 0.5, "sigma": 1.0},
                "eps0": 0.05, "eps1": 0.05,
                "quantizer": {"thresholds": [1.0, 20.0]},
            }],
        }
        path = tmp_path / "high.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="dropping levels"):
            assert main(["evaluate", "--scenario", str(path), "--out", str(tmp_path / "e.csv")]) == 0
            assert main(["saddle", "--scenario", str(path), "--out", str(tmp_path / "s.csv")]) == 0
        assert read_csv(tmp_path / "e.csv")[1][2] == "exact-convolution"
        assert capsys.readouterr().out.strip() == "HOLDS"

    def test_label_reversed_explicit_sensor_exit_0(self, tmp_path, capsys):
        """An explicit sensor whose levels run in decreasing-LLR order is
        accepted: evaluate and saddle (next to a band sensor) and sweep
        (alone) exit 0 and match the ascending-order twin within 1e-14."""
        band = json.loads(make_band_scenario(tmp_path).read_text())["sensors"][0]
        pmf = [0.1, 0.25, 0.65]

        def outputs(descending: bool):
            explicit = {
                "kind": "explicit-pmf", "levels": [0, 1, 2],
                "pmf0": pmf[::-1] if descending else pmf,
                "pmf1": pmf if descending else pmf[::-1],
            }
            got = []
            for command, sensors, extra in (
                ("evaluate", [explicit, band], []),
                ("saddle", [explicit, band], ["--members", "3"]),
                ("sweep", [explicit], ["--k-list", "1,2,5"]),
            ):
                doc = dict(scenario_id="reversed", prior0=0.45, seed=1, sensors=sensors)
                path = tmp_path / f"{command}.json"
                path.write_text(json.dumps(doc))
                out = tmp_path / f"{command}.csv"
                assert main([command, "--scenario", str(path), "--out", str(out), *extra]) == 0
                got.append((out.read_text(), capsys.readouterr().out))
            return got

        for (csv_desc, out_desc), (csv_asc, out_asc) in zip(outputs(True), outputs(False)):
            assert out_desc == out_asc
            got, want = NUMBER.split(csv_desc), NUMBER.split(csv_asc)
            assert len(got) == len(want)
            for i, (a, e) in enumerate(zip(got, want)):
                assert abs(float(a) - float(e)) <= 1e-14 if i % 2 else a == e

    def test_io_failure_exit_3(self, tmp_path, capsys):
        path = make_majority_scenario(tmp_path)
        code = main([
            "evaluate", "--scenario", str(path),
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ])
        assert code == 3
        assert "io error" in capsys.readouterr().err


class TestCliLfd:
    def test_band_params_reported(self, tmp_path):
        path = make_band_scenario(tmp_path)
        out = tmp_path / "lfd.csv"
        assert main(["lfd", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1][2] == "gaussian-band"
        assert "q0_mean=0.0" in rows[1][3]
        assert "q1_mean=1.0" in rows[1][3]
        assert float(rows[1][4]) < 1e-8

    def test_kl_zero_radius_reports_zero_tilts(self, tmp_path):
        doc = {
            "scenario_id": "kl0",
            "prior0": 0.5,
            "log_threshold": None,
            "grid_points": 2001,
            "seed": 1,
            "sensors": [{
                "kind": "kl-ball",
                "nominal0": {"mean": 0.0, "sigma": 1.0},
                "nominal1": {"mean": 1.0, "sigma": 1.0},
                "eps0": 0.0, "eps1": 0.0,
                "quantizer": {"thresholds": [1.0]},
            }],
        }
        path = tmp_path / "kl0.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "lfd.csv"
        assert main(["lfd", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert "u=0.0" in rows[1][3]
        assert "v=0.0" in rows[1][3]

    def test_overlapping_bands_exit_2_names_sensor(self, tmp_path, capsys):
        doc = json.loads(make_band_scenario(tmp_path).read_text())
        doc["sensors"][1]["band0"]["mu_hi"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["lfd", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "sensor 1" in err
        assert "overlap" in err


class TestCliSaddle:
    def test_band_scenario_holds(self, tmp_path, capsys):
        path = make_band_scenario(tmp_path)
        out = tmp_path / "saddle.csv"
        assert main([
            "saddle", "--scenario", str(path), "--out", str(out), "--members", "11",
        ]) == 0
        assert capsys.readouterr().out.strip() == "HOLDS"
        rows = read_csv(out)
        checks = {row[1] for row in rows[1:]}
        assert checks == {"boundedness", "saddle"}
        assert all(row[4] == "True" for row in rows[1:])

    @pytest.mark.parametrize(
        ("stem", "same"), [("band_pair", True), ("composite", True), ("kl_ball", False)]
    )
    def test_members_size_only_kl_probes(self, tmp_path, capsys, stem, same):
        """``--members`` sizes only the saddle pass's KL-ball probes: every
        boundedness row covers its classes whole, so ``--members 3`` and
        ``--members 11`` write the same boundedness rows and verdict. Band
        and contamination networks have no probes, so their CSV is
        byte-identical; on the KL ball the saddle row differs."""
        outputs = []
        for n in ("3", "11"):
            out = tmp_path / f"{n}.csv"
            argv = ["saddle", "--scenario", str(SCENARIOS / f"{stem}.json"), "--out", str(out)]
            assert main([*argv, "--members", n]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        (csv3, verdict3), (csv11, verdict11) = outputs
        assert verdict3 == verdict11
        rows3, rows11 = (text.decode().splitlines() for text in (csv3, csv11))
        assert rows3[:-1] == rows11[:-1] and ",saddle," in rows3[-1]
        assert (rows3[-1] == rows11[-1]) == same and (csv3 == csv11) == same

    def test_kl_scenario_violated_with_witness(self, tmp_path, capsys):
        assert main([
            "saddle", "--scenario", str(SCENARIOS / "kl_ball.json"),
            "--out", str(tmp_path / "s.csv"), "--members", "11",
        ]) == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("VIOLATED")
        assert "gap=" in summary

    def test_mirror_image_witnesses_pick_the_first_side(self, tmp_path, capsys):
        """kl_ball.json and shifted copies are symmetric under a reflection
        that swaps the hypotheses, so the h0 and h1 boundedness witnesses
        (and the false-alarm and miss saddle gaps) tie up to rounding.
        Each copy and its flip by y -> 1 - y must name the first side."""
        doc = json.loads((SCENARIOS / "kl_ball.json").read_text())

        def flipped(sensor):
            # y -> 1 - y maps the H1 nominal onto H0's place and back
            out = dict(sensor, eps0=sensor["eps1"], eps1=sensor["eps0"])
            for a, b in (("nominal0", "nominal1"), ("nominal1", "nominal0")):
                out[a] = dict(sensor[b], mean=1.0 - sensor[b]["mean"])
            out["quantizer"] = {
                "thresholds": [1.0 / t for t in reversed(sensor["quantizer"]["thresholds"])]
            }
            return out

        gaps = []
        for shift in (0.0, 0.3, -0.7, 1.9):
            sensor = dict(doc["sensors"][0])
            for key in ("nominal0", "nominal1"):
                sensor[key] = dict(sensor[key], mean=sensor[key]["mean"] + shift)
            for variant in (sensor, flipped(sensor)):
                path = tmp_path / "mirror.json"
                path.write_text(json.dumps(dict(doc, sensors=[variant])))
                out = tmp_path / "mirror.csv"
                assert main(["saddle", "--scenario", str(path), "--out", str(out)]) == 0
                assert " side=h0 " in capsys.readouterr().out
                rows = {row[1]: row for row in read_csv(out)[1:]}
                assert rows["saddle"][2] == "false-alarm"
                gaps.append(float(rows["boundedness"][5]))
        assert max(gaps) - min(gaps) < 1e-12

    @staticmethod
    def _kl_ball_variant(tmp_path, **changes):
        """kl_ball.json with its sensor's fields updated by ``changes``."""
        doc = json.loads((SCENARIOS / "kl_ball.json").read_text())
        doc["sensors"][0].update(changes)
        path = tmp_path / "kl_variant.json"
        path.write_text(json.dumps(doc))
        return path

    def test_tiny_kl_radius_probes_the_nominal(self, tmp_path, capsys):
        """An H0 radius of 1e-150 leaves no variance scale inside the ball,
        so its probe is the nominal alone: saddle exits 0 with a verdict, as
        lfd and evaluate do."""
        path = self._kl_ball_variant(tmp_path, eps0=1e-150)
        for command in ("lfd", "evaluate", "saddle"):
            args = [command, "--scenario", str(path), "--out", str(tmp_path / f"{command}.csv")]
            assert main(args + (["--members", "11"] if command == "saddle" else [])) == 0
        out, err = capsys.readouterr()
        assert out.startswith(("HOLDS", "VIOLATED")) and err == ""
        assert [row[1] for row in read_csv(tmp_path / "saddle.csv")[1:]] == ["boundedness", "saddle"]

    def test_non_finite_log_lr_range_exit_2_names_the_sensor(self, tmp_path, capsys):
        """An H1 nominal mean of 1e300 overflows the log-LR at the support
        ends: saddle refuses with one error line naming the sensor and its
        range, and no warning; lfd and evaluate still exit 0."""
        path = self._kl_ball_variant(tmp_path, nominal1={"mean": 1e300, "sigma": 1.0})
        for command in ("lfd", "evaluate"):
            assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["saddle", "--scenario", str(path), "--members", "11"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not caught
        assert err == (
            "error: sensor 0: log-LR range [-inf, inf] is not finite; "
            "the boundedness check needs a finite grid\n"
        )

    @staticmethod
    def _wide_kl(tmp_path, eps, mean1):
        """One KL sensor, nominals N(0, 1) and N(mean1, 1), both radii eps."""
        sensor = {
            "kind": "kl-ball",
            "nominal0": {"mean": 0.0, "sigma": 1.0},
            "nominal1": {"mean": mean1, "sigma": 1.0},
            "eps0": eps,
            "eps1": eps,
            "quantizer": {"num_thresholds": 1},
        }
        path = tmp_path / "kl_wide.json"
        path.write_text(json.dumps({"scenario_id": "kl-wide", "prior0": 0.5, "sensors": [sensor]}))
        return path

    def test_kl_radius_past_the_old_probe_brackets(self, tmp_path, capsys):
        """Radii of 7 nats once broke the probes' variance-scale solve with a
        message naming no sensor; saddle now gives a verdict, as evaluate
        does."""
        path = self._wide_kl(tmp_path, 7.0, 10.0)
        assert main(["evaluate", "--scenario", str(path), "--out", str(tmp_path / "e.csv")]) == 0
        assert main(["saddle", "--scenario", str(path), "--out", str(tmp_path / "s.csv")]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("VIOLATED") and err == ""

    def test_kl_radius_too_large_to_probe_names_the_sensor(self, tmp_path, capsys):
        """A radius of 1e300 nats (nominals far enough apart to build) has
        no float variance scale at its ball's edge: saddle refuses with one
        error line naming the sensor and the radius, and no warning."""
        path = self._wide_kl(tmp_path, 1e300, 1e151)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["saddle", "--scenario", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and not caught
        assert re.fullmatch(r"error: sensor 0: KL radius 1e\+300 [^\n]*\n", err)

    def test_single_member_zero_gap(self, tmp_path, capsys):
        path = make_band_scenario(tmp_path)
        out = tmp_path / "s1.csv"
        assert main([
            "saddle", "--scenario", str(path), "--out", str(out), "--members", "1",
        ]) == 0
        rows = read_csv(out)
        assert all(float(row[5]) == 0.0 for row in rows[1:])


    def test_non_monotone_kl_log_lr_exit_0(self, tmp_path, capsys):
        """Unequal nominal variances make the KL log-LR a quadratic; its
        level sets are read as intervals, and the t grid spans the log-LR's
        range on the grid, whose minimum is interior."""
        doc = {
            "scenario_id": "kl-nonmonotone",
            "prior0": 0.5,
            "log_threshold": None,
            "grid_points": 2001,
            "seed": 1,
            "sensors": [{
                "kind": "kl-ball",
                "nominal0": {"mean": 0.0, "sigma": 1.0},
                "nominal1": {"mean": 1.0, "sigma": 1.6},
                "eps0": 0.03, "eps1": 0.03,
                "quantizer": {"thresholds": [1.0]},
            }],
        }
        path = tmp_path / "kl_nonmonotone.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert main([
            "saddle", "--scenario", str(path), "--out", str(out), "--members", "11",
        ]) == 0
        rows = read_csv(out)
        assert [row[1] for row in rows[1:]] == ["boundedness", "saddle"]
        # KL balls admit no jointly bounded pair; a variance tilt shows it
        assert rows[1][4] == "False"
        assert float(rows[1][5]) > 1e-3
        assert capsys.readouterr().out.startswith("VIOLATED sensor=0")


    def test_constant_log_lr_sensor_exit_0(self, tmp_path, capsys):
        """Identical KL nominals with zero radii give a constant log-LR, so
        the t grid spans one point; that sensor bounds itself."""
        kl = {**TestSpecErrors.KL, "nominal1": {"mean": 0.0, "sigma": 1.0}, "eps0": 0.0, "eps1": 0.0}
        doc = {"scenario_id": "flat", "prior0": 0.5, "sensors": [kl, TestSpecErrors.GOOD]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["saddle", "--scenario", str(path), "--out", str(out), "--members", "3"]) == 0
        rows = read_csv(out)
        assert rows[1][1:] == ["boundedness", "0", "", "True", "0.0"]

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_cli_prints_the_library_certificate(self, path, tmp_path, capsys):
        """``saddle`` on each bundled scenario writes one row per report of
        ``certify``: a boundedness row per robust sensor, in sensor order,
        then the saddle row; its verdict is the first failed report's
        witness, else the saddle gap, else HOLDS."""
        scenario = load_scenario(path)
        built = build_sensors(scenario)
        net = fusion.NetworkModel(
            tuple(b.channel for b in built), scenario.prior0, scenario.log_threshold
        )
        cert = scenario_module.certify(built, net, 11)
        assert [i for i, _ in cert.boundedness] == [b.index for b in built if b.pair is not None]
        out = tmp_path / "s.csv"
        assert main(["saddle", "--scenario", str(path), "--out", str(out), "--members", "11"]) == 0
        rows = [row[1:] for row in read_csv(out)[1:]]
        saddle = cert.saddle
        assert rows == [
            *(["boundedness", str(i), "", str(r.holds), repr(r.worst_violation)]
              for i, r in cert.boundedness),
            ["saddle", saddle.worst_side, ";".join(map(str, saddle.worst_combo)),
             str(saddle.holds), repr(saddle.worst_gap)],
        ]
        verdict = capsys.readouterr().out
        failed = [(i, r.witness) for i, r in cert.boundedness if not r.holds]
        if failed:
            i, w = failed[0]
            assert verdict == (
                f"VIOLATED sensor={i} side={w.side} member={w.member!r} t={w.t!r} gap={w.gap!r}\n"
            )
        elif not saddle.holds:
            assert verdict == (
                f"VIOLATED side={saddle.worst_side} combo={saddle.worst_combo} "
                f"gap={saddle.worst_gap!r}\n"
            )
        else:
            assert verdict == "HOLDS\n"

    def test_failed_saddle_alone_prints_its_gap(self, tmp_path, capsys, monkeypatch):
        """With every sensor bounded, a failed saddle report is the verdict:
        its side, worst combination and gap."""
        verify = scenario_module.saddle_verify
        failed = []

        def failing(*args):
            failed.append(replace(verify(*args), holds=False, worst_gap=0.25))
            return failed[-1]

        monkeypatch.setattr(scenario_module, "saddle_verify", failing)
        out = tmp_path / "s.csv"
        assert main(["saddle", "--scenario", str(make_band_scenario(tmp_path)), "--out", str(out)]) == 0
        (report,) = failed
        assert capsys.readouterr().out == (
            f"VIOLATED side={report.worst_side} combo={report.worst_combo} gap=0.25\n"
        )
        assert [row[4] for row in read_csv(out)[1:]] == ["True", "True", "False"]


class TestCliSweep:
    def test_odd_k_nonincreasing(self, tmp_path):
        path = make_majority_scenario(tmp_path, sensors=1)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--scenario", str(path), "--out", str(out),
            "--k-list", "1,3,5,7",
        ]) == 0
        rows = read_csv(out)
        errors = [float(r[5]) for r in rows[1:]]
        assert len(errors) == 4
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_single_k_single_row(self, tmp_path):
        path = make_majority_scenario(tmp_path, sensors=1)
        out = tmp_path / "sweep1.csv"
        assert main([
            "sweep", "--scenario", str(path), "--out", str(out), "--k-list", "3",
        ]) == 0
        assert len(read_csv(out)) == 2

    def test_long_sweep_prints_no_negative_probability(self, tmp_path, capsys):
        """K = 199 and 200 copies of the explicit (0.8, 0.2) / (0.2, 0.8)
        sensor, where P(decide 1 | H1) rounds above 1: every printed
        number is nonnegative, and P_F, P_M and P_E lie in [0, 1]."""
        doc = {
            "scenario_id": "binary",
            "prior0": 0.5,
            "seed": 1,
            "sensors": [{
                "kind": "explicit-pmf", "levels": [0, 1],
                "pmf0": [0.8, 0.2], "pmf1": [0.2, 0.8],
            }],
        }
        path = tmp_path / "binary.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--scenario", str(path), "--k-list", "199,200"]) == 0
        out = capsys.readouterr().out
        assert min(float(v) for v in NUMBER.findall(out)) >= 0.0
        rows = list(csv.reader(out.splitlines()))
        assert [row[1] for row in rows[1:]] == ["199", "200"]
        for row in rows[1:]:
            assert all(0.0 <= float(v) <= 1.0 for v in row[3:6]), row

    def test_uninformative_template_exit_2(self, tmp_path, capsys):
        doc = {
            "scenario_id": "flat",
            "prior0": 0.5,
            "log_threshold": None,
            "grid_points": 2001,
            "seed": 1,
            "sensors": [{
                "kind": "explicit-pmf", "levels": [0, 1],
                "pmf0": [0.5, 0.5], "pmf1": [0.5, 0.5],
            }],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--scenario", str(path), "--k-list", "1,3"]) == 2
        assert "uninformative" in capsys.readouterr().err


class TestCompositeNetworks:
    def test_mixed_kinds_evaluate(self, tmp_path):
        out = tmp_path / "composite.csv"
        assert main([
            "evaluate", "--scenario", str(SCENARIOS / "composite.json"),
            "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[1][1] == "3"
        p_error = float(rows[1][5])
        assert 0.0 < p_error < 0.5

    def test_mixed_kinds_saddle_holds(self, tmp_path, capsys):
        assert main([
            "saddle", "--scenario", str(SCENARIOS / "composite.json"),
            "--out", str(tmp_path / "cs.csv"), "--members", "7",
        ]) == 0
        assert capsys.readouterr().out.strip() == "HOLDS"


class TestSpecErrors:
    GOOD = {"kind": "explicit-pmf", "levels": [0, 1], "pmf0": [0.8, 0.2], "pmf1": [0.2, 0.8]}
    KL = {
        "kind": "kl-ball",
        "nominal0": {"mean": 0.0, "sigma": 1.0},
        "nominal1": {"mean": 1.0, "sigma": 1.0},
        "eps0": 0.05, "eps1": 0.05,
        "quantizer": {"thresholds": [1.0]},
    }

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"quantizer": {"thresholds": [2.0, 1.0]}}, "thresholds must be strictly increasing"),
            ({"eps1": -0.1}, "radius must be >= 0"),
            ({"kind": "eps-contamination", "eps0": 1.0}, "eps must be in [0, 1)"),
            ({"quantizer": None}, "missing quantizer spec"),
            ({"quantizer": {"num_thresholds": None}}, "malformed kl-ball spec"),
            (
                {"kind": "eps-contamination", "eps0": 0.1, "eps1": 0.1,
                 "quantizer": {"num_thresholds": 9}},
                "could not place distinct default thresholds",
            ),
            ({"nominal1": {"mean": 0.0, "sigma": 1.0}}, "KL radii too large"),
            (
                {"nominal1": {"mean": 1.0, "sigma": 2.0}, "eps0": 0.03, "eps1": 0.03,
                 "quantizer": {"num_thresholds": 4}},
                "could not place increasing default thresholds: the log-LR is not monotone",
            ),
        ],
        ids=["decreasing-thresholds", "negative-kl-radius", "eps-at-one",
             "missing-quantizer", "null-num-thresholds", "flat-default-thresholds",
             "identical-kl-nominals", "non-monotone-default-thresholds"],
    )
    def test_error_names_the_sensor(self, tmp_path, capsys, change, message):
        bad = {**self.KL, **change}
        doc = {
            "scenario_id": "bad",
            "prior0": 0.5,
            "sensors": [self.GOOD, bad],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: sensor 1: {message}" in err


class TestMalformedScenario:
    """Malformed and non-finite documents exit 2 with an error line, no traceback."""

    BAND = {
        "kind": "gaussian-band",
        "band0": {"mu_lo": -1.0, "mu_hi": 0.0},
        "band1": {"mu_lo": 1.0, "mu_hi": 2.0},
        "sigma": 1.0,
        "quantizer": {"num_thresholds": 1},
    }
    DOC = {"scenario_id": "doc", "prior0": 0.5, "sensors": [BAND, TestSpecErrors.KL]}

    @pytest.mark.parametrize(
        ("where", "value"),
        [
            (("prior0",), None),
            (("seed",), None),
            (("sensors",), "abc"),
            (("sensors",), {"kind": "explicit-pmf"}),
            (("sensors",), [[1, 2]]),
            (("log_threshold",), math.nan),
            (("sensors", 1, "eps0"), math.nan),
            (("sensors", 0, "band0", "mu_lo"), math.nan),
            (("sensors", 1, "nominal0", "mean"), math.nan),
            (("sensors", 0, "sigma"), math.inf),
            (("seed",), "7"),
            (("seed",), "abc"),
            (("seed",), "1e3"),
            (("sensors", 0, "sigma"), True),
            (("sensors", 0, "band0", "mu_hi"), False),
            (("log_threshold",), True),
            (("prior0",), "0.5"),
            (("sensors", 0, "sigma"), "1.0"),
            (("sensors", 1, "nominal1", "mean"), True),
            (("sensors", 1, "eps0"), "0.05"),
            (("sensors", 1, "quantizer", "thresholds"), [True]),
            (("sensors",), [{**TestSpecErrors.GOOD, "pmf0": ["0.8", 0.2]}]),
        ],
        ids=["null-prior0", "null-seed", "string-sensors",
             "object-sensors", "list-sensor", "nan-log-threshold", "nan-kl-radius",
             "nan-band-endpoint", "nan-nominal-mean", "inf-band-sigma",
             "numeric-string-seed", "string-seed", "exponent-string-seed",
             "boolean-band-sigma", "boolean-band-endpoint", "boolean-log-threshold",
             "string-prior0", "string-band-sigma", "boolean-nominal-mean",
             "string-kl-radius", "boolean-threshold", "string-pmf"],
    )
    def test_exit_2(self, tmp_path, capsys, where, value):
        doc = json.loads(json.dumps(self.DOC))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: ", err, re.MULTILINE)
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "command", [["lfd"], ["evaluate"], ["saddle"], ["sweep", "--k-list", "1,3"]]
    )
    def test_nan_log_threshold_exit_2_on_every_subcommand(self, tmp_path, capsys, command):
        """The scenario itself rejects a NaN log_threshold, so ``lfd``, which
        builds no network, exits 2 like the others; a one-sensor document,
        so that ``sweep`` would otherwise run."""
        doc = {**self.DOC, "sensors": [self.BAND], "log_threshold": math.nan}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([*command, "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: log_threshold must not be NaN" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("where", "value", "message"),
        [
            (("seed",), 1.5, "seed: expected an integer, got 1.5"),
            (("seed",), True, "seed: expected an integer, got True"),
            (("seed",), "abc", "seed: expected an integer, got 'abc'"),
            (("sensors", 0, "quantizer", "num_thresholds"), 2.7,
             "sensor 0: num_thresholds: expected an integer, got 2.7"),
            (("sensors", 0, "quantizer", "num_thresholds"), True,
             "sensor 0: num_thresholds: expected an integer, got True"),
            (("sensors", 0), {**TestSpecErrors.GOOD, "levels": [0.5, 1]},
             "sensor 0: levels: expected an integer, got 0.5"),
        ],
        ids=["fractional-seed", "boolean-seed", "string-seed",
             "fractional-num-thresholds", "boolean-num-thresholds", "fractional-level"],
    )
    def test_integer_fields_are_not_truncated(self, tmp_path, capsys, where, value, message):
        """A fractional, boolean or string integer field exits 2 with an error
        that names it, where ``int()`` used to truncate or parse it."""
        doc = json.loads(json.dumps(self.DOC))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    EXTREME_FIELDS = ("sigma", "mean", "mu_lo", "mu_hi", "eps0", "eps1")

    def test_extreme_finite_values_exit_0_or_2(self, tmp_path, capsys):
        """Each sigma, mean, mu_lo, mu_hi, eps0 and eps1 field of the bundled
        scenarios, set in turn to 1e-300, 1e-150, 1e150 and 1e300: ``lfd``
        builds the sensors or exits 2 with an error line, never with an
        exception (a sigma of 1e-300 used to divide by zero, a mean of
        1e300 to overflow). Warnings stay warnings, as on the command line."""

        def fields(node, where=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if key in self.EXTREME_FIELDS and type(value) in (int, float):
                    yield (*where, key)
                elif isinstance(value, (dict, list)):
                    yield from fields(value, (*where, key))

        codes = Counter()
        for source in sorted(SCENARIOS.glob("*.json")):
            doc = json.loads(source.read_text())
            for where in fields(doc):
                for value in (1e-300, 1e-150, 1e150, 1e300):
                    changed = json.loads(json.dumps(doc))
                    target = changed
                    for key in where[:-1]:
                        target = target[key]
                    target[where[-1]] = value
                    path = tmp_path / "doc.json"
                    path.write_text(json.dumps(changed))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code = main(["lfd", "--scenario", str(path), "--out", str(tmp_path / "lfd.csv")])
                    err = capsys.readouterr().err
                    assert code in (0, 2), (source.name, where, value)
                    assert code == 0 or re.search(r"^error: ", err, re.MULTILINE), err
                    codes[code] += 1
        assert sum(codes.values()) == 152 and min(codes[0], codes[2]) >= 40, codes

    def test_out_of_range_sigma_names_the_sensor(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self.DOC))
        doc["sensors"][0]["sigma"] = 1e-300
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: sensor 0: parameters out of floating-point range" in err
        assert "Traceback" not in err

    def test_integral_floats_read_as_integers(self):
        doc = {**self.DOC, "seed": 7.0}
        scenario = Scenario.from_dict(doc)
        assert scenario.seed == 7 and isinstance(scenario.seed, int)
        spec = {**TestSpecErrors.GOOD, "levels": [0.0, 1.0]}
        assert build_sensors(Scenario.from_dict({**doc, "sensors": [spec]}))[0].channel.levels == (0, 1)


class TestReadme:
    def test_library_sketch_runs(self, monkeypatch, capsys):
        """The README's library sketch runs from the repository root."""
        root = SCENARIOS.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        sketch = readme.split("## Library sketch", 1)[1]
        code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(root)
        exec(compile(code, "README.md", "exec"), {})
        assert "True" in capsys.readouterr().out


class TestOneRulePerSensor:
    def test_saddle_builds_each_rule_once(self, monkeypatch, capsys):
        """One saddle run cuts each robust sensor's axis once: the channel,
        the probes and their laws all read the one SensorRule."""
        built = []
        original = sensor.SensorRule.__post_init__

        def counting(rule):
            built.append(rule.quantizer.thresholds)
            original(rule)

        monkeypatch.setattr(sensor.SensorRule, "__post_init__", counting)
        path = SCENARIOS / "composite.json"
        robust = [s for s in load_scenario(path).sensors if s["kind"] != "explicit-pmf"]
        assert len(robust) == 2
        assert main(["saddle", "--scenario", str(path), "--members", "11"]) == 0
        assert capsys.readouterr().out.endswith("HOLDS\n")
        assert len(built) == len(robust)

    def test_saddle_probes_each_class_once(self, monkeypatch, capsys):
        """Boundedness and the saddle share one probe list per side: two
        KlBallClass.members calls per KL sensor."""
        calls = []
        original = lfd.KlBallClass.members

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(lfd.KlBallClass, "members", counting)
        path = SCENARIOS / "kl_ball.json"
        kl = [s for s in load_scenario(path).sensors if s["kind"] == "kl-ball"]
        assert len(kl) == 1
        assert main(["saddle", "--scenario", str(path), "--members", "11"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("VIOLATED")
        assert len(calls) == 2 * len(kl)


class TestLfdConstructorLookup:
    SPECS = {
        "gaussian_band_lfd": {
            "kind": "gaussian-band",
            "band0": {"mu_lo": -1.0, "mu_hi": 0.0},
            "band1": {"mu_lo": 1.0, "mu_hi": 2.0},
            "sigma": 1.0,
            "quantizer": {"num_thresholds": 1},
        },
        "kl_dabak_lfd": {
            "kind": "kl-ball",
            "nominal0": {"mean": 0.0, "sigma": 1.0},
            "nominal1": {"mean": 1.0, "sigma": 1.0},
            "eps0": 0.02,
            "eps1": 0.02,
            "quantizer": {"num_thresholds": 1},
        },
        "huber_clipped_lfd": {
            "kind": "eps-contamination",
            "nominal0": {"mean": 0.0, "sigma": 1.0},
            "nominal1": {"mean": 1.0, "sigma": 1.0},
            "eps0": 0.05,
            "eps1": 0.05,
            "quantizer": {"num_thresholds": 1},
        },
    }

    def test_each_kind_reaches_its_rebound_constructor(self, monkeypatch):
        """``build_lfd_pair`` and ``build_sensor`` call each LFD constructor
        by its name in the scenario module at call time, so a wrapper bound
        to that name (as a span tracer binds one) sees every build."""
        calls = []
        for name in self.SPECS:
            original = getattr(scenario_module, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(scenario_module, name, counting)
        for name, spec in self.SPECS.items():
            calls.clear()
            assert isinstance(scenario_module.build_lfd_pair(spec, 0), lfd.LfdPair)
            build_sensor(spec, 0)
            assert calls == [name, name]


class TestEqualSpecsBuildOnce:
    BAND = {
        "kind": "gaussian-band",
        "band0": {"mu_lo": -1.0, "mu_hi": 0.0},
        "band1": {"mu_lo": 1.0, "mu_hi": 2.0},
        "sigma": 1.0,
        "quantizer": {"num_thresholds": 2},
    }
    CONTAMINATION = {
        "kind": "eps-contamination",
        "nominal0": {"mean": 0.0, "sigma": 1.0},
        "nominal1": {"mean": 1.0, "sigma": 1.0},
        "eps0": 0.05, "eps1": 0.05,
        "quantizer": {"num_thresholds": 3},
    }
    EXPLICIT = {"kind": "explicit-pmf", "levels": [0, 1], "pmf0": [0.8, 0.2], "pmf1": [0.3, 0.7]}

    def _count(self, monkeypatch, names):
        calls = {name: 0 for name in names}
        for name in names:
            original = getattr(scenario_module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(scenario_module, name, counting)
        return calls

    def test_homogeneous_scenario_builds_each_distinct_spec_once(self, monkeypatch):
        """Specs equal as JSON text (key order aside) share one build, which
        each sensor gets under its own index: the channel, the quantizer
        and the LFD pair are made once per distinct spec."""
        reordered = dict(reversed(list(self.BAND.items())))
        wider = {**self.BAND, "sigma": 1.5}
        specs = [self.BAND, self.CONTAMINATION, self.BAND, reordered, self.EXPLICIT,
                 wider, self.EXPLICIT, self.CONTAMINATION, self.BAND]
        fresh = [build_sensor(spec, i) for i, spec in enumerate(specs)]
        calls = self._count(
            monkeypatch, ("channel_from_rule", "default_quantizer", "channel_from_pmfs")
        )
        doc = {"scenario_id": "homogeneous", "prior0": 0.5, "sensors": specs}
        built = build_sensors(Scenario.from_dict(doc))
        assert calls == {"channel_from_rule": 3, "default_quantizer": 3, "channel_from_pmfs": 1}
        assert [b.index for b in built] == list(range(len(specs)))
        for i in (2, 3, 8):
            assert built[i].channel is built[0].channel and built[i].rule is built[0].rule
        assert built[6].channel is built[4].channel
        assert built[5].channel is not built[0].channel
        for got, want in zip(built, fresh):
            assert got.kind == want.kind and got.channel.levels == want.channel.levels
            assert np.array_equal(got.channel.llr, want.channel.llr)
            assert np.array_equal(got.channel.pmf0.probs, want.channel.pmf0.probs)

    def test_saddle_checks_each_distinct_build_once(self, monkeypatch, tmp_path, capsys):
        """Six equal band sensors share one build, so ``saddle`` probes it,
        checks its boundedness and reads its member laws once, and writes
        the CSV and verdict of six separate builds (specs told apart by an
        ignored key) byte for byte, one boundedness row per sensor."""
        calls = {"check": 0, "members": 0, "member_laws": 0}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(scenario_module, "joint_boundedness_check", "check")
        count(scenario_module.BuiltSensor, "members", "members")
        count(scenario_module.BuiltSensor, "member_laws", "member_laws")
        outputs = {}
        for name, specs in (
            ("shared", [self.BAND] * 6),
            ("separate", [{**self.BAND, "copy": i} for i in range(6)]),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"scenario_id": "six", "prior0": 0.5, "sensors": specs}))
            for key in calls:
                calls[key] = 0
            out = tmp_path / f"{name}.csv"
            assert main(["saddle", "--scenario", str(path), "--out", str(out)]) == 0
            outputs[name] = (out.read_bytes(), capsys.readouterr().out, dict(calls))
        csv_text, verdict, shared_calls = outputs["shared"]
        assert (csv_text, verdict) == outputs["separate"][:2]
        assert shared_calls == {"check": 1, "members": 2, "member_laws": 2}
        assert outputs["separate"][2] == {"check": 6, "members": 12, "member_laws": 12}
        rows = csv_text.decode().splitlines()
        assert [row.split(",")[1:3] for row in rows[1:7]] == [["boundedness", str(i)] for i in range(6)]

    @pytest.mark.parametrize("first", [0, 1])
    def test_true_is_not_one(self, first):
        """A spec that differs from a valid one only by ``true`` for ``1``
        is still refused, and the error names its own index."""
        bad = {**self.BAND, "sigma": True}
        specs = [{**self.BAND, "sigma": 1}, bad] if first == 0 else [bad, {**self.BAND, "sigma": 1}]
        doc = {"scenario_id": "true-is-not-one", "prior0": 0.5, "sensors": specs}
        with pytest.raises(ValueError, match=f"^sensor {1 - first}: sigma: expected a number"):
            build_sensors(Scenario.from_dict(doc))


class TestCliGolden:
    """lfd, evaluate, saddle and sweep on the shipped scenarios against
    the outputs recorded in tests/golden/ (rewritten by tests/_golden.py)."""

    CASES = dict(golden_cases())

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_golden(self, name):
        argv = self.CASES[name]
        expected = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        assert expected["argv"] == argv
        assert_matches_record(run_golden(argv), expected)

    def test_golden_directory_holds_exactly_the_cases(self):
        """No golden file outlives its scenario or command, and none is missing."""
        assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(self.CASES)
