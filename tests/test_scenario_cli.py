"""Scenario round-trip and CLI subcommands, exit codes, CSV format."""

import csv
import json
from pathlib import Path

import pytest

from robust_fusion import fusion
from robust_fusion.cli import main
from robust_fusion.scenario import Scenario, build_sensors, load_scenario, save_scenario

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

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="prior0"):
            Scenario("x", 1.5, ({"kind": "explicit-pmf"},))
        with pytest.raises(ValueError, match="unknown kind"):
            Scenario("x", 0.5, ({"kind": "nope"},))
        with pytest.raises(ValueError, match="missing required key"):
            Scenario.from_dict({"prior0": 0.5})

    def test_shipped_scenarios_parse_and_build(self):
        for name in ("band_pair", "kl_ball", "majority_k3", "composite", "binary_symmetric"):
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

    def test_kl_scenario_violated_with_witness(self, tmp_path, capsys):
        assert main([
            "saddle", "--scenario", str(SCENARIOS / "kl_ball.json"),
            "--out", str(tmp_path / "s.csv"), "--members", "11",
        ]) == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("VIOLATED")
        assert "gap=" in summary

    def test_single_member_zero_gap(self, tmp_path, capsys):
        path = make_band_scenario(tmp_path)
        out = tmp_path / "s1.csv"
        assert main([
            "saddle", "--scenario", str(path), "--out", str(out), "--members", "1",
        ]) == 0
        rows = read_csv(out)
        assert all(float(row[5]) == 0.0 for row in rows[1:])


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
