"""Scenario round-trip and CLI subcommands, exit codes, CSV format."""

import csv
import json
import re
from pathlib import Path

import pytest

from robust_fusion import fusion, lfd, sensor
from robust_fusion.cli import main
from robust_fusion.scenario import Scenario, build_sensors, load_scenario, save_scenario

from _golden import GOLDEN, cases as golden_cases, run as run_golden

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
            got, want = _NUMBER.split(csv_desc), _NUMBER.split(csv_asc)
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


_NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def assert_matches_golden(actual: str, expected: str) -> None:
    """Equal text with every number token in place; integers must match
    exactly and floats (a '.' or exponent) within 1e-12."""
    got, want = _NUMBER.split(actual), _NUMBER.split(expected)
    assert len(got) == len(want), (actual, expected)
    for i, (a, e) in enumerate(zip(got, want)):
        if i % 2 == 1 and any(c in e for c in ".eE"):
            assert abs(float(a) - float(e)) <= 1e-12, (a, e)
        else:
            assert a == e, (actual, expected)


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
        ],
        ids=["decreasing-thresholds", "negative-kl-radius", "eps-at-one",
             "missing-quantizer", "null-num-thresholds", "flat-default-thresholds"],
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


class TestCliGolden:
    """lfd, evaluate, saddle and sweep on the shipped scenarios against
    the outputs recorded in tests/golden/ (rewritten by tests/_golden.py)."""

    CASES = dict(golden_cases())

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_golden(self, name):
        argv = self.CASES[name]
        expected = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        assert expected["argv"] == argv
        actual = run_golden(argv)
        assert actual["exit"] == expected["exit"]
        assert_matches_golden(actual["csv"], expected["csv"])
        assert_matches_golden(actual["stdout"], expected["stdout"])

    def test_golden_directory_holds_exactly_the_cases(self):
        """No golden file outlives its scenario or command, and none is missing."""
        assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(self.CASES)
