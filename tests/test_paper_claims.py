"""The source paper's abstract claims, one test per claim the calculator
shows, each with the scenario it is shown on and its coverage: ``exact``
(over the whole class, in closed form) or ``probes`` (over a finite probe
family). README's "The paper's claims" table states the same constants,
and :func:`test_readme_table_states_the_same_evidence` holds the two
together. Claims without evidence have no test; the table names the
ROADMAP item that will add one."""

import re
from pathlib import Path

from robust_fusion.fusion import NetworkModel
from robust_fusion.lfd import KlBallClass
from robust_fusion.scenario import build_sensors, certify, load_scenario

ROOT = Path(__file__).resolve().parents[1]

# claim row -> (scenarios, coverage, evidence constant)
BOUNDED = (("band_pair.json", "composite.json"), "exact", 1e-14)  # largest boundedness gap
KL_FAILS = (("kl_ball.json",), "exact", 0.05127)  # whole-ball boundedness violation, 5 digits
WITHOUT_EVIDENCE = {"minimax robust decentralized detection is still possible": 19,
                    "quantizers need not be monotone": 6}


def _certificate(name: str):
    scenario = load_scenario(ROOT / "scenarios" / name)
    built = build_sensors(scenario)
    net = NetworkModel(tuple(b.channel for b in built), scenario.prior0, scenario.log_threshold)
    return certify(built, net, 11)


def test_boundedness_holds_for_band_and_contamination():
    """Joint stochastic boundedness holds for mean-band and contamination
    sensors (Veeravalli, Basar & Poor 1994; Huber 1965), over the whole of
    each class, and the LFD laws are the saddle point."""
    scenarios, coverage, largest = BOUNDED
    for name in scenarios:
        cert = _certificate(name)
        assert cert.boundedness and len(cert.coverage) == len(cert.boundedness)
        assert {c for _, c in cert.coverage} == {coverage}, name
        for _, report in cert.boundedness:
            assert report.holds and report.worst_violation <= largest, name
        assert cert.saddle.holds and cert.saddle.worst_gap == 0.0, name


def test_boundedness_fails_for_the_kl_ball():
    """It fails for the KL ball: over the whole ball (the witness is the
    ball itself, so the coverage is exact), some member is worse than the
    LFD at some threshold, by 0.05127. The saddle pass still probes it."""
    (name,), coverage, violation = KL_FAILS
    cert = _certificate(name)
    assert cert.coverage == ((0, "probes"),)
    (_, report), = cert.boundedness
    assert not report.holds
    assert round(report.worst_violation, 5) == violation
    w = report.witness
    assert w is not None and w.gap == report.worst_violation
    assert isinstance(w.member, KlBallClass) == (coverage == "exact")


def test_readme_table_states_the_same_evidence():
    """README's claims table: the evidence rows name the tests above, their
    scenarios, coverage and constants; the rows without evidence name
    their ROADMAP item."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## The paper's claims", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| ") and not line.startswith("| claim") and "---" not in line
    ]
    by_test = {row[3].strip("`"): row for row in rows}
    for test, (scenarios, coverage, constant) in (
        ("test_boundedness_holds_for_band_and_contamination", BOUNDED),
        ("test_boundedness_fails_for_the_kl_ball", KL_FAILS),
    ):
        claim, evidence, cell, _ = by_test[test]
        assert cell == coverage, test
        assert all(f"`{name}`" in evidence for name in scenarios), test
        assert (f"{constant:.5f}" if constant > 1e-3 else f"{constant:.0e}") in evidence, test
    for claim, item in WITHOUT_EVIDENCE.items():
        (row,) = [row for row in rows if row[0] == claim]
        assert row[1:] == ["none yet", "—", f"ROADMAP item {item}"]
    assert len(rows) == 2 + len(WITHOUT_EVIDENCE)
    assert all(re.fullmatch(r"exact|probes|—", row[2]) for row in rows)
