"""Scenario files: a single JSON object describing one network instance.

Schema (one top-level object)::

    {
      "scenario_id": "example-band",
      "prior0": 0.5,
      "log_threshold": null,        # optional override of log(prior0/prior1)
      "grid_points": 2001,          # quadrature points of `lfd`'s residuals
      "seed": 20260809,
      "sensors": [
        {"kind": "gaussian-band",
         "band0": {"mu_lo": -1.0, "mu_hi": 0.0},
         "band1": {"mu_lo": 1.0, "mu_hi": 2.0},
         "sigma": 1.0,
         "quantizer": {"num_thresholds": 1}},          # or {"thresholds": [...]}
        {"kind": "kl-ball",
         "nominal0": {"mean": 0.0, "sigma": 1.0},
         "nominal1": {"mean": 1.0, "sigma": 1.0},
         "eps0": 0.08, "eps1": 0.08,
         "quantizer": {"thresholds": [1.0]}},
        {"kind": "eps-contamination",
         "nominal0": {"mean": 0.0, "sigma": 1.0},
         "nominal1": {"mean": 1.0, "sigma": 1.0},
         "eps0": 0.05, "eps1": 0.05,
         "quantizer": {"num_thresholds": 1}},
        {"kind": "explicit-pmf",
         "levels": [0, 1], "pmf0": [0.8, 0.2], "pmf1": [0.2, 0.8]}
      ]
    }

``grid_points`` is read only by ``cli lfd``, as the quadrature size of the
LFD normalization residuals; no sensor cut, channel or saddle check uses
it. Sensor kinds may be mixed freely (composite networks). Floats are written
in Python's shortest round-trip form (at most 17 significant digits), so
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .distributions import DiscretePmf, GaussianSpec, pmf_from_weights
from .lfd import (
    CdfMember,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    LfdPair,
    contamination_members,
    gaussian_band_lfd,
    huber_clipped_lfd,
    kl_ball_members,
    kl_dabak_lfd,
)
from .sensor import (
    Quantizer,
    SensorChannel,
    SensorRule,
    channel_from_pmfs,
    channel_from_quantizer,
    default_quantizer,
    member_channel,
)

SENSOR_KINDS = ("gaussian-band", "kl-ball", "eps-contamination", "explicit-pmf")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document."""

    scenario_id: str
    prior0: float
    sensors: tuple[dict, ...]
    log_threshold: float | None = None
    grid_points: int = 2001
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError(f"prior0 must be in (0, 1), got {self.prior0}")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if not self.sensors:
            raise ValueError("scenario needs at least one sensor")
        for i, spec in enumerate(self.sensors):
            kind = spec.get("kind")
            if kind not in SENSOR_KINDS:
                raise ValueError(f"sensor {i}: unknown kind {kind!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "prior0": self.prior0,
            "log_threshold": self.log_threshold,
            "grid_points": self.grid_points,
            "seed": self.seed,
            "sensors": list(self.sensors),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Scenario":
        if not isinstance(doc, dict):
            raise ValueError("scenario document must be a single JSON object")
        try:
            return cls(
                scenario_id=str(doc["scenario_id"]),
                prior0=float(doc["prior0"]),
                sensors=tuple(doc["sensors"]),
                log_threshold=(
                    None if doc.get("log_threshold") is None else float(doc["log_threshold"])
                ),
                grid_points=int(doc.get("grid_points", 2001)),
                seed=int(doc.get("seed", 0)),
            )
        except KeyError as exc:
            raise ValueError(f"scenario is missing required key {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def _gaussian(doc: dict, what: str) -> GaussianSpec:
    try:
        return GaussianSpec(float(doc["mean"]), float(doc["sigma"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what}: expected {{mean, sigma}}, got {doc!r}") from exc


def build_lfd_pair(spec: dict, index: int) -> LfdPair | None:
    """LFD pair for one sensor spec; None for explicit-pmf sensors."""
    kind = spec["kind"]
    try:
        if kind == "gaussian-band":
            sigma = float(spec["sigma"])
            c0 = GaussianBandClass(
                float(spec["band0"]["mu_lo"]), float(spec["band0"]["mu_hi"]), sigma
            )
            c1 = GaussianBandClass(
                float(spec["band1"]["mu_lo"]), float(spec["band1"]["mu_hi"]), sigma
            )
            return gaussian_band_lfd(c0, c1)
        if kind == "kl-ball":
            return kl_dabak_lfd(
                _gaussian(spec["nominal0"], "nominal0"),
                _gaussian(spec["nominal1"], "nominal1"),
                float(spec["eps0"]),
                float(spec["eps1"]),
            )
        if kind == "eps-contamination":
            return huber_clipped_lfd(
                EpsContaminationClass(_gaussian(spec["nominal0"], "nominal0"), float(spec["eps0"])),
                EpsContaminationClass(_gaussian(spec["nominal1"], "nominal1"), float(spec["eps1"])),
            )
        return None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sensor {index}: malformed {kind} spec ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"sensor {index}: {exc}") from None


def build_quantizer(spec: dict, pair: LfdPair | None, index: int) -> Quantizer | None:
    if spec["kind"] == "explicit-pmf":
        return None
    qdoc = spec.get("quantizer")
    if not isinstance(qdoc, dict):
        raise ValueError(f"sensor {index}: missing quantizer spec")
    if "thresholds" in qdoc:
        return Quantizer(tuple(float(t) for t in qdoc["thresholds"]))
    if "num_thresholds" in qdoc:
        return default_quantizer(pair, int(qdoc["num_thresholds"]))
    raise ValueError(f"sensor {index}: quantizer needs thresholds or num_thresholds")


def build_channel(spec: dict, index: int) -> tuple[SensorChannel, LfdPair | None, Quantizer | None]:
    pair = build_lfd_pair(spec, index)
    quantizer = build_quantizer(spec, pair, index)
    if spec["kind"] == "explicit-pmf":
        try:
            levels = tuple(int(l) for l in spec["levels"])
            pmf0 = pmf_from_weights(levels, [float(p) for p in spec["pmf0"]])
            pmf1 = pmf_from_weights(levels, [float(p) for p in spec["pmf1"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"sensor {index}: malformed explicit-pmf spec ({exc})") from exc
        return channel_from_pmfs(pmf0, pmf1), None, None
    try:
        channel = channel_from_quantizer(quantizer, pair)
    except ValueError as exc:
        raise ValueError(f"sensor {index}: {exc}") from None
    return channel, pair, quantizer


@dataclass(frozen=True)
class BuiltSensor:
    index: int
    kind: str
    channel: SensorChannel
    pair: LfdPair | None
    quantizer: Quantizer | None


def build_sensors(scenario: Scenario) -> list[BuiltSensor]:
    built = []
    for i, spec in enumerate(scenario.sensors):
        channel, pair, quantizer = build_channel(spec, i)
        built.append(BuiltSensor(i, spec["kind"], channel, pair, quantizer))
    return built


def class_members(spec: dict, pair: LfdPair | None, side: int, n: int, index: int) -> list:
    """Probe members of one sensor's uncertainty class for one hypothesis.

    ``n == 1`` returns the LFD itself (zero-gap sanity case). Band classes
    probe a mean grid, KL balls the two-parameter exponential-tilt family,
    contamination classes point-mass contaminations across the support.
    """
    kind = spec["kind"]
    if n < 1:
        raise ValueError("need at least one member")
    if kind == "explicit-pmf":
        return []
    if n == 1:
        return [CdfMember(pair.q0_cdf if side == 0 else pair.q1_cdf)]
    if kind == "gaussian-band":
        band = spec["band0"] if side == 0 else spec["band1"]
        cls = GaussianBandClass(
            float(band["mu_lo"]), float(band["mu_hi"]), float(spec["sigma"])
        )
        return cls.members(n)
    if kind == "kl-ball":
        nominal = _gaussian(spec["nominal0" if side == 0 else "nominal1"], "nominal")
        other = _gaussian(spec["nominal1" if side == 0 else "nominal0"], "nominal")
        ball = KlBallClass(nominal, float(spec["eps0" if side == 0 else "eps1"]))
        return kl_ball_members(
            ball.nominal, other, ball.radius, n_means=n, n_scales=max(3, n - 2)
        )
    nominal = _gaussian(spec["nominal0" if side == 0 else "nominal1"], "nominal")
    eps = float(spec["eps0" if side == 0 else "eps1"])
    cls = EpsContaminationClass(nominal, eps)
    lo, hi = pair.support
    atoms = np.linspace(lo, hi, max(2, n - 1))
    return contamination_members(cls, atoms)


def member_laws(
    built: BuiltSensor, spec: dict, side: int, n: int
) -> list[DiscretePmf]:
    """Channel laws induced by class members through the fixed sensor rule."""
    if built.kind == "explicit-pmf":
        return [built.channel.pmf0 if side == 0 else built.channel.pmf1]
    rule = SensorRule(built.pair, built.quantizer)
    members = class_members(spec, built.pair, side, n, built.index)
    return [member_channel(m, rule, levels=built.channel.levels) for m in members]
