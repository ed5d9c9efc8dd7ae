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

:func:`build_sensor` parses a spec once into a :class:`BuiltSensor` that
keeps its two uncertainty classes and one ``SensorRule`` (channel by
``sensor.channel_from_rule``); probes come from the classes' ``members``
methods, and spec errors name the sensor.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .distributions import GaussianSpec, pmf_from_weights
from .lfd import (
    CdfMember,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    LfdPair,
    gaussian_band_lfd,
    huber_clipped_lfd,
    kl_dabak_lfd,
)
from .sensor import (
    Quantizer,
    SensorChannel,
    SensorRule,
    channel_from_pmfs,
    channel_from_rule,
    default_quantizer,
    member_laws,
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
        if self.log_threshold is not None and math.isnan(self.log_threshold):
            raise ValueError("log_threshold must not be NaN")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if not self.sensors:
            raise ValueError("scenario needs at least one sensor")
        for i, spec in enumerate(self.sensors):
            if not isinstance(spec, dict):
                raise ValueError(f"sensor {i}: expected an object")
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
            if not isinstance(doc["sensors"], list):
                raise ValueError("sensors: expected a list of objects")
            log_threshold = doc.get("log_threshold")
            return cls(
                scenario_id=str(doc["scenario_id"]),
                prior0=_real(doc["prior0"], "prior0"),
                sensors=tuple(doc["sensors"]),
                log_threshold=None if log_threshold is None else _real(log_threshold, "log_threshold"),
                grid_points=_integer(doc.get("grid_points", 2001), "grid_points"),
                seed=_integer(doc.get("seed", 0), "seed"),
            )
        except KeyError as exc:
            raise ValueError(f"scenario is missing required key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"scenario has a malformed value ({exc})") from None


def _integer(value: Any, field: str) -> int:
    """``value`` as an int; a boolean, a string or a fractional number names ``field``."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def _real(value: Any, field: str) -> float:
    """``value`` as a float; a boolean or a string names ``field``."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{field}: expected a number, got {value!r}")
    return float(value)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2)
        fh.write("\n")


def _gaussian(doc: dict, what: str) -> GaussianSpec:
    try:
        return GaussianSpec(_real(doc["mean"], f"{what}.mean"), _real(doc["sigma"], f"{what}.sigma"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what}: expected {{mean, sigma}}, got {doc!r}") from exc


@contextmanager
def _sensor_errors(index: int, kind: str):
    """Re-raise a malformed or invalid spec's error as a ValueError naming the sensor."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sensor {index}: malformed {kind} spec ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"sensor {index}: {exc}") from None


def _classes(spec: dict) -> tuple:
    """The H0 and H1 uncertainty classes of a robust sensor spec."""
    if spec["kind"] == "gaussian-band":
        sigma = _real(spec["sigma"], "sigma")
        return tuple(
            GaussianBandClass(_real(spec[b]["mu_lo"], "mu_lo"), _real(spec[b]["mu_hi"], "mu_hi"), sigma)
            for b in ("band0", "band1")
        )
    cls = KlBallClass if spec["kind"] == "kl-ball" else EpsContaminationClass
    return tuple(
        cls(_gaussian(spec[f"nominal{j}"], f"nominal{j}"), _real(spec[f"eps{j}"], f"eps{j}"))
        for j in (0, 1)
    )


_LFD = {
    "gaussian-band": gaussian_band_lfd,
    "kl-ball": lambda c0, c1: kl_dabak_lfd(c0.nominal, c1.nominal, c0.radius, c1.radius),
    "eps-contamination": huber_clipped_lfd,
}


def build_lfd_pair(spec: dict, index: int) -> LfdPair | None:
    """LFD pair for one sensor spec; None for explicit-pmf sensors."""
    if spec["kind"] == "explicit-pmf":
        return None
    with _sensor_errors(index, spec["kind"]):
        return _LFD[spec["kind"]](*_classes(spec))


def build_quantizer(spec: dict, pair: LfdPair) -> Quantizer:
    qdoc = spec.get("quantizer")
    if not isinstance(qdoc, dict):
        raise ValueError("missing quantizer spec")
    if "thresholds" in qdoc:
        return Quantizer(tuple(_real(t, "thresholds") for t in qdoc["thresholds"]))
    if "num_thresholds" in qdoc:
        return default_quantizer(pair, _integer(qdoc["num_thresholds"], "num_thresholds"))
    raise ValueError("quantizer needs thresholds or num_thresholds")


@dataclass(frozen=True)
class BuiltSensor:
    """One parsed sensor: its channel and, unless it is explicit-pmf (None),
    its H0 and H1 uncertainty ``classes`` and its one :class:`SensorRule`."""

    index: int
    kind: str
    channel: SensorChannel
    classes: tuple | None = None
    rule: SensorRule | None = None

    @property
    def pair(self) -> LfdPair | None:
        return None if self.rule is None else self.rule.pair

    @property
    def quantizer(self) -> Quantizer | None:
        return None if self.rule is None else self.rule.quantizer

    def members(self, side: int, n: int) -> list:
        """Probes of the class for hypothesis ``side``; ``n == 1`` gives the LFD
        itself (zero-gap case). Band classes probe an n-point mean grid, KL
        balls the two-parameter tilt family, contamination classes the nominal
        and max(2, n - 1) point masses across the pair's support."""
        if n < 1:
            raise ValueError("need at least one member")
        if self.rule is None:
            return []
        if n == 1:
            return [CdfMember(self.pair.q0_cdf if side == 0 else self.pair.q1_cdf)]
        cls = self.classes[side]
        if isinstance(cls, GaussianBandClass):
            return cls.members(n)
        if isinstance(cls, KlBallClass):
            return cls.members(n, self.classes[1 - side].nominal)
        return cls.members(np.linspace(*self.pair.support, max(2, n - 1)))

    def member_laws(self, side: int, members: list) -> np.ndarray:
        """Channel laws of ``members`` (from :meth:`members`) through the
        sensor's rule, one C-ordered row per member on the channel's levels
        (:func:`~robust_fusion.sensor.member_laws`); an explicit-pmf sensor
        gives its one channel law."""
        if self.rule is None:
            return np.array([(self.channel.pmf0 if side == 0 else self.channel.pmf1).probs])
        return member_laws(members, self.rule, self.channel.levels)


def build_sensor(spec: dict, index: int) -> BuiltSensor:
    """Parse one sensor spec: its classes, LFD pair, rule and channel."""
    kind = spec["kind"]
    with _sensor_errors(index, kind):
        if kind == "explicit-pmf":
            levels = tuple(_integer(level, "levels") for level in spec["levels"])
            pmf0 = pmf_from_weights(levels, [_real(p, "pmf0") for p in spec["pmf0"]])
            pmf1 = pmf_from_weights(levels, [_real(p, "pmf1") for p in spec["pmf1"]])
            return BuiltSensor(index, kind, channel_from_pmfs(pmf0, pmf1))
        classes = _classes(spec)
        pair = _LFD[kind](*classes)
        rule = SensorRule(pair, build_quantizer(spec, pair))
        return BuiltSensor(index, kind, channel_from_rule(rule), classes, rule)


def build_sensors(scenario: Scenario) -> list[BuiltSensor]:
    return [build_sensor(spec, i) for i, spec in enumerate(scenario.sensors)]
