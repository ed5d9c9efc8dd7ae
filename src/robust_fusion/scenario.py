"""Scenario files: a single JSON object describing one network instance.

Schema (one top-level object)::

    {
      "scenario_id": "example-band",
      "prior0": 0.5,
      "log_threshold": null,        # optional override of log(prior0/prior1)
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

A ``grid_points`` key, which older files carry, is accepted and ignored:
nothing is computed on a grid. Other unknown keys are ignored too. Sensor
kinds may be mixed freely (composite networks). Floats are written
in Python's shortest round-trip form (at most 17 significant digits), so
parse -> serialize -> parse is the identity.

:func:`build_sensor` parses a spec once into a :class:`BuiltSensor` that
keeps its two uncertainty classes and one ``SensorRule`` (channel by
``sensor.channel_from_rule``); spec errors name the sensor. :func:`certify`
checks each sensor's joint boundedness over its whole classes in closed
form, and the saddle point: band and contamination sensors with their LFD
laws, KL-ball sensors over the probes of ``KlBallClass.members``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .distributions import GaussianSpec, pmf_from_weights
from .fusion import NetworkModel, SaddleReport, saddle_verify
from .lfd import (
    BoundednessReport,
    EpsContaminationClass,
    GaussianBandClass,
    KlBallClass,
    LfdPair,
    gaussian_band_lfd,
    huber_clipped_lfd,
    joint_boundedness_check,
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
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.prior0 < 1.0:
            raise ValueError(f"prior0 must be in (0, 1), got {self.prior0}")
        if self.log_threshold is not None and math.isnan(self.log_threshold):
            raise ValueError("log_threshold must not be NaN")
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


def _gaussian(doc: dict, what: str) -> GaussianSpec:
    try:
        return GaussianSpec(_real(doc["mean"], f"{what}.mean"), _real(doc["sigma"], f"{what}.sigma"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what}: expected {{mean, sigma}}, got {doc!r}") from exc


@contextmanager
def _sensor_errors(index: int, kind: str):
    """Re-raise a malformed or invalid spec's error as a ValueError naming the
    sensor; so is a division by zero or an overflow, from finite parameters
    too small or too large for floating point."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sensor {index}: malformed {kind} spec ({exc})") from exc
    except ArithmeticError as exc:
        raise ValueError(f"sensor {index}: parameters out of floating-point range ({exc})") from exc
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


# each constructor is looked up when called, so a rebinding of its name reaches it
_LFD = {
    "gaussian-band": lambda c0, c1: gaussian_band_lfd(c0, c1),
    "kl-ball": lambda c0, c1: kl_dabak_lfd(c0.nominal, c1.nominal, c0.radius, c1.radius),
    "eps-contamination": lambda c0, c1: huber_clipped_lfd(c0, c1),
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
        """Probes of a KL-ball class for hypothesis ``side``, read only by the
        saddle pass (boundedness is checked over the whole ball): its
        two-parameter tilt family, or the LFD itself when ``n == 1``
        (zero-gap case). A band or contamination sensor enters the saddle
        pass with its LFD laws and an explicit-pmf sensor has no class, so
        neither has probes."""
        if n < 1:
            raise ValueError("need at least one member")
        if self.kind != "kl-ball":
            return []
        if n == 1:
            return [self.pair.q0 if side == 0 else self.pair.q1]
        return self.classes[side].members(n, self.classes[1 - side].nominal)

    def member_laws(self, side: int, members: list) -> np.ndarray:
        """Channel laws of ``members`` (from :meth:`members`) through the
        sensor's rule, one C-ordered row per member on the channel's levels
        (:func:`~robust_fusion.sensor.member_laws`); with no members, the
        channel's own law for ``side`` as the one row."""
        if not members:
            return np.array([(self.channel.pmf0 if side == 0 else self.channel.pmf1).probs])
        return member_laws(members, self.rule, self.channel.levels)


@dataclass(frozen=True)
class Certificate:
    """A network's saddle certificate: one ``(sensor index, report)`` and
    one ``(sensor index, coverage)`` per robust sensor in sensor order, and
    the saddle report. Every boundedness report covers the sensor's whole
    classes, in closed form (``boundedness_gaps``). Coverage is that of the
    saddle pass: ``"exact"`` for band and contamination sensors, which
    enter it with their LFD laws, their worst members (Veeravalli, Basar &
    Poor 1994); ``"probes"`` for KL-ball sensors, which enter it with their
    probe members."""

    boundedness: tuple[tuple[int, BoundednessReport], ...]
    coverage: tuple[tuple[int, str], ...]
    saddle: SaddleReport


def _t_grid(pair: LfdPair) -> np.ndarray:
    """The t grid: 101 points over the log-LR range, deduplicated (a constant one spans one)."""
    lo, hi = pair.log_lr_range()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"log-LR range [{lo!r}, {hi!r}] is not finite; "
            "the boundedness check needs a finite grid"
        )
    t_grid = np.linspace(lo, hi, 101)
    return t_grid[np.append(True, np.diff(t_grid) > 0.0)]


def certify(built: list[BuiltSensor], net: NetworkModel, n: int) -> Certificate:
    """Joint boundedness of each robust sensor over its whole classes, and
    the saddle point of ``net`` (``built``'s channels): band and
    contamination sensors with their LFD laws, KL-ball sensors over ``n``
    probes per class. Each distinct build is checked and read once; an
    error while doing so names the sensor."""
    checks = {}  # channel -> (report, or None without a pair; H0 laws; H1 laws)
    for b in built:
        if b.channel not in checks:
            try:
                members = b.members(0, n), b.members(1, n)
                report = b.pair and joint_boundedness_check(b.pair, *b.classes, _t_grid(b.pair))
            except ValueError as exc:
                raise ValueError(f"sensor {b.index}: {exc}") from None
            checks[b.channel] = (report, *map(b.member_laws, (0, 1), members))
    laws0, laws1 = ([checks[b.channel][side] for b in built] for side in (1, 2))
    robust = [b for b in built if b.pair is not None]
    boundedness = tuple((b.index, checks[b.channel][0]) for b in robust)
    coverage = tuple((b.index, "probes" if b.kind == "kl-ball" else "exact") for b in robust)
    return Certificate(boundedness, coverage, saddle_verify(net, laws0, laws1))


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
    """Each sensor of the scenario. A spec whose JSON text equals an earlier
    one's gets that build under its own index; text, not ``==``, under which
    ``true`` equals ``1`` and a refused spec could reuse a valid build."""
    built: dict[str, BuiltSensor] = {}
    sensors = []
    for i, spec in enumerate(scenario.sensors):
        text = json.dumps(spec, sort_keys=True, default=repr)
        sensors.append(replace(built[text], index=i) if text in built else build_sensor(spec, i))
        built.setdefault(text, sensors[-1])
    return sensors
