"""Span tracing of robust_fusion's public functions, from outside the package.

``Tracer.install`` replaces every public function of every package module
with a timing wrapper, under each name that refers to it (so
``fusion.channel_from_quantizer`` and ``scenario.channel_from_quantizer``
both route through the wrapper of ``sensor.channel_from_quantizer``);
``uninstall`` puts the originals back. A span is (name, start, end,
parent); spans stay in memory until ``save``. Counters are updated at the
same boundaries by per-function hooks. The package's own code is not
modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from array import array
from time import perf_counter

import numpy as np

MODULES = ("_roots", "distributions", "lfd", "ordering", "sensor", "fusion", "scenario", "cli")


def layer_name(module_name: str) -> str:
    # metric names may not start with "_", so the _roots module is "roots"
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _size(pmf) -> int:
    atoms = getattr(pmf, "atoms", None)
    return len(atoms) if atoms is not None else len(pmf.levels)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.pass_starts: list[int] = []  # first span index of each traced pass
        self.counts: dict[str, float] = {}
        self.originals: dict[tuple[object, str], object] = {}
        self.wrappers: dict[object, object] = {}
        self.hooks = {
            "fusion.exact_error": self._hook_exact_error,
            "fusion.saddle_verify": self._hook_saddle_verify,
            "ordering.convolve": self._hook_convolve,
            "sensor.channel_from_quantizer": self._hook_channel,
        }
        self._seen_channels: set = set()
        self._keep_alive: list = []
        self._signatures: dict[str, inspect.Signature] = {}

    # -- installation -------------------------------------------------------

    def _wrap(self, fn):
        name = f"{layer_name(fn.__module__)}.{fn.__name__}"
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        self._signatures[name] = inspect.signature(fn)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(name, args, kwargs, result)

        return wrapper

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                if obj not in self.wrappers:
                    self.wrappers[obj] = self._wrap(obj)
                self.originals[(module, attr)] = obj
                setattr(module, attr, self.wrappers[obj])

    def uninstall(self) -> None:
        for (module, attr), obj in self.originals.items():
            setattr(module, attr, obj)
        self.originals.clear()

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.span_start))
        self._seen_channels.clear()
        self._keep_alive.clear()

    # -- counters -----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _bind(self, name, args, kwargs):
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _hook_exact_error(self, name, args, kwargs, result) -> None:
        a = self._bind(name, args, kwargs)
        joint = math.prod(len(ch.levels) for ch in a["net"].channels)
        enumerated = joint <= a["enumeration_limit"] and (
            a["cross_check"] or a["method"] == "enumeration"
        )
        if enumerated:
            self._add("fusion.exact_error.enum_points", 2 * joint)
        else:
            self._add("fusion.exact_error.cross_check_skipped", 1)

    def _hook_saddle_verify(self, name, args, kwargs, result) -> None:
        if result is None:
            return
        a = self._bind(name, args, kwargs)
        grid = sum(
            math.prod(len(laws) for laws in side)
            for side in (a["member_laws0"], a["member_laws1"])
        )
        self._add("fusion.saddle_verify.combos", result.n_checked)
        self._add("fusion.saddle_verify.grid", grid)

    def _hook_convolve(self, name, args, kwargs, result) -> None:
        a = args[0] if len(args) > 0 else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        self._add("ordering.convolve.atoms_in", _size(a) * _size(b))
        if result is not None:
            out = len(result.atoms)
            self._add("ordering.convolve.atoms_out", out)
            key = "ordering.convolve.atoms_out_max"
            self.counts[key] = max(self.counts.get(key, 0), out)

    def _hook_channel(self, name, args, kwargs, result) -> None:
        a = self._bind(name, args, kwargs)
        pair = a["pair"]
        self._keep_alive.append(pair)  # keeps id(pair) unique within the pass
        key = (id(pair), a["q"].thresholds, a["grid"] is None)
        if key in self._seen_channels:
            self._add("sensor.channel_from_quantizer.repeats", 1)
        self._seen_channels.add(key)

    # -- results ------------------------------------------------------------

    def arrays(self):
        names = np.array(self.span_name, dtype=np.int32)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        parent = np.array(self.span_parent, dtype=np.int32)
        return names, start, end, parent

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, seconds, self seconds) per wrapped function over all spans.

        Self time is the span's duration minus the time its direct children
        cover. The benchmark drives the package from one thread with
        ROBUST_FUSION_THREADS=1, so children never overlap and the covered
        time is the sum of their durations.
        """
        names, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        secs = np.bincount(names, weights=dur, minlength=n)
        self_secs = np.bincount(names, weights=self_time, minlength=n)
        return {
            name: (int(calls[i]), float(secs[i]), float(self_secs[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path_stem, extra: dict) -> None:
        """Write the spans (npz) and a JSON summary next to each other."""
        names, start, end, parent = self.arrays()
        np.savez(
            f"{path_stem}.npz",
            name=names, start=start, end=end, parent=parent,
            pass_start=np.asarray(self.pass_starts, dtype=np.int64),
        )
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"span_names": self.names, "counts": self.counts, **extra}, fh, indent=1)
