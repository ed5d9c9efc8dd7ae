"""The benchmark's hold on the package: every module, function and parameter
that ``perfbench/`` reaches by name must exist. The benchmark runs against
the committed package, so a rename here would break it silently (a span
that reads 0, or a hook that raises). This file only reads ``perfbench/``.
"""

import importlib.util
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import robust_fusion
import robust_fusion.cli  # noqa: F401  (the package does not import its CLI; perfbench does)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# parameters the span hooks bind by name (perfbench/spans.py)
HOOK_PARAMETERS = {
    "fusion.exact_error": ("net", "enumeration_limit", "cross_check", "method"),
    "fusion.saddle_verify": ("member_laws0", "member_laws1"),
    "ordering.convolve": ("a", "b"),
    "sensor.channel_from_quantizer": ("pair", "q", "grid"),
}


def _load(name: str):
    """A perfbench module loaded from its file, without touching sys.path
    or writing a bytecode cache next to it. It is registered in
    sys.modules under its ``perfbench_`` name, as dataclasses require."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_traced_module_resolves(spans):
    """``Tracer`` reads each name of ``MODULES`` off the package, ``_roots``
    included."""
    assert "_roots" in spans.MODULES
    tracer = spans.Tracer(robust_fusion)
    assert [m.__name__ for m in tracer.modules[1:]] == [
        f"robust_fusion.{name}" for name in spans.MODULES
    ]


def test_hooked_functions_take_the_bound_parameters(spans):
    """Each hooked function is a public function of its module and has
    every parameter its hook binds by name."""
    assert set(spans.Tracer(robust_fusion).hooks) == set(HOOK_PARAMETERS)
    for name, parameters in HOOK_PARAMETERS.items():
        module, function = name.split(".")
        fn = getattr(getattr(robust_fusion, module), function)
        assert inspect.isfunction(fn) and fn.__module__ == f"robust_fusion.{module}", name
        assert set(parameters) <= set(inspect.signature(fn).parameters), name


def test_channel_from_quantizer_keeps_its_grid_parameter():
    """spans.py binds ``grid`` and design_problems.py patches
    ``fusion.channel_from_quantizer``; both must stay until the benchmark
    drops them."""
    fn = robust_fusion.fusion.channel_from_quantizer
    assert fn is robust_fusion.sensor.channel_from_quantizer
    assert inspect.signature(fn).parameters["grid"].default is None
    assert "fusion.channel_from_quantizer" in (PERFBENCH / "design_problems.py").read_text()


def test_workload_references_resolve():
    """Every ``rf.<module>.<name>`` the workloads call exists."""
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\brf\.(\w+)\.(\w+)", text))
    assert names
    for module, name in names:
        assert hasattr(getattr(robust_fusion, module), name), (module, name)


def test_default_thresholds_agree_with_the_benchmark_oracle():
    """On seeded specs of each robust kind, ``default_quantizer``'s log
    thresholds are within 1e-11 of ``oracle.default_log_thresholds``, far
    inside the benchmark's own 1e-8 check."""
    from robust_fusion.scenario import build_lfd_pair
    from robust_fusion.sensor import default_quantizer

    oracle = _load("oracle")
    rng = np.random.default_rng(11)
    compared = 0
    for _ in range(8):
        sigma, center = rng.uniform(0.7, 1.4), rng.uniform(-0.5, 0.5)
        gap = rng.uniform(0.6, 2.0) * sigma
        lo, hi = center - 0.5 * gap, center + 0.5 * gap
        nominals = {"nominal0": {"mean": lo, "sigma": sigma}, "nominal1": {"mean": hi, "sigma": sigma}}
        specs = [
            {
                "kind": "gaussian-band",
                "band0": {"mu_lo": lo - rng.uniform(0.2, 1.0) * sigma, "mu_hi": lo},
                "band1": {"mu_lo": hi, "mu_hi": hi + rng.uniform(0.2, 1.0) * sigma},
                "sigma": sigma,
            },
            {"kind": "kl-ball", **nominals, "eps0": rng.uniform(0.005, 0.04), "eps1": rng.uniform(0.005, 0.04)},
            {"kind": "eps-contamination", **nominals, "eps0": rng.uniform(0.01, 0.08), "eps1": rng.uniform(0.01, 0.08)},
        ]
        for spec in specs:
            pair, reference = build_lfd_pair(spec, 0), oracle.PAIR_BUILDERS[spec["kind"]](spec)
            for num in (1, 2, 3):
                got = [math.log(t) for t in default_quantizer(pair, num).thresholds]
                want = oracle.default_log_thresholds(reference, num)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-11, (spec, num)
                compared += 1
    assert compared == 8 * 3 * 3
