"""The benchmark's hold on the package: every module, function and parameter
that ``perfbench/`` reaches by name must exist. The benchmark runs against
the committed package, so a rename here would break it silently (a span
that reads 0, or a hook that raises). This file only reads ``perfbench/``.
"""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

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
    or writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
