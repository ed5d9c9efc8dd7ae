"""The benchmark's per-layer span metrics name package functions: each
``("span", name, ...)`` source of ``perfbench/run.py``'s ``PER_LAYER`` must
be a function the tracer wraps, or a span metric reads 0 with no error.
This file only reads ``perfbench/``."""

import ast
import inspect

import robust_fusion
import robust_fusion.cli  # noqa: F401  (the package does not import its CLI; perfbench does)

from test_bench_contract import PERFBENCH, _load

# span sources that name no package function any more (the functions left
# the package); they read 0 until the benchmark drops them. The set may only
# shrink: a name that resolves again must leave it.
STALE_SPANS = {
    "fusion.best_fusion_threshold",
    "ordering.atoms_stochastically_larger",
    "roots.leftmost_true",
    "sensor.level_boundaries",
    "sensor.member_channel",
}


def test_span_sources_resolve():
    """Every span source names a public function of a traced module, under
    the name the tracer gives its spans, except the stale ones.
    ``PER_LAYER`` is read from the source text, so run.py is not imported."""
    spans = _load("spans")
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    (per_layer,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PER_LAYER"]
    ]
    names = {source[1] for _, _, source in per_layer if source[0] == "span"}
    modules = {spans.layer_name(m): getattr(robust_fusion, m) for m in spans.MODULES}

    def resolves(name: str) -> bool:
        module, function = name.split(".")
        fn = getattr(modules.get(module), function, None)
        return (
            not function.startswith("_")
            and inspect.isfunction(fn)
            and spans.layer_name(fn.__module__) == module
        )

    assert STALE_SPANS <= names
    assert {name for name in names if not resolves(name)} == STALE_SPANS
