"""The benchmark's layer trace (bench/layers.py) must still produce every
per-layer metric that BENCHMARK.json declares.  Moving a traced function,
such as transducer.trim or fileformat.write, out of its module would
otherwise pass every other test and make `bench/run.py --trace 1` fail."""

import importlib.util
import json
from pathlib import Path

import combings.cli  # the tracer wraps cli as well as the modules the package imports
from combings import oracle as orc
from combings import transducer as td

ROOT = Path(__file__).resolve().parents[1]
# computed by bench/run.py from the untraced and the traced passes, not by the tracer
RUN_METRICS = {"trace.overhead_s"}


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_produces_every_declared_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    trim = td.trim
    tracer = _bench_layers().Tracer()
    tracer.install()
    try:
        produced = tracer.metric_names()
    finally:
        tracer.uninstall()
    assert td.trim is trim
    missing = [m["name"] for m in declared if m["name"] not in produced | RUN_METRICS]
    assert missing == []


def test_tracer_counts_the_letter_products_of_a_ball(z2_oracle):
    """The letter products are GroupOracle methods that every oracle
    inherits; the tracer still counts each one.  The radius-2 ball of ℤ²
    multiplies its identity and its four radius-1 elements by each of the
    four letters: 20 products."""
    classes = [c for c in vars(orc).values() if isinstance(c, type) and issubclass(c, orc.GroupOracle)]
    before = {c: dict(vars(c)) for c in classes}
    tracer = _bench_layers().Tracer()
    tracer.install()
    try:
        orc.ball(z2_oracle, 2)
        counts = tracer.summary()
    finally:
        tracer.uninstall()
    assert counts["oracle.mul.calls"] == 20
    assert {c: dict(vars(c)) for c in classes} == before
