"""Benchmark of the combings package: one workload per run, closed loop.

    python3 bench/run.py --workload z2-roundtrip --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one pass at a time until --seconds have gone by.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json: the median set-up, pass and stage
times of the run, each scaled by the host probe (probe.py); with
--trace 1 it carries the per-layer metrics of a traced run, which first
times untraced passes for half the time and then traced passes for the
other half.  A table with sample counts, minimum and quartiles of the
unscaled times goes to standard error.  See bench/README.md for the
workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import Tracer
from probe import Probe
from workloads import WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups after each untraced pass; their median is reported
PROBE_REF_S = 0.005  # times are reported for a host on which a probe sample takes this long
MIN_PASSES = 2


def import_library():
    """A fresh import of the package from src/, so that every set-up pays
    for it."""
    for name in [m for m in sys.modules if m == "combings" or m.startswith("combings.")]:
        del sys.modules[name]
    pkg = importlib.import_module("combings")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "combings":
        raise ImportError(f"combings was imported from {pkg.__file__}, not from {ROOT / 'src'}")
    mods = {m: importlib.import_module(f"combings.{m}") for m in ("nfa", "structures", "cli")}
    return SimpleNamespace(
        Alphabet=pkg.Alphabet, Nfa=pkg.Nfa, Transducer=pkg.Transducer,
        LinearLanguage=pkg.LinearLanguage, AbelianOracle=pkg.AbelianOracle,
        FiniteOracle=pkg.FiniteOracle, **mods,
    )


def measure(workload, seconds: float, min_passes: int, tracer=None, probe=None, between=None):
    """Closed loop: passes back to back, at least min_passes of them, and no
    pass started that would end, by the median pass so far, more than half
    a pass after the time is up.  With a probe, each pass is timed by the
    probe's clock and keeps the median of the samples taken while it ran.
    between, when given, runs after each pass."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or (
            perf_counter() - start + statistics.median(p.wall_s for p in passes) / 2 < seconds):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        if probe is None:
            p = Pass()
            t0 = perf_counter()
            workload.run(p)
            p.wall_s = perf_counter() - t0
        else:
            p = Pass(probe.clock)
            with probe.sampling():
                t0 = probe.clock()
                workload.run(p)
                p.wall_s = probe.clock() - t0
            p.samples = probe.samples
            p.probe_s = statistics.median(probe.samples) if probe.samples else probe.point()
        if tracer is not None:
            p.layers = tracer.summary()
        passes.append(p)
        if between is not None:
            between()
    return passes


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured while the probe took probe_s, at the speed of a host
    on which it takes PROBE_REF_S.  The host's speed drifts by tens of
    percent over seconds to minutes (see probe.py); the probe drifts with
    it, and the ratio does not."""
    return seconds * PROBE_REF_S / probe_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "combings" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'combings'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, spec, WORKLOADS[args.workload](), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


def run(args, spec, workload, workdir: Path) -> int:
    start = perf_counter()
    # the first import compiles the sources, so the first set-up is not timed
    workload.setup(import_library(), args.seed, workdir)
    table = {}
    values = {}
    if args.trace == 0:
        probe = Probe()
        peak_rss_mb = None
        setup_s = []  # (seconds, probe point just before)

        def between() -> None:
            nonlocal peak_rss_mb
            if peak_rss_mb is None:
                # after set-up and one pass, before set-up repeats
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            t = probe.point()
            for _ in range(SETUPS):
                t0 = perf_counter()
                workload.setup(import_library(), args.seed, workdir)
                setup_s.append((perf_counter() - t0, t))

        plain = measure(workload, args.seconds - (perf_counter() - start), MIN_PASSES, probe=probe,
                        between=between)
        traced = []
        table["setup_s"] = [sec for sec, _ in setup_s]
        table["pass_s"] = [p.wall_s for p in plain]
        for stage in ("extract", "build", "verify"):
            table[f"{stage}_s"] = [p.stage_s[stage] for p in plain]
        table["probe sample_s"] = [t for p in plain for t in p.samples]
        values["setup_s"] = statistics.median(scaled(sec, t) for sec, t in setup_s)
        values["pass_s"] = statistics.median(scaled(p.wall_s, p.probe_s) for p in plain)
        for stage in ("extract", "build", "verify"):
            values[f"{stage}_s"] = statistics.median(scaled(p.stage_s[stage], p.probe_s) for p in plain)
        values["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    else:
        plain = measure(workload, (args.seconds - (perf_counter() - start)) / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds - (perf_counter() - start), MIN_PASSES, tracer)
        finally:
            tracer.uninstall()
        table["pass_s"] = [p.wall_s for p in plain]
        table["traced pass_s"] = [p.wall_s for p in traced]
        values["trace.overhead_s"] = statistics.median(table["traced pass_s"]) - statistics.median(table["pass_s"])
        names = tracer.metric_names()
        for m in spec["per_layer"]:
            name = m["name"]
            if name in values:
                continue
            if name not in names:
                raise KeyError(f"per-layer metric {name} is not produced by the tracer")
            table[name] = [p.layers.get(name, 0) for p in traced]
            values[name] = statistics.median(table[name])
        wanted = spec["per_layer"]
    measured = plain + traced

    attempted = sum(p.attempted for p in measured)
    failures = [f for p in measured for f in p.failures]
    # exact work counts must repeat from pass to pass
    for p in measured[1:]:
        attempted += 1
        if p.sizes != measured[0].sizes:
            failures.append(f"work counts differ between passes: {p.sizes} vs {measured[0].sizes}")
    for p in traced[1:]:
        attempted += 1
        counts = {k: v for k, v in p.layers.items() if not k.endswith("_s")}
        first = {k: v for k, v in traced[0].layers.items() if not k.endswith("_s")}
        if counts != first:
            diff = sorted(k for k in counts.keys() | first.keys() if counts.get(k) != first.get(k))
            failures.append(f"layer counts differ between traced passes: {diff}")
    values["ok_ratio"] = (attempted - len(failures)) / attempted

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(measured)} passes", file=sys.stderr)
    for name, series in table.items():
        q1, q2, q3 = quartiles(series)
        print(f"  {name:44s} n={len(series):3d} min={min(series):.6g} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}",
              file=sys.stderr)
    for item, sizes in measured[0].sizes.items():
        print(f"  sizes {item}: {sizes}", file=sys.stderr)
    for f in failures[:20]:
        print(f"  FAILED {f}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
