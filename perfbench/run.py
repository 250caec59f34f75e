"""Benchmark of the localfeatures pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones, and the spans go to
perfbench/out/trace-<workload>-<seed>.json. See perfbench/README.md for what
each metric means and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import DIAGNOSTIC_CODES, WORKLOADS, run_child  # noqa: E402

SETUP_CHILDREN = 4
SETUP_SNIPPET = """\
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import localfeatures
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        localfeatures.parse_spl_definition(handle.read(), filename=path)
print(time.process_time() - start)
"""

PROBE_RUNS = 7
PROBE_REFERENCE_S = 0.004


@dataclass(frozen=True)
class _Item:
    key: int
    rank: int
    group: frozenset


def probe() -> float:
    """CPU seconds of a fixed stdlib-only kernel (frozen dataclasses, dicts,
    sets, sorting, JSON), the median of PROBE_RUNS runs. The package is not
    involved, so the time tracks only how fast the machine runs now. Keys
    are ints, whose hashes do not change from process to process, and the
    kernel's few hundred kilobytes stay below the heap of any workload, so
    it leaves peak_rss_mb alone."""
    times = []
    for _ in range(PROBE_RUNS):
        start = time.process_time()
        table = {}
        for i in range(1500):
            item = _Item(i, i % 97, frozenset((i % 7, 100 + i % 11)))
            table[item.key] = item
        ranked = sorted(table.values(), key=lambda item: (item.rank, item.key))
        json.dumps({"keys": [f"F{item.key}" for item in ranked],
                    "groups": sorted(set().union(*(item.group for item in ranked)))})
        times.append(time.process_time() - start)
    return statistics.median(times)


LAYER_SPANS = {
    "lexer.tokenize_s": "lexer.tokenize", "parser.parse_s": "parser.parse",
    "spldef.parse_s": "spldef.parse", "resolver.resolve_s": "resolver.resolve",
    "features.close_s": "features.close", "multimodel.effective_s": "multimodel.effective",
    "multimodel.included_s": "multimodel.included", "emitter.emit_s": "emitter.emit",
    "emitter.verify_s": "emitter.verify", "features.enumerate_s": "features.enumerate",
}
LAYER_COUNTS = ("lexer.tokens", "parser.decls", "spldef.features", "resolver.elements",
                "resolver.bindings", "resolver.distinct_selections", "emitter.bytes",
                "features.configs", *(f"resolver.diagnostics.{c}" for c in DIAGNOSTIC_CODES))
CLI_COMMANDS = ("check", "emit", "explain", "features", "enumerate")
PEAK_LAYERS = ("lexer", "parser", "spldef", "resolver", "emitter", "features")


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, label in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("bytes", "bytes"),
                          ("ratio", "ratio")):
        if name.endswith(suffix):
            return label
    return "count"


def tail(samples: list[float], planned: int) -> tuple[float, float]:
    """(percentile, value): the highest percentile that leaves at least ten
    of the run's planned samples beyond it, never below the median."""
    q = max(0.5, 1 - 10 / planned)
    if q == 0.5:
        return q, statistics.median(samples)
    ordered = sorted(samples)
    return q, ordered[min(len(ordered), math.ceil(q * len(ordered))) - 1]


def repeat(workload, lf, tracer, seconds: float, min_reps: int,
           probes: list[float] | None = None) -> list[tuple[list[float], float]]:
    """Repetitions until the next would end past `seconds` of wall time,
    at least min_reps. Given a `probes` list, a probe runs before each
    repetition and after the last, into it. Each repetition starts from a
    collected heap, so that every one sees the same heap state; the
    collector stays on."""
    reps, start = [], time.perf_counter()
    while True:
        gc.collect()
        if probes is not None:
            probes.append(probe())
        if tracer.on:
            tracer.begin_rep()
        began = time.perf_counter()
        try:
            result = workload.rep(lf, tracer)
        finally:
            if tracer.on:
                tracer.end_rep()
        reps.append(result)
        lasted = time.perf_counter() - began
        if len(reps) >= min_reps and time.perf_counter() - start + lasted > seconds:
            if probes is not None:
                probes.append(probe())
            return reps


def measure_setup(workload, src: Path) -> tuple[object, list[float]]:
    """Import the package and parse the workload's definitions, here and in
    SETUP_CHILDREN fresh interpreters; returns the module and all times, in
    CPU seconds of the interpreter doing it."""
    paths = [str(p) for p in workload.definitions()]
    times = []
    for _ in range(SETUP_CHILDREN):
        child = run_child([sys.executable, "-c", SETUP_SNIPPET, str(src), *paths],
                          workload.work)
        if child.code != 0:
            raise RuntimeError(f"set-up child failed: {child.err.strip()}")
        times.append(float(child.out))
    start = time.process_time()
    sys.path.insert(0, str(src))
    lf = importlib.import_module("localfeatures")
    workload.setup(lf)
    times.insert(0, time.process_time() - start)
    return lf, times


def end_to_end(workload, reps, setup_times: list[float],
               probes: list[float] | None) -> tuple[dict, list[str]]:
    """Medians of the run's samples, in CPU seconds. Given probes, each
    repetition's times are scaled by the mean of the probes on either side
    of it, to the machine speed at which the probe takes PROBE_REFERENCE_S.
    Set-up, which runs mostly in fresh interpreters, is not scaled."""
    scales = ([2 * PROBE_REFERENCE_S / (before + after)
               for before, after in zip(probes, probes[1:])]
              if probes else [1.0] * len(reps))
    ops = [t * k for (op_times, _), k in zip(reps, scales) for t in op_times]
    q, tail_s = tail(ops, workload.ops_per_rep * workload.min_reps)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "work_s": statistics.median(work * k for (_, work), k in zip(reps, scales)),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": workload.peak_rss_mb,
    }
    notes = [f"set-ups {len(setup_times)}, repetitions {len(reps)}, operations {len(ops)}",
             f"op_tail_ms is p{q * 100:g} of {len(ops)} operations "
             f"({len(ops) - math.ceil(q * len(ops))} beyond it)"]
    if probes:
        raw = [t for op_times, _ in reps for t in op_times]
        notes.append(
            f"probes {len(probes)}, median {statistics.median(probes) * 1e3:.4g} ms; unscaled: "
            f"work_s {statistics.median(work for _, work in reps):.6g}, "
            f"op_p50_ms {statistics.median(raw) * 1e3:.6g}, "
            f"op_tail_ms {tail(raw, workload.ops_per_rep * workload.min_reps)[1] * 1e3:.6g}")
    return metrics, notes


def per_layer(tracer: Tracer, untraced, traced, peaks: dict) -> dict:
    times = tracer.layer_times()

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def span(rep: dict, name: str) -> float:
        return rep.get(name, (0.0, 0.0))[0]

    metrics = {name: median(span(rep, s) for rep in times) for name, s in LAYER_SPANS.items()}
    for name in LAYER_COUNTS:
        metrics[name] = median(c[name] for c in tracer.counts)
    metrics["parser.self_s"] = median(span(rep, "parser.parse") - span(rep, "lexer.tokenize")
                                      for rep in times)
    for rate, count, seconds in (("lexer.tokens_per_s", "lexer.tokens", "lexer.tokenize_s"),
                                 ("features.configs_per_s", "features.configs",
                                  "features.enumerate_s")):
        metrics[rate] = metrics[count] / metrics[seconds] if metrics[seconds] else 0.0
    bindings = metrics["resolver.bindings"]
    metrics["resolver.distinct_ratio"] = (
        metrics["resolver.distinct_selections"] / bindings if bindings else 0.0)
    metrics["gc.gen2_collections"] = median(g["gen2_collections"] for g in tracer.gc)
    metrics["gc.pause_s"] = median(g["pause_s"] for g in tracer.gc)
    cli = {name: median((s["end"] - s["start"]) * 1e3 for s in tracer.spans
                        if s["name"] == f"cli.{name}")
           for name in ("interpreter", "import", *CLI_COMMANDS)}
    metrics["cli.interpreter_ms"] = cli["interpreter"]
    metrics["cli.import_ms"] = cli["import"] - cli["interpreter"] if cli["import"] else 0.0
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = cli[command]
    for layer in PEAK_LAYERS:
        metrics[f"{layer}.peak_mb"] = peaks.get(f"{layer}.peak_mb", 0.0)
    metrics["trace.overhead_s"] = (median(sum(ops) for ops, _ in traced)
                                   - median(sum(ops) for ops, _ in untraced))
    return metrics


def run(args, root: Path, work: Path) -> dict:
    workload = WORKLOADS[args.workload](root, args.seed, work)
    lf, setup_times = measure_setup(workload, root / "src")
    if not args.trace:
        probes: list[float] | None = [] if workload.in_process else None
        reps = repeat(workload, lf, NullTracer(), args.seconds, workload.min_reps, probes)
        metrics, notes = end_to_end(workload, reps, setup_times, probes)
    else:
        tracer = Tracer()
        untraced = repeat(workload, lf, NullTracer(), args.seconds / 2, 1)
        traced = repeat(workload, lf, tracer, args.seconds / 2, 1)
        peaks = workload.memory(lf)
        metrics = per_layer(tracer, untraced, traced, peaks)
        out = root / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed,
                           "metrics": metrics})
        notes = [f"untraced repetitions {len(untraced)}, traced {len(traced)}",
                 f"spans written to {out.relative_to(root)}"]
    workload.finish()
    attempted, failed = len(workload.ops), workload.failed
    print(f"{args.workload} seed {args.seed}: failed_ratio {failed / attempted:g} "
          f"({failed} of {attempted} operations failed their oracle)")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit(name)}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the repetitions run (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "localfeatures" / "__init__.py").is_file():
        print(f"error: no package source under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / "perfbench" / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
