"""Benchmark runner for ordercircuits: three workloads, timed from outside.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20          # every workload + traced run

One workload runs in this single-threaded process as a closed loop: each
op starts when the previous one ends.  Inputs come from the seed through
bench/inputs.py, never from ordercircuits.instances.  Each op's outputs are
checked against bench/oracle.py outside the timed region.  The last
line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics (from spans, see bench/spans.py) with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH, "_runs")
sys.path.insert(0, BENCH)

from calibrate import REFERENCE_S, Calibration  # noqa: E402
from coldstart import load_corpus  # noqa: E402
from spans import MODULES, Tracer, median_ms, summarise  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLD_STARTS = 7     # set-up is the median of this many fresh interpreters
MIN_OPS = 120       # attempted ops per run: >= 100 complete, so >= 10 lie above p90
DEADLINE_S = 120    # no round starts later than this after the process began
STARTED = time.monotonic()

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of each workload: name -> (unit, kind, span or module).
#   median: median duration of the span, set-up and ops together
#   rate:   counted work / summed span duration
#   self:   the module's self time per op
LAYER = {
    "lattice": {
        "poset.from_generators_ms": ("ms", "median", "poset.poset_from_generators"),
        "poset.is_lattice_ms": ("ms", "median", "poset.is_lattice"),
        "fca.concept_lattice_ms": ("ms", "median", "fca.concept_lattice"),
        "fca.concepts_per_s": ("1/s", "rate", "fca.concept_lattice"),
        "fca.basic_circuit_ms": ("ms", "median", "fca.basic_circuit"),
        "fca.canonical_to_lattice_ms": ("ms", "median", "fca.canonical_morphism_to_lattice"),
        "fca.canonical_from_basic_ms": ("ms", "median", "fca.canonical_morphism_from_basic"),
        "circuit.connectivity_ms": ("ms", "median", "circuit.connectivity"),
        "textio.parse_ms": ("ms", "median", "textio.parse"),
        "textio.parse_kb_per_s": ("KB/s", "rate", "textio.parse"),
        "poset.self_ms_per_op": ("ms", "self", "poset"),
        "fca.self_ms_per_op": ("ms", "self", "fca"),
        "circuit.self_ms_per_op": ("ms", "self", "circuit"),
    },
    "search": {
        "poset.from_generators_ms": ("ms", "median", "poset.poset_from_generators"),
        "morphism.find_morphism_ms": ("ms", "median", "morphism.find_morphism"),
        "circuit.find_isomorphism_ms": ("ms", "median", "circuit.find_isomorphism"),
        "morphism.endomorphisms_ms": ("ms", "median", "morphism.endomorphisms"),
        "morphism.endos_per_s": ("1/s", "rate", "morphism.endomorphisms"),
        "textio.parse_ms": ("ms", "median", "textio.parse"),
        "textio.parse_kb_per_s": ("KB/s", "rate", "textio.parse"),
        "morphism.self_ms_per_op": ("ms", "self", "morphism"),
        "circuit.self_ms_per_op": ("ms", "self", "circuit"),
        "poset.self_ms_per_op": ("ms", "self", "poset"),
    },
    "rewrite_cli": {
        "poset.from_generators_ms": ("ms", "median", "poset.poset_from_generators"),
        "poset.covers_ms": ("ms", "median", "poset.covers"),
        "congruence.is_compatible_ms": ("ms", "median", "congruence.is_compatible"),
        "congruence.quotient_circuit_ms": ("ms", "median", "congruence.quotient_circuit"),
        "congruence.atomic_decomposition_ms": ("ms", "median", "congruence.atomic_decomposition"),
        "morphism.factorise_ms": ("ms", "median", "morphism.factorise"),
        "textio.parse_ms": ("ms", "median", "textio.parse"),
        "textio.parse_kb_per_s": ("KB/s", "rate", "textio.parse"),
        "textio.serialise_ms": ("ms", "median", "textio.serialise"),
        "textio.to_dot_ms": ("ms", "median", "textio.to_dot"),
        "cli.quotient_ms": ("ms", "median", "cli.main:quotient"),
        "cli.atomic_decomp_ms": ("ms", "median", "cli.main:atomic-decomp"),
        "cli.factorise_ms": ("ms", "median", "cli.main:factorise"),
        "cli.dot_ms": ("ms", "median", "cli.main:dot"),
        "cli.self_ms": ("ms", "cli_self", None),
        "cli.self_ms_per_op": ("ms", "self", "cli"),
        "textio.self_ms_per_op": ("ms", "self", "textio"),
        "congruence.self_ms_per_op": ("ms", "self", "congruence"),
        "morphism.self_ms_per_op": ("ms", "self", "morphism"),
        "poset.self_ms_per_op": ("ms", "self", "poset"),
    },
}
for _w in LAYER:
    LAYER[_w]["trace_overhead_pct"] = ("%", "overhead", None)
    LAYER[_w]["wall_ops_per_s"] = ("1/s", "wall_rate", None)


class Tally:
    """Ops attempted and failed, latencies of completed ops, timed wall
    time, failure messages and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.wall = 0.0
        self.problems = []
        self.failures = {}

    def add(self, w, outs, wall):
        """Count one round and check its outputs (outside the timed region)."""
        self.wall += wall
        for slot, (k, ok, out, lat) in enumerate(outs):
            self.attempted += 1
            if not ok:
                self.failed += 1
                msg = f"{type(out).__name__}: {out}"
                self.failures[msg] = self.failures.get(msg, 0) + 1
                continue
            self.latencies.append(lat)
            for problem in w.check(k, out, slot):
                self.problems.append(f"{w.name} input {k}: {problem}")

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.wall += other.wall
        self.problems += other.problems
        for msg, c in other.failures.items():
            self.failures[msg] = self.failures.get(msg, 0) + c

    @property
    def completed(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        return self.completed / self.wall


def span(tracer, label):
    return contextlib.nullcontext() if tracer is None else tracer.root(label)


def run_round(w, r, tracer=None):
    """One round of ops, back to back; returns per-op results and wall time."""
    outs = []
    clock = time.perf_counter
    start = clock()
    for slot, k in enumerate(w.round(r)):
        t0 = clock()
        try:
            with span(tracer, f"op:{w.name}"):
                out = w.op(k, slot)
            ok = True
        except Exception as exc:  # a failing op is counted, not fatal
            out, ok = exc, False
        outs.append((k, ok, out, clock() - t0))
    return outs, clock() - start


def cold_setup(w):
    """Median set-up in reference seconds, from fresh interpreters to the
    corpus loaded; each start is scaled by the calibration it runs next."""
    script = os.path.join(BENCH, "coldstart.py")
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, script, SRC, w.corpus_dir],
                              capture_output=True, text=True, timeout=170, check=True)
        loaded, cal = map(float, proc.stdout.split())
        times.append((loaded - t0) * REFERENCE_S / cal)
    return statistics.median(times)


def import_library():
    sys.path.insert(0, SRC)
    oc = importlib.import_module("ordercircuits")
    if not oc.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"error: imported ordercircuits from {oc.__file__}, not {SRC}")
    for m in MODULES:
        importlib.import_module(f"ordercircuits.{m}")
    return oc


def make_workload(name, seed, run_dir, oc, tracer=None):
    w = WORKLOADS[name](seed, run_dir)
    with span(tracer, f"setup:{name}"):
        docs = load_corpus(oc.textio, w.corpus_dir)
    w.bind(oc, docs)
    return w


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(name, seed, seconds, run_dir):
    """End-to-end metrics; returns (counted tally, warm-up tally, metrics).

    Times are in reference seconds (see calibrate.py): the ops scaled by
    the calibration after each round, each cold start by its own.
    """
    oc = import_library()
    w = make_workload(name, seed, run_dir, oc)
    setup_s = cold_setup(w)
    warm = Tally()
    warm.add(w, *run_round(w, 0))
    tally = Tally()
    cal = Calibration()
    r = 1
    while ((tally.wall < seconds or tally.attempted < MIN_OPS)
           and time.monotonic() - STARTED < DEADLINE_S):
        gc.collect()
        tally.add(w, *run_round(w, r))
        cal.measure()
        r += 1
    lat = tally.latencies
    if len(lat) < 2:
        raise SystemExit(f"error: {tally.completed} of {tally.attempted} ops completed")
    f = cal.factor()
    print(f"# wall time: {tally.ops_per_s:.4f} ops/s, p50 {statistics.median(lat) * 1e3:.4f} ms, "
          f"calibration {statistics.mean(cal.times) * 1e3:.3f} ms, "
          f"factor {f:.4f}", file=sys.stderr)
    metrics = {
        "ops_per_s": tally.ops_per_s / f,
        "op_p50_ms": statistics.median(lat) * f * 1e3,
        "op_p90_ms": percentile(lat, 90) * f * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, warm, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def cli_self_ms(w):
    """Median per document of (the four cli.main calls) - (their layer calls).

    Two untraced measurements over two rounds, alternating which goes first.
    """
    diffs = []
    for r in range(2):
        for slot, k in enumerate(w.round(r)):
            spent = {}
            for how in (("cli", "direct") if (r + slot) % 2 else ("direct", "cli")):
                t0 = time.perf_counter()
                getattr(w, how)(k, slot)
                spent[how] = time.perf_counter() - t0
            diffs.append(spent["cli"] - spent["direct"])
    return statistics.median(diffs) * 1e3


def layer_metrics(w, spans, plain, spanned, f):
    """The workload's per-layer metrics, and its per-module time split.

    Times are scaled by `f`, reference seconds per wall second."""
    durations, counts, _, _, _ = summarise(spans, {f"op:{w.name}", f"setup:{w.name}"})
    _, _, self_ns, busy_ns, n_ops = summarise(spans, {f"op:{w.name}"})
    metrics = {}
    for m, (unit, kind, key) in LAYER[w.name].items():
        if kind == "median":
            value = median_ms(durations[key]) * f
        elif kind == "rate":
            value = counts[key] / (sum(durations[key]) / 1e9) / f
            if unit == "KB/s":
                value /= 1000
        elif kind == "self":
            value = self_ns[key] / 1e6 / n_ops * f
        elif kind == "overhead":
            value = (1 - spanned.ops_per_s / plain.ops_per_s) * 100
        elif kind == "wall_rate":
            value = plain.ops_per_s
        else:
            value = cli_self_ms(w) * f
        metrics[f"{w.name}.{m}"] = {"value": value, "unit": unit}
    split = {
        "traced_ops": n_ops,
        "self_ms_per_op": {k: v / 1e6 / n_ops * f for k, v in sorted(self_ns.items())},
        "busy_ms_per_op": {k: v / 1e6 / n_ops * f for k, v in sorted(busy_ns.items())},
        "ops_per_s_untraced": plain.ops_per_s,
        "ops_per_s_traced": spanned.ops_per_s,
    }
    return metrics, split


def traced(name, seed, seconds, run_dir):
    """Per-layer metrics of every workload, from spans.

    After an uncounted warm-up round, the named workload runs pairs of
    untraced and traced rounds over the same inputs for --seconds; each
    other workload runs two such pairs, so that every per-layer metric is
    measured in every traced run.  Only the named workload's paired rounds
    count as attempted and failed.  Returns (counted tally, uncounted
    tally, metrics).
    """
    oc = import_library()
    tracer = Tracer(oc)
    metrics, split, cal_times = {}, {}, []
    counted, others = Tally(), Tally()
    for wname in [name] + [x for x in WORKLOADS if x != name]:
        with tracer.installed():
            w = make_workload(wname, seed, run_dir, oc, tracer)
        others.add(w, *run_round(w, 0))
        plain, spanned, cal = Tally(), Tally(), Calibration()
        r = 1
        while r < 3 or (wname == name and plain.wall + spanned.wall < seconds
                        and time.monotonic() - STARTED < DEADLINE_S):
            # Inputs run faster the second time, so the order alternates.
            for traced_now in ((False, True) if r % 2 else (True, False)):
                gc.collect()
                if traced_now:
                    with tracer.installed():
                        spanned.add(w, *run_round(w, r, tracer))
                else:
                    plain.add(w, *run_round(w, r))
            cal.measure()
            r += 1
        for t in (plain, spanned):
            (counted if wname == name else others).merge(t)
        m, split[wname] = layer_metrics(w, tracer.spans, plain, spanned, cal.factor())
        metrics.update(m)
        cal_times += cal.times
    metrics["calibration_ms"] = {"value": statistics.mean(cal_times) * 1e3, "unit": "ms"}
    base = os.path.join(RUNS, f"trace-{name}-seed{seed}")
    tracer.dump(base + ".jsonl")
    with open(base + "-summary.json", "w", encoding="utf-8") as fh:
        json.dump(split, fh, indent=1, sort_keys=True)
    for wname, s in split.items():
        parts = " ".join(f"{k}={v:.2f}" for k, v in s["self_ms_per_op"].items())
        print(f"# {wname} self ms/op over {s['traced_ops']} traced ops: {parts}",
              file=sys.stderr)
    return counted, others, metrics


def report(name, tally, side):
    print(f"# {name}: attempted {tally.attempted}, failed {tally.failed}, "
          f"failed checks {len(tally.problems) + len(side.problems)}", file=sys.stderr)
    for label, t in (("", tally), (" (not counted)", side)):
        for msg, c in sorted(t.failures.items()):
            print(f"#   failed x{c}{label}: {msg}", file=sys.stderr)
    for problem in (tally.problems + side.problems)[:20]:
        print(f"#   CHECK FAILED: {problem}", file=sys.stderr)


def run_all(args):
    """Every workload untraced, then one traced run; prints every metric."""
    script = os.path.abspath(__file__)
    rows = []
    for name in WORKLOADS:
        rows.append((name, 0))
    rows.append((next(iter(WORKLOADS)), 1))
    results = {}
    for name, trace in rows:
        cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[f"{name}{' (traced)' if trace else ''}"] = res
        print(f"== {name}{' traced run' if trace else ''}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"   {metric:48s} {v['value']:14.4f} {v['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ordercircuits", "__init__.py")):
        print(f"error: no ordercircuits sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        run = traced if args.trace else untraced
        tally, side, metrics = run(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report(args.workload, tally, side)
    print(json.dumps({"correct": not (tally.problems or side.problems),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
