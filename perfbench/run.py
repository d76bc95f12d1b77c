"""Benchmark runner for adapted-ot.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-aw --seed 1 --seconds 36 --trace 0

One run builds the workload's seeded inputs (set-up), then repeats the
workload's fixed list of operations, one pass after another, until
``--seconds`` would be exceeded by another pass (at least one pass runs).
Every operation's output is checked and reduced to a ``values`` record that
must repeat byte for byte in every pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced one and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a detail
record (environment, sample counts, a digest of the values). When the run
ends, the detail record with the full values and, when traced, the spans is
written to ``perfbench/out/<workload>-<seed>-t<trace>.json``.

The library is imported from ``src/`` next to this directory and nowhere
else: without it the run fails with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("lattice-aw", "mc-sync", "scheme-paths")
SETUP_SAMPLES = 3  # set-up is repeated in fresh processes; the median is reported
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "ADAPTED_OT_THREADS")

# Per-layer metrics: name -> unit. Times are seconds per pass over the
# problem set (the median over traced passes); counts are per pass and exact.
LAYER_UNITS = {
    "transport.dp_s": "s",
    "transport.dp_us_per_solve": "us",
    "transport.dp_inner_solves": "count",
    "transport.dp_inner_cells": "count",
    "transport.monge_share": "ratio",
    "transport.dp_validate_s": "s",
    "transport.kr_build_s": "s",
    "transport.kr_cost_s": "s",
    "lattice.build_s": "s",
    "lattice.fosd_s": "s",
    "lattice.nodes": "count",
    "lattice.kernel_nnz": "count",
    "model.json_s": "s",
    "noise.rng_s": "s",
    "noise.rng_calls": "count",
    "noise.rng_us_per_replicate": "us",
    "estimate.mc_s": "s",
    "estimate.mc_self_s": "s",
    "estimate.replicates": "count",
    "estimate.diverged": "count",
    "sde.scheme_s": "s",
    "sde.paths": "count",
    "trace.coverage": "ratio",
    "trace.uncovered_s": "s",
    "trace.overhead": "ratio",
}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "success_rate": "ratio"}


def import_library():
    """Put ``src/`` first on the path and import the library from it."""
    src = ROOT / "src"
    if not (src / "adapted_ot" / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found under {src}")
    sys.path.insert(0, str(src))
    import adapted_ot
    if Path(adapted_ot.__file__).resolve().parent != src / "adapted_ot":
        raise SystemExit(f"error: adapted_ot imported from {adapted_ot.__file__}, "
                         f"not from {src}")
    return adapted_ot


def build_workload(name, seed):
    """Import the library and build the workload's inputs: the set-up."""
    import_library()
    import workloads
    return workloads.WORKLOADS[name](seed)


def timed_setup(name, seed):
    start = time.perf_counter()
    workload = build_workload(name, seed)
    return workload, time.perf_counter() - start


def setup_in_child(name, seed):
    """Set-up time measured in a fresh interpreter (imports are cold there)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment(threads):
    import numpy
    import scipy
    import adapted_ot
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
        sha = proc.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "adapted_ot": adapted_ot.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "threads": threads,
            "thread_env": {key: os.environ.get(key) for key in BLAS_ENV}}


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Runner:
    """Runs passes over a workload's operations and keeps the samples."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.passes = []  # (wall_s, cpu_s, traced)
        self.op_samples = {}  # op index -> untraced (wall_s, cpu_s) samples
        self.values = None  # per-op canonical values of the first pass
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.counts = None
        self.traced_op_ids = []  # one range of op ids per traced pass

    def _fail(self, message):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = message
            print(message, file=sys.stderr)

    def run_pass(self, traced=False):
        wl = self.workload
        tracer = self.tracer if traced else None
        first_traced = traced and self.counts is None
        counts = {}
        pass_values = []
        base = len(self.passes) * len(wl.ops)
        patches = contextlib.nullcontext()
        if tracer is not None:
            self.traced_op_ids.append(range(base, base + len(wl.ops)))
            patches = tracer.patched(wl.trace_targets)
        with patches:
            wall, cpu = self._ops(tracer, base, pass_values,
                                  counts if first_traced else None)
        if self.values is None:
            self.values = pass_values
        else:
            for index, (ref, got) in enumerate(zip(self.values, pass_values)):
                if got is not None and ref is not None and got != ref:
                    self._fail(f"{wl.name} op {index}: values differ between "
                               f"passes:\n{ref}\n{got}")
        if first_traced:
            self.counts = counts
        self.passes.append((wall, cpu, traced))
        return wall

    def _ops(self, tracer, base, pass_values, counts):
        """One pass over the operations; returns its wall and CPU seconds.

        ``counts`` (a dict, on the first traced pass only) accumulates the
        workload's exact work counts. They are counted after the pass's
        clocks stop, so the counting is not timed as traced work."""
        wl = self.workload
        finished = []  # (op, output, first span, end span) for the counts
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for index, op in enumerate(wl.ops):
            self.attempted += 1
            try:
                if tracer is None:
                    start = time.perf_counter()
                    cpu_start = time.process_time()
                    out = wl.run(op)
                    self.op_samples.setdefault(index, []).append(
                        (time.perf_counter() - start,
                         time.process_time() - cpu_start))
                else:
                    tracer.op_id = base + index
                    first_span = len(tracer.spans)
                    with tracer.span("op"):
                        out = wl.run(op)
                wl.check(op, out)
                values = canonical(wl.values(op, out))
            except Exception as exc:  # a failed op is counted, the run goes on
                self._fail(f"{wl.name} op {index}: {type(exc).__name__}: {exc}\n"
                           + traceback.format_exc())
                pass_values.append(None)
                continue
            if counts is not None:
                finished.append((op, out, first_span, len(tracer.spans)))
            pass_values.append(values)
            del out
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        for op, out, first_span, end_span in finished:
            calls = {}
            for span in tracer.spans[first_span:end_span]:
                calls[span[0]] = calls.get(span[0], 0) + 1
            for key, value in wl.counts(op, out, calls).items():
                counts[key] = counts.get(key, 0) + value
        return wall, cpu

    def run_for(self, seconds):
        """Repeat passes while another one is expected to fit in ``seconds``."""
        start = time.perf_counter()
        lengths = []
        while True:
            length = self.run_pass()
            if self.tracer is not None:
                length += self.run_pass(traced=True)
            lengths.append(length)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(lengths) > seconds:
                break

    def values_record(self):
        return [None if v is None else json.loads(v) for v in self.values]

    @property
    def op_times(self):
        return [w for samples in self.op_samples.values() for w, _ in samples]

    def e2e_metrics(self, setup_samples):
        """End-to-end metrics. A pass over the problem set is timed as the
        sum over its ops of each op's median time across passes, so a burst
        of host slowness inflates one sample of an op, not the estimate."""
        per_op = self.op_samples.values()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": statistics.median(setup_samples),
            "wall_s": sum(statistics.median(w for w, _ in s) for s in per_op),
            "op_p50_s": statistics.median(self.op_times) if self.op_times else 0.0,
            "cpu_s": sum(statistics.median(c for _, c in s) for s in per_op),
            "peak_rss_mb": peak_kb / 1024.0,
            "success_rate": 1.0 - self.failed / self.attempted,
        }

    def layer_metrics(self):
        from tracing import summarize
        summaries = [summarize(self.tracer.spans, set(ids))
                     for ids in self.traced_op_ids]

        def med(fn):
            return statistics.median(fn(s) for s in summaries)

        def total(name):
            return med(lambda s: s["total"].get(name, 0.0))

        def calls(name):
            return summaries[0]["calls"].get(name, 0)

        counts = self.counts or {}
        solves = counts.get("transport.dp_inner_solves", 0)
        rng_calls = calls("noise.rng")
        walls = [w for w, _, t in self.passes if not t]
        traced_walls = [w for w, _, t in self.passes if t]
        return {
            "transport.dp_s": total("transport.dp"),
            "transport.dp_us_per_solve": (1e6 * total("transport.dp") / solves
                                          if solves else 0.0),
            "transport.dp_inner_solves": solves,
            "transport.dp_inner_cells": counts.get("transport.dp_inner_cells", 0),
            "transport.monge_share": (counts.get("transport.monge_blocks", 0) / solves
                                      if solves else 0.0),
            "transport.dp_validate_s": total("transport.dp_validate"),
            "transport.kr_build_s": total("transport.kr_build"),
            "transport.kr_cost_s": total("transport.kr_cost"),
            "lattice.build_s": total("lattice.build"),
            "lattice.fosd_s": total("lattice.fosd"),
            "lattice.nodes": counts.get("lattice.nodes", 0),
            "lattice.kernel_nnz": counts.get("lattice.kernel_nnz", 0),
            "model.json_s": total("model.json"),
            "noise.rng_s": total("noise.rng"),
            "noise.rng_calls": rng_calls,
            "noise.rng_us_per_replicate": (1e6 * total("noise.rng") / rng_calls
                                           if rng_calls else 0.0),
            "estimate.mc_s": total("estimate.mc"),
            "estimate.mc_self_s": med(lambda s: s["self"].get("estimate.mc", 0.0)),
            "estimate.replicates": counts.get("estimate.replicates", 0),
            "estimate.diverged": counts.get("estimate.diverged", 0),
            "sde.scheme_s": total("sde.scheme"),
            "sde.paths": counts.get("sde.paths", 0),
            "trace.coverage": med(lambda s: s["covered_s"] / s["op_s"]
                                  if s["op_s"] else 0.0),
            "trace.uncovered_s": med(lambda s: s["op_s"] - s["covered_s"]),
            "trace.overhead": (statistics.median(traced_walls)
                               / statistics.median(walls)),
        }


def tail_percentile(samples):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(samples)
    for q in (90.0, 99.0, 99.9):
        if len(ordered) * (1 - q / 100.0) >= 10:
            index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
            best = {"q": q, "value_s": ordered[index]}
    return best


def measure(workload, seed, seconds, trace, setup_samples):
    """Run the workload for ``seconds`` and return (result line, record).

    The result line carries the end-to-end metrics, or with ``trace`` the
    per-layer metrics; the record adds the environment, the samples, the
    values and, when traced, the spans.
    """
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(workload, tracer)
    runner.run_for(seconds)
    if trace:
        metrics, units = runner.layer_metrics(), LAYER_UNITS
    else:
        metrics, units = runner.e2e_metrics(setup_samples), E2E_UNITS
    values = runner.values_record()
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "environment": environment(workload.threads),
        "setup_samples_s": setup_samples,
        "passes": [{"wall_s": w, "cpu_s": c, "traced": t}
                   for w, c, t in runner.passes],
        "ops_per_pass": len(workload.ops),
        "op_samples": len(runner.op_times),
        "op_wall_samples_s": [[w for w, _ in runner.op_samples[index]]
                              for index in sorted(runner.op_samples)],
        "op_tail": tail_percentile(runner.op_times),
        "values_sha256": hashlib.sha256(canonical(values).encode()).hexdigest(),
        "first_failure": runner.first_failure,
        "metrics": metrics,
        "values": values,
    }
    if tracer is not None:
        record["spans"] = {"fields": ["name", "start", "end", "parent", "op"],
                           "rows": tracer.spans}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, record


def write_record(record):
    """Write the full detail record to its fixed path and return the path."""
    path = OUT_DIR / f"{record['workload']}-{record['seed']}-t{record['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        _, seconds = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if not (ROOT / "src" / "adapted_ot" / "__init__.py").is_file():
        print(f"error: library source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    setup_samples = [setup_in_child(args.workload, args.seed)
                     for _ in range(SETUP_SAMPLES - 1)]
    workload, seconds = timed_setup(args.workload, args.seed)
    setup_samples.append(seconds)

    result, record = measure(workload, args.seed, args.seconds, args.trace,
                             setup_samples)
    path = write_record(record)
    detail = {key: value for key, value in record.items()
              if key not in ("values", "spans", "metrics", "op_wall_samples_s")}
    detail["record"] = str(path.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
