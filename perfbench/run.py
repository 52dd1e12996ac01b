"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

A run sets up several times (``setup_s`` is the median), makes one untimed
warm-up, then repeats the workload's pass with tracing off and reports
medians.  Output checks run on the first pass, outside the timed region.
With ``--trace 1`` the same passes are then repeated with every layer's
public calls wrapped in spans (see ``perfbench/tracing.py``), and the JSON line
carries the per-layer metrics instead of the end-to-end ones.

Human-readable lines (run record, metrics with units and sample counts, the
work-count fingerprint, check results) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every operation and
output check succeeded, 1 otherwise, and 2 when the library sources are
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

#: Timed passes per run: ``--seconds`` over the workload's nominal pass
#: length, at least :data:`MIN_PASSES`.  A fixed count (not a deadline) keeps
#: the number of latency samples, and so the reported percentiles, the same
#: on every run.
MIN_PASSES = 2
#: Share of a traced pass its layer spans must cover (the attribution gate).
ATTRIBUTION_GATE = 0.95

#: (name, unit, better): the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_mem_mib", "MiB", "lower"),
    ("ok_rate", "fraction", "higher"),
    ("qc_calls", "count", "lower"),
    ("mean_ar", "ratio", "higher"),
    ("jobs_per_s", "1/s", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric of a traced run."""
    metrics = [
        ("service.submit_ms", "ms", "lower"),
        ("service.queue_wait_ms", "ms", "lower"),
        ("service.job_p50_ms", "ms", "lower"),
        ("service.job_tail_ms", "ms", "lower"),
        ("service.served_cheaply", "fraction", "higher"),
        ("service.program_cache.hit_rate", "fraction", "higher"),
        ("service.coalescer.mean_batch", "count", "higher"),
        ("execution.keys.s", "s", "lower"),
        ("execution.keys.calls", "count", "lower"),
    ]
    for stage in ("parse", "lower", "emit"):
        metrics += [(f"frontend.{stage}.s", "s", "lower"), (f"frontend.{stage}.calls", "count", "lower")]
    metrics += [
        ("optimizers.self_s", "s", "lower"),
        ("optimizers.calls", "count", "lower"),
        ("qaoa.evaluator.self_s", "s", "lower"),
        ("qaoa.compile.s", "s", "lower"),
        ("qaoa.compile.calls", "count", "lower"),
        ("qaoa.fast.s", "s", "lower"),
        ("qaoa.fast.rows", "count", "lower"),
        ("quantum.engine.s", "s", "lower"),
        ("quantum.engine.rows", "count", "lower"),
    ]
    metrics += [(f"quantum.engine.ops.{kind}", "count", "lower") for kind in tracing.ENGINE_OP_KINDS]
    metrics += [
        ("quantum.engine.bytes", "B", "lower"),
        ("quantum.simulator.program_cache.hit_rate", "fraction", "higher"),
        ("quantum.density.s", "s", "lower"),
        ("quantum.density.runs", "count", "lower"),
        ("quantum.ptm.compile_s", "s", "lower"),
        ("dynamics.rhs.s", "s", "lower"),
        ("dynamics.rhs.calls", "count", "lower"),
        ("dynamics.integrator.self_s", "s", "lower"),
        ("dynamics.steps", "count", "lower"),
        ("prediction.dataset.s", "s", "lower"),
        ("prediction.fit.s", "s", "lower"),
        ("acceleration.naive_calls", "count", "lower"),
        ("acceleration.level1_calls", "count", "lower"),
        ("acceleration.level2_calls", "count", "lower"),
        ("acceleration.fc_reduction_pct", "%", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.unattributed_pct", "%", "lower"),
    ]
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas():
    """BLAS library name/version and its thread count, as NumPy reports them."""
    import ctypes
    import glob

    import numpy as np

    name, threads = "unknown", None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return name, threads


def run_record(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas, blas_threads = _blas()
    return {
        "commit": _commit(),
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "client_threads": 1,
        "service_workers": workload.workers,
    }


def _median(values):
    return stats.median(values) if values else 0.0


def _latency_lines(name: str, samples) -> list:
    """p50 and tail lines of a latency sample set (ms), or why they are refused."""
    lines = []
    tail = stats.tail_percentile(len(samples))
    for label, q in (("p50", 50), (f"p{tail}" if tail else "tail", tail)):
        try:
            if q is None:
                raise stats.TooFewSamples(f"no percentile has 10 of {len(samples)} samples beyond it")
            value = stats.percentile(samples, q)
            lines.append(f"metric {name}_{label}_ms {1e3 * value['value']:.4f} ms (n={value['samples']})")
        except stats.TooFewSamples as refused:
            lines.append(f"metric {name}_{label}_ms refused: {refused}")
    return lines


def end_to_end(passes, setup_times, peak_mib, attempted, failed) -> dict:
    values = {
        "wall_s": _median([p.wall_s for p in passes]),
        "setup_s": _median(setup_times),
        "peak_mem_mib": peak_mib,
        "ok_rate": (attempted - failed) / attempted if attempted else 0.0,
        "qc_calls": _median([p.qc_calls for p in passes]),
        "mean_ar": _median([sum(p.ratios) / len(p.ratios) if p.ratios else 0.0 for p in passes]),
        "jobs_per_s": _median([p.attempted / p.wall_s for p in passes]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def layer_values(summary: dict, result, untraced, setup_summary, overhead_pct) -> dict:
    """Per-layer metrics of one traced pass (service figures from untraced passes)."""
    total, self_time = summary["total"], summary["self_time"]
    calls, counts = summary["calls"], summary["counts"]
    values = {}
    submits = summary["samples"].get("service.submit", [])
    jobs = [x for p in untraced for x in p.layer_values.get("job_latencies", [])]
    for name, samples, q in (
        ("service.submit_ms", submits, 50),
        ("service.job_p50_ms", jobs, 50),
        ("service.job_tail_ms", jobs, stats.tail_percentile(len(jobs))),
    ):
        try:
            values[name] = 1e3 * stats.percentile(samples, q)["value"] if q else 0.0
        except stats.TooFewSamples:
            values[name] = 0.0
    for name in (
        "service.queue_wait_ms",
        "service.served_cheaply",
        "service.program_cache.hit_rate",
        "service.coalescer.mean_batch",
    ):
        values[name] = _median([p.layer_values.get(name, 0.0) for p in untraced])
    values["execution.keys.s"] = total["execution.keys"]
    values["execution.keys.calls"] = calls["execution.keys"]
    for stage in ("parse", "lower", "emit"):
        values[f"frontend.{stage}.s"] = total[f"frontend.{stage}"]
        values[f"frontend.{stage}.calls"] = calls[f"frontend.{stage}"]
    values["optimizers.self_s"] = self_time["optimizers"]
    values["optimizers.calls"] = counts["optimizers.calls"]
    values["qaoa.evaluator.self_s"] = self_time["qaoa.evaluator"]
    values["qaoa.compile.s"] = total["qaoa.compile"]
    values["qaoa.compile.calls"] = calls["qaoa.compile"]
    values["qaoa.fast.s"] = total["qaoa.fast"]
    values["qaoa.fast.rows"] = counts["qaoa.fast.rows"]
    values["quantum.engine.s"] = total["quantum.engine"]
    values["quantum.engine.rows"] = counts["quantum.engine.rows"]
    for kind in tracing.ENGINE_OP_KINDS:
        values[f"quantum.engine.ops.{kind}"] = counts[f"quantum.engine.ops.{kind}"]
    values["quantum.engine.bytes"] = counts["quantum.engine.bytes"]
    hits = counts["quantum.simulator.program_cache.hits"]
    misses = counts["quantum.simulator.program_cache.misses"]
    values["quantum.simulator.program_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["quantum.density.s"] = total["quantum.density"]
    values["quantum.density.runs"] = calls["quantum.density"]
    values["quantum.ptm.compile_s"] = total["quantum.ptm"]
    values["dynamics.rhs.s"] = total["dynamics.rhs"]
    values["dynamics.rhs.calls"] = calls["dynamics.rhs"]
    values["dynamics.integrator.self_s"] = self_time["dynamics.integrator"]
    values["dynamics.steps"] = counts["dynamics.steps"]
    values["prediction.dataset.s"] = setup_summary["total"]["prediction.dataset"]
    values["prediction.fit.s"] = setup_summary["total"]["prediction.fit"]
    for name in (
        "acceleration.naive_calls",
        "acceleration.level1_calls",
        "acceleration.level2_calls",
        "acceleration.fc_reduction_pct",
    ):
        values[name] = result.layer_values.get(name, 0)
    values["trace.overhead_pct"] = overhead_pct
    values["trace.unattributed_pct"] = 100.0 * self_time["pass"] / total["pass"]
    return values


def trace_counts(summary: dict) -> dict:
    """Work counts a traced pass makes (part of the fingerprint)."""
    counts, calls = summary["counts"], summary["calls"]
    found = {
        name: int(value)
        for name, value in counts.items()
        if name.startswith(("quantum.engine.", "qaoa.", "dynamics.steps", "optimizers.calls"))
    }
    found["compiles"] = calls["qaoa.compile"] + calls["quantum.compile"] + calls["quantum.ptm"]
    found["rhs_calls"] = calls["dynamics.rhs"]
    return dict(sorted(found.items()))


def _drift(count_sets) -> list:
    """Names whose value differs between any two passes."""
    names = sorted({name for counts in count_sets for name in counts})
    return [name for name in names if len({counts.get(name) for counts in count_sets}) > 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print("perfbench: the checkout has no library sources under src/repro", file=sys.stderr)
        return 2
    # One BLAS thread: the client thread plus the service workers already use
    # every core, and idle OpenBLAS threads spin on the others.  Set before
    # NumPy loads; an explicit setting wins, and the run record reports it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SOURCES))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record " + json.dumps(run_record(workload, args.seed)))
    baseline_kib = _peak_rss_kib()

    setup_times, setup_summary = [], None
    for repeat in range(workload.setup_repeats):
        patches = None
        if args.trace and repeat == workload.setup_repeats - 1:
            setup_tracer = tracing.Tracer()
            patches = tracing.install(setup_tracer)
        started = time.perf_counter()
        try:
            inputs = workload.make_inputs(args.seed)
            state = workload.prepare(inputs)
        finally:
            if patches is not None:
                patches.restore()
                setup_summary = setup_tracer.summary()
        setup_times.append(time.perf_counter() - started)
    workload.warm(inputs, state)

    passes = max(MIN_PASSES, round(args.seconds / workload.pass_seconds))
    untraced = [workload.run_pass(inputs, state) for _ in range(passes)]
    peak_mib = (_peak_rss_kib() - baseline_kib) / 1024.0
    failures = workload.check(inputs, state, untraced[0])
    attempted = sum(p.attempted for p in untraced)
    failed = sum(p.failed for p in untraced) + len(failures)

    metrics = end_to_end(untraced, setup_times, peak_mib, attempted, failed)
    for name, entry in metrics.items():
        samples = len(setup_times) if name == "setup_s" else passes
        print(f"metric {name} {entry['value']:.6g} {entry['unit']} (median of {samples})")
    for line in _latency_lines("job", [x for p in untraced for x in p.latencies]):
        print(line)
    reduction = untraced[0].layer_values.get("acceleration.fc_reduction_pct")
    if reduction is not None:
        rows = untraced[0].counts["rows"]
        print(f"metric fc_reduction_pct {reduction:.4f} % (mean over {rows} rows)")

    count_sets = [p.counts for p in untraced]
    if args.trace:
        traced = []
        for _ in range(passes):
            tracer = tracing.Tracer(sampled=("service.submit",))
            patches = tracing.install(tracer)
            tracer.enter("pass")
            try:
                result = workload.run_pass(inputs, state)
            finally:
                tracer.exit()
                patches.restore()
            traced.append((result, tracer.summary()))
            failed += result.failed
            attempted += result.attempted
        count_sets += [result.counts for result, _ in traced]
        overhead = 100.0 * (
            _median([r.wall_s for r, _ in traced]) / _median([p.wall_s for p in untraced]) - 1.0
        )
        per_pass = [
            layer_values(summary, result, untraced, setup_summary, overhead)
            for result, summary in traced
        ]
        for index, values in enumerate(per_pass):
            covered = 1.0 - values["trace.unattributed_pct"] / 100.0
            flag = "" if covered >= ATTRIBUTION_GATE else f"  BELOW the {ATTRIBUTION_GATE:.0%} gate"
            print(f"trace pass {index}: layer spans cover {covered:.2%} of the pass{flag}")
        summary = traced[0][1]
        shares = sorted(summary["self_time"].items(), key=lambda kv: -kv[1])
        print("trace self_s " + json.dumps({layer: round(value, 6) for layer, value in shares}))
        trace_sets = [trace_counts(summary) for _, summary in traced]
        print("fingerprint trace " + json.dumps(trace_sets[0]))
        trace_drift = _drift(trace_sets)
        if trace_drift:
            print(f"fingerprint trace DRIFT across {len(trace_sets)} traced passes: {trace_drift}")
        metrics = {
            name: {"value": _median([values[name] for values in per_pass]), "unit": unit}
            for name, unit, _ in per_layer_metrics()
        }

    print("fingerprint " + json.dumps(count_sets[0], sort_keys=True))
    drift = _drift(count_sets)
    if drift:
        print(f"fingerprint DRIFT across {len(count_sets)} passes (nondeterminism): {drift}")
    else:
        print(f"fingerprint identical across {len(count_sets)} passes")
    for failure in failures:
        print(f"check FAILED {failure}")
    print(f"checks {'ok' if not failures else 'FAILED'} ({len(failures)} failures)")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
