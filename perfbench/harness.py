"""Runs one workload, untraced or traced, and assembles its result.

Untraced: set-up is measured ``SETUP_REPEATS`` times, as fresh interpreters
that import the program and as input builds in this process; ``setup_s`` is
the sum of the two medians. The first sample is taken before the first
operation and the others between operations at even steps of the run time,
so that the median spans the host's speed phases as the operations do.
Operations run back to back, each waiting for the previous one (a closed loop
with one client), until the run time has passed and the workload's
deterministic prefix is done.

Traced: the same operations run once untraced and once traced, and the ratio
of the two is ``trace_overhead_ratio``. Layers that the workload does not
reach are measured by small probes of the other two workloads on inputs
from the same seed, so every per-layer metric exists in every traced run.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from drowsemon.filterbank import SignalTooShortError

from .spans import Tracer, duration, with_self_times
from .stats import fail_ratio, median
from .workloads import FULL, SMALL, WORKLOADS, CheckFailed, Sizes, layer_metrics

SETUP_REPEATS = 5
# A sweep that has not met its minimum operation counts by then is aborted,
# which keeps a run inside its time limit if the program stops completing.
SWEEP_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "signal_gen.ms_per_signal_min": "ms",
    "filterbank.hyper_filter_ms": "ms",
    "filterbank.hyper_filter_mmac_per_s": "MMAC/s",
    "filterbank.pattern_signals_ms": "ms",
    "filterbank.patterns_kept_ratio": "ratio",
    "filterbank.failed_ratio": "ratio",
    "band_search.reward_ms": "ms",
    "band_search.fisher_score_ms": "ms",
    "band_search.reward_other_ms": "ms",
    "band_search.layouts_attempted": "count",
    "band_search.layouts_infeasible": "count",
    "tdcnn.train_s": "s",
    "tdcnn.epoch_s": "s",
    "tdcnn.loss_and_grad_ms": "ms",
    "tdcnn.train_other_share": "ratio",
    "tdcnn.predict_us_per_row": "us",
    "tdcnn.assess_window_ms": "ms",
    "tdcnn.assess_us_per_pattern": "us",
    "tdcnn.train_baseline_mlp_s": "s",
    "tdcnn.train_rows": "count",
    "tdcnn.batches": "count",
    "pipeline.synth_s": "s",
    "pipeline.dataset_s": "s",
    "pipeline.train_s": "s",
    "pipeline.eval_s": "s",
    "pipeline.dataset_rows": "count",
    "persist.write_s": "s",
    "persist.bytes_written": "bytes",
    "persist.load_model_ms": "ms",
    "plots.write_s": "s",
    "trace_overhead_ratio": "ratio",
}


@dataclass
class OpRecord:
    op: object
    ok: bool
    seconds: float


class Checks:
    """Collects output-check failures; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def run(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))


def sweep(w, seconds: float, checks: Checks, between=None) -> list[OpRecord]:
    """Run operations until ``seconds`` have passed; ``between(elapsed)`` is
    called before each operation, outside its timing."""
    records: list[OpRecord] = []
    completed = 0
    start = time.perf_counter()
    for op in w.ops():
        elapsed = time.perf_counter() - start
        if between is not None:
            between(elapsed)
        if elapsed >= seconds and len(records) >= w.min_ops and completed >= 1:
            break
        if elapsed > SWEEP_LIMIT_S:
            raise RuntimeError(
                f"{w.name}: {len(records)} operations ({completed} completed) "
                f"in {elapsed:.0f} s, below the sweep minimum"
            )
        t0 = time.perf_counter()
        try:
            out = w.run_op(op)
        except SignalTooShortError:
            records.append(OpRecord(op, False, time.perf_counter() - t0))
            checks.run(w.check_refusal, op)
            continue
        records.append(OpRecord(op, True, time.perf_counter() - t0))
        completed += 1
        checks.run(w.check, op, out)
    return records


def replay(w, n: int, tracer: Tracer, checks: Checks) -> list[OpRecord]:
    """Run the stream's first ``n`` operations traced, each followed by its
    attribution calls."""
    records = []
    for op in itertools.islice(w.ops(), n):
        try:
            with tracer.span("op", workload=w.name):
                op_span = tracer.spans[-1]
                out = w.run_traced(op, tracer)
        except SignalTooShortError:
            records.append(OpRecord(op, False, duration(op_span)))
            checks.run(w.check_refusal, op)
            out = None
        else:
            records.append(OpRecord(op, True, duration(op_span)))
            checks.run(w.check_traced, op, out)
        checks.run(w.attribute, op, out, op_span, tracer)
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def process_start_s(root: Path) -> float:
    """Wall time of a fresh interpreter importing everything a run imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    # Wait in a blocking waitpid: a wait with a timeout polls at up to 50 ms
    # steps, which would quantise the measurement. The timer bounds it instead.
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import perfbench.harness"], cwd=root, env=env)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def _check_counters_repeat(path: Path, counters: dict, checks: Checks) -> None:
    """Counters of a seed must match those an earlier run stored for it."""
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counters:
            checks.failures.append(f"counters changed between runs: {before} -> {counters}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, sort_keys=True) + "\n")


def _metrics(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _traced_layers(w, seconds: float, checks: Checks):
    """Untraced then traced pass over the same operations."""
    untraced = sweep(w, seconds, checks)
    tracer = Tracer()
    w.setup(tracer)
    traced = replay(w, len(untraced), tracer, checks)
    checks.run(w.probe, tracer)
    return untraced, traced, tracer


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    root: Path,
    work_root: Path,
    sizes: Sizes = FULL,
) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the detailed result."""
    checks = Checks()
    work_dir = work_root / name
    start_times: list[float] = []
    setup_times: list[float] = []

    def sample_setup():
        start_times.append(process_start_s(root))
        w = WORKLOADS[name](seed, sizes, work_dir)
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        return w

    w = sample_setup()

    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root, seed),
        "setup": {"import_s": import_s, "process_start_s": start_times, "inputs_s": setup_times},
    }
    if trace:
        records, traced, tracer = _traced_layers(w, seconds / 2, checks)
        values = {}
        probe_spans = {}
        for other in sorted(set(WORKLOADS) - {name}):
            probe = WORKLOADS[other](seed, SMALL, work_root / f"probe-{other}")
            probe.setup()
            _, _, probe_tracer = _traced_layers(probe, 0, checks)
            values.update(layer_metrics(probe_tracer.spans))
            probe_spans[other] = probe_tracer.spans
        values.update(layer_metrics(tracer.spans))
        values["trace_overhead_ratio"] = sum(r.seconds for r in traced) / sum(
            r.seconds for r in records
        )
        metrics = _metrics(values, PER_LAYER)
        trace_path = work_root / "traces" / f"{name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(
            json.dumps(
                {
                    "workload": with_self_times(tracer.spans),
                    "probes": {k: with_self_times(v) for k, v in probe_spans.items()},
                }
            )
            + "\n"
        )
        detail["trace_file"] = str(trace_path.relative_to(work_root.parent))
        attempted = len(records) + len(traced)
        failed = sum(not r.ok for r in records + traced)
    else:
        # setup_s is an untraced metric; its other samples go between operations.
        marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

        def between(elapsed):
            while marks and elapsed >= marks[0]:
                marks.pop(0)
                sample_setup()

        records = sweep(w, seconds, checks, between)
        done = [r.seconds for r in records if r.ok]
        metrics = _metrics(
            {
                "setup_s": median(start_times) + median(setup_times),
                "ops_per_s": len(done) / sum(r.seconds for r in records),
                "peak_rss_mb": peak_rss_mb(),
            },
            END_TO_END,
        )
        attempted = len(records)
        failed = sum(not r.ok for r in records)

    counters = w.counters(records)
    _check_counters_repeat(work_root / "counters" / f"{name}-seed{seed}.json", counters, checks)
    detail.update(
        counters=counters,
        report={
            **w.report(records),
            "fail_ratio": fail_ratio(len(records), sum(not r.ok for r in records)),
        },
        op_seconds=[[r.ok, r.seconds] for r in records],
        checks_failed=checks.failures,
    )
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
