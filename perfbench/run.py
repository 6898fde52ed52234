"""qcss benchmark: a closed loop with one client in one process.

Run from the repository root:

    python3 perfbench/run.py --workload scan-sweep --seed 1 --seconds 35 --trace 0

Every op goes through ``qcss.cli.main(argv)`` in this process, or through
a public library function where no subcommand reaches it (workloads.py).
``QCSS_THREADS`` is removed from the environment and ``--workers`` is never
passed; the BLAS thread count stays at its default.

After an untimed warm-up op, whole passes run for about ``--seconds``: at
least one, and another only while it is expected to end in time. The seed
picks exponents, corruptions and the op order of each pass. Seed 20261017
is kept out of tuning and reserved for checking a claimed gain.

``--trace 0`` measures end-to-end metrics:
  setup_s      median over SETUP_REPEATS fresh interpreters of importing
               qcss.cli and running the workload's warm-up op once
  wall_s       median time of one pass over the workload's ops (op time only)
  op_gmean_s   geometric mean of op latency, pooled over every pass of the
               run: each op counts alike whatever its size, so per-call
               overhead at small N shows. The median is reported beside it
               but not gated: on scan-sweep the ops near the median differ
               by up to 30% in latency, so it jumps between them from run
               to run.
  peak_rss_mb  ru_maxrss of this process

``--trace 1`` measures ``--seconds`` of untraced passes, then as many
seconds of passes with spans around every call into a qcss layer
(tracing.py) and tracemalloc on inside correlation calls. It prints
per-layer metrics per pass and the tracing overhead (traced wall_s minus
untraced wall_s). Spans are written to ``.perfbench-out/`` in the checkout.

Stdout ends with two JSON lines: the full record (seed, environment, sample
counts, error rate, failures, op_p50_s, and the metrics only some
workloads have: values_per_s for the scans, op_p90_s where at least ten
samples lie beyond it), then the result
{"correct", "attempted", "failed", "metrics"}. An op counts as failed when
it raises, exits with an unexpected code, or its output differs from the
expectation. Set-up probes and the warm-up op count as attempted ops.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-sweep", "scan-large", "build-export")
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60


@dataclass
class PassResult:
    op_times: list[float] = field(default_factory=list)
    verify_s: float = 0.0
    values: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.op_times)


def import_qcss():
    """Import qcss from this checkout's src/, never from anywhere else."""
    if not (SRC / "qcss" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qcss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcss

    if Path(qcss.__file__).resolve().parent != SRC / "qcss":
        raise SystemExit(f"perfbench: imported qcss from {qcss.__file__}, not from {SRC}")
    return qcss


def run_op(op, tracer=None, op_id: int = 0) -> tuple[float, str | None]:
    """Time one op, then check it (untimed). Returns (seconds, mismatch)."""
    if tracer is not None:
        tracer.op_id = op_id
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op_id = None
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:  # malformed output
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error


def run_pass(workload, rng: random.Random, tracer=None, first_id: int = 0) -> PassResult:
    """One pass in seeded order, from an empty work directory and a fresh
    garbage-collector state."""
    shutil.rmtree(workload.workdir, ignore_errors=True)
    workload.workdir.mkdir(parents=True)
    gc.collect()
    res = PassResult()
    for i, op in enumerate(workload.ordered_ops(rng)):
        elapsed, error = run_op(op, tracer, first_id + i)
        res.attempted += 1
        res.op_times.append(elapsed)
        if op.values:
            res.verify_s += elapsed
            res.values += op.values
        if error:
            res.failures.append(f"{op.label}: {error}")
        res.bytes_written += sum(p.stat().st_size for p in op.written if p.exists())
        res.bytes_read += sum(p.stat().st_size for p in op.read if p.exists())
    return res


def measure(workload, seconds: float, rng: random.Random, tracer=None) -> list[PassResult]:
    """Whole passes: at least one, and another only while it is expected to
    end within `seconds` (a pass is expected to last as long as the last)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, rng, tracer, first_id=sum(p.attempted for p in passes)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def setup_times(workload) -> tuple[list[float], list[str]]:
    """Fresh-interpreter set-up, SETUP_REPEATS times; each probe is waited for."""
    env = {k: v for k, v in os.environ.items() if k != "QCSS_THREADS"}
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(workload.warmup.argv)]
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        times.append(rec["setup_s"])
        error = workload.warmup.check((rec["exit"], rec["out"]))
        if error:
            failures.append(f"set-up {workload.warmup.label}: {error}")
    return times, failures


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(qcss, qcss_threads_was: str | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable API
        blas_version = None
    return {
        "git_sha": _git_sha(),
        "qcss": qcss.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "qcss_threads": "unset" if qcss_threads_was is None else f"unset by the benchmark (was {qcss_threads_was!r})",
        "limits": "no page-cache dropping; peak_rss_mb is ru_maxrss of the benchmark process "
        "(set-up probes excluded); other tenants may share the host",
    }


def end_to_end(passes: list[PassResult], setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, workload-specific extras)."""
    times = [t for p in passes for t in p.op_times]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
        "op_gmean_s": {"value": statistics.geometric_mean(times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    extras: dict = {
        "op_samples": len(times),
        "passes": len(passes),
        "setup_samples": setup,
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
    }
    if len(times) * 0.1 >= 10:
        extras["op_p90_s"] = {"value": percentile(times, 0.9), "unit": "s"}
    verify_s = sum(p.verify_s for p in passes)
    if verify_s > 0:
        extras["values_per_s"] = {"value": sum(p.values for p in passes) / verify_s, "unit": "1/s"}
    return metrics, extras


PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "values_checked": "count",
    "values_per_s": "1/s",
    "peak_traced_mb": "MB",
    "matrices_built": "count",
    "entries_built": "count",
    "factorize_calls": "count",
    "pi_perm_s": "s",
    "unique_solution_s": "s",
    "serialize_s": "s",
    "bytes_written": "B",
    "bytes_read": "B",
    "wall_s": "s",
    "overhead_s": "s",
}


def traced_run(workload, seconds: float, rng: random.Random, tracing) -> tuple[list[PassResult], dict]:
    plain = measure(workload, seconds, rng)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = measure(workload, seconds, rng, tracer)
    n = len(traced)
    layer = tracer.layer_metrics(n)
    layer["cli.bytes_written"] = sum(p.bytes_written for p in traced) / n
    layer["cli.bytes_read"] = sum(p.bytes_read for p in traced) / n
    layer["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(p.wall_s for p in plain)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload.name}-seed{workload.seed}.jsonl", "w", encoding="utf-8") as fh:
        for rec in tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rpartition(".")[2]]} for k, v in sorted(layer.items())}
    return plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    qcss_threads_was = os.environ.pop("QCSS_THREADS", None)
    qcss = import_qcss()
    import tracing
    import workloads

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, workdir)
    rng = random.Random(args.seed)
    failures: list[str] = []
    try:
        setup: list[float] = []
        if not args.trace:
            setup, failures = setup_times(workload)
        workdir.mkdir(parents=True, exist_ok=True)
        _, error = run_op(workload.warmup)
        if error:
            failures.append(f"warm-up {workload.warmup.label}: {error}")
        if args.trace:
            passes, metrics = traced_run(workload, args.seconds, rng, tracing)
            extras: dict = {"passes": len(passes)}
        else:
            passes = measure(workload, args.seconds, rng)
            metrics, extras = end_to_end(passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += [f for p in passes for f in p.failures]
    attempted = 1 + len(setup) + sum(p.attempted for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(qcss, qcss_threads_was),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        **extras,
        "metrics": metrics,
    }
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
