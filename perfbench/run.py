"""End-to-end k-core benchmark: input to verified ``{node: coreness}`` map.

Run from the repository root::

    python3 perfbench/run.py --workload one2one --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # every workload once, tiny size

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
operations are in ``workloads.py``. A run generates its inputs from
``--seed`` (untimed), runs one warm-up operation in-process, then
repeats the operation, each time in a forked copy of the warmed-up
process, for at most ``--seconds`` and reports medians:

* ``--trace 0``: every operation runs with telemetry off and the
  result line carries the ``end_to_end`` metrics;
* ``--trace 1``: traced and untraced operations alternate, and the
  result line carries the ``per_layer`` metrics (medians over the
  traced operations) plus ``telemetry.overhead``, the traced over the
  untraced median wall time.

The line before the last is a full report: the environment stamp, the
inputs' content identity, the quartiles and sample count of every
measured distribution, and the workload-specific figures that are not
defined on every workload (``messages``, ``estimates_sent``,
``updates_per_s``, ``batch_ms_p50/p95``, ``query_ms_p50/p95``,
``error_rate``). The last line is ``{"correct", "attempted", "failed",
"metrics"}``.

``--smoke`` is the benchmark's self-check: it fails when a workload's
output is wrong or when an emitted metric name or unit is not the one
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# pinned before numpy loads; spawned fleet workers inherit the
# environment, so the second CPU is used by the fleet's workers only
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: generated inputs live here, inside the checkout, for one run only
WORK = ROOT / ".perfbench_work"
#: a run times at least this many operations, however short --seconds
MIN_OPS = 3
#: unit of every end-to-end metric; must equal BENCHMARK.json's
E2E_UNITS = {
    "decompose_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "count",
}


def summary(values):
    """Median, quartiles, sample count and samples of one distribution."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    out["values"] = values
    return out


def tail(values):
    """p50 and p95 with their sample count; p95 needs >= 10 beyond it."""
    out = {"p50": statistics.median(values), "n": len(values)}
    if len(values) >= 200:
        out["p95"] = statistics.quantiles(values, n=20)[18]
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads():
    """Threads numpy's OpenBLAS runs with, or None if it is not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy

    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = build["blas"].get("name")
    except (TypeError, KeyError):  # numpy before 1.25 only prints it
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def measure(workload, seconds: float, trace: bool):
    """Warm up, then repeat the operation for at most ``seconds``.

    No operation starts that the last one's duration says would end
    past the window.
    """
    ops = [workload.warm_up()]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        want_traced = trace and len(traced) < len(plain)
        began = time.perf_counter()
        (traced if want_traced else plain).append(
            workload.run(traced=want_traced)
        )
        now = time.perf_counter()
        enough = len(plain) >= MIN_OPS and (not trace or traced)
        if enough and now - start + (now - began) > seconds:
            break
    return ops + plain + traced, plain, traced


def end_to_end(workload, plain):
    """The BENCHMARK.json end-to-end metrics plus the report's extras."""
    timed = [op for op in plain if op.counts]
    wall = [op.wall_s for op in timed]
    e2e = {
        "decompose_s": statistics.median(wall),
        "setup_s": statistics.median(op.setup_s for op in timed),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in timed),
        "rounds": timed[0].counts[0],
    }
    dists = {
        "decompose_s": summary(wall),
        "setup_s": summary([op.setup_s for op in timed]),
        "peak_rss_mb": summary([op.peak_rss_mb for op in timed]),
    }
    extra = {}
    if workload.spec.family == "amazon":
        events = len(workload.input.stream)
        rate = [events / w for w in wall]
        extra["updates_per_s"] = statistics.median(rate)
        dists["updates_per_s"] = summary(rate)
        for name, attr in (("batch_ms", "batch_s"), ("query_ms", "query_s")):
            samples = [1000.0 * s for op in timed for s in getattr(op, attr)]
            dists[name] = tail(samples)
            extra[f"{name}_p50"] = dists[name]["p50"]
            if "p95" in dists[name]:
                extra[f"{name}_p95"] = dists[name]["p95"]
        extra["dirty_nodes"] = timed[0].counts[1]
        extra["compactions"] = timed[0].counts[2]
    else:
        extra["messages"] = timed[0].counts[1]
        extra["estimates_sent"] = timed[0].counts[2]
    return e2e, dists, extra


def per_layer(plain, traced):
    """Per-layer medians over the traced operations that completed."""
    from layers import PER_LAYER

    done = [op for op in traced if op.layers]
    out = {
        name: statistics.median(op.layers[name] for op in done)
        for name, _unit in PER_LAYER
    }
    out["telemetry.overhead"] = statistics.median(
        op.wall_s for op in done
    ) / statistics.median(op.wall_s for op in plain if op.counts)
    out["sim.mp_engine.worker_peak_rss_mb"] = statistics.median(
        op.workers_peak_rss_mb for op in done
    )
    return out


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def result_line(spec, ops, values, trace):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    failed = sum(1 for op in ops if not op.ok)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }


def run_workload(args, spec) -> int:
    from workloads import WORKLOADS, Workload

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(
            WORKLOADS[args.workload], args.seed, str(workdir), smoke=False
        )
        ops, plain, traced = measure(workload, args.seconds, args.trace)
        for op in ops:
            if not op.ok:
                print(f"operation failed: {op.why_failed}", file=sys.stderr)
        if not any(op.counts for op in plain) or (
            args.trace and not any(op.layers for op in traced)
        ):
            print("no operation completed", file=sys.stderr)
            return 1
        e2e, dists, extra = end_to_end(workload, plain)
        values = per_layer(plain, traced) if args.trace else e2e
        result = result_line(spec, ops, values, args.trace)
        extra["error_rate"] = result["failed"] / result["attempted"]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "input": workload.identity,
            "end_to_end": e2e,
            "distributions": dists,
            "workload_specific": extra,
        }
        if args.trace:
            report["per_layer"] = values
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    finally:
        _clean(workdir)


def smoke(spec) -> int:
    """Each workload once at tiny size, plain and traced; names checked."""
    from layers import PER_LAYER
    from workloads import WORKLOADS, Workload

    problems = []
    layer_units = dict(PER_LAYER)
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads != workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end != run.E2E_UNITS")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != layer_units:
        problems.append("BENCHMARK.json per_layer != layers.PER_LAYER")
    workdir = WORK / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wspec in WORKLOADS.items():
            workload = Workload(wspec, 0, str(workdir), smoke=True)
            plain = [workload.warm_up()]
            traced = [workload.run(traced=True)]
            for op in plain + traced:
                if not op.ok:
                    problems.append(f"{name}: {op.why_failed}")
            if not all(op.counts for op in plain + traced):
                continue
            e2e, _dists, _extra = end_to_end(workload, plain)
            layers = per_layer(plain, traced)
            if set(e2e) != set(E2E_UNITS):
                problems.append(f"{name}: end-to-end metrics != E2E_UNITS")
            if set(layers) != set(layer_units):
                problems.append(f"{name}: per-layer metrics != PER_LAYER")
            for metric, value in e2e.items():
                if not value > 0:
                    problems.append(f"{name}: {metric} = {value} is not > 0")
            print(f"smoke {name}: ok={all(op.ok for op in plain + traced)} "
                  f"{json.dumps(e2e)}")
    finally:
        _clean(workdir)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _clean(workdir) -> None:
    """Remove this run's inputs and reap the helpers the fleet started."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still has inputs there
    _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Reap multiprocessing's resource tracker (started by the shm fleet)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        names = [w["name"] for w in spec["workloads"]]
        parser.error(f"--workload must be one of {names}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
