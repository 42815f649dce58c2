"""kerlap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; kerlap is imported from that checkout's
``src/`` and from nowhere else.  ``--trace 0`` sets the workload up five
times, runs its unit of work over and over for ``--seconds`` seconds and
reports the end-to-end metrics as medians.
``--trace 1`` alternates untraced and traced units for the same time and
reports the per-layer metrics from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the run
(environment, units, failures, and in traced runs the spans) is written to
``perfbench/out/``.  BLAS thread settings are left to the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, generate_seconds, layer_metrics, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_platform() -> float:
    """Import numpy and scipy.linalg, which kerlap builds on; return seconds.

    They are imported once, before set-up is timed: their import cost belongs
    to the installation, not to kerlap, and dominates a single import.
    """
    if not (SRC / "kerlap" / "__init__.py").is_file():
        sys.exit(f"error: kerlap sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    return time.perf_counter() - t0


def set_up(name: str, seed: int) -> tuple[object, float]:
    """Import kerlap afresh and set the workload up; return it and the seconds."""
    for key in [k for k in sys.modules if k.split(".")[0] in ("kerlap", "workloads")]:
        del sys.modules[key]
    gc.collect()  # collect the dropped modules now, not inside the timed set-up
    t0 = time.perf_counter()
    import workloads  # imports kerlap

    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    return workload, time.perf_counter() - t0


def _openblas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def environment(seed: int) -> dict:
    """Cores, the BLAS thread count as each loaded OpenBLAS reports it, versions."""
    import numpy
    import scipy

    blas = {}
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        threads = _openblas_call(lib, ("scipy_openblas_get_num_threads64_",
                                       "scipy_openblas_get_num_threads",
                                       "openblas_get_num_threads64_",
                                       "openblas_get_num_threads"), ctypes.c_int)
        config = _openblas_call(lib, ("scipy_openblas_get_config64_",
                                      "scipy_openblas_get_config",
                                      "openblas_get_config64_",
                                      "openblas_get_config"), ctypes.c_char_p)
        config = config.decode() if config else ""
        blas[os.path.basename(path)] = {
            "threads": threads,
            "version": config.split()[1] if config.startswith("OpenBLAS ") else None,
            "config": config,
        }
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "openblas": blas,
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def measure(workload, seconds: float) -> list:
    """Repeat the workload's unit until ``seconds`` have passed (at least once)."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.unit())
    return units


def end_to_end(units, setup_s: float) -> dict[str, float]:
    """Medians over units; each fit's time is its median over the units."""
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "fit_s": sum(statistics.median(times) for times in zip(*(u.fit_times for u in units))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(workload, seconds: float) -> tuple[dict[str, float], list, list, object]:
    """Alternate untraced and traced units for ``seconds`` (at least one pair).

    Alternating keeps drift in the machine's speed out of the tracing
    overhead.  Per-layer figures are medians over the traced units.
    """
    tracer = Tracer()
    with tracer:
        workload.setup()
    setup_generate = generate_seconds(tracer.spans, 0, len(tracer.spans))
    plain, traced, bounds = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(workload.unit())
        lo = len(tracer.spans)
        with tracer:
            traced.append(workload.unit())
        bounds.append((lo, len(tracer.spans)))
    metrics = median_metrics([layer_metrics(tracer.spans, lo, hi, u.wall_s)
                              for u, (lo, hi) in zip(traced, bounds)])
    metrics.update({
        "synthdata.generate_s": setup_generate,
        "trace.overhead_s": statistics.median(u.wall_s for u in traced)
        - statistics.median(u.wall_s for u in plain),
        "bench.error_rate": traced[0].error_rate,
        "bench.fail_ratio": traced[0].failed / traced[0].fits,
    })
    return metrics, plain, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {names}")
    if args.seed < 0 or args.seconds < 0:
        sys.exit("error: --seed and --seconds must be non-negative")
    platform_s = import_platform()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload, elapsed = set_up(args.workload, args.seed)
        setup_times.append(elapsed)
    kerlap_dir = Path(sys.modules["kerlap"].__file__).resolve().parent
    if kerlap_dir != SRC / "kerlap":
        sys.exit(f"error: kerlap was imported from {kerlap_dir}, not from {SRC}")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setup": {"platform_import_s": platform_s, "repeats_s": setup_times}}
    if args.trace:
        metrics, plain, traced, tracer = per_layer(workload, args.seconds)
        declared = spec["per_layer"]
        record.update(traced_units=len(traced), spans=tracer.to_json())
        units = plain + traced
    else:
        units = measure(workload, args.seconds)
        metrics = end_to_end(units, statistics.median(setup_times))
        declared = spec["end_to_end"]

    problems = workload.check(units[-1])
    if len({u.facts() for u in units}) != 1:
        problems.append("units on the same inputs disagree on their non-time results")
    failures = workload.failures(units[-1])
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"metrics produced {sorted(metrics)} differ from BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": sum(u.fits for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    record.update(units=[{k: v for k, v in vars(u).items() if k != "outputs"} for u in units],
                  failures=failures, problems=problems, result=result)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for m in declared:
        print(f"metric {m['name']:32s} {result['metrics'][m['name']]['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"failure {json.dumps(f)}")
    for p in problems:
        print(f"check failed: {p}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
