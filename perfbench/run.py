"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-seg --seed 1 --seconds 10 --trace 0

Prints an environment record and every metric with its unit, then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json, ``--trace 1`` the per-module ones. The library
is imported from ``src/`` next to this directory; the exit code is 2 if
it is not there.
"""

import os

# BLAS gets one thread, so a workload's ``threads`` value is the only
# source of parallelism. This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

M_ARENA_MAX = -8  # glibc's mallopt parameter


def _one_malloc_arena() -> bool:
    """Make glibc malloc keep one arena for all threads, before any
    thread starts. With an arena per worker thread, scene-k3's peak RSS
    varied by 20% between identical runs and grew with run length. Returns
    False where the C library has no ``mallopt`` or refuses."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and mallopt(M_ARENA_MAX, 1) == 1


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed, workload, load_at_start, one_arena):
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "seed": seed,
        "workload": workload.name,
        "threads": workload.threads,
        "malloc_one_arena": one_arena,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    one_arena = _one_malloc_arena()
    if not os.path.isfile(os.path.join(ROOT, "src", "deformconv", "__init__.py")):
        print(f"perfbench: the library is not at {ROOT}/src/deformconv", file=sys.stderr)
        return 2
    from perfbench import runner, workloads

    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, w, load_at_start, one_arena)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        res = runner.run(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"rounds {len(res.round_times['train'])}; "
          f"checks {res.attempted} attempted, {len(res.failures)} failed")
    for what in res.failures:
        print(f"  FAILED: {what}")
    for phase, times in res.round_times.items():
        print(f"{phase} per round: " + " ".join(f"{t:.4f}" for t in times))
    for name, (value, unit) in res.end_to_end.items():
        print(f"  {name:<34s} {value:>16.6g} {unit}")
    if args.trace:
        for phase, parts in res.phases.items():
            wall = res.per_layer[f"{phase}.wall_s"][0]
            print(f"phase {phase}: wall {wall:.4f} s, parts add up to {sum(parts.values()):.4f} s")
            for name, secs in sorted(parts.items(), key=lambda kv: -kv[1]):
                label = "(untraced remainder)" if name == "phase." + phase else name
                print(f"    {label:<30s} {secs:10.4f} s {100 * secs / wall:6.1f}%")
        for name, (value, unit) in res.per_layer.items():
            print(f"  {name:<34s} {value:>16.6g} {unit}")
        trace_path = os.path.join(out_dir, f"trace-{w.name}-seed{args.seed}.json")
        res.tracer.dump(trace_path, {"env": env, "per_layer": res.per_layer})
        print(f"spans written to {trace_path}")
        metrics = res.per_layer
    else:
        metrics = {k: res.end_to_end[k] for k in runner.RESULT_METRICS}
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
