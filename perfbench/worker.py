"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace] [--setup-only]

The parent (run.py) starts it with `src` on PYTHONPATH and the BLAS thread
count fixed.  It times set-up from interpreter start-up to the first
operation, then each operation around its public call, then checks every
verdict, and prints one JSON object on its last line of output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (imports kgt and numpy, so it counts as set-up)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def judge(op, value, err) -> dict:
    """The record of one operation: ok, a wrong verdict, or a crash with its
    exception type."""
    if err is not None:
        return {"status": "crash", "error_type": type(err).__name__, "detail": str(err)}
    try:
        detail = op.verdict(value)
    except workloads.Crashed as crash:
        return {"status": "crash", "error_type": crash.error_type, "detail": str(crash)}
    except Exception as bad:  # output the verdict cannot read is a wrong verdict
        detail = f"{type(bad).__name__}: {bad}"
    return {"status": "ok"} if detail is None else {"status": "wrong", "detail": detail}


def run_pass(workload: str, seed: int, size: str, workdir: str, trace: bool, setup_only: bool) -> dict:
    if trace:
        tracer = tracing.Tracer().install()
    the_pass = workloads.build(workload, seed, size, workdir)
    out = {"setup_s": time.perf_counter() - T0}
    if setup_only:
        return out

    gc.collect()
    results = []
    start = time.perf_counter()
    for op in the_pass.ops:
        t = time.perf_counter()
        value = err = None
        try:
            value = op.call()
        except Exception as crash:  # a crash is a verdict, recorded with its type
            err = crash
        results.append((value, err, time.perf_counter() - t))
    out["run_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing

    out["ops"] = [
        {"kind": op.kind, "name": op.name, "ms": secs * 1000.0, **judge(op, value, err)}
        for op, (value, err, secs) in zip(the_pass.ops, results)
    ]
    out["digest"] = the_pass.digest
    out["env"] = environment()
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--workdir", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true", help="trace the layers of this pass")
    mode.add_argument("--setup-only", action="store_true", help="stop before the first operation")
    args = p.parse_args()
    out = run_pass(args.workload, args.seed, args.size, args.workdir, args.trace, args.setup_only)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
