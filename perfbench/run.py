"""The kgt benchmark: two cold-start workloads, timed from outside.

    python3 perfbench/run.py --workload suite_battery --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports kgt from `src`.  Each
pass of a workload runs in a fresh interpreter (perfbench/worker.py) with
one OpenBLAS thread, so every pass starts with empty kgt memos, as a one-shot
`kgt` call does.  Passes run back to back, one client and no worker threads,
while the next one still fits in --seconds; there is always at least one.

With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass, and the
tracing overhead against one untraced pass.  The line before it records the
environment, per-operation-kind times, the latency tail and every failure.
A human-readable table goes to standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite_battery", "fock_cli")
BLAS_THREADS = "1"
HELD_OUT_SEED = 7919
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}
KIND_METRICS = {
    "relations": "relations_s",
    "matrices": "matrices_s",
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, size: str, trace: bool = False, setup_only: bool = False,
              cpu: int | None = None) -> dict:
    """Run one pass in a fresh interpreter, pinned to `cpu` if given, and
    return its JSON record, plus the wall time it took."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--workdir", workdir]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    path = os.pathsep.join([str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    t0 = time.monotonic()
    try:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"a {workload} pass ran over {CHILD_TIMEOUT_S:.0f} s") from err
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"a {workload} pass exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def tail(values):
    """The highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def best_op_s(passes) -> list:
    """Each operation's best time over the passes, in seconds.

    Every pass runs the same operations in the same order on fresh objects,
    so operation i of one pass repeats operation i of another.  A shared
    host's speed drifts over seconds to minutes, with fast phases of a second
    or two; an operation's best time lands on them, where a median over whole
    passes follows the drift.
    """
    return [min(p["ops"][i]["ms"] for p in passes) / 1000.0 for i in range(len(passes[0]["ops"]))]


def summarize(passes, setups) -> tuple[dict, dict]:
    """(result line, detail record) of a set of passes."""
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["status"] != "ok"]
    digests = {p["digest"] for p in passes if p.get("digest")}
    best = best_op_s(passes)
    kinds = {}
    for kind, name in KIND_METRICS.items():
        per_kind = [s for op, s in zip(passes[0]["ops"], best) if op["kind"] == kind]
        if per_kind:
            kinds[name] = sum(per_kind)
    detail = {
        "passes": len(passes),
        "setups": len(setups),
        "kinds_s": kinds,
        "op_p50_ms": statistics.median(op["ms"] for op in ops),
        "op_tail_ms": tail([op["ms"] for op in ops]),
        "fail_ratio": len(failed) / len(ops),
        "crashes": dict(Counter(op["error_type"] for op in failed if op["status"] == "crash")),
        "wrong": sum(op["status"] == "wrong" for op in failed),
        "failures": [f"{op['name']}: {op['status']}: {op.get('detail', '')}" for op in failed[:5]],
        "digest": sorted(digests),
        "pass_run_s": [p["run_s"] for p in passes],
        "env": passes[0]["env"],
    }
    if len(digests) > 1:
        detail["failures"].append("passes of one seed gave different suite digests")
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": sum(best),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    result = {
        "correct": not failed and len(digests) <= 1,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }
    return result, detail


def measure(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    # The vCPUs of a shared host change speed independently, so passes take
    # turns on each CPU this process may use, and every operation's best time
    # has each CPU's fast phases to land on.
    cpus = sorted(os.sched_getaffinity(0))
    passes, setups, longest = [], [], 0.0
    start = time.monotonic()
    while True:
        p = run_child(workload, seed, size, cpu=cpus[len(passes) % len(cpus)])
        passes.append(p)
        setups.append(p["setup_s"])
        longest = max(longest, p["wall_s"])
        if time.monotonic() - start + longest > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, size, setup_only=True)["setup_s"])
    return summarize(passes, setups)


def measure_traced(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics come from the
    traced one, and the overhead is the difference of their run_s."""
    plain = run_child(workload, seed, size)
    traced = run_child(workload, seed, size, trace=True)
    result, detail = summarize([plain, traced], [plain["setup_s"], traced["setup_s"]])
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["run_s"] - plain["run_s"]})
    result["metrics"] = {
        name: {"value": layers[name], "unit": unit} for name, (unit, _) in tracer.LAYER_METRICS.items()
    }
    detail["untraced_run_s"] = plain["run_s"]
    detail["traced_run_s"] = traced["run_s"]
    detail["unresolved_trace_targets"] = traced["missing"]
    return result, detail


def report(workload: str, seed: int, result: dict, detail: dict) -> None:
    env = detail["env"]
    print(
        f"{workload}  seed {seed}  {detail['passes']} pass(es), {detail['setups']} set-up(s)  "
        f"[python {env['python']}, numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} thread(s), "
        f"nproc {env['nproc']}; held-out seed {HELD_OUT_SEED}]",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for name, value in detail["kinds_s"].items():
        print(f"  {name:34s} {value:14.6g} s", file=sys.stderr)
    print(f"  {'op_p50_ms':34s} {detail['op_p50_ms']:14.6g} ms", file=sys.stderr)
    t = detail["op_tail_ms"]
    if t is not None:
        print(f"  {'op_tail_ms':34s} {t['value']:14.6g} ms (p{t['percentile']:.1f} of {t['samples']} ops)",
              file=sys.stderr)
    print(f"  {'fail_ratio':34s} {detail['fail_ratio']:14.6g}   ({result['failed']} of {result['attempted']})",
          file=sys.stderr)
    for line in detail["failures"]:
        print(f"  FAIL {line}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: a small instance of the workload, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kgt" / "__init__.py").is_file():
        print(f"perfbench: no kgt sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the pass in flight
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            result, detail = measure_traced(args.workload, args.seed, args.size)
        else:
            result, detail = measure(args.workload, args.seed, args.seconds, args.size)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed, held_out_seed=HELD_OUT_SEED, trace=args.trace)
    report(args.workload, args.seed, result, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
