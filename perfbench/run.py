"""Benchmark of lpgraph: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 0

One process, one client, closed loop: the workload's ops run back to back,
repeating the same seeded inputs.  The first pass always runs whole; after
it the op with the least time so far runs next, while its last latency says
it ends within --seconds.  Each op's latency is the median of its
executions; wall_s is their sum, the time of one pass.  Thread pools of
BLAS and OpenMP are pinned to one thread.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
alternates untraced and traced passes, checks that their outputs agree,
and prints the per-layer metrics of the traced passes, per pass.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it records provenance and the oracle figures of the run.

Artifacts of certify and polytope ops are hashed and pinned in
.perfbench_work/ the first time a checkout runs them; every later run, and
every later pass, must reproduce the hash.  Traced runs write their spans
there too, one JSON line each.
"""

from __future__ import annotations

import argparse
import importlib
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

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_SAMPLES = 3  # this process plus two fresh probe interpreters
CHILD_TIMEOUT = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int, smoke: bool) -> list[workloads.Op]:
    """Import the layers the workload calls and build its inputs."""
    wl = workloads.WORKLOADS[name]
    for mod in wl.modules:
        importlib.import_module(mod)
    return wl.build(seed, smoke)


def child_argv(args, workload: str, *extra: str) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    return argv + (["--smoke"] if args.smoke else [])


def probe_setup(args) -> float:
    proc = subprocess.run(child_argv(args, args.workload, "--setup-probe"), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, check=True, cwd=ROOT)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_op(op: workloads.Op) -> tuple[float, workloads.OpResult]:
    t0 = time.perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        traceback.print_exc(file=sys.stderr)
        res = workloads.OpResult("", failures=[f"raised {type(exc).__name__}: {exc}"])
    return time.perf_counter() - t0, res


def run_pass(ops, check, tracer=None) -> dict:
    """Every op once, then the workload's cross-op oracles."""
    latencies, results = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        lat, res = run_op(op)
        latencies.append(lat)
        results.append(res)
    wall = time.perf_counter() - t0
    cross, figures = check(results)
    for i, failures in cross.items():
        results[i].failures += failures
    return {"wall": wall, "latencies": latencies, "results": results, "figures": figures}


def measure(ops, check, seconds: float, tracer):
    """Untraced: one whole pass, then more executions while each is
    expected, from its op's last latency, to end within `seconds`.
    Traced: untraced and traced passes in pairs while the next pair fits.
    Returns the untraced passes, the (op, latency, result) of every untraced
    execution, and the traced passes."""
    t0 = time.perf_counter()
    plain, traced = [run_pass(ops, check)], []
    runs = [(i, lat, res) for i, (lat, res) in
            enumerate(zip(plain[0]["latencies"], plain[0]["results"]))]
    if tracer is not None:
        while True:
            tracer.install()
            try:
                traced.append(run_pass(ops, check, tracer))
            finally:
                tracer.uninstall()
            rounds = len(traced)
            if (time.perf_counter() - t0) * (rounds + 1) / rounds > seconds:
                break
            plain.append(run_pass(ops, check))
            runs += [(i, lat, res) for i, (lat, res) in
                     enumerate(zip(plain[-1]["latencies"], plain[-1]["results"]))]
    else:
        # water-filling: rerun whichever op has had the least time so far, so
        # short ops get many samples and long ones are not starved of the clock
        last = list(plain[0]["latencies"])
        spent = list(last)
        while True:
            k = min(range(len(ops)), key=spent.__getitem__)
            if time.perf_counter() - t0 + last[k] > seconds:
                break
            lat, res = run_op(ops[k])
            runs.append((k, lat, res))
            last[k] = lat
            spent[k] += lat
    return plain, runs, traced


def check_repeats(ops, results, first, store: dict) -> None:
    """Every output must equal the first pass's; artifacts must equal the
    hash pinned by the first run of this source tree."""
    for i, res in results:
        if res.digest != first[i].digest:
            res.failures.append("output differs from the first untraced pass")
        elif res.pinned and store.setdefault(ops[i].key, res.digest) != res.digest:
            res.failures.append("artifact hash differs from the first run")


def provenance(args) -> dict:
    import networkx
    import numpy
    import scipy

    git = ROOT / ".git"  # read directly: git itself would search parent directories
    sha = None
    if (git / "HEAD").is_file():
        sha = (git / "HEAD").read_text().strip()
        if sha.startswith("ref: "):
            ref = sha[5:]
            packed = git / "packed-refs"
            refs = dict(reversed(line.split(" ", 1)) for line in
                        (packed.read_text().splitlines() if packed.is_file() else [])
                        if not line.startswith(("#", "^")))
            sha = ((git / ref).read_text().strip() if (git / ref).is_file()
                   else refs.get(ref))
    src = b"".join(p.read_bytes() for p in sorted((SRC / "lpgraph").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": workloads.sha256(src),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    t0 = time.perf_counter()
    ops = setup(args.workload, args.seed, args.smoke)
    setup_main = time.perf_counter() - t0
    import lpgraph

    if Path(lpgraph.__file__).resolve().parent != (SRC / "lpgraph").resolve():
        sys.stderr.write(f"error: lpgraph imported from {lpgraph.__file__}, not {SRC}\n")
        return 2
    check = workloads.WORKLOADS[args.workload].check
    prov = provenance(args)
    store_path = workloads.WORK / f"artifacts-{prov['src_sha256'][:16]}.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}

    tracer = tracing.Tracer() if args.trace else None
    plain, runs, traced = measure(ops, check, args.seconds, tracer)
    first = plain[0]["results"]
    executions = [(i, res) for i, _, res in runs] + [
        (i, res) for p in traced for i, res in enumerate(p["results"])]
    check_repeats(ops, executions, first, store)
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    failed = 0
    for i, res in executions:
        if res.failures:
            failed += 1
            sys.stderr.write(f"FAILED {ops[i].key}: {'; '.join(res.failures)}\n")

    # one latency per op, the median of its executions: the distribution is
    # over the workload's inputs and does not widen as the program speeds up
    per_op = [statistics.median(lat for j, lat, _ in runs if j == i) for i in range(len(ops))]
    tail, pct, beyond = tracing.tail_percentile(per_op)
    # op_p50_ms and op_tail_ms go to the details line, not the metrics: on
    # interpreter-bound certify ops they spread 16-31% between runs on a
    # shared 2-vCPU machine, beyond any usable regression bound
    details = {"provenance": prov, "ops": len(ops), "executions": len(runs),
               "op_p50_ms": tracing.percentile(per_op, 50.0) * 1e3,
               "op_tail_ms": tail * 1e3,
               "op_tail_percentile": pct, "op_tail_beyond": beyond,
               "oracles": plain[0]["figures"],
               "op_latency_s": {op.key: [lat for j, lat, _ in runs if j == i]
                                for i, op in enumerate(ops)}}

    if args.trace == 0:
        setup_samples = [setup_main] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        details["setup_samples_s"] = setup_samples
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_s": metric(sum(per_op), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        details["spans"] = str(workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(details["spans"], t0)
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        layer.update(tracing.import_times(str(SRC), dict(os.environ)))
        layer["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                     - statistics.median(p["wall"] for p in plain))
        metrics = {name: metric(val, tracing.unit_of(name)) for name, val in layer.items()}

    for name, m in metrics.items():
        print(f"{args.workload:>16} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>16} op latency p50 {details['op_p50_ms']:.6g} ms, "
          f"p{pct:g} {details['op_tail_ms']:.6g} ms ({beyond} of {len(ops)} ops beyond); "
          f"{len(runs)} untraced executions")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(executions), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(child_argv(args, name), capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT * 2)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"error: workload {name} exited {proc.returncode}\n")
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "lpgraph" / "__init__.py").is_file() or not (ROOT / "graphs").is_dir():
        sys.stderr.write(f"error: no lpgraph sources under {ROOT}; run from a full checkout\n")
        return 2
    os.environ.update(THREAD_VARS)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
