"""eesscoex benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --make-reference

Run from the root of a source checkout; the package is imported from
`src/`.  One measurement starts fresh workload processes one after
another until `--seconds` is used up (at least three), because a user
pays import and set-up on every `eesscoex` invocation and peak RSS is a
per-process figure.  Each process sets up, makes one timed run, and
checks its output.  The last stdout line is the result as JSON:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`
(traced processes alternate with untraced ones, whose `run_s` gives the
tracing overhead).  Metric names and units come from BENCHMARK.json.

`--make-reference` rewrites `perfbench/reference/` from the current code;
run it only on a commit whose outputs are known good.
"""

import os

# Pin BLAS/OpenMP before numpy is imported here or in any child process:
# on a small shared machine extra BLAS threads only add noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import check, guard_falls, write_reference  # noqa: E402
from tracing import Tracer, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, Params  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_RUNS = 3
REFERENCE_SEEDS = (0, 7)
PROCESS_TIMEOUT_S = 170.0
# Stop starting processes once the next one could end past this.
HARD_LIMIT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, bad arguments)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def package_init() -> Path:
    init = SRC / "eesscoex" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init}; run from a source checkout")
    return init


def import_package():
    """Import eesscoex from this checkout's src/, never from elsewhere."""
    init = package_init()
    sys.path.insert(0, str(SRC))
    import eesscoex
    from eesscoex import cli, filterbank, reports, scenario

    if Path(eesscoex.__file__).resolve() != init.resolve():
        raise BenchError(f"imported eesscoex from {eesscoex.__file__}, not {init}")
    return SimpleNamespace(cli=cli, scenario=scenario, reports=reports,
                           filterbank=filterbank)


def library_versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


# --- one workload process -------------------------------------------------

def child_main(args) -> int:
    workdir = Path(args.workdir)
    params = Params(**{k: tuple(v) if isinstance(v, list) else v
                       for k, v in json.loads(args.params).items()})
    start = time.perf_counter()
    pkg = import_package()
    workload = WORKLOADS[args.child](pkg, args.seed, params)
    workload.setup()
    setup_s = time.perf_counter() - start

    out_dir = workdir / "out"
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer:
        tracer.install(vars(pkg))
        try:
            points_ms = tracer.span("run", workload.run, out_dir, tracer.span)
        finally:
            tracer.restore()
    else:
        points_ms = workload.run(out_dir)
    run_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.write_reference:
        with open(out_dir / workload.report, encoding="utf-8") as fh:
            write_reference(workload, json.load(fh))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "points_ms": points_ms,
        "maxrss_kb": maxrss_kb,
        "errors": check(workload, out_dir),
        "findings": guard_falls(workload, out_dir),
        "versions": library_versions(),
    }
    if tracer:
        tracer.dump(workdir / "trace.json")
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_child(workload, seed, traced, params, workdir, timeout, write_reference=False):
    """One fresh workload process; returns its result dict."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", str(workdir),
           "--params", json.dumps(dataclasses.asdict(params))]
    if write_reference:
        cmd.append("--write-reference")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"workload process exceeded {timeout:.0f} s"], "traced": traced}
    result_file = workdir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"workload process exited {proc.returncode}: " + " | ".join(tail)],
                "traced": traced}
    with open(result_file, encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    if traced:
        with open(workdir / "trace.json", encoding="utf-8") as fh:
            result["layers"] = layer_metrics(json.load(fh))
    return result


# --- one measurement ------------------------------------------------------

@contextlib.contextmanager
def work_dir():
    """A fresh directory under .bench_work/ in the checkout, removed after.
    .bench_work/ itself stays, so measurements may run side by side."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(workload, seed, seconds, trace, params=Params()):
    """Run fresh workload processes for about `seconds`; return their results."""
    kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_RUNS
    results = []
    start = time.perf_counter()
    with work_dir() as scratch:
        rounds = 0
        while True:
            for traced in kinds:
                elapsed = time.perf_counter() - start
                timeout = max(PROCESS_TIMEOUT_S - elapsed, 1.0)
                results.append(run_child(workload, seed, traced, params,
                                         scratch / str(len(results)), timeout))
            rounds += 1
            elapsed = time.perf_counter() - start
            per_round = elapsed / rounds
            if elapsed + per_round > HARD_LIMIT_S:
                break
            if rounds >= min_rounds and elapsed + per_round > seconds:
                break
    return results


def end_to_end(ok):
    """Medians over fresh processes; point_ms_p50 pools every process's points.
    On a shared machine a fast or slow spell moves the fastest process
    more than the median."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "point_ms_p50": statistics.median(p for r in ok for p in r["points_ms"]),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in ok) / 1024.0,
    }


def per_layer(ok, units):
    """Median times over traced processes; counts must agree between them."""
    traced = [r["layers"] for r in ok if r["traced"]]
    untraced = [r["run_s"] for r in ok if not r["traced"]]
    errors = []
    values = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        seen = [layers[name] for layers in traced]
        if unit == "s" or unit == "us":
            values[name] = statistics.median(seen)
        else:
            if len(set(seen)) != 1:
                errors.append(f"{name} differs between traced runs: {seen}")
            values[name] = seen[0]
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(untraced)
    return values, errors


def summarize(workload, seed, seconds, trace, spec, params=Params()):
    """Measure and return (result dict for stdout, environment, errors)."""
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    results = measure(workload, seed, seconds, trace, params)
    ok = [r for r in results if not r["errors"]]
    errors = [e for r in results for e in r["errors"]]
    points = [p for r in ok if not r["traced"] for p in r["points_ms"]]
    metrics = {}
    have_all = (any(r["traced"] for r in ok) and any(not r["traced"] for r in ok)
                if trace else bool(ok))
    if have_all:
        if trace:
            values, count_errors = per_layer(ok, units)
            errors += count_errors
        else:
            values = end_to_end(ok)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not errors and have_all,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": metrics,
    }
    environment = {
        "workload": workload,
        "seed": seed,
        "processes": len(results),
        "run_s_each": [r["run_s"] for r in ok],
        "setup_s_each": [r["setup_s"] for r in ok],
        "point_samples": len(points),
        "point_ms_p99_pooled": percentile(points, 99),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **(ok[0]["versions"] if ok else {}),
        **(ok[0]["findings"] if ok else {}),
    }
    return result, environment, errors


def report(result, environment, errors):
    print(json.dumps({"environment": environment}, sort_keys=True))
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{environment['workload']:>15}  {name:<42} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def make_reference():
    for name in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            with work_dir() as tmp:
                res = run_child(name, seed, False, Params(), tmp / "w",
                                PROCESS_TIMEOUT_S, write_reference=True)
            if res["errors"]:
                raise BenchError(f"{name} seed {seed}: {res['errors']}")
            print(f"wrote reference for {name} seed {seed}")


def _stop(signum, frame):
    # Unwinding through subprocess.run kills the running workload process and
    # waits for it; work_dir then removes its directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one workload process.
    parser.add_argument("--child", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--params", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        signal.signal(signal.SIGTERM, _stop)
        package_init()
        if args.make_reference:
            make_reference()
            return 0
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = sorted(WORKLOADS) if args.all else [args.workload]
        if names == [None]:
            raise BenchError("give --workload NAME or --all")
        for name in names:
            report(*summarize(name, args.seed, seconds, bool(args.trace), spec))
        return 0  # a failed check shows as "correct": false in the result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
