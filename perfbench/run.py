#!/usr/bin/env python3
"""Frame-budget benchmark of the WiGig 4K multicast pipeline.

Runs one workload from the repository root and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``::

    python3 perfbench/run.py --workload paper_16u --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # every workload
    python3 perfbench/run.py --workload rr_cohort_256u --smoke --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate traced run that reports the per-layer metrics, prints
the span table and writes the spans as JSON lines under
``perfbench/.state/spans/``.  ``--smoke`` streams a few frames only (the
benchmark's own tests use it).  Metric names, units and directions come
from ``BENCHMARK.json``; ``perfbench/README.md`` says why each workload
exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = BENCH_DIR / ".state"
SESSION_WORKLOADS = ("paper_16u", "rr_cohort_256u", "failover_2ap_8u")
WORKLOADS = SESSION_WORKLOADS + ("service_8u",)
#: Pinned before numpy loads, here and (through the environment) in the
#: server process: numpy's OpenBLAS would otherwise start a thread per
#: core on every call.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_OBS"] = "off"
    # A benchmark-private cache: the DNN is trained into it once, and the
    # user's ~/.cache is never read.
    os.environ["REPRO_CACHE_DIR"] = str(STATE_DIR / "cache")
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def host_record() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def _source_hash() -> str:
    """Hash of the program and benchmark sources the digests came from."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_digest_history(key: str, digests: list, problems: list) -> None:
    """Two runs of one seed on one source tree must give one digest."""
    path = STATE_DIR / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    key = f"{_source_hash()}:{key}"
    known = history.get(key)
    if known is not None and known != digests[0]:
        problems.append(f"digest {digests[0]} differs from an earlier run's "
                        f"{known} for {key}")
    history[key] = digests[0]
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    tmp.replace(path)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_session_workload(name: str, seed: int, seconds: float, trace: bool,
                         smoke: bool):
    import sessions

    workload = sessions.WORKLOADS[name]
    plan = sessions.SMOKE_PLAN if smoke else sessions.FULL_PLAN
    if not trace:
        result = sessions.run_untraced(workload, seed, seconds, plan)
        result.metrics["peak_rss_mb"] = _peak_rss_mb()
        return result, None
    traced = sessions.run_traced(workload, seed, plan)
    traced.outcome.metrics.update(_no_service_metrics())
    return traced.outcome, traced.tracers


def _no_service_metrics() -> dict:
    """Service-layer metrics read 0 on workloads without a service."""
    return {"service.start_ms": 0.0, "service.join_ms_p50": 0.0,
            "service.control_msgs_per_s": 0.0}


def run_service_workload(seed: int, seconds: float, trace: bool,
                         smoke: bool, server_cpus: set):
    import service
    import sessions

    plan = service.SMOKE_SERVICE_PLAN if smoke else service.FULL_SERVICE_PLAN
    served = service.drive(ROOT, seed, seconds, server_cpus, plan)
    for key, value in served["notes"].items():
        print(f"service {key}: {value}")
    problems, digest = service.served_problems(served)
    if not trace:
        outcome = sessions.RunOutcome(
            metrics=served["metrics"],
            attempted=served["attempted"],
            failed=served["failed"],
            digests=[digest],
            pass_frames=plan.session_frames,
            problems=problems,
        )
        return outcome, None
    # The served sessions run on the server's event loop, out of reach of
    # spans; the first one's in-process twin under the server's obs mode
    # gives the core/transport numbers.
    session_plan = sessions.RunPlan(setup_reps=1,
                                    pass_frames=plan.session_frames)
    traced = sessions.run_traced(service.SERVICE_8U, seed, session_plan,
                                 obs_mode="counters")
    outcome = traced.outcome
    outcome.problems += problems
    outcome.metrics.update(served["service"])
    outcome.attempted += served["attempted"]
    outcome.failed += served["failed"]
    return outcome, traced.tracers


def _pin_cpus() -> set:
    """Pin this process to one CPU, so host-speed samples run where the
    frames do; return the CPUs a server process should get (all the
    others, when there are others)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus[1:]) or {cpus[0]}


def _train_once() -> None:
    """Build step, before any timing: a checkout's first run trains the
    DNN into the private cache, in a child process so that the training's
    memory stays out of this process's ``peak_rss_mb``."""
    if any((STATE_DIR / "cache").glob("*.npz")):
        return
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [sys.executable, "-c",
         "from repro.emulation import build_context; build_context()"],
        cwd=str(ROOT), env=env, check=True)


def run_one(args) -> int:
    spec = metric_spec()
    print(f"host: {json.dumps(host_record(), sort_keys=True)}", flush=True)
    server_cpus = _pin_cpus()
    _train_once()
    seconds = 0.0 if args.smoke else args.seconds
    if args.workload == "service_8u":
        outcome, tracers = run_service_workload(
            args.seed, seconds, args.trace, args.smoke, server_cpus)
    else:
        outcome, tracers = run_session_workload(
            args.workload, args.seed, seconds, args.trace, args.smoke)

    _check_digest_history(
        f"{args.workload}:seed{args.seed}:{outcome.pass_frames}frames",
        outcome.digests, outcome.problems)
    print(f"digest: {outcome.digests[0]}")
    for key, value in outcome.notes.items():
        print(f"{key}: {value}")
    if tracers is not None:
        for phase, tracer in tracers.items():
            print(f"\nspans ({phase})\n{tracer.table()}")
            path = tracer.write_spans(
                STATE_DIR / "spans"
                / f"{args.workload}-seed{args.seed}-{phase}.jsonl")
            print(f"spans written: {path.relative_to(ROOT)}")

    wanted = spec["per_layer"] if tracers is not None else spec["end_to_end"]
    problems = list(outcome.problems)
    missing = sorted(set(wanted) - set(outcome.metrics))
    if missing:
        problems.append(f"metrics missing: {missing}")
    metrics = {}
    print()
    for name, entry in wanted.items():
        value = float(outcome.metrics.get(name, float("nan")))
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name:44s} {value:14.6g} {entry['unit']:8s} "
              f"({entry['better']} is better)")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all of them."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        print(f"== {workload}", flush=True)
        done = subprocess.run(command, cwd=str(ROOT), text=True,
                              stdout=subprocess.PIPE, check=False)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload} exited with {done.returncode}")
            return 1
        results[workload] = json.loads(lines[-1])
    print("\n== summary")
    for workload, result in results.items():
        for name, entry in result["metrics"].items():
            print(f"{workload:16s} {name:44s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": entry
            for workload, result in results.items()
            for name, entry in result["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few frames per workload (the self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a checkout with src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    _pin_environment()
    STATE_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
