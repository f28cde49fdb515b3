#!/usr/bin/env python
"""User-count scaling benchmark for the vectorized cohort transport core.

Sweeps full emulation runs from a handful of receivers up to 1,000+ and
reports the users-vs-runs/s curve of the cohort path, plus a comparison
with the per-receiver seed oracle (``tests/reference``) at a pivot user
count that defends the cohort's speedup.  Both are bit-compatible; the harness asserts the
per-(frame, user) outcome statistics are identical before reporting any
speedup.

The sweep uses the predefined-multicast scheme with the round-robin
scheduler and ``max_group_size=2`` so beam planning stays linear in the
user count and the measurement isolates the transport/scoring core the
cohort arrays vectorize — the planner is shared verbatim by both paths and
would otherwise dominate the wall clock at large N.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_users.py           # full
    PYTHONPATH=src python benchmarks/bench_scale_users.py --quick   # CI smoke

The report (users-vs-runs/s curve and the pivot comparison) is written as
JSON — ``bench_scale_users.json`` by default — for the nightly-CI artifact
upload; the same stage dict is embedded as ``emulation_scale`` in
``BENCH_PERF.json`` by ``bench_perf_pipeline.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
# The seed arm comes from the test oracle (tests/reference).
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.core import MulticastStreamer
from repro.emulation import ExperimentContext, build_context, trace_for_placement
from repro.perf import throughput, time_call, write_bench_report
from repro.types import BeamformingScheme, SchedulerKind

from tests.reference import seed_path

#: Config overrides shared by every scale point (see module docstring).
SCALE_OVERRIDES = dict(
    max_group_size=2,
    scheme=BeamformingScheme.PREDEFINED_MULTICAST,
    scheduler=SchedulerKind.ROUND_ROBIN,
)

PLACEMENT = ("arc", 5.0, 60)
USER_COUNTS_FULL = (4, 16, 64, 100, 250, 1000)
USER_COUNTS_QUICK = (4, 16, 100, 1000)
PIVOT_USERS = 100
IDENTITY_USERS = 8


def _outcome_digest(outcome) -> list:
    """Bit-exact digest of per-(frame, user) stats (hex floats)."""
    return [
        (
            s.frame_index,
            s.user_id,
            float(s.ssim).hex(),
            float(s.psnr_db).hex(),
            tuple(float(b).hex() for b in s.bytes_received_per_layer),
            bool(s.deadline_met),
        )
        for s in outcome.stats
    ]


def scale_run(
    ctx: ExperimentContext,
    num_users: int,
    frames: int,
    seed_arm: bool = False,
    run_seed: int = 0,
):
    """One timed emulation run at ``num_users`` receivers.

    Returns ``(run_wall_s, setup_wall_s, outcome)``.  Trace construction
    (channel snapshots for every receiver) is reported separately: it is
    world setup shared identically by both paths, not part of the
    streaming loop the cohort arrays optimize.
    """
    trace, setup_s = time_call(
        lambda: trace_for_placement(ctx, num_users, PLACEMENT, run_seed)
    )
    config = ctx.config(**SCALE_OVERRIDES)
    streamer = MulticastStreamer(
        config, ctx.dnn, ctx.probes, ctx.scenario.channel_model, seed=run_seed
    )
    with seed_path() if seed_arm else nullcontext():
        outcome, run_s = time_call(lambda: streamer.session(trace).run(frames))
    return run_s, setup_s, outcome


def bench_emulation_scale(
    ctx: ExperimentContext,
    user_counts=USER_COUNTS_FULL,
    frames: int = 6,
    pivot_users: int = PIVOT_USERS,
    identity_users: int = IDENTITY_USERS,
) -> dict:
    """The ``emulation_scale`` benchmark stage.

    Sweeps the cohort path over ``user_counts``, times the seed oracle at
    ``pivot_users`` for the headline speedup, and checks outcome
    bit-identity across the paths at ``identity_users``.
    """
    curve = []
    pivot_optimized_s = None
    for num_users in user_counts:
        run_s, setup_s, _ = scale_run(ctx, num_users, frames)
        curve.append({
            "users": num_users,
            "run_s": run_s,
            "setup_s": setup_s,
            "runs_per_s": throughput(1, run_s),
        })
        print(f"    {num_users:5d} users: {run_s:7.2f} s/run "
              f"({throughput(1, run_s):6.2f} runs/s, setup {setup_s:.2f} s)",
              flush=True)
        if num_users == pivot_users:
            pivot_optimized_s = run_s

    if pivot_optimized_s is None:
        pivot_optimized_s, _, _ = scale_run(ctx, pivot_users, frames)
    seed_pivot_s, _, _ = scale_run(ctx, pivot_users, frames, seed_arm=True)
    print(f"    seed oracle at {pivot_users} users: {seed_pivot_s:.2f} s/run "
          f"(x{seed_pivot_s / pivot_optimized_s:.1f} speedup)", flush=True)

    _, _, seed_outcome = scale_run(ctx, identity_users, frames, seed_arm=True)
    _, _, opt_outcome = scale_run(ctx, identity_users, frames)
    identical = _outcome_digest(seed_outcome) == _outcome_digest(opt_outcome)

    max_point = curve[-1]
    return {
        "frames": frames,
        "resolution": f"{ctx.height}x{ctx.width}",
        "placement": "arc 5.0 m, MAS 60 deg",
        "scheme": SCALE_OVERRIDES["scheme"].value,
        "scheduler": SCALE_OVERRIDES["scheduler"].value,
        "max_group_size": SCALE_OVERRIDES["max_group_size"],
        "curve": curve,
        "pivot_users": pivot_users,
        "seed_run_s_at_pivot": seed_pivot_s,
        "optimized_run_s_at_pivot": pivot_optimized_s,
        "speedup_at_100_users": seed_pivot_s / pivot_optimized_s,
        "optimized_runs_per_s_at_100_users": throughput(1, pivot_optimized_s),
        "max_users": max_point["users"],
        "run_s_at_max_users": max_point["run_s"],
        "metrics_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced resolution and fewer sweep points for CI smoke runs",
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="frames per run (default 6, quick 3)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "bench_scale_users.json",
        help="JSON report path (default: bench_scale_users.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        ctx = build_context(height=144, width=256, dnn_epochs=60, probe_frames=2)
        user_counts = USER_COUNTS_QUICK
    else:
        ctx = build_context()
        user_counts = USER_COUNTS_FULL
    frames = args.frames or (3 if args.quick else 6)

    print(f"emulation scale sweep ({ctx.height}x{ctx.width}, {frames} frames)")
    stage = bench_emulation_scale(ctx, user_counts, frames)

    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "quick": bool(args.quick),
        "stages": {"emulation_scale": stage},
    }
    path = write_bench_report(args.output, report)

    print()
    print(f"speedup at {stage['pivot_users']} users : "
          f"x{stage['speedup_at_100_users']:.1f} "
          f"({stage['seed_run_s_at_pivot']:.2f} s -> "
          f"{stage['optimized_run_s_at_pivot']:.2f} s)")
    print(f"{stage['max_users']} users               : "
          f"{stage['run_s_at_max_users']:.2f} s per run")
    print(f"metrics identical        : {stage['metrics_identical']}")
    print(f"report                   : {path}")
    return 0 if stage["metrics_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
