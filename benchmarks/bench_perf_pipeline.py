#!/usr/bin/env python
"""Per-stage performance benchmark for the streaming pipeline.

Measures the throughput of every pipeline stage the paper's 30 fps / 4K
budget depends on — jigsaw encode, fountain encode/decode, SSIM scoring,
and full emulation runs — for both the original (seed) implementations,
kept as the ``tests/reference`` oracle, and the production
batched/incremental/parallel ones, and writes the results to
``BENCH_PERF.json`` at the repository root.  Subsequent PRs diff against
that file to defend the performance trajectory.

The seed and production paths are bit-compatible: the harness asserts that
emulation metrics and decoded frame bytes are identical across them before
reporting any speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_pipeline.py           # full
    PYTHONPATH=src python benchmarks/bench_perf_pipeline.py --quick   # CI smoke

``--jobs`` (default: ``REPRO_JOBS`` or 4) sets the process-pool width of
the parallel emulation arm.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
# The seed arms come from the test oracle (tests/reference).
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np

from bench_multi_ap import bench_multi_ap
from bench_precode import bench_precode
from bench_scale_users import USER_COUNTS_FULL, USER_COUNTS_QUICK, bench_emulation_scale
from bench_service_load import bench_service_load
from bench_sweep_shard import bench_sweep_shard

from repro.emulation import build_context, run_scheduler_comparison
from repro.fountain.block import (
    FrameBlockDecoder,
    FrameBlockEncoder,
    symbol_size_for,
)
from repro.fountain.raptor import COEFFICIENT_CACHE, FountainDecoder, FountainEncoder
from repro.transport.cohort import FrameCohort
from repro.perf import (
    effective_jobs,
    speedup,
    throughput,
    time_call,
    time_call_best,
    write_bench_report,
)
from repro.perf.encode import encode_frames
from repro.types import Richness
from repro.video.jigsaw import JigsawCodec, LayerStructure
from repro.video.metrics import ssim
from repro.video.synthetic import SyntheticVideo

from tests.reference import SeedFountainDecoder, seed_path
from tests.reference.transport import scalar_decoded_matrices


# ------------------------------------------------------------------- stages


def bench_jigsaw_encode(height: int, width: int, frames: int, jobs: int) -> dict:
    """Jigsaw encode throughput (fps), serial and fanned across cores."""
    video = SyntheticVideo(
        "bench-jigsaw", Richness.HIGH, height, width, num_frames=frames, seed=3
    )
    codec = JigsawCodec(height, width)
    frame_objs = [video.frame(i) for i in range(frames)]
    _, serial_s = time_call(lambda: [codec.encode(f) for f in frame_objs])
    result = {
        "frames": frames,
        "resolution": f"{height}x{width}",
        "fps_serial": throughput(frames, serial_s),
        "fps_parallel": None,
        "jobs": jobs,
    }
    if jobs > 1:
        _, parallel_s = time_call(
            lambda: encode_frames(codec, frame_objs, jobs=jobs)
        )
        result["fps_parallel"] = throughput(frames, parallel_s)
    return result


def bench_fountain_encode(structure: LayerStructure, repair_symbols: int) -> dict:
    """Repair-symbol encode throughput: seed per-symbol vs one-matmul batch."""
    symbol_size = symbol_size_for(structure)
    rng = np.random.default_rng(11)
    data = rng.integers(
        0, 256, size=structure.sublayer_nbytes, dtype=np.uint8
    ).tobytes()

    with seed_path():
        encoder = FountainEncoder(1_000_001, data, symbol_size)
        k = encoder.num_source_symbols
        _, seed_s = time_call(lambda: encoder.symbols(k, repair_symbols))

    COEFFICIENT_CACHE.clear()
    encoder = FountainEncoder(1_000_001, data, symbol_size)
    batch_cold, cold_s = time_call(lambda: encoder.symbols(k, repair_symbols))
    # The warm call is sub-millisecond at quick sizes; best-of-5 keeps the
    # gated throughput row from flapping on scheduler noise.
    batch_warm, warm_s = time_call_best(
        lambda: encoder.symbols(k, repair_symbols), repeats=5
    )
    assert [s.payload for s in batch_cold] == [s.payload for s in batch_warm]

    return {
        "k": k,
        "symbol_bytes": symbol_size,
        "repair_symbols": repair_symbols,
        "seed_msymbols_per_s": throughput(repair_symbols, seed_s) / 1e6,
        "batched_cold_msymbols_per_s": throughput(repair_symbols, cold_s) / 1e6,
        "batched_warm_msymbols_per_s": throughput(repair_symbols, warm_s) / 1e6,
        "speedup_cold_vs_seed": speedup(seed_s, cold_s),
        "speedup_vs_seed": speedup(seed_s, warm_s),
    }


def bench_fountain_decode(structure: LayerStructure, blocks: int) -> dict:
    """Decode throughput: full re-solve per attempt vs incremental pivots.

    Each trial receives a lossy mix (40% of systematic symbols replaced by
    repair symbols) so the decoder actually has to eliminate.
    """
    symbol_size = symbol_size_for(structure)
    rng = np.random.default_rng(13)
    data = rng.integers(
        0, 256, size=structure.sublayer_nbytes, dtype=np.uint8
    ).tobytes()
    encoder = FountainEncoder(2_000_002, data, symbol_size)
    k = encoder.num_source_symbols
    lost = max(1, int(0.4 * k))
    keep = [s for s in encoder.symbols(0, k) if s.symbol_id >= lost]
    keep += encoder.symbols(k, lost + 2)
    symbols_per_block = len(keep)

    def run_decoders(decoder_cls) -> int:
        decoded = 0
        for _ in range(blocks):
            decoder = decoder_cls(2_000_002, len(data), symbol_size)
            for symbol in keep:
                decoder.add_symbol(symbol)
            decoded += decoder.is_decoded
        return decoded

    seed_decoded, seed_s = time_call(lambda: run_decoders(SeedFountainDecoder))
    incremental_decoded, incremental_s = time_call(
        lambda: run_decoders(FountainDecoder)
    )
    assert seed_decoded == incremental_decoded == blocks

    total_symbols = blocks * symbols_per_block
    return {
        "k": k,
        "symbol_bytes": symbol_size,
        "blocks": blocks,
        "symbols_per_block": symbols_per_block,
        "seed_msymbols_per_s": throughput(total_symbols, seed_s) / 1e6,
        "incremental_msymbols_per_s": throughput(total_symbols, incremental_s) / 1e6,
        "speedup_vs_seed": speedup(seed_s, incremental_s),
    }


def bench_cohort_decodability(
    structure: LayerStructure, users: int, repeats: int
) -> dict:
    """Cohort decodability of one recorded lossy frame: scalar vs stacked.

    Informational, not gated: the microbench behind the score-stage drop
    in the frame-budget benchmark.  Every unit of one frame sends ``K + 3``
    symbols to ``users`` receivers at 5% i.i.d. loss.  The scalar arm
    (``tests/reference``) eliminates each distinct reception pattern on
    its own; ``FrameCohort.decoded_matrices`` stacks the whole frame into
    ``gf_rank_batch``.  Both must return identical matrices.
    """
    height, width = structure.height, structure.width
    video = SyntheticVideo(
        "bench-cohort", Richness.HIGH, height, width, num_frames=1, seed=17
    )
    encoder = FrameBlockEncoder(0, JigsawCodec(height, width).encode(video.frame(0)))
    k = encoder.symbols_per_unit()
    rng = np.random.default_rng(23)
    member_rows = np.arange(users)
    events = []
    for unit in encoder.units:
        symbols = encoder.next_symbols(unit, k + 3)
        events.append((unit, symbols, rng.random((len(symbols), users)) >= 0.05))

    def recorded() -> FrameCohort:
        cohort = FrameCohort(range(users), encoder)
        for unit, symbols, delivered in events:
            cohort.record(unit, symbols, member_rows, delivered)
        return cohort

    cohort = recorded()
    scalar, scalar_s = time_call_best(
        lambda: scalar_decoded_matrices(cohort), repeats
    )
    # decoded_matrices caches its verdicts, so every timed call gets a
    # freshly recorded cohort.
    fresh = iter([recorded() for _ in range(repeats)])
    stacked, stacked_s = time_call_best(
        lambda: next(fresh).decoded_matrices(), repeats
    )
    identical = all(np.array_equal(a, b) for a, b in zip(scalar, stacked))
    assert identical, "stacked cohort decodability differs from the scalar oracle"
    return {
        "users": users,
        "units": len(events),
        "k": k,
        "decoded_fraction": float(
            sum(int(m.sum()) for m in stacked) / (users * len(events))
        ),
        "scalar_ms": scalar_s * 1e3,
        "stacked_ms": stacked_s * 1e3,
        "speedup_vs_scalar": speedup(scalar_s, stacked_s),
        "matrices_identical": identical,
    }


def bench_ssim(height: int, width: int, repeats: int) -> dict:
    """SSIM scoring throughput, float32 working precision vs float64."""
    video = SyntheticVideo(
        "bench-ssim", Richness.HIGH, height, width, num_frames=2, seed=5
    )
    codec = JigsawCodec(height, width)
    reference = video.frame(0)
    degraded = codec.decode_fractions(codec.encode(reference), [1, 1, 0.5, 0])

    _, f64_s = time_call(
        lambda: [ssim(reference, degraded, dtype=np.float64) for _ in range(repeats)]
    )
    _, f32_s = time_call(
        lambda: [ssim(reference, degraded, dtype=np.float32) for _ in range(repeats)]
    )
    delta = abs(
        ssim(reference, degraded, dtype=np.float32)
        - ssim(reference, degraded, dtype=np.float64)
    )
    return {
        "resolution": f"{height}x{width}",
        "repeats": repeats,
        "frames_per_s_float64": throughput(repeats, f64_s),
        "frames_per_s_float32": throughput(repeats, f32_s),
        "speedup_vs_float64": speedup(f64_s, f32_s),
        "float32_vs_float64_abs_delta": float(delta),
    }


def check_decoded_frames_identical(structure: LayerStructure) -> bool:
    """Seed and optimized codecs must reassemble byte-identical frames."""
    height, width = structure.height, structure.width
    video = SyntheticVideo(
        "bench-identity", Richness.HIGH, height, width, num_frames=1, seed=9
    )
    codec = JigsawCodec(height, width)
    layered = codec.encode(video.frame(0))

    def transmit_and_assemble() -> bytes:
        encoder = FrameBlockEncoder(0, layered)
        decoder = FrameBlockDecoder(0, layered.structure, encoder.symbol_size)
        drop = np.random.default_rng(21)
        k = encoder.symbols_per_unit()
        for unit in encoder.units:
            for symbol in encoder.next_symbols(unit, k + 3):
                if drop.random() > 0.3:
                    decoder.ingest(symbol)
        assembled, masks = decoder.assemble()
        blob = assembled.base_y.tobytes() + assembled.base_u.tobytes()
        blob += assembled.base_v.tobytes()
        blob += b"".join(d.tobytes() for d in assembled.deltas)
        blob += b"".join(np.asarray(m).tobytes() for m in masks)
        return blob

    with seed_path():
        seed_blob = transmit_and_assemble()
    return transmit_and_assemble() == seed_blob


def _context(quick: bool):
    if quick:
        return build_context(height=144, width=256, dnn_epochs=60, probe_frames=2)
    return build_context()


def bench_emulation(quick: bool, runs: int, frames: int, users: int, jobs: int) -> dict:
    """Wall-clock of a scheduler comparison: serial seed oracle vs production
    batched codec fanned over ``jobs`` workers.  Metrics must be identical."""
    ctx = _context(quick)
    placement = ("arc", 5.0, 60)

    with seed_path():
        seed_results, seed_s = time_call(
            lambda: run_scheduler_comparison(
                ctx, users, placement, runs=runs, frames=frames, jobs=1
            )
        )
    optimized_results, optimized_s = time_call(
        lambda: run_scheduler_comparison(
            ctx, users, placement, runs=runs, frames=frames, jobs=jobs
        )
    )
    return {
        "runs": runs,
        "frames": frames,
        "users": users,
        "jobs": jobs,
        "resolution": f"{ctx.height}x{ctx.width}",
        "seed_serial_wall_s": seed_s,
        "optimized_wall_s": optimized_s,
        "seed_runs_per_s": throughput(runs, seed_s),
        "optimized_runs_per_s": throughput(runs, optimized_s),
        "speedup_vs_seed_serial": speedup(seed_s, optimized_s),
        "metrics_identical": seed_results == optimized_results,
    }


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (~tens of seconds)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="process-pool width for the parallel arms (default: REPRO_JOBS or 4)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="emulation runs (default 4, quick 2)"
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="frames per emulation run (default 6, quick 3)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_PERF.json",
        help="report path (default: BENCH_PERF.json at the repo root)",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs
    if jobs is None:
        jobs = effective_jobs(None)
        if jobs <= 1:
            jobs = 4
    else:
        jobs = effective_jobs(jobs)  # <= 0 means "all cores"
    runs = args.runs or (2 if args.quick else 4)
    frames = args.frames or (3 if args.quick else 6)

    if args.quick:
        height, width = 144, 256
        jig_frames, repair, blocks, ssim_repeats = 6, 300, 40, 20
    else:
        height, width = 288, 512
        jig_frames, repair, blocks, ssim_repeats = 24, 2000, 200, 60
    structure = LayerStructure(height=height, width=width)

    print(f"[1/12] jigsaw encode ({height}x{width}, {jig_frames} frames)")
    jigsaw = bench_jigsaw_encode(height, width, jig_frames, jobs)
    print(f"[2/12] fountain encode ({repair} repair symbols)")
    fountain_encode = bench_fountain_encode(structure, repair)
    print(f"[3/12] precode encode + decode scaling ({repair} repair "
          f"symbols, K sweep 32..256)")
    precode = bench_precode(
        structure, repair, fountain_encode["batched_warm_msymbols_per_s"]
    )
    print(f"[4/12] fountain decode ({blocks} blocks)")
    fountain_decode = bench_fountain_decode(structure, blocks)
    print("[5/12] cohort decodability (one lossy frame, 16 users)")
    cohort_decodability = bench_cohort_decodability(
        structure, users=16, repeats=3 if args.quick else 5
    )
    print(f"[6/12] ssim ({ssim_repeats} frames)")
    ssim_stage = bench_ssim(height, width, ssim_repeats)
    print("[7/12] decoded-frame byte identity (seed vs optimized codec)")
    frames_identical = check_decoded_frames_identical(structure)
    print(f"[8/12] emulation ({runs}-run scheduler comparison, jobs={jobs})")
    emulation = bench_emulation(args.quick, runs, frames, users=4, jobs=jobs)
    emulation["decoded_frames_identical"] = frames_identical
    scale_counts = USER_COUNTS_QUICK if args.quick else USER_COUNTS_FULL
    print(f"[9/12] emulation scale (cohort sweep to {scale_counts[-1]} users)")
    emulation_scale = bench_emulation_scale(
        _context(args.quick), scale_counts, frames
    )
    sweep_runs = 8 if args.quick else 12
    sweep_frames = 2 if args.quick else 3
    print(f"[10/12] sharded sweep ({sweep_runs} runs on persistent pool, "
          f"jobs={min(jobs, 2)})")
    sweep_shard = bench_sweep_shard(
        _context(args.quick), sweep_runs, sweep_frames,
        shards=sweep_runs, jobs=min(jobs, 2),
    )
    svc_sessions = 4 if args.quick else 8
    svc_receivers = 52 if args.quick else 104
    svc_churn = 40 if args.quick else 80
    print(f"[11/12] service load ({svc_receivers} receivers across "
          f"{svc_sessions} sessions)")
    service_load = bench_service_load(
        _context(args.quick), svc_sessions, svc_receivers, svc_churn,
    )
    ap_runs = 2 if args.quick else 3
    ap_frames = 6 if args.quick else 9
    ap_depths = (0.0, 25.0) if args.quick else (0.0, 10.0, 25.0)
    print(f"[12/12] multi-AP failover (1 vs 2 APs, {ap_runs} runs, "
          f"depths {ap_depths} dB)")
    multi_ap = bench_multi_ap(
        _context(args.quick), ap_depths, runs=ap_runs, frames=ap_frames,
        jobs=jobs,
    )

    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "quick": bool(args.quick),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "stages": {
            "jigsaw_encode": jigsaw,
            "fountain_encode": fountain_encode,
            "precode": precode,
            "fountain_decode": fountain_decode,
            "cohort_decodability": cohort_decodability,
            "ssim": ssim_stage,
            "emulation": emulation,
            "emulation_scale": emulation_scale,
            "sweep_shard": sweep_shard,
            "service_load": service_load,
            "multi_ap": multi_ap,
        },
        "acceptance": {
            "fountain_repair_encode_speedup": fountain_encode["speedup_vs_seed"],
            "precode_encode_speedup_vs_dense_batched":
                precode["encode_speedup_vs_dense_batched"],
            "precode_encode_speedup_10x": precode["encode_speedup_10x"],
            "precode_decode_subcubic": precode["decode_subcubic"],
            "precode_roundtrip_identical": precode["roundtrip_identical"],
            "emulation_speedup_vs_seed_serial": emulation["speedup_vs_seed_serial"],
            "emulation_scale_speedup_at_100_users":
                emulation_scale["speedup_at_100_users"],
            "sweep_shard_persistent_vs_fork":
                sweep_shard["persistent_vs_fork_ratio"],
            "metrics_identical": emulation["metrics_identical"],
            "scale_metrics_identical": emulation_scale["metrics_identical"],
            "sweep_merged_identical": sweep_shard["merged_identical"],
            "decoded_frames_identical": frames_identical,
            "service_zero_dropped": service_load["zero_dropped"],
            "service_membership_reflected": service_load["membership_reflected"],
            "service_clean_shutdown": service_load["clean_shutdown"],
            "two_ap_ssim_not_worse_under_blockage":
                multi_ap["two_ap_ssim_not_worse_under_blockage"],
        },
    }
    path = write_bench_report(args.output, report)

    print()
    print(f"jigsaw encode        : {jigsaw['fps_serial']:8.1f} fps serial"
          + (f", {jigsaw['fps_parallel']:.1f} fps x{jobs}"
             if jigsaw["fps_parallel"] else ""))
    print(f"fountain encode      : {fountain_encode['seed_msymbols_per_s']:8.4f} -> "
          f"{fountain_encode['batched_warm_msymbols_per_s']:.4f} Msym/s "
          f"(x{fountain_encode['speedup_vs_seed']:.1f})")
    print(f"precode encode       : {precode['dense_batched_warm_msymbols_per_s']:8.4f} -> "
          f"{precode['encode_msymbols_per_s']:.4f} Msym/s "
          f"(x{precode['encode_speedup_vs_dense_batched']:.1f} vs dense batched)")
    print(f"precode decode ops   : K^{precode['precode_decode_exponent']:.2f} "
          f"vs dense K^{precode['dense_decode_exponent']:.2f} "
          f"(sub-cubic: {precode['decode_subcubic']})")
    print(f"fountain decode      : {fountain_decode['seed_msymbols_per_s']:8.4f} -> "
          f"{fountain_decode['incremental_msymbols_per_s']:.4f} Msym/s "
          f"(x{fountain_decode['speedup_vs_seed']:.1f})")
    print(f"cohort decodability  : {cohort_decodability['scalar_ms']:8.2f} -> "
          f"{cohort_decodability['stacked_ms']:.2f} ms/frame "
          f"(x{cohort_decodability['speedup_vs_scalar']:.1f}, identical: "
          f"{cohort_decodability['matrices_identical']})")
    print(f"ssim                 : {ssim_stage['frames_per_s_float64']:8.1f} -> "
          f"{ssim_stage['frames_per_s_float32']:.1f} frames/s "
          f"(x{ssim_stage['speedup_vs_float64']:.2f}, "
          f"|delta| {ssim_stage['float32_vs_float64_abs_delta']:.2e})")
    print(f"emulation            : {emulation['seed_serial_wall_s']:8.2f} s -> "
          f"{emulation['optimized_wall_s']:.2f} s "
          f"(x{emulation['speedup_vs_seed_serial']:.2f}, "
          f"{emulation['optimized_runs_per_s']:.2f} runs/s)")
    print(f"emulation scale      : x{emulation_scale['speedup_at_100_users']:.1f} "
          f"at {emulation_scale['pivot_users']} users, "
          f"{emulation_scale['max_users']} users in "
          f"{emulation_scale['run_s_at_max_users']:.2f} s")
    print(f"sharded sweep        : {sweep_shard['points_per_s_persistent']:8.2f} "
          f"points/s persistent "
          f"(x{sweep_shard['persistent_vs_fork_ratio']:.2f} vs fork, "
          f"{sweep_shard['parallel_efficiency']:.2f} efficiency)")
    print(f"service load         : {service_load['control_msgs_per_s']:8.1f} "
          f"msgs/s ({service_load['receivers']} receivers x "
          f"{service_load['sessions']} sessions, "
          f"RTT p95 {service_load['feedback_rtt_p95_s']:.4f} s, "
          f"dropped {service_load['dropped_msgs']})")
    print(f"multi-AP failover    : "
          f"{multi_ap['two_ap_advantage_at_max_depth']:+8.4f} SSIM for 2 APs "
          f"at {max(multi_ap['depths_db']):g} dB blockage "
          f"(not worse: {multi_ap['two_ap_ssim_not_worse_under_blockage']})")
    print(f"metrics identical    : {emulation['metrics_identical']}"
          f" (scale: {emulation_scale['metrics_identical']}, "
          f"sweep: {sweep_shard['merged_identical']})")
    print(f"frames identical     : {frames_identical}")
    print(f"report               : {path}")

    ok = (emulation["metrics_identical"] and frames_identical
          and precode["decode_subcubic"]
          and precode["encode_speedup_10x"]
          and precode["roundtrip_identical"]
          and emulation_scale["metrics_identical"]
          and sweep_shard["merged_identical"]
          and service_load["zero_dropped"]
          and service_load["membership_reflected"]
          and service_load["clean_shutdown"]
          and multi_ap["two_ap_ssim_not_worse_under_blockage"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
