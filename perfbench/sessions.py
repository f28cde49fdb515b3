"""In-process session workloads: the pipeline streamed pass after pass.

A run sets the workload up several times (context load from the
benchmark-private cache, trace recording, streamer build), then streams
passes over the last set-up's trace.  Every pass builds a fresh streamer
and session from the same seed, so every pass must give the same outcome.
The first pass runs with the process-wide caches cold (the dense
coefficient-row cache and each probe's mask cache start empty in a new
process); the later passes run warm.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.core import MulticastStreamer
from repro.emulation import build_context, trace_for_placement
from repro.emulation.sweep import parse_config_overrides
from repro.service.session import SEED_OFFSET

import hostspeed
from tracing import Tracer, instrument, instrument_session

#: Users stand on the 5 m arc at a 60 degree MAS, as in the paper's
#: default emulation placement.
PLACEMENT = ("arc", 5.0, 60.0)

#: Stages of the single- and multi-AP pipelines, in order.
STAGES = ("plan", "encode", "map", "transmit", "feedback", "score")


@dataclass(frozen=True)
class SessionWorkload:
    """One in-process workload: users and config overrides, parsed the way
    the sweep engine and the service parse them."""

    name: str
    users: int
    overrides: Mapping[str, object] = field(default_factory=dict)
    pass_frames: int = 30


#: The paper's operating point: SystemConfig defaults (optimized multicast
#: beams, Problem-1 scheduler, dense codec, real-time update).  Passes are
#: short (5 replans) so a run gets several warm passes to take a median of.
PAPER_16U = SessionWorkload("paper_16u", 16, pass_frames=15)

#: The round-robin baseline at cohort scale; it bypasses beam optimization
#: and the allocator, so transport, scoring and mapping do the work.
RR_COHORT_256U = SessionWorkload("rr_cohort_256u", 256, {
    "scheduler": "round_robin",
    "scheme": "predefined_multicast",
    "max_group_size": 2,
})

#: Paper config on two APs under deep LoS blockage (the blockage-failover
#: preset, fixed here so the yardstick does not move with the CLI preset).
#: A pass is 1 s of video, so every pass sees several blockage bursts.
FAILOVER_2AP_8U = SessionWorkload("failover_2ap_8u", 8, {
    "topology.num_aps": "2",
    "faults.seed": "11",
    "faults.blockage_rate_hz": "6",
    "faults.blockage_duration_s": "0.3",
    "faults.blockage_depth_db": "25",
})

WORKLOADS = {w.name: w for w in (PAPER_16U, RR_COHORT_256U, FAILOVER_2AP_8U)}


@dataclass(frozen=True)
class RunPlan:
    """How much work one run does (the smoke plan shrinks it).

    The warm phase streams whole passes until it has run ``min_warm_passes``
    and the run's ``--seconds``.
    """

    setup_reps: int = 3
    min_warm_passes: int = 4
    pass_frames: Optional[int] = None

    def frames(self, workload: SessionWorkload) -> int:
        return self.pass_frames or workload.pass_frames


FULL_PLAN = RunPlan()
SMOKE_PLAN = RunPlan(setup_reps=1, min_warm_passes=1, pass_frames=3)


def outcome_digest(outcome) -> str:
    """SHA-256 over every (frame, user) stat with floats as hex."""
    rows = sorted(
        (
            s.frame_index,
            s.user_id,
            float(s.ssim).hex(),
            float(s.psnr_db).hex(),
            tuple(float(b).hex() for b in s.bytes_received_per_layer),
            bool(s.deadline_met),
        )
        for s in outcome.stats
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """One pass: per-frame wall times, raw and host-speed corrected."""

    raw_s: List[float]
    frame_s: List[float]
    frames: int
    failed: int
    digest: str
    ssim_mean: float
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return sum(self.frame_s)


@dataclass
class Setup:
    ctx: object
    config: object
    trace: object
    seed: int
    first_session: object = None

    def session(self):
        streamer = MulticastStreamer(
            self.config, self.ctx.dnn, self.ctx.probes,
            self.ctx.scenario.channel_model, seed=self.seed + SEED_OFFSET,
        )
        return streamer.session(self.trace)


def set_up(workload: SessionWorkload, seed: int,
           context: Callable = build_context) -> Setup:
    """Context load, trace recording and the first streamer build."""
    ctx = context()
    config = ctx.config(**parse_config_overrides(dict(workload.overrides)))
    trace = trace_for_placement(
        ctx, workload.users, PLACEMENT, seed, num_aps=config.num_aps)
    setup = Setup(ctx, config, trace, seed)
    setup.first_session = setup.session()
    return setup


def stream_pass(session, frames: int, users: int,
                tracer: Optional[Tracer] = None) -> PassResult:
    """Stream one pass; a frame fails if it raised or scored a non-finite
    or out-of-range SSIM, or left a user without a stat.

    Each frame is bracketed by host-speed samples (see :mod:`hostspeed`).
    """
    raw_s: List[float] = []
    speed = [hostspeed.sample()]
    error = None
    try:
        session.begin(frames)
        for index in range(frames):
            if tracer is not None:
                tracer.enter("frame")
            start = perf_counter()
            try:
                session.stream_frame(index)
            finally:
                raw_s.append(perf_counter() - start)
                if tracer is not None:
                    tracer.exit()
                speed.append(hostspeed.sample())
    except Exception as exc:  # noqa: BLE001 - a failed frame is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    outcome = session.outcome
    per_frame: Dict[int, List[float]] = {}
    for stat in outcome.stats:
        per_frame.setdefault(stat.frame_index, []).append(float(stat.ssim))
    good = sum(
        1 for index in range(frames)
        if len(per_frame.get(index, ())) == users
        and all(math.isfinite(v) and -1.0 <= v <= 1.0
                for v in per_frame[index])
    )
    ssims = [v for values in per_frame.values() for v in values]
    return PassResult(
        raw_s=raw_s,
        frame_s=[
            t / hostspeed.slowdown(speed[i:i + 2]) for i, t in enumerate(raw_s)
        ],
        frames=frames,
        failed=frames - good,
        digest=outcome_digest(outcome),
        ssim_mean=statistics.fmean(ssims) if ssims else float("nan"),
        error=error,
    )


def percentile(values: List[float], q: float) -> float:
    """``numpy.percentile``; NaN, which the run reports as a problem, for
    no values."""
    if not values:
        return float("nan")
    return float(np.percentile(values, q))


@dataclass
class RunOutcome:
    """What a run reports: metrics, op accounting and digests."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Outcome digests of the run's passes, and the pass length they cover.
    digests: List[str]
    pass_frames: int
    problems: List[str]
    notes: Dict[str, object] = field(default_factory=dict)


def _check_passes(passes: List[PassResult], problems: List[str]) -> None:
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of one seed disagree: {sorted(digests)}")
    for p in passes:
        if p.error:
            problems.append(f"pass raised {p.error}")


def run_untraced(workload: SessionWorkload, seed: int, seconds: float,
                 plan: RunPlan = FULL_PLAN) -> RunOutcome:
    """End-to-end metrics with tracing off."""
    frames = plan.frames(workload)
    setup_s = []
    raw_setup_s = []
    for _ in range(plan.setup_reps):
        before = hostspeed.sample()
        start = perf_counter()
        setup = set_up(workload, seed)
        raw_setup_s.append(perf_counter() - start)
        setup_s.append(raw_setup_s[-1] / hostspeed.slowdown(
            [before, hostspeed.sample()]))

    cold = stream_pass(setup.first_session, frames, workload.users)
    warm: List[PassResult] = []
    start = perf_counter()
    while len(warm) < plan.min_warm_passes or perf_counter() - start < seconds:
        warm.append(stream_pass(setup.session(), frames, workload.users))

    passes = [cold] + warm
    problems: List[str] = []
    _check_passes(passes, problems)
    warm_frame_s = [t for p in warm for t in p.frame_s]
    video_s = frames / setup.config.fps
    metrics = {
        "setup_s": statistics.median(setup_s),
        "rtf_cold": cold.seconds / video_s,
        "rtf": statistics.median(p.seconds for p in warm) / video_s,
        "latency_ms_p50": percentile(warm_frame_s, 50) * 1e3,
        "latency_ms_p90": percentile(warm_frame_s, 90) * 1e3,
        "ssim_mean": statistics.fmean(p.ssim_mean for p in warm),
    }
    return RunOutcome(
        metrics=metrics,
        attempted=sum(p.frames for p in passes),
        failed=sum(p.failed for p in passes),
        digests=[p.digest for p in passes],
        pass_frames=frames,
        problems=problems,
        notes={
            "warm_frames": len(warm_frame_s),
            "raw_setup_s": raw_setup_s,
            "raw_pass_s": [sum(p.raw_s) for p in passes],
            "host_slowdown": [sum(p.raw_s) / p.seconds for p in passes],
        },
    )


def run_traced(workload: SessionWorkload, seed: int,
               plan: RunPlan = FULL_PLAN,
               obs_mode: Optional[str] = None) -> "TracedOutcome":
    """Per-layer metrics: a traced cold pass, then an untraced and a traced
    warm pass (the untraced one gives the tracing overhead).

    ``obs_mode`` runs every pass under that ``repro.obs`` mode, as the
    service's server does (its default is counters).
    """
    frames = plan.frames(workload)
    setup_tracer = Tracer()
    cold_tracer = Tracer()
    warm_tracer = Tracer()
    observed = (lambda: obs.observed(obs_mode)) if obs_mode else nullcontext

    with observed():
        before = hostspeed.sample()
        with setup_tracer.span("emulation.context"):
            ctx = build_context()
        with instrument(setup_tracer, ctx):
            setup = set_up(workload, seed, context=lambda: ctx)
        setup_slowdown = hostspeed.slowdown([before, hostspeed.sample()])
        session = setup.first_session
        instrument_session(cold_tracer, session)
        with instrument(cold_tracer, setup.ctx):
            cold = stream_pass(session, frames, workload.users, cold_tracer)
        untraced = [stream_pass(setup.session(), frames, workload.users)]
        session = setup.session()
        instrument_session(warm_tracer, session)
        with instrument(warm_tracer, setup.ctx):
            traced = [stream_pass(session, frames, workload.users, warm_tracer)]

    passes = [cold] + untraced + traced
    problems: List[str] = []
    _check_passes(passes, problems)
    metrics = layer_metrics(setup_tracer, cold_tracer, warm_tracer, traced,
                            untraced, setup_slowdown)
    return TracedOutcome(
        outcome=RunOutcome(
            metrics=metrics,
            attempted=sum(p.frames for p in passes),
            failed=sum(p.failed for p in passes),
            digests=[p.digest for p in passes],
            pass_frames=frames,
            problems=problems,
        ),
        tracers={"setup": setup_tracer, "cold": cold_tracer,
                 "warm": warm_tracer},
    )


@dataclass
class TracedOutcome:
    outcome: RunOutcome
    tracers: Dict[str, Tracer]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup_tracer: Tracer, cold: Tracer, warm: Tracer,
                  traced: List[PassResult], untraced: List[PassResult],
                  setup_slowdown: float) -> Dict[str, float]:
    """Per-layer metrics from the warm traced passes (cache hit ratio for
    both phases, set-up layers from the set-up spans).

    Span times are divided by the host slowdown over the passes (or the
    set-up) they were recorded in, as the end-to-end times are.
    """
    frames = sum(p.frames for p in traced)
    replans = warm.counts["replans"]
    plan_group_calls = warm.calls("beamforming.plan_group")
    packets = warm.counts["packets_sent"]
    delivered = warm.counts["packets_received"]
    slowdown = sum(sum(p.raw_s) for p in traced) / sum(
        p.seconds for p in traced)

    def per_frame_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3 / slowdown, frames)

    def per_replan_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3 / slowdown, replans)

    metrics: Dict[str, float] = {
        f"core.{stage}.ms_per_frame": per_frame_ms(
            warm.inclusive_s(f"core.{stage}"))
        for stage in STAGES
    }
    metrics.update({
        "core.replans": _ratio(replans, len(traced)),
        "core.multi_ap.repair_users_per_frame": _ratio(
            warm.counts["repair_users"], frames),
        "beamforming.plan_group.calls_per_replan": _ratio(
            plan_group_calls, replans),
        "beamforming.plan_group.ms_per_replan": per_replan_ms(
            warm.inclusive_s("beamforming.plan_group")),
        "scheduling.enumerate.self_ms_per_replan": per_replan_ms(
            warm.self_s("scheduling.enumerate")),
        "scheduling.groups_kept_ratio": _ratio(
            warm.counts["groups_kept"], plan_group_calls),
        "scheduling.optimize.ms_per_replan": per_replan_ms(
            warm.inclusive_s("scheduling.optimize")),
        "quality.dnn.calls_per_replan": _ratio(
            warm.calls("quality.dnn"), replans),
        "quality.dnn.ms_per_replan": per_replan_ms(
            warm.inclusive_s("quality.dnn")),
        "transport.packets_per_frame": _ratio(packets, frames),
        "transport.us_per_packet": _ratio(
            warm.self_s("core.transmit") * 1e6 / slowdown, packets),
        "transport.delivered_ratio": _ratio(
            delivered, delivered + warm.counts["packets_lost"]),
        "transport.feedback_rounds_per_frame": _ratio(
            warm.counts["feedback_rounds"], frames),
        "transport.link.ms_per_frame": per_frame_ms(
            warm.layer_self_s("transport")),
        "transport.scalar_frame_frac": _ratio(
            warm.counts["scalar_frames"], frames),
        "fountain.ms_per_frame": per_frame_ms(
            warm.layer_self_s("fountain", "core.transmit")),
        "video.measure_masks.calls_per_frame": _ratio(
            warm.calls("video.measure_masks"), frames),
        "video.measure_masks.ms_per_frame": per_frame_ms(
            warm.inclusive_s("video.measure_masks")),
        "video.mask_cache_hit_ratio.cold": _ratio(
            cold.counts["mask_hits"], cold.counts["mask_calls"]),
        "video.mask_cache_hit_ratio.warm": _ratio(
            warm.counts["mask_hits"], warm.counts["mask_calls"]),
        "phy.trace_s": setup_tracer.inclusive_s("phy.trace") / setup_slowdown,
        "emulation.context_s": setup_tracer.inclusive_s(
            "emulation.context") / setup_slowdown,
        "trace.overhead_frac": _ratio(
            sum(p.seconds for p in traced) / frames,
            sum(p.seconds for p in untraced) / sum(p.frames for p in untraced),
        ) - 1.0,
    })
    return metrics
