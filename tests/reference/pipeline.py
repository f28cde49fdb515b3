"""Seed pipeline stages: per-receiver feedback, scoring and multi-AP repair.

Scalar twins of the production stages in :mod:`repro.core.pipeline` and
:mod:`repro.core.multi_ap`, reading the per-receiver decoders that
:func:`tests.reference.transport.scalar_transmit` returns instead of a
frame cohort.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.scheduling.groups import CandidateGroup
from repro.transport.transmitter import GROUP_SWITCH_OVERHEAD_S, HEADER_BYTES
from repro.types import FrameStats
from repro.video.metrics import psnr, ssim

from .transport import BandwidthEstimator, ScalarTransmissionResult


def scalar_rate_limits(allocation, bw_estimators) -> Dict[int, float]:
    """Per-group pacing caps from per-receiver estimator objects."""
    limits: Dict[int, float] = {}
    for group in allocation.groups:
        fractions = [
            bw_estimators[u].estimate_bytes_per_s
            for u in group.user_ids
            if u in bw_estimators
            and bw_estimators[u].estimate_bytes_per_s is not None
        ]
        if fractions:
            limits[group.index] = float(min(fractions)) * group.rate_bytes_per_s
    return limits


def seed_session_init(original):
    """Wrap ``StreamSession.__init__``: per-receiver scalar estimators."""

    def init(self, *args, **kwargs) -> None:
        original(self, *args, **kwargs)
        self.cohort_bw = None
        self.state.bw_estimators = {u: BandwidthEstimator() for u in self.users}

    return init


def uncached_measure_masks(self, masks):
    """``FrameQualityProbe.measure_masks`` decoding every call afresh."""
    decoded = self.codec.decode(self.layered, masks)
    return ssim(self.reference, decoded), psnr(self.reference, decoded)


def transmitter_run(self, ctx, session) -> None:
    """``Transmitter.run`` with scalar rate limits."""
    streamer = session.streamer
    config = session.config
    allocation = ctx.allocation
    ctx.true_state = session.trace.at_time(ctx.now).true_state
    ctx.rate_limits = scalar_rate_limits(allocation, session.state.bw_estimators)
    fault_kwargs = (
        {"active_users": ctx.users, "faults": session.faults}
        if session.faults is not None
        else {}
    )
    ctx.result = streamer.transmitter.transmit(
        ctx.encoder,
        ctx.assignments,
        allocation.groups,
        ctx.true_state,
        config.frame_budget_s,
        streamer.rng,
        rate_limits_bytes_per_s=ctx.rate_limits,
        **fault_kwargs,
    )
    ctx.deadline_met = ctx.result.airtime_s <= config.frame_budget_s + 1e-9


def feedback_run(self, ctx, session) -> None:
    """``FeedbackUpdater.run`` one receiver at a time."""
    faults = session.faults
    for user in ctx.users:
        if faults is not None:
            if faults.feedback_lost(user):
                staleness = session.state.feedback_staleness
                staleness[user] = staleness.get(user, 0) + 1
                session.state.bw_estimators[user].decay(
                    session.config.faults.stale_decay
                )
                continue
            session.state.feedback_staleness.pop(user, None)
        reception = ctx.result.receptions[user]
        total = reception.packets_received + reception.packets_lost
        fraction = reception.packets_received / total if total else 1.0
        session.state.bw_estimators[user].observe_fraction(
            float(np.clip(fraction, 0.0, 1.0)), session.streamer.rng
        )


def scorer_run(self, ctx, session) -> None:
    """``Scorer.run`` decoding and scoring every receiver on its own."""
    for user in ctx.users:
        reception = ctx.result.receptions[user]
        masks = reception.decoder.sublayer_masks()
        quality, quality_db = ctx.probe.measure_masks(masks)
        session.outcome.stats.append(
            FrameStats(
                frame_index=ctx.frame_index,
                user_id=user,
                ssim=quality,
                psnr_db=quality_db,
                bytes_received_per_layer=tuple(
                    reception.decoder.bytes_received_per_layer()
                ),
                deadline_met=ctx.deadline_met,
            )
        )


def multi_ap_transmitter_run(self, ctx, session) -> None:
    """``MultiApTransmitter.run`` over per-receiver decoders."""
    streamer = session.streamer
    config = session.config
    true_state = session.trace.at_time(ctx.now).true_state
    n_aps = config.num_aps
    if true_state.n_aps < n_aps:
        raise ConfigurationError(
            f"config asks for {n_aps} APs but the trace carries channels "
            f"for {true_state.n_aps}; record it with num_aps={n_aps}"
        )
    ctx.true_state = true_state
    budget_s = config.frame_budget_s

    receptions = {}
    ap_airtime = [0.0] * n_aps
    packets_sent = 0
    packets_dropped = 0
    rounds = 0
    rate_limits: Dict[int, float] = {}
    for ap in range(n_aps):
        allocation = ctx.ap_allocations[ap]
        assignments = ctx.ap_assignments[ap]
        users_ap = ctx.ap_users[ap]
        if allocation is None or assignments is None or not users_ap:
            continue
        limits = scalar_rate_limits(allocation, session.state.bw_estimators)
        rate_limits.update(limits)
        faults_ap = (
            session.faults.for_ap(ap) if session.faults is not None else None
        )
        result = streamer.transmitter.transmit(
            ctx.encoder,
            assignments,
            allocation.groups,
            true_state.for_ap(ap),
            budget_s,
            streamer.rng,
            rate_limits_bytes_per_s=limits,
            active_users=users_ap,
            faults=faults_ap,
        )
        for user in users_ap:
            if user in result.receptions:
                receptions[user] = result.receptions[user]
        ap_airtime[ap] = result.airtime_s
        packets_sent += result.packets_sent
        packets_dropped += result.packets_dropped_at_queue
        rounds = max(rounds, result.feedback_rounds_used)
    ctx.rate_limits = rate_limits

    packets_sent += _cross_ap_repair(
        self, ctx, session, receptions, true_state, ap_airtime, budget_s
    )
    airtime = max(ap_airtime) if ap_airtime else 0.0
    ctx.result = ScalarTransmissionResult(
        receptions=receptions,
        airtime_s=min(airtime, budget_s),
        packets_sent=packets_sent,
        packets_dropped_at_queue=packets_dropped,
        feedback_rounds_used=rounds,
    )
    ctx.deadline_met = airtime <= budget_s + 1e-9


def _cross_ap_repair(
    self, ctx, session, receptions, true_state, ap_airtime, budget_s
) -> int:
    """Secondary-AP repair symbols ingested one by one into decoders."""
    if not ctx.repair_plans:
        return 0
    streamer = session.streamer
    config = session.config
    encoder = ctx.encoder
    k = encoder.symbols_per_unit()
    packet_bytes = encoder.symbol_size + HEADER_BYTES
    serving = ctx.association or {}
    sent = 0
    for user in sorted(ctx.repair_plans):
        ap, plan = ctx.repair_plans[user]
        reception = receptions.get(user)
        if reception is None or plan.mcs is None:
            continue
        units = self._scheduled_units(ctx, serving.get(user), encoder)
        if not units:
            continue
        remaining = budget_s - ap_airtime[ap]
        if remaining <= GROUP_SWITCH_OVERHEAD_S:
            continue
        faults_ap = (
            session.faults.for_ap(ap) if session.faults is not None else None
        )
        link = streamer.transmitter.link
        if faults_ap is not None:
            link = faults_ap.wrap_link(link)
        prob = link.delivery_probability(
            user, plan.beam, true_state.for_ap(ap), plan.mcs
        )
        if faults_ap is not None:
            scale = faults_ap.erasure_scale()
            if scale < 1.0:
                prob *= scale
        rate = CandidateGroup(
            index=0, plan=plan, rate_scale=config.rate_scale
        ).rate_bytes_per_s
        symbol_airtime = packet_bytes / max(rate, 1e-6)
        clock = GROUP_SWITCH_OVERHEAD_S
        for unit in units:
            decoder = reception.decoder.unit_decoder(unit)
            deficit = k - decoder.received_count
            if deficit <= 0:
                continue
            for symbol in encoder.next_symbols(unit, deficit):
                if clock + symbol_airtime > remaining:
                    break
                clock += symbol_airtime
                sent += 1
                if streamer.rng.random() < prob:
                    reception.decoder.ingest(symbol)
                    reception.packets_received += 1
                    reception.delivered_payload_bytes += len(symbol.payload)
                else:
                    reception.packets_lost += 1
            if clock + symbol_airtime > remaining:
                break
        if clock > GROUP_SWITCH_OVERHEAD_S:
            ap_airtime[ap] += clock
    return sent
