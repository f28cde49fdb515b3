"""Seed transport: per-receiver decoders, scalar draws, scalar estimators.

The production transmitter (:mod:`repro.transport.transmitter`) keeps all
receivers' reception state as cohort arrays and draws one Bernoulli block
per coding group.  This is the original per-receiver loop it must match bit
for bit at equal seeds: one :class:`FrameBlockDecoder` per receiver, the
delivery probability recomputed for every plan entry, and a walk over the
group's members for every packet.

:func:`scalar_decoded_matrices` is the cohort's decodability check as it
was before the stacked rank kernel: one scalar elimination per distinct
reception pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TransportError
from repro.fountain.block import CodingUnitId, FrameBlockDecoder
from repro.fountain.raptor import COEFFICIENT_CACHE
from repro.transport.cohort import FrameCohort
from repro.transport.kernel_queue import KernelQueue
from repro.transport.transmitter import (
    FEEDBACK_LATENCY_S,
    GROUP_SWITCH_OVERHEAD_S,
    HEADER_BYTES,
    _TxState,
)
from repro.video.jigsaw import SUBLAYER_COUNTS

from .fountain import gf_rank


def scalar_decoded_matrices(cohort: FrameCohort) -> List[np.ndarray]:
    """Dense-codec ``FrameCohort.decoded_matrices``, one pattern at a time."""
    n = len(cohort.users)
    matrices = [np.zeros((n, count), dtype=bool) for count in SUBLAYER_COUNTS]
    for unit, state in cohort._units.items():
        k = state.k
        decoded = state.sys_mask.all(axis=0)
        candidates = np.nonzero(~decoded & (state.distinct >= k))[0]
        if state.repair_rows and candidates.size:
            coeffs = np.stack(
                [COEFFICIENT_CACHE.row(state.block_id, k, sid) for sid in state.repair_ids]
            )
            patterns = np.concatenate(
                [state.sys_mask[:, candidates], np.stack(state.repair_rows)[:, candidates]]
            ).T
            unique, inverse = np.unique(patterns, axis=0, return_inverse=True)
            verdicts = np.zeros(unique.shape[0], dtype=bool)
            for p, pattern in enumerate(unique):
                have_sys, have_rep = pattern[:k], pattern[k:]
                need = k - int(have_sys.sum())
                verdicts[p] = gf_rank(coeffs[have_rep][:, ~have_sys]) >= need
            decoded[candidates] = verdicts[inverse.reshape(-1)]
        matrices[unit.layer][:, unit.sublayer] = decoded
    return matrices


@dataclass
class UserReception:
    """What one receiver got out of a frame transmission."""

    decoder: FrameBlockDecoder
    delivered_payload_bytes: float = 0.0
    packets_received: int = 0
    packets_lost: int = 0


@dataclass
class ScalarTransmissionResult:
    """:class:`repro.transport.TransmissionResult` without a cohort."""

    receptions: Dict[int, UserReception]
    airtime_s: float
    packets_sent: int
    packets_dropped_at_queue: int
    feedback_rounds_used: int
    cohort: None = None


class BandwidthEstimator:
    """One receiver's arrival-spacing bandwidth estimate, EWMA-smoothed.

    The scalar form of :class:`repro.transport.CohortBandwidthEstimator`.

    Args:
        smoothing: EWMA factor applied across frames (1.0 = use only the
            newest measurement).
        noise_std_fraction: Relative measurement noise.
    """

    def __init__(self, smoothing: float = 0.6, noise_std_fraction: float = 0.05):
        if not 0.0 < smoothing <= 1.0:
            raise TransportError(f"smoothing must be in (0, 1], got {smoothing}")
        self.smoothing = float(smoothing)
        self.noise_std_fraction = float(noise_std_fraction)
        self._estimate_bytes_per_s: Optional[float] = None

    @property
    def estimate_bytes_per_s(self) -> Optional[float]:
        return self._estimate_bytes_per_s

    def observe_window(
        self,
        delivered_bytes: float,
        window_s: float,
        rng: np.random.Generator,
    ) -> float:
        """Fold one measurement window into the estimate."""
        if window_s <= 0:
            raise TransportError(f"window must be positive, got {window_s}")
        measured = max(0.0, delivered_bytes / window_s)
        measured *= float(1.0 + rng.normal(0.0, self.noise_std_fraction))
        measured = max(measured, 1e-9)
        if self._estimate_bytes_per_s is None:
            self._estimate_bytes_per_s = measured
        else:
            self._estimate_bytes_per_s = (
                self.smoothing * measured
                + (1.0 - self.smoothing) * self._estimate_bytes_per_s
            )
        return self._estimate_bytes_per_s

    def observe_fraction(
        self, delivered_fraction: float, rng: np.random.Generator
    ) -> float:
        """Fold a delivery-fraction measurement into the estimate."""
        if not 0.0 <= delivered_fraction <= 1.0:
            raise TransportError(
                f"fraction must be in [0, 1], got {delivered_fraction}"
            )
        return self.observe_window(delivered_fraction, 1.0, rng)

    def decay(self, factor: float) -> Optional[float]:
        """Multiply a stale estimate by ``factor`` (None if no estimate)."""
        if not 0.0 < factor <= 1.0:
            raise TransportError(f"decay factor must be in (0, 1], got {factor}")
        if self._estimate_bytes_per_s is not None:
            self._estimate_bytes_per_s = max(
                self._estimate_bytes_per_s * factor, 1e-9
            )
        return self._estimate_bytes_per_s

    def reset(self) -> None:
        self._estimate_bytes_per_s = None


def scalar_transmit(
    self,
    encoder,
    assignments,
    groups,
    true_state,
    budget_s,
    rng,
    rate_limits_bytes_per_s=None,
    active_users=None,
    faults=None,
    cohort=None,
) -> ScalarTransmissionResult:
    """Per-receiver twin of :meth:`repro.transport.FrameTransmitter.transmit`.

    ``cohort`` is accepted for signature compatibility and ignored: every
    call builds its own per-receiver decoders.
    """
    del cohort
    if budget_s <= 0:
        raise TransportError(f"budget must be positive, got {budget_s}")
    users = true_state.user_ids
    if active_users is not None:
        present = set(active_users)
        users = [u for u in users if u in present]
    limits = rate_limits_bytes_per_s or {}
    packet_bytes = encoder.symbol_size + HEADER_BYTES

    rates: Dict[int, float] = {}
    for group in groups:
        rate = group.rate_bytes_per_s
        if self.rate_control and group.index in limits:
            rate = min(rate, max(limits[group.index], packet_bytes / budget_s))
        rates[group.index] = max(rate, 1e-6)

    state = _TxState(clock_s=0.0, packets_sent=0, dropped_at_queue=0)
    plan = self._expand_assignments(encoder, assignments, groups)
    receptions = {
        u: UserReception(
            decoder=FrameBlockDecoder(
                encoder.frame_index,
                encoder.structure,
                encoder.symbol_size,
                codec=encoder.codec,
            )
        )
        for u in users
    }

    if self.rate_control:
        _paced_pass(self, plan, groups, rates, true_state, receptions,
                    packet_bytes, budget_s, state, rng, faults)
    else:
        _burst_pass(self, plan, groups, rates, true_state, receptions,
                    packet_bytes, budget_s, state, rng, faults)

    rounds = 0
    for _ in range(max(0, self.max_feedback_rounds)):
        if state.clock_s + FEEDBACK_LATENCY_S >= budget_s:
            break
        state.clock_s += FEEDBACK_LATENCY_S
        makeup = _makeup_plan(self, encoder, assignments, groups, receptions)
        if not makeup:
            break
        rounds += 1
        _paced_pass(self, makeup, groups, rates, true_state, receptions,
                    packet_bytes, budget_s, state, rng, faults)

    for user, reception in receptions.items():
        self._tallies.update_frame(
            [user], [reception.packets_received], [reception.packets_lost]
        )

    return ScalarTransmissionResult(
        receptions=receptions,
        airtime_s=min(state.clock_s, budget_s),
        packets_sent=state.packets_sent,
        packets_dropped_at_queue=state.dropped_at_queue,
        feedback_rounds_used=rounds,
    )


def _makeup_plan(self, encoder, assignments, groups, receptions) -> list:
    """Retransmission plan from per-receiver decoder feedback."""
    k = encoder.symbols_per_unit()
    plan = []
    seen_units = set()
    for assignment in assignments:
        unit = CodingUnitId(
            encoder.frame_index, assignment.layer, assignment.sublayer
        )
        key = (assignment.group_index, unit)
        if key in seen_units:
            continue
        seen_units.add(key)
        group = groups[assignment.group_index]
        members = [u for u in group.user_ids if u in receptions]
        if not members:
            continue
        if self.source_coding:
            deficit = max(
                k - receptions[u].decoder.unit_decoder(unit).received_count
                for u in members
            )
            if deficit <= 0:
                continue
            plan.append(
                (assignment.group_index, unit, encoder.next_symbols(unit, deficit))
            )
        else:
            missing: set = set()
            for u in members:
                decoder = receptions[u].decoder.unit_decoder(unit)
                if not decoder.is_decoded:
                    missing |= set(range(k)) - decoder.received_ids()
            if not missing:
                continue
            symbols = [encoder.symbol_at(unit, i) for i in sorted(missing)]
            plan.append((assignment.group_index, unit, symbols))
    return plan


def _paced_pass(
    self, plan, groups, rates, true_state, receptions,
    packet_bytes, budget_s, state, rng, faults,
) -> None:
    last_group = -1
    for group_index, _unit, symbols in plan:
        if not symbols:
            continue
        group = groups[group_index]
        if group.plan.mcs is None:
            continue
        if group_index != last_group:
            state.clock_s += GROUP_SWITCH_OVERHEAD_S
            last_group = group_index
        probs = _member_probs(self, group, true_state, receptions, faults)
        airtime = packet_bytes / rates[group_index]
        draws = rng.random((len(symbols), len(probs)))
        for s_idx, symbol in enumerate(symbols):
            if state.clock_s + airtime > budget_s:
                return
            state.clock_s += airtime
            state.packets_sent += 1
            _deliver(symbol, probs, draws[s_idx], receptions)


def _burst_pass(
    self, plan, groups, rates, true_state, receptions,
    packet_bytes, budget_s, state, rng, faults,
) -> None:
    """No rate control: one big burst through the kernel queue."""
    queue = self.kernel_queue or KernelQueue()
    flat = [
        (group_index, symbol)
        for group_index, _unit, symbols in plan
        for symbol in symbols
    ]
    if not flat:
        return
    mean_rate = float(np.mean([rates[g] for g, _ in flat]))
    mask = queue.admitted_mask(len(flat), packet_bytes, mean_rate, budget_s, rng)
    state.dropped_at_queue += int((~mask).sum())
    member_prob_cache: Dict[int, Dict[int, float]] = {}
    for (group_index, symbol), admitted in zip(flat, mask):
        airtime = packet_bytes / rates[group_index]
        if state.clock_s + airtime > budget_s:
            break
        if not admitted:
            continue
        group = groups[group_index]
        if group.plan.mcs is None:
            continue
        state.clock_s += airtime
        state.packets_sent += 1
        if group_index not in member_prob_cache:
            member_prob_cache[group_index] = _member_probs(
                self, group, true_state, receptions, faults
            )
        probs = member_prob_cache[group_index]
        draws = rng.random(len(probs))
        _deliver(symbol, probs, draws, receptions)


def _member_probs(self, group, true_state, receptions, faults) -> Dict[int, float]:
    link = self.link if faults is None else faults.wrap_link(self.link)
    probs = {
        u: link.delivery_probability(u, group.plan.beam, true_state, group.plan.mcs)
        for u in group.user_ids
        if u in receptions
    }
    if faults is not None:
        scale = faults.erasure_scale()
        if scale < 1.0:
            probs = {u: p * scale for u, p in probs.items()}
    return probs


def _deliver(symbol, probs: Dict[int, float], draws, receptions) -> None:
    for (user, prob), draw in zip(probs.items(), np.atleast_1d(draws)):
        reception = receptions[user]
        if draw < prob:
            reception.decoder.ingest(symbol)
            reception.packets_received += 1
            reception.delivered_payload_bytes += len(symbol.payload)
        else:
            reception.packets_lost += 1
