"""Per-frame packet transmission over the emulated links.

Executes one video frame's transmission plan inside the 1/FR deadline:

1. **Initial pass** — walk the coding-group assignments in order (lower
   layers first), pacing each multicast group with its leaky bucket at
   ``min(MCS rate, fed-back bandwidth)``; every packet is independently
   delivered to each group member according to the SNR-margin PER under the
   *true* channel.  Switching between groups costs the 25 us firmware beam /
   MCS reconfiguration the paper measured (Sec 3.1).
2. **Feedback rounds** — receivers report per-sublayer reception counts; the
   sender computes the deficit P per unit and sends P makeup packets (fresh
   fountain symbols, or — without source coding — the exact missing
   segments), lowest layers first, until the deadline.

Without rate control the initial pass instead dumps the whole burst into a
finite kernel queue (Sec 4.2.3 ablation): overflow tail-drops uniformly over
the burst, so losses hit base layers too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TransportError
from ..fountain.block import CodingUnitId, FrameBlockEncoder
from ..obs import OBS
from ..phy.channel import ChannelState
from ..scheduling.coding_groups import UnitAssignment
from ..scheduling.groups import CandidateGroup
from .cohort import CohortUserReception, FrameCohort, UserTallies, UserTally
from .kernel_queue import KernelQueue
from .link import LinkModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.controller import ApScopedFaults, FaultController

    #: Anything the transmitter consults for faults: the session's
    #: controller, or one AP's scoped view of it.
    FaultView = Union["FaultController", "ApScopedFaults"]

#: Firmware beam + MCS switch overhead (Sec 3.1: ~25 us).
GROUP_SWITCH_OVERHEAD_S = 25e-6

#: UDP/IP/MAC header overhead per packet, bytes.
HEADER_BYTES = 64

#: One-way latency of a feedback report.
FEEDBACK_LATENCY_S = 5e-4


@dataclass
class _TxState:
    """Mutable clock/counters threaded through the transmission passes."""

    clock_s: float
    packets_sent: int
    dropped_at_queue: int


#: Cross-frame per-receiver tally snapshot; the live state is the
#: struct-of-arrays :class:`repro.transport.cohort.UserTallies`.
_UserTxState = UserTally


@dataclass
class TransmissionResult:
    """Outcome of one frame's transmission.

    Attributes:
        receptions: Per-user views into ``cohort`` (tallies plus a lazily
            materialized decoder), for the users this transmission served.
        airtime_s: Total air/queue time consumed.
        packets_sent: Packets put on the air (post rate-control/queue).
        packets_dropped_at_queue: Packets lost in the kernel queue (only in
            the no-rate-control mode).
        feedback_rounds_used: Retransmission rounds that actually ran.
        cohort: Struct-of-arrays reception state of every receiver; the
            feedback and scoring stages read it directly.
    """

    receptions: Dict[int, CohortUserReception]
    airtime_s: float
    packets_sent: int
    packets_dropped_at_queue: int
    feedback_rounds_used: int
    cohort: FrameCohort


@dataclass
class FrameTransmitter:
    """Transmits framed symbol schedules over emulated links.

    Args:
        link: Per-packet delivery model (true channels + pseudo multicast).
        rate_control: Leaky-bucket pacing with bandwidth feedback (Sec 2.7);
            when False, the kernel-queue burst model applies.
        source_coding: Fountain coding on (fresh symbols, Sec 2.6) or off
            (plain segments, duplicated across groups).
        max_feedback_rounds: Retransmission rounds within the deadline.
        kernel_queue: Queue model for the no-rate-control mode.
        bucket_capacity_packets: Leaky-bucket depth in packets.
    """

    link: LinkModel
    rate_control: bool = True
    source_coding: bool = True
    max_feedback_rounds: int = 2
    kernel_queue: Optional[KernelQueue] = None
    bucket_capacity_packets: int = 10
    _tallies: UserTallies = field(
        default_factory=UserTallies, init=False, repr=False, compare=False
    )

    def transmit(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        true_state: ChannelState,
        budget_s: float,
        rng: np.random.Generator,
        rate_limits_bytes_per_s: Optional[Dict[int, float]] = None,
        active_users: Optional[Sequence[int]] = None,
        faults: Optional["FaultView"] = None,
        cohort: Optional[FrameCohort] = None,
    ) -> TransmissionResult:
        """Run one frame's transmission and return per-user receptions.

        Args:
            encoder: The frame's fountain encoders.
            assignments: Ordered (group, layer, sublayer, bytes) plan.
            groups: Candidate groups the assignments index into.
            true_state: Ground-truth channels during this frame.
            budget_s: Frame deadline (1/FR).
            rng: Loss and queue randomness.
            rate_limits_bytes_per_s: Per-group bandwidth-feedback caps
                (from the previous frame's receiver estimates).
            active_users: Receivers currently in the session; ``None``
                means every user in ``true_state`` (no churn).
            faults: Active fault controller (or an AP-scoped view of one);
                applies blockage/SNR-dip attenuation through the link
                wrapper and packet-erasure bursts on the delivery
                probabilities.
            cohort: Reception state to record into; ``None`` starts a
                fresh cohort over the served users.  The multi-AP pipeline
                passes one cohort to every per-AP pass, each recording
                into its own users' rows.
        """
        if budget_s <= 0:
            raise TransportError(f"budget must be positive, got {budget_s}")
        if not OBS.mode:
            return self._transmit(
                encoder, assignments, groups, true_state, budget_s, rng,
                rate_limits_bytes_per_s, active_users, faults, cohort,
            )
        with OBS.span(
            "transport.transmit", frame=encoder.frame_index
        ) as span:
            result = self._transmit(
                encoder, assignments, groups, true_state, budget_s, rng,
                rate_limits_bytes_per_s, active_users, faults, cohort,
            )
            span.set(
                packets_sent=result.packets_sent,
                packets_dropped_at_queue=result.packets_dropped_at_queue,
                airtime_s=result.airtime_s,
                feedback_rounds=result.feedback_rounds_used,
                users=len(result.receptions),
            )
        OBS.count("transport.packets_sent", result.packets_sent)
        OBS.count(
            "transport.packets_dropped_at_queue", result.packets_dropped_at_queue
        )
        for user, reception in result.receptions.items():
            OBS.count(
                f"transport.user.{user}.delivered", reception.packets_received
            )
            OBS.count(f"transport.user.{user}.lost", reception.packets_lost)
        return result

    def _transmit(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        true_state: ChannelState,
        budget_s: float,
        rng: np.random.Generator,
        rate_limits_bytes_per_s: Optional[Dict[int, float]],
        active_users: Optional[Sequence[int]],
        faults: Optional["FaultView"],
        cohort: Optional[FrameCohort],
    ) -> TransmissionResult:
        """One frame's transmission over cohort arrays.

        The draw-ordering contract: one ``rng.random((symbols, members))``
        block per paced entry (drawn before the deadline cut) and one
        ``rng.random(members)`` row per *sent* burst packet (batched as
        ``(run, members)`` blocks, which numpy fills in the same order), so
        results equal a per-receiver loop with scalar draws bit for bit
        (``tests/reference`` holds that loop as the oracle).
        """
        users = true_state.user_ids
        if active_users is not None:
            present = set(active_users)
            users = [u for u in users if u in present]
        if cohort is None:
            cohort = FrameCohort(users, encoder)
        limits = rate_limits_bytes_per_s or {}
        packet_bytes = encoder.symbol_size + HEADER_BYTES

        # Resolve the effective pacing rate per group.
        rates: Dict[int, float] = {}
        for group in groups:
            rate = group.rate_bytes_per_s
            if self.rate_control and group.index in limits:
                rate = min(rate, max(limits[group.index], packet_bytes / budget_s))
            rates[group.index] = max(rate, 1e-6)

        state = _TxState(clock_s=0.0, packets_sent=0, dropped_at_queue=0)
        plan = self._expand_assignments(encoder, assignments, groups)
        # Delivery probabilities are deterministic per group within a frame
        # (fixed beam, MCS and true channel), so they are memoized across
        # plan entries and feedback rounds.
        prob_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        if self.rate_control:
            self._paced_pass(plan, groups, rates, true_state, cohort,
                             packet_bytes, budget_s, state, rng,
                             prob_cache, faults)
        else:
            self._burst_pass(plan, groups, rates, true_state, cohort,
                             packet_bytes, budget_s, state, rng,
                             prob_cache, faults)

        rounds = 0
        for _ in range(max(0, self.max_feedback_rounds)):
            if state.clock_s + FEEDBACK_LATENCY_S >= budget_s:
                break
            state.clock_s += FEEDBACK_LATENCY_S
            makeup = self._makeup_plan(encoder, assignments, groups, cohort)
            if not makeup:
                break
            rounds += 1
            self._paced_pass(makeup, groups, rates, true_state, cohort,
                             packet_bytes, budget_s, state, rng,
                             prob_cache, faults)

        rows = cohort.member_rows(users)
        self._tallies.update_frame(
            users, cohort.packets_received[rows], cohort.packets_lost[rows]
        )
        receptions = {
            u: CohortUserReception(cohort, int(row))
            for u, row in zip(users, rows)
        }
        return TransmissionResult(
            receptions=receptions,
            airtime_s=min(state.clock_s, budget_s),
            packets_sent=state.packets_sent,
            packets_dropped_at_queue=state.dropped_at_queue,
            feedback_rounds_used=rounds,
            cohort=cohort,
        )

    # ------------------------------------------------------------------ plan

    def _expand_assignments(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
    ) -> List[Tuple[int, CodingUnitId, list]]:
        """Turn byte budgets into concrete symbol lists per (group, unit)."""
        plan = []
        for assignment in assignments:
            count = int(np.ceil(assignment.nbytes / encoder.symbol_size - 1e-9))
            if count <= 0:
                continue
            unit = CodingUnitId(
                encoder.frame_index, assignment.layer, assignment.sublayer
            )
            if self.source_coding:
                symbols = encoder.next_symbols(unit, count)
            else:
                # Plain segments: every group's stream restarts at segment 0,
                # so overlapping groups duplicate each other.
                k = encoder.symbols_per_unit()
                symbols = [encoder.symbol_at(unit, i % k) for i in range(count)]
            plan.append((assignment.group_index, unit, symbols))
        return plan

    def _makeup_plan(
        self,
        encoder: FrameBlockEncoder,
        assignments: Sequence[UnitAssignment],
        groups: Sequence[CandidateGroup],
        cohort: FrameCohort,
    ) -> List[Tuple[int, CodingUnitId, list]]:
        """Retransmission plan from per-sublayer feedback (Sec 2.6), read
        from cohort arrays."""
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
            member_rows = cohort.member_rows(group.user_ids)
            if member_rows.size == 0:
                continue
            if self.source_coding:
                deficit = k - cohort.min_distinct(unit, member_rows)
                if deficit <= 0:
                    continue
                plan.append(
                    (assignment.group_index, unit, encoder.next_symbols(unit, deficit))
                )
            else:
                missing = cohort.plain_missing(unit, member_rows)
                if not missing:
                    continue
                symbols = [encoder.symbol_at(unit, i) for i in missing]
                plan.append((assignment.group_index, unit, symbols))
        return plan

    # ------------------------------------------------------------------ passes

    def _paced_pass(
        self, plan, groups, rates, true_state, cohort,
        packet_bytes, budget_s, state, rng, prob_cache, faults=None,
    ) -> None:
        """Paced pass: one draw block + one boolean compare per plan
        entry, scalar clock walk for the deadline cut."""
        last_group = -1
        for group_index, unit, symbols in plan:
            if not symbols:
                continue
            group = groups[group_index]
            if group.plan.mcs is None:
                continue
            if group_index != last_group:
                state.clock_s += GROUP_SWITCH_OVERHEAD_S
                last_group = group_index
            member_rows, probs = self._group_probs(
                group, true_state, cohort, prob_cache, faults
            )
            airtime = packet_bytes / rates[group_index]
            draws = rng.random((len(symbols), len(probs)))
            n_send = 0
            cut = False
            for _ in symbols:
                if state.clock_s + airtime > budget_s:
                    cut = True
                    break
                state.clock_s += airtime
                state.packets_sent += 1
                n_send += 1
            if n_send:
                delivered = draws[:n_send] < probs[None, :]
                cohort.record(unit, symbols[:n_send], member_rows, delivered)
            if cut:
                return

    def _burst_pass(
        self, plan, groups, rates, true_state, cohort,
        packet_bytes, budget_s, state, rng, prob_cache, faults=None,
    ) -> None:
        """No rate control: one burst through the kernel queue.  The
        queue/clock walk is decided first (it draws no per-member
        randomness), then delivery draws are batched per contiguous
        same-group run of sent packets."""
        queue = self.kernel_queue or KernelQueue()
        flat = [
            (group_index, unit, symbol)
            for group_index, unit, symbols in plan
            for symbol in symbols
        ]
        if not flat:
            return
        mean_rate = float(np.mean([rates[g] for g, _, _ in flat]))
        mask = queue.admitted_mask(
            len(flat), packet_bytes, mean_rate, budget_s, rng
        )
        state.dropped_at_queue += int((~mask).sum())
        sent: List[Tuple[int, CodingUnitId, object]] = []
        for (group_index, unit, symbol), admitted in zip(flat, mask):
            airtime = packet_bytes / rates[group_index]
            if state.clock_s + airtime > budget_s:
                break
            if not admitted:
                continue
            if groups[group_index].plan.mcs is None:
                continue
            state.clock_s += airtime
            state.packets_sent += 1
            sent.append((group_index, unit, symbol))
        i = 0
        while i < len(sent):
            group_index = sent[i][0]
            j = i
            while j < len(sent) and sent[j][0] == group_index:
                j += 1
            member_rows, probs = self._group_probs(
                groups[group_index], true_state, cohort, prob_cache, faults
            )
            draws = rng.random((j - i, len(probs)))
            a = i
            while a < j:
                unit = sent[a][1]
                b = a
                while b < j and sent[b][1] == unit:
                    b += 1
                delivered = draws[a - i:b - i] < probs[None, :]
                cohort.record(
                    unit, [entry[2] for entry in sent[a:b]], member_rows,
                    delivered,
                )
                a = b
            i = j

    # ------------------------------------------------------------------ utils

    def _group_probs(
        self,
        group: CandidateGroup,
        true_state: ChannelState,
        cohort: FrameCohort,
        prob_cache: Dict[int, Tuple[np.ndarray, np.ndarray]],
        faults: Optional["FaultView"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(member rows, delivery probabilities) for a group, memoized.

        Members are the group's users in group order, filtered to cohort
        membership; draw columns follow that order.
        """
        cached = prob_cache.get(group.index)
        if cached is not None:
            return cached
        member_ids = [u for u in group.user_ids if u in cohort.index]
        member_rows = cohort.member_rows(member_ids)
        link = self.link if faults is None else faults.wrap_link(self.link)
        probs = link.delivery_probability_array(
            member_ids, group.plan.beam, true_state, group.plan.mcs
        )
        if faults is not None:
            scale = faults.erasure_scale()
            if scale < 1.0:
                probs = probs * scale
        entry = (member_rows, probs)
        prob_cache[group.index] = entry
        return entry

    # --------------------------------------------------------- churn state

    def user_state(self, user: int) -> Optional[_UserTxState]:
        """Cross-frame delivery tally for ``user`` (None if never served)."""
        return self._tallies.get(user)

    def tracked_users(self) -> List[int]:
        """Users the transmitter currently holds per-receiver state for."""
        return self._tallies.tracked()

    def evict_user(self, user: int) -> None:
        """Drop per-receiver state when ``user`` leaves the session.

        Without this, churn leaks an entry per departed receiver for the
        lifetime of the transmitter (they re-accumulate from scratch on
        rejoin, as after a real re-association).
        """
        self._tallies.evict(user)
        if OBS.mode:
            OBS.count("transport.users_evicted")
