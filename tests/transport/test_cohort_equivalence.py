"""Bit-identity of the cohort transport against the seed oracle.

The transport core keeps per-receiver state in numpy cohort arrays and
draws one batched Bernoulli sample per coding group; the seed oracle
(``tests.reference``) loops over users with scalar draws.  These
properties pin the contract that — at equal seeds — both produce
*bit-identical* ``TransmissionResult`` and ``OutcomeStats``, across user
counts, RNG seeds and fault mixes (including churn evict/rejoin).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.core import MulticastStreamer, SystemConfig
from repro.faults import FaultController, FaultEvent, FaultKind, FaultSchedule
from repro.fountain.block import FrameBlockEncoder
from repro.scheduling.coding_groups import UnitAssignment
from repro.scheduling.groups import GroupEnumerator
from repro.transport import FrameTransmitter, LinkModel
from repro.types import BeamformingScheme
from repro.video.jigsaw import SUBLAYER_COUNTS

from tests.faults.conftest import fingerprint
from tests.reference import seed_path

RES = dict(height=144, width=256)

# Small fault mixes exercising every feedback-loop branch the cohort path
# vectorizes: silent receivers (feedback loss), masked erasures, attenuated
# links, and receiver churn.
FAULT_MIXES = (
    {},
    {"erasure_rate_hz": 8.0, "erasure_prob": 0.6, "seed": 11},
    {"feedback_loss_rate_hz": 6.0, "feedback_loss_duration_s": 0.1, "seed": 12},
    {"blockage_rate_hz": 4.0, "blockage_depth_db": 15.0, "seed": 13},
    {"churn_rate_hz": 3.0, "churn_downtime_s": 0.07, "seed": 14},
    {
        "erasure_rate_hz": 5.0,
        "feedback_loss_rate_hz": 5.0,
        "churn_rate_hz": 2.0,
        "seed": 15,
    },
)


def _transmit_world(scenario, num_users, seed):
    """Channel snapshot plus capped candidate groups for ``num_users``."""
    positions = scenario.place_arc(num_users, 3.0, 90, seed=seed)
    state = scenario.channel_model.snapshot(
        {i: p for i, p in enumerate(positions)}, np.random.default_rng(seed)
    )
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    enum = GroupEnumerator(
        planner, rate_scale=56.25, min_rate_mbps=0.0, max_group_size=2
    )
    return state, enum.enumerate(state, sorted(state.channels))


def _assignments(encoder, groups):
    """Spread layer-0/1 units round-robin over all candidate groups."""
    unit_bytes = encoder.unit_nbytes()
    out = []
    turn = 0
    for layer in (0, 1):
        for sub in range(min(3, SUBLAYER_COUNTS[layer])):
            group = groups[turn % len(groups)]
            out.append(UnitAssignment(group.index, layer, sub, unit_bytes))
            turn += 1
    return out


def _result_digest(result):
    """Bit-exact digest of a TransmissionResult, path-agnostic."""
    per_user = []
    for user in sorted(result.receptions):
        reception = result.receptions[user]
        per_user.append(
            (
                user,
                reception.packets_received,
                reception.packets_lost,
                float(reception.delivered_payload_bytes).hex(),
                tuple(
                    mask.tobytes()
                    for mask in reception.decoder.sublayer_masks()
                ),
            )
        )
    return (
        float(result.airtime_s).hex(),
        result.packets_sent,
        result.packets_dropped_at_queue,
        result.feedback_rounds_used,
        tuple(per_user),
    )


class TestTransmitterEquivalence:
    """Seed oracle and cohort transmit agree bit-for-bit at equal seeds."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
        rate_control=st.booleans(),
    )
    @example(num_users=64, seed=0, rate_control=True)
    @example(num_users=1, seed=7, rate_control=False)
    def test_transmit_bit_identical(
        self, scenario, hr_probe, num_users, seed, rate_control
    ):
        state, groups = _transmit_world(scenario, num_users, seed)

        def run():
            transmitter = FrameTransmitter(
                link=LinkModel(scenario.channel_model, associated_user=0),
                rate_control=rate_control,
            )
            encoder = FrameBlockEncoder(0, hr_probe.layered)
            return transmitter.transmit(
                encoder,
                _assignments(encoder, groups),
                groups,
                state,
                1 / 30,
                np.random.default_rng(seed),
            )

        with seed_path():
            reference = run()
        optimized = run()
        assert reference.cohort is None
        assert optimized.cohort is not None
        assert _result_digest(optimized) == _result_digest(reference)


    def test_precode_materialized_decoder_matches_reference(
        self, scenario, hr_probe
    ):
        """A cohort's lazily materialized decoder keeps the frame's codec:
        for precode its sublayer masks equal the per-receiver precode
        decoders of the seed oracle."""
        state, groups = _transmit_world(scenario, 6, seed=4)

        def run():
            transmitter = FrameTransmitter(
                link=LinkModel(scenario.channel_model, associated_user=0)
            )
            encoder = FrameBlockEncoder(0, hr_probe.layered, codec="precode")
            return transmitter.transmit(
                encoder,
                _assignments(encoder, groups),
                groups,
                state,
                1 / 30,
                np.random.default_rng(4),
            )

        with seed_path():
            reference = run()
        result = run()
        matrices = result.cohort.decoded_matrices()
        for user, reception in result.receptions.items():
            decoder = reception.decoder
            assert decoder.codec == "precode"
            expected = [
                m.tobytes()
                for m in reference.receptions[user].decoder.sublayer_masks()
            ]
            assert [m.tobytes() for m in decoder.sublayer_masks()] == expected
            row = result.cohort.index[user]
            assert [m[row].tobytes() for m in matrices] == expected
        assert _result_digest(result) == _result_digest(reference)


class TestSessionEquivalence:
    """End-to-end outcomes agree bit-for-bit with the seed oracle."""

    def _outcomes(self, scenario, tiny_dnn, hr_probe, num_users, seed,
                  faults, frames=4, events=None):
        positions = scenario.place_arc(num_users, 3.0, 60, seed=seed)
        trace = scenario.static_trace(positions, duration_s=0.3, seed=seed + 1)
        results = []
        for path in (seed_path, nullcontext):
            with path():
                config = SystemConfig(**RES, faults=dict(faults))
                streamer = MulticastStreamer(
                    config, tiny_dnn, [hr_probe], scenario.channel_model,
                    seed=seed,
                )
                controller = (
                    FaultController(FaultSchedule(events=list(events)))
                    if events is not None
                    else None
                )
                session = streamer.session(trace, faults=controller)
                results.append(fingerprint(session.run(frames)))
        return results

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=999),
        faults=st.sampled_from(FAULT_MIXES),
    )
    @example(num_users=4, seed=0, faults=FAULT_MIXES[5])
    def test_outcome_stats_bit_identical(
        self, scenario, tiny_dnn, hr_probe, num_users, seed, faults
    ):
        reference, optimized = self._outcomes(
            scenario, tiny_dnn, hr_probe, num_users, seed, faults
        )
        assert optimized == reference

    def test_churn_evict_rejoin_bit_identical(
        self, scenario, tiny_dnn, hr_probe
    ):
        """Deterministic leave/rejoin: cohort row eviction and re-admission
        replay the seed oracle's bandwidth-history reset exactly."""
        events = [
            FaultEvent(FaultKind.LEAVE, 0.05, user=1),
            FaultEvent(FaultKind.JOIN, 0.15, user=1),
        ]
        reference, optimized = self._outcomes(
            scenario, tiny_dnn, hr_probe, num_users=3, seed=5, faults={},
            frames=8, events=events,
        )
        assert optimized == reference


class TestThousandUserSmoke:
    """The cohort arrays hold up at three orders of magnitude."""

    def test_transmit_1000_users(self, scenario, hr_probe):
        state, groups = _transmit_world(scenario, 1000, seed=3)
        transmitter = FrameTransmitter(
            link=LinkModel(scenario.channel_model, associated_user=0)
        )
        encoder = FrameBlockEncoder(0, hr_probe.layered)
        result = transmitter.transmit(
            encoder,
            _assignments(encoder, groups),
            groups,
            state,
            1 / 30,
            np.random.default_rng(3),
        )
        assert result.cohort is not None
        assert len(result.receptions) == 1000
        assert result.packets_sent > 0
        # Spot-check a handful of rows materialize coherent decoders.
        for user in (0, 499, 999):
            masks = result.receptions[user].decoder.sublayer_masks()
            assert len(masks) == len(SUBLAYER_COUNTS)
