"""The cohort's stacked two-round decodability check.

``FrameCohort.decoded_matrices`` decides every dense unit of a frame in
one rank stack: round 1 proves a pattern decodable from its first
``need`` repair rows, round 2 rechecks what round 1 could not prove with
all of its rows.  These tests pin the verdicts against each receiver's
materialized ``FrameBlockDecoder`` and the scalar oracle, drive round 2
on purpose (a random square GF(256) matrix is singular only about once
in 256 draws), and check that a unit decided alone gets the verdicts it
gets inside the frame-wide stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fountain.block import CodingUnitId, FrameBlockEncoder, all_unit_ids
from repro.fountain.raptor import _coefficients
from repro.transport import cohort as cohort_module
from repro.transport.cohort import FrameCohort

from tests.reference.fountain import gf_rank
from tests.reference.transport import scalar_decoded_matrices

USERS = (10, 11, 12)


def _deliver(cohort, encoder, unit, ids, rows):
    """Record symbols ``ids`` of ``unit`` delivered to cohort ``rows`` only."""
    symbols = [encoder.symbol_at(unit, i) for i in ids]
    member_rows = np.arange(len(cohort.users))
    delivered = np.zeros((len(symbols), member_rows.size), dtype=bool)
    delivered[:, list(rows)] = True
    cohort.record(unit, symbols, member_rows, delivered)


def _decoder_rows(cohort, row):
    return [m.tobytes() for m in cohort.materialize_decoder(row).sublayer_masks()]


def _singular_frame(k):
    """First frame whose unit (0, 0) has singular first-K repair rows.

    Also asks that one more row restores full rank and that repair row
    ``2K + 1`` covers the last systematic column, so the three receivers
    of the round-2 test have fixed, known fates.
    """
    for frame in range(4096):
        block = CodingUnitId(frame, 0, 0).block_id
        rows = np.stack([_coefficients(block, k + i, k) for i in range(k + 2)])
        if (
            gf_rank(rows[:k]) < k
            and gf_rank(rows[: k + 1]) == k
            and rows[k + 1, k - 1] != 0
        ):
            return frame
    raise AssertionError("no block with singular first-K repair rows")


@pytest.fixture(scope="module")
def k(hr_probe):
    return FrameBlockEncoder(0, hr_probe.layered).symbols_per_unit()


@pytest.fixture(scope="module")
def singular_frame(k):
    return _singular_frame(k)


def _round_two_cohort(encoder, k):
    """Three receivers of unit (0, 0) plus a lossy second unit.

    Row 0 holds exactly the K singular repair rows, row 1 those plus one
    more, row 2 every systematic symbol but the last plus one repair row.
    """
    cohort = FrameCohort(USERS, encoder)
    unit = CodingUnitId(encoder.frame_index, 0, 0)
    _deliver(cohort, encoder, unit, range(k, 2 * k), rows=(0, 1))
    _deliver(cohort, encoder, unit, [2 * k], rows=(1,))
    _deliver(cohort, encoder, unit, range(k - 1), rows=(2,))
    _deliver(cohort, encoder, unit, [2 * k + 1], rows=(2,))
    other = CodingUnitId(encoder.frame_index, 0, 1)
    _deliver(cohort, encoder, other, range(2, k), rows=(0, 1, 2))
    _deliver(cohort, encoder, other, range(k, k + 2), rows=(0, 2))
    _deliver(cohort, encoder, other, [k + 2], rows=(1,))
    return cohort


class TestRoundTwo:
    def test_singular_prefix_goes_to_round_two(
        self, hr_probe, k, singular_frame, monkeypatch
    ):
        stacks = []
        kernel = cohort_module.gf_rank_batch

        def spy(stack):
            stacks.append(stack.shape)
            return kernel(stack)

        monkeypatch.setattr(cohort_module, "gf_rank_batch", spy)
        encoder = FrameBlockEncoder(singular_frame, hr_probe.layered)
        cohort = _round_two_cohort(encoder, k)
        matrices = cohort.decoded_matrices()

        # Round 1 (one stack for both units) could not prove rows 0 and 1
        # of unit (0, 0); round 2 rechecks just those two with all rows.
        assert len(stacks) == 2
        assert stacks[1][0] == 2
        assert matrices[0][:, 0].tolist() == [False, True, True]
        for row in range(len(USERS)):
            assert [m[row].tobytes() for m in matrices] == _decoder_rows(
                cohort, row
            )
        assert [m.tobytes() for m in matrices] == [
            m.tobytes() for m in scalar_decoded_matrices(cohort)
        ]

    def test_unit_alone_equals_frame_stack(self, hr_probe, k, singular_frame):
        encoder = FrameBlockEncoder(singular_frame, hr_probe.layered)
        stacked = _round_two_cohort(encoder, k).decoded_matrices()
        alone = _round_two_cohort(encoder, k)
        for sub in (0, 1):
            unit = CodingUnitId(singular_frame, 0, sub)
            # plain_missing decides one unit on its own stack.
            alone.plain_missing(unit, np.arange(len(USERS)))
            np.testing.assert_array_equal(
                alone._units[unit].decoded_users(), stacked[0][:, sub]
            )


class TestRandomReception:
    """Random lossy frames: batched verdicts equal the per-user decoders."""

    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        users=st.integers(min_value=1, max_value=6),
        units=st.integers(min_value=1, max_value=4),
        loss=st.sampled_from((0.05, 0.2, 0.5)),
        extra=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=9999),
    )
    def test_matches_materialized_decoders(
        self, hr_probe, k, users, units, loss, extra, seed
    ):
        rng = np.random.default_rng(seed)
        encoder = FrameBlockEncoder(seed % 7, hr_probe.layered)
        cohort = FrameCohort(list(range(users)), encoder)
        alone = FrameCohort(list(range(users)), encoder)
        member_rows = np.arange(users)
        chosen = all_unit_ids(encoder.frame_index)[:units]
        for offset, unit in enumerate(chosen):
            # Each unit gets its own repair count, so the frame stack pads
            # patterns of different widths together.
            count = k + extra + offset
            symbols = encoder.next_symbols(unit, count)
            delivered = rng.random((count, users)) >= loss
            cohort.record(unit, symbols, member_rows, delivered)
            alone.record(unit, symbols, member_rows, delivered)
        matrices = cohort.decoded_matrices()
        for row in range(users):
            assert [m[row].tobytes() for m in matrices] == _decoder_rows(
                cohort, row
            )
        for unit in chosen:
            np.testing.assert_array_equal(
                alone._units[unit].decoded_users(),
                matrices[unit.layer][:, unit.sublayer],
            )
