"""Batched group planning.

The planner has one path, :meth:`GroupBeamPlanner.plan_groups`; a group's
quantised beam and MCS must not depend on the batch it was planned in.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.selection import GroupBeamPlanner
from repro.errors import BeamformingError
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

class TestPlanGroupsBatch:
    @pytest.fixture(scope="class")
    def planner_state(self, request):
        scenario = request.getfixturevalue("scenario")
        positions = scenario.place_arc(4, 3.0, 90, seed=17)
        state = scenario.channel_model.snapshot(
            {i: p for i, p in enumerate(positions)},
            np.random.default_rng(17),
        )
        codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_MULTICAST,
        )
        return planner, state

    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mas_deg=st.sampled_from([30, 60, 90, 120]),
        scheme=st.sampled_from(
            [
                BeamformingScheme.OPTIMIZED_MULTICAST,
                BeamformingScheme.PREDEFINED_MULTICAST,
            ]
        ),
    )
    def test_matches_plan_group_decisions(self, scenario, seed, mas_deg, scheme):
        """A group planned alone gets the beam and MCS it gets inside a
        full 16-user enumeration (batch composition does not matter)."""
        positions = scenario.place_arc(16, 5.0, mas_deg, seed=seed)
        state = scenario.channel_model.snapshot(
            dict(enumerate(positions)), np.random.default_rng(seed)
        )
        planner = GroupBeamPlanner(
            scenario.array, SectorCodebook(scenario.array),
            scenario.channel_model.budget, scheme,
        )
        groups = GroupEnumerator(planner).enumerate(state, range(16))
        sizes = [len(g.user_ids) for g in groups]
        largest = int(np.argmax(sizes))
        # Optimized groups share one zero-padded (G, n_max, M) stack, so a
        # group far larger than most must be among the checked ones.
        # Predefined sector beams reach fewer users at wide MAS (down to 7
        # of 16 at 120 deg), so only multi-user coverage is required there.
        if scheme is BeamformingScheme.OPTIMIZED_MULTICAST:
            assert sizes[largest] > 8
        else:
            assert sizes[largest] > 1
        picks = np.random.default_rng(seed).choice(len(groups), 12, replace=False)
        for index in {largest, *picks.tolist()}:
            batched = groups[index].plan
            alone = planner.plan_group(state, batched.user_ids)
            assert alone.user_ids == batched.user_ids
            np.testing.assert_array_equal(alone.beam, batched.beam)
            assert alone.mcs == batched.mcs
            assert alone.rate_mbps == batched.rate_mbps
            assert alone.min_rss_dbm == pytest.approx(batched.min_rss_dbm, abs=1e-9)

    def test_singleton_batch_shape(self, planner_state):
        """The multi-AP repair planner's usage: one singleton per user."""
        planner, state = planner_state
        plans = planner.plan_groups(state, [[u] for u in range(4)])
        assert [p.user_ids for p in plans] == [(u,) for u in range(4)]
        assert all(p.mcs is not None for p in plans)

    def test_sector_gains_must_cover_the_groups_users(self, scenario, planner_state):
        _, state = planner_state
        planner = GroupBeamPlanner(
            scenario.array, SectorCodebook(scenario.array),
            scenario.channel_model.budget, BeamformingScheme.PREDEFINED_MULTICAST,
        )
        gains = planner.sector_gains(state, [0, 1, 2])
        plans = planner.plan_groups(state, [[0], [1, 2]], gains)
        assert [p.user_ids for p in plans] == [(0,), (1, 2)]
        with pytest.raises(BeamformingError):
            planner.plan_groups(state, [[0], [1, 2], [3]], gains)
