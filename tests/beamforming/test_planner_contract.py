"""Contracts of the batched max-min beam planner.

The soft-min ascent halves its step on a fixed schedule and converges, so
the quantised beam of a group is a stable function of its channels: a
1e-13 relative perturbation of every channel flips no quantised beam.  The
post-quantisation pick keeps the refined beam at or above both the plain
SVD heuristic and every member's own matched beam.  The per-group loop in
``tests/reference`` is the oracle for the padded batch.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.beamforming import (
    GroupBeamPlanner,
    SectorCodebook,
    max_min_gain,
    max_min_multicast_beam,
    max_min_multicast_beams,
    per_user_gains,
    svd_multicast_beam,
)
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

from tests.reference.beamforming import scalar_max_min_beam

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
PLACEMENTS = dict(
    seed=st.integers(min_value=0, max_value=2**16),
    distance_m=st.sampled_from([3.0, 5.0, 8.0]),
    mas_deg=st.sampled_from([30, 60, 90, 120]),
)


def _snapshot(scenario, seed, distance_m, mas_deg, num_users=16):
    positions = scenario.place_arc(num_users, distance_m, mas_deg, seed=seed)
    return scenario.channel_model.snapshot(
        dict(enumerate(positions)), np.random.default_rng(seed)
    )


def _perturbed(channels, seed):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(2,) + channels.shape)
    return channels * (1.0 + 1e-13 * (noise[0] + 1j * noise[1]))


@SETTINGS
@given(**PLACEMENTS)
def test_no_quantised_beam_flips_under_tiny_perturbation(
    scenario, seed, distance_m, mas_deg
):
    state = _snapshot(scenario, seed, distance_m, mas_deg)
    planner = GroupBeamPlanner(
        scenario.array, SectorCodebook(scenario.array),
        scenario.channel_model.budget, BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    users = [g.user_ids for g in GroupEnumerator(planner).enumerate(state, range(16))]
    clean = [[state.channels[u] for u in group] for group in users]
    noisy = [
        list(_perturbed(np.vstack(group), seed + k))
        for k, group in enumerate(clean)
    ]
    beams, _ = max_min_multicast_beams(scenario.array, clean)
    perturbed, _ = max_min_multicast_beams(scenario.array, noisy)
    flips = [users[k] for k in range(len(users)) if not np.array_equal(beams[k], perturbed[k])]
    assert flips == []


@SETTINGS
@given(size=st.integers(min_value=2, max_value=10), **PLACEMENTS)
def test_refined_beam_dominates_svd_and_matched_beams(
    scenario, size, seed, distance_m, mas_deg
):
    state = _snapshot(scenario, seed, distance_m, mas_deg, num_users=size)
    channels = [state.channels[u] for u in range(size)]
    array = scenario.array
    refined = max_min_gain(max_min_multicast_beam(array, channels), channels)
    svd = max_min_gain(svd_multicast_beam(array, channels), channels)
    matched = max(max_min_gain(array.conjugate_beam(h), channels) for h in channels)
    assert refined >= svd * (1 - 1e-12)
    assert refined >= matched * (1 - 1e-12)


@SETTINGS
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12),
    **PLACEMENTS,
)
def test_batch_matches_per_group_reference(scenario, sizes, seed, distance_m, mas_deg):
    """One padded batch of mixed sizes gives each group the beam the
    per-group loop gives it."""
    state = _snapshot(scenario, seed, distance_m, mas_deg)
    rng = np.random.default_rng(seed)
    groups = [
        [state.channels[u] for u in sorted(rng.choice(16, size, replace=False))]
        for size in sizes
    ]
    beams, gains = max_min_multicast_beams(scenario.array, groups)
    for beam, member_gains, channels in zip(beams, gains, groups):
        np.testing.assert_array_equal(
            beam, scalar_max_min_beam(scenario.array, channels)
        )
        np.testing.assert_allclose(
            member_gains, per_user_gains(beam, channels), rtol=1e-12
        )
