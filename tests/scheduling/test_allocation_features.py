"""Whole-array DNN feature assembly in the allocator is bit-identical.

``TimeAllocationOptimizer`` assembles the ``(n_users, 9)`` quality-model
inputs with array operations; the per-user ``features_for_bytes`` assembly
in ``tests/reference`` is the oracle.  Both are elementwise, so the whole
:class:`AllocationResult` must match bit for bit.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.beamforming import BeamPlan
from repro.quality.curves import FrameFeatureContext
from repro.scheduling.allocation import TimeAllocationOptimizer
from repro.scheduling.groups import CandidateGroup

from tests.reference.scheduling import per_user_features


def _plan(members, rate_mbps):
    rss = {u: -60.0 for u in members}
    return BeamPlan(members, np.ones(1), rss, -60.0, None, rate_mbps)


def _problem(seed: int, num_users: int):
    rng = np.random.default_rng(seed)
    contexts = {
        u: FrameFeatureContext(
            cumulative_ssim=tuple(np.sort(rng.uniform(0.3, 0.99, 4))),
            blank_ssim=float(rng.uniform(0.0, 0.3)),
            layer_sizes=tuple(rng.uniform(2e3, 6e4, 4)),
        )
        for u in range(num_users)
    }
    groups = []
    for user in range(num_users):
        groups.append((user,))
    for start in range(num_users - 1):
        groups.append(tuple(range(start, min(num_users, start + 3))))
    candidates = [
        CandidateGroup(
            index=k,
            plan=_plan(members, float(rng.uniform(300.0, 4000.0))),
            rate_scale=56.25,
        )
        for k, members in enumerate(groups)
    ]
    return candidates, contexts


def _assert_identical(left, right):
    np.testing.assert_array_equal(left.time_s, right.time_s)
    np.testing.assert_array_equal(left.bytes_allocated, right.bytes_allocated)
    assert left.per_user_bytes.keys() == right.per_user_bytes.keys()
    for user, values in left.per_user_bytes.items():
        np.testing.assert_array_equal(values, right.per_user_bytes[user])
    assert left.predicted_quality == right.predicted_quality


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_users=st.integers(min_value=1, max_value=9),
)
def test_allocation_bit_identical_to_per_user_assembly(tiny_dnn, seed, num_users):
    groups, contexts = _problem(seed, num_users)
    optimizer = TimeAllocationOptimizer(tiny_dnn, iterations=60)
    batched = optimizer.optimize(groups, contexts, frame_budget_s=0.85 / 30)
    oracle = mock.Mock(side_effect=per_user_features(contexts))
    with mock.patch.object(TimeAllocationOptimizer, "_features", oracle):
        reference = optimizer.optimize(groups, contexts, frame_budget_s=0.85 / 30)
    assert oracle.call_count > 0
    _assert_identical(batched, reference)
