"""Outcomes must not depend on the observability mode.

Recording counters or a trace only reads the transport state; it never
selects a different transport path.  Each session below streams with obs
``off``, ``counters`` and ``trace`` and must produce the same bit-exact
outcome fingerprint: a 1-AP session with feedback loss and erasures, a
2-AP session under the ``blockage_failover`` preset (association,
cross-AP repair), and a precode-codec session.  The cohort link path emits
the same link counters, histogram samples and per-user gauges as a loop
over the per-user :meth:`LinkModel.delivery_probability`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import FAULT_BASE_PRESETS
from repro.core import MulticastStreamer, SystemConfig
from repro.emulation.sweep import parse_config_overrides
from repro.obs import OBS, observed
from repro.phy.mcs import MCS_TABLE
from repro.phy.topology import TopologyConfig
from repro.transport.link import LinkModel

from tests.faults.conftest import fingerprint

RES = dict(height=144, width=256)
FRAMES = 6

SESSIONS = {
    "one_ap": dict(
        faults=dict(
            seed=5, feedback_loss_rate_hz=6.0, feedback_loss_duration_s=0.1,
            erasure_rate_hz=5.0,
        ),
    ),
    "two_ap_blockage_failover": dict(
        parse_config_overrides(FAULT_BASE_PRESETS["blockage_failover"]),
        topology=TopologyConfig(num_aps=2),
    ),
    "precode": dict(fountain_codec="precode"),
}


def _stream(scenario, dnn, probe, trace, overrides):
    config = SystemConfig(**RES, **overrides)
    streamer = MulticastStreamer(
        config, dnn, [probe], scenario.channel_model, seed=3
    )
    return fingerprint(streamer.session(trace).run(FRAMES))


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_outcome_identical_across_obs_modes(
    name, scenario, tiny_dnn, hr_probe, tmp_path
):
    positions = scenario.place_arc(3, 3.0, 60, seed=9)
    trace = scenario.static_trace(
        positions, duration_s=0.3, seed=10, num_aps=2
    )
    overrides = SESSIONS[name]
    assert OBS.mode == 0
    off = _stream(scenario, tiny_dnn, hr_probe, trace, overrides)
    with observed("counters"):
        counters = _stream(scenario, tiny_dnn, hr_probe, trace, overrides)
        assert OBS.counters()["transport.packets_sent"] > 0
    with observed("trace", trace_path=str(tmp_path / "trace.jsonl")):
        traced = _stream(scenario, tiny_dnn, hr_probe, trace, overrides)
    assert counters == off
    assert traced == off


def _link_record(run):
    with observed("counters"):
        probs = run()
        record = (
            OBS.counters(),
            OBS.gauges(),
            OBS.histograms()["link.delivery_prob"].samples.tolist(),
        )
    return probs, record


@pytest.mark.parametrize("mcs_index", [4, 8, 12])
def test_link_array_metrics_equal_scalar_loop(scenario, mcs_index):
    users = list(range(6))
    positions = scenario.place_arc(len(users), 4.0, 90, seed=21)
    state = scenario.channel_model.snapshot(
        dict(zip(users, positions)), np.random.default_rng(21)
    )
    beam = scenario.array.conjugate_beam(state.channels[2])
    mcs = next(e for e in MCS_TABLE if e.index == mcs_index)
    offsets = np.array([0.0, -3.5, 0.0, -12.0, 2.25, 0.0])
    link = LinkModel(scenario.channel_model, associated_user=4)

    probs, array_record = _link_record(
        lambda: link.delivery_probability_array(
            users, beam, state, mcs, rss_offsets_db=offsets
        )
    )
    scalar, scalar_record = _link_record(
        lambda: np.array(
            [
                link.delivery_probability(u, beam, state, mcs, float(o))
                for u, o in zip(users, offsets)
            ]
        )
    )
    np.testing.assert_array_equal(probs, scalar)
    assert array_record == scalar_record
    counters, gauges, samples = array_record
    assert counters["link.prob_evals"] == len(users)
    assert len(samples) == len(users)
    assert {f"link.user.{u}.margin_db" for u in users} <= gauges.keys()
