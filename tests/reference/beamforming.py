"""Per-group form of the max-min multicast beam refinement.

:func:`repro.beamforming.multicast.max_min_multicast_beams` refines every
group of a beacon in one zero-padded stack.  :func:`scalar_max_min_beam`
is the loop it replaced, one group at a time on unpadded arrays, with the
same step schedule and tie rule; the batched planner is checked against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.beamforming.multicast import (
    ASCENT_STEPS,
    INITIAL_STEP,
    SOFTMIN_TEMPERATURE,
    STEP_HALVING_PERIOD,
    TIE_RTOL,
)
from repro.phy.antenna import PhasedArray


def _first_best(candidates, objective):
    values = [objective(c) for c in candidates]
    best = max(values)
    return next(c for c, v in zip(candidates, values) if v >= best * (1.0 - TIE_RTOL))


def scalar_max_min_beam(
    array: PhasedArray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """SVD seed, soft-min ascent and post-quantisation pick for one group."""
    stacked = np.vstack([np.asarray(h, dtype=complex) for h in channels])
    if stacked.shape[0] == 1:
        return array.conjugate_beam(stacked[0])
    normalised = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
    _, _, vh = np.linalg.svd(np.conj(normalised), full_matrices=False)
    candidates = [vh[0].conj()] + list(normalised)

    def min_gain(beam):
        return float(np.min(np.abs(np.conj(normalised) @ beam) ** 2))

    beam = _first_best(candidates, min_gain)
    step = INITIAL_STEP
    for iteration in range(ASCENT_STEPS):
        gains = np.abs(np.conj(normalised) @ beam) ** 2
        weights = np.exp(-SOFTMIN_TEMPERATURE * gains / (np.mean(gains) + 1e-18))
        weights = weights / weights.sum()
        gradient = (normalised.T * weights) @ (np.conj(normalised) @ beam)
        norm = float(np.linalg.norm(gradient))
        if norm <= 1e-18:
            break
        beam = beam + step * gradient / norm
        beam = beam / np.linalg.norm(beam)
        if iteration and iteration % STEP_HALVING_PERIOD == 0:
            step *= 0.5

    def min_gain_raw(quantised):
        return float(np.min(np.abs(np.conj(stacked) @ quantised) ** 2))

    quantised = [array.quantise_weights(beam)] + [
        array.quantise_weights(c) for c in candidates
    ]
    return _first_best(quantised, min_gain_raw)
