"""CSI-based multicast beamforming (Sec 2.5, Eq. 3).

The exact problem — maximise the minimum RSS over a group of receivers — is
NP-hard.  The paper solves the max-*sum* relaxation with an SVD (the beam is
the leading right singular vector of the stacked channel matrix) as a
heuristic.  We implement that heuristic (:func:`svd_multicast_beam`) and use
it to seed a short smoothed max-min refinement
(:func:`max_min_multicast_beams`): projected gradient ascent on a soft-min of
the per-user gains over *power-normalised* channels.  The refinement is
needed in practice because plain max-sum degenerates onto the strongest
user whenever user channels are near-orthogonal (widely spaced users), which
the 2-bit phase quantisation then amplifies; with it, the optimized multicast
beam consistently dominates the predefined-codebook beam, matching the
paper's measurements (Fig 5-7, 11-13).

A beacon's candidate groups are refined together: they are stacked into one
zero-padded ``(G, n_max, Nt)`` array with a member mask, so each ascent step
is two stacked matmuls for every group at once.  The ascent halves its step
every :data:`STEP_HALVING_PERIOD` iterations and so converges; that makes
the quantised beam stable under the last-ulp differences padding brings to
the BLAS sums, and a group gets the same beam whether it is refined alone
(:func:`max_min_multicast_beam`) or inside a full enumeration.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray

#: Gradient-ascent iterations of the max-min refinement.
ASCENT_STEPS = 150

#: Soft-min sharpness (higher = closer to the true minimum).
SOFTMIN_TEMPERATURE = 8.0

#: Initial normalised ascent step.  From 0.5, one group in five still
#: amplified a 1e-13 channel perturbation past 1e-9 before the halvings
#: caught up.
INITIAL_STEP = 0.25

#: The ascent halves its normalised step after every this many iterations,
#: the schedule the Problem-1 allocator uses.  A fixed step never settles:
#: the trajectory stays chaotic, and the rounded beam would depend on the
#: floating-point summation order.
STEP_HALVING_PERIOD = 40

#: Relative min-gain margin within which candidate beams count as tied.
TIE_RTOL = 1e-9

#: Upper bound on ``groups x n_max x max(n_max, Nt)`` per stacked ascent;
#: larger batches are refined in size-ordered chunks to bound memory.
_BATCH_ELEMENTS = 1 << 20


def _stack(channels: Sequence[np.ndarray], num_elements: int) -> np.ndarray:
    if not len(channels):
        raise BeamformingError("need at least one channel vector")
    stacked = np.vstack([np.asarray(h, dtype=complex) for h in channels])
    if stacked.shape[1] != num_elements:
        raise BeamformingError(
            f"channels must have {num_elements} elements, got {stacked.shape[1]}"
        )
    norms = np.linalg.norm(stacked, axis=1)
    if np.any(norms <= 0):
        raise BeamformingError("cannot beamform on an all-zero channel")
    return stacked


def _normalise_rows(channels: np.ndarray) -> np.ndarray:
    """Unit-norm channel rows; all-zero padding rows stay zero."""
    norms = np.linalg.norm(channels, axis=-1, keepdims=True)
    return channels / np.where(norms > 0, norms, 1.0)


def _max_sum_beams(normalised: np.ndarray) -> np.ndarray:
    """Beam maximising ``sum_i |h_i^H F|^2`` per group (unquantised, unit norm).

    With ``A = conj(H)`` (rows ``h_i^H``), the objective is ``||A F||^2``;
    its maximiser over unit-norm F is the leading right singular vector of
    A, i.e. ``vh[0].conj()`` in numpy's SVD convention.  Works on one
    ``(n, Nt)`` group or a ``(G, n, Nt)`` stack; zero padding rows do not
    change it.
    """
    _, _, vh = np.linalg.svd(np.conj(normalised), full_matrices=False)
    return vh[..., 0, :].conj()


def _gains(conj_channels: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """``|h_i^H F_c|^2`` as ``(G, n, C)`` for ``(G, n, Nt)`` conjugated
    channels and ``(G, Nt, C)`` column beams."""
    response = conj_channels @ beams
    return response.real**2 + response.imag**2


def _best_by_min_gain(
    gains: np.ndarray, members: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per group, the first valid candidate with the largest member min-gain.

    ``gains`` is ``(G, n, C)``; ``members`` masks real users ``(G, n)`` and
    ``valid`` real candidates ``(G, C)``.  Candidates within
    :data:`TIE_RTOL` of the best count as tied, so last-ulp noise cannot
    reorder exact ties (two members' matched beams when n = 2, or
    quantised beams equal up to a global phase).
    """
    worst = np.where(members[:, :, None], gains, np.inf).min(axis=1)
    worst = np.where(valid, worst, -np.inf)
    best = worst.max(axis=1, keepdims=True)
    return np.argmax(worst >= best * (1.0 - TIE_RTOL), axis=1)


def svd_multicast_beam(
    array: PhasedArray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """The paper's plain SVD max-sum heuristic, quantised for the hardware."""
    stacked = _stack(channels, array.num_elements)
    return array.quantise_weights(_max_sum_beams(_normalise_rows(stacked)))


def max_min_multicast_beam(
    array: PhasedArray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """Optimized multicast beam for one group: SVD seed + smoothed max-min
    ascent (a single-group call of :func:`max_min_multicast_beams`).

    Returns:
        Quantised unit-norm beam weights.
    """
    beams, _ = max_min_multicast_beams(array, [channels])
    return beams[0]


def max_min_multicast_beams(
    array: PhasedArray,
    channel_groups: Sequence[Sequence[np.ndarray]],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Optimized multicast beams for many groups at once.

    Each multi-user group maximises ``softmin_i |h_i^H F|^2`` over unit-norm
    F on power-normalised channels (normalisation makes near/far users
    count equally, which is what max-min wants), then projects onto the
    array's constant-modulus M-bit weights.  A singleton gets the quantised
    matched-filter beam (the optimized unicast beam).

    Args:
        array: AP phased array.
        channel_groups: Per group, one channel vector per member.

    Returns:
        ``(G, Nt)`` quantised unit-norm beams and, per group, the members'
        gains ``|F^H h_i|^2`` on the raw channels.
    """
    stacks = [_stack(group, array.num_elements) for group in channel_groups]
    beams = np.empty((len(stacks), array.num_elements), dtype=complex)
    gains: List[np.ndarray] = [np.empty(0)] * len(stacks)
    singles = [g for g, s in enumerate(stacks) if s.shape[0] == 1]
    if singles:
        channels = np.vstack([stacks[g] for g in singles])
        quantised = array.quantise_weights(channels)
        response = np.sum(np.conj(channels) * quantised, axis=1)
        single_gains = response.real**2 + response.imag**2
        for row, g in enumerate(singles):
            beams[g] = quantised[row]
            gains[g] = single_gains[row:row + 1]
    for chunk in _size_chunks(stacks, array.num_elements):
        n_max = stacks[chunk[-1]].shape[0]
        padded = np.zeros((len(chunk), n_max, array.num_elements), dtype=complex)
        members = np.zeros((len(chunk), n_max), dtype=bool)
        for row, g in enumerate(chunk):
            size = stacks[g].shape[0]
            padded[row, :size] = stacks[g]
            members[row, :size] = True
        chunk_beams, chunk_gains = _refine(array, padded, members)
        for row, g in enumerate(chunk):
            beams[g] = chunk_beams[row]
            gains[g] = chunk_gains[row, : stacks[g].shape[0]]
    return beams, gains


def _size_chunks(
    stacks: Sequence[np.ndarray], num_elements: int
) -> Iterator[List[int]]:
    """Multi-user group indices in size order, cut to the memory bound."""
    order = sorted(
        (g for g, s in enumerate(stacks) if s.shape[0] > 1),
        key=lambda g: stacks[g].shape[0],
    )
    chunk: List[int] = []
    for g in order:
        size = stacks[g].shape[0]
        if chunk and (len(chunk) + 1) * size * max(size, num_elements) > _BATCH_ELEMENTS:
            yield chunk
            chunk = []
        chunk.append(g)
    if chunk:
        yield chunk


def _refine(
    array: PhasedArray, channels: np.ndarray, members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Seed, ascend and quantise a zero-padded ``(G, n, Nt)`` group stack.

    Returns the ``(G, Nt)`` beams and their ``(G, n)`` raw-channel gains.
    """
    num_groups = channels.shape[0]
    rows = np.arange(num_groups)
    normalised = _normalise_rows(channels)
    conj_normalised = np.conj(normalised)
    columns = np.ascontiguousarray(normalised.transpose(0, 2, 1))
    sizes = members.sum(axis=1)

    # Candidates: the SVD max-sum beam, then each member's own channel.
    candidates = np.concatenate(
        [_max_sum_beams(normalised)[:, None, :], normalised], axis=1
    )
    valid = np.concatenate([np.ones((num_groups, 1), dtype=bool), members], axis=1)
    start = _best_by_min_gain(
        _gains(conj_normalised, candidates.transpose(0, 2, 1)), members, valid
    )
    beam = candidates[rows, start][:, :, None]  # (G, Nt, 1)
    active = np.ones(num_groups, dtype=bool)
    step = INITIAL_STEP
    for iteration in range(ASCENT_STEPS):
        response = conj_normalised @ beam  # (G, n, 1): h_i^H F
        gains = response[:, :, 0].real ** 2 + response[:, :, 0].imag ** 2
        scale = gains.sum(axis=1) / sizes + 1e-18
        weights = np.exp(-SOFTMIN_TEMPERATURE * gains / scale[:, None]) * members
        weights /= weights.sum(axis=1, keepdims=True)
        # d(sum_i w_i |h_i^H F|^2)/dF* = sum_i w_i h_i (h_i^H F)
        gradient = columns @ (weights[:, :, None] * response)
        norm = np.sqrt(np.sum(gradient.real**2 + gradient.imag**2, axis=(1, 2)))
        active &= norm > 1e-18
        if not active.any():
            break
        stepped = beam + (step / np.where(active, norm, 1.0))[:, None, None] * gradient
        stepped /= np.linalg.norm(stepped, axis=1, keepdims=True)
        beam = np.where(active[:, None, None], stepped, beam)
        if iteration and iteration % STEP_HALVING_PERIOD == 0:
            step *= 0.5

    # The 2-bit constant-modulus projection can reorder candidates, so pick
    # the best *post-quantisation* beam by the true (unnormalised) max-min
    # objective — this also guarantees the refined result never falls below
    # the plain SVD heuristic or any member's matched beam.
    quantised = array.quantise_weights(
        np.concatenate([beam.transpose(0, 2, 1), candidates], axis=1)
    )
    raw_gains = _gains(np.conj(channels), quantised.transpose(0, 2, 1))
    pick = _best_by_min_gain(
        raw_gains,
        members,
        np.concatenate([np.ones((num_groups, 1), dtype=bool), valid], axis=1),
    )
    return quantised[rows, pick], raw_gains[rows, :, pick]


def max_min_gain(beam: np.ndarray, channels: Sequence[np.ndarray]) -> float:
    """Minimum beamformed gain ``min_i |F^H h_i|^2`` across the group."""
    return float(np.min(per_user_gains(beam, channels)))


def per_user_gains(beam: np.ndarray, channels: Sequence[np.ndarray]) -> np.ndarray:
    """Beamformed gain ``|F^H h_i|^2`` for every group member."""
    beam = np.asarray(beam, dtype=complex)
    return np.array(
        [float(np.abs(np.vdot(beam, np.asarray(h, dtype=complex))) ** 2) for h in channels]
    )

