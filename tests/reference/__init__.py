"""Reference (seed) implementations the production code is checked against.

``src/`` has one implementation per behaviour.  The original, slower ones —
the per-receiver transmitter passes with their scalar feedback and scoring
stages, the scalar bandwidth estimator, the per-symbol fountain encode and
the full-Gaussian decode, the uncached quality probe — live here as a test
oracle.  :func:`seed_path` swaps all of them in for the length of a
``with`` block, so an equivalence test or a benchmark's seed arm runs one
session twice and compares bit for bit::

    with seed_path():
        reference = streamer.session(trace).run(frames)

The swap patches class attributes process-wide; it is not thread-safe and
does not reach worker processes.

Two oracles sit outside the swap and are imported by their tests directly:
the per-group max-min beam loop (:mod:`tests.reference.beamforming`) and
the allocator's per-user DNN feature assembly
(:mod:`tests.reference.scheduling`).
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

from repro.core.multi_ap import MultiApTransmitter
from repro.core.pipeline import FeedbackUpdater, Scorer, StreamSession, Transmitter
from repro.fountain import block
from repro.fountain.raptor import FountainEncoder
from repro.transport.transmitter import FrameTransmitter
from repro.video.dataset import FrameQualityProbe

from .fountain import SeedFountainDecoder, seed_symbol, seed_symbols
from .pipeline import (
    feedback_run,
    multi_ap_transmitter_run,
    scorer_run,
    seed_session_init,
    transmitter_run,
    uncached_measure_masks,
)
from .transport import (
    BandwidthEstimator,
    ScalarTransmissionResult,
    UserReception,
    scalar_transmit,
)

__all__ = [
    "BandwidthEstimator",
    "ScalarTransmissionResult",
    "SeedFountainDecoder",
    "UserReception",
    "scalar_transmit",
    "seed_path",
    "seed_symbol",
    "seed_symbols",
]


@contextmanager
def seed_path() -> Iterator[None]:
    """Run every hot path through its seed implementation inside the block."""
    patches = (
        (FountainEncoder, "symbol", seed_symbol),
        (FountainEncoder, "_symbols", seed_symbols),
        (FrameQualityProbe, "measure_masks", uncached_measure_masks),
        (FrameTransmitter, "transmit", scalar_transmit),
        (StreamSession, "__init__", seed_session_init(StreamSession.__init__)),
        (Transmitter, "run", transmitter_run),
        (FeedbackUpdater, "run", feedback_run),
        (Scorer, "run", scorer_run),
        (MultiApTransmitter, "run", multi_ap_transmitter_run),
    )
    with ExitStack() as stack:
        for target, name, value in patches:
            stack.enter_context(mock.patch.object(target, name, value))
        stack.enter_context(
            mock.patch.dict(
                block._DECODER_OF_CODEC, {block.DENSE_CODEC: SeedFountainDecoder}
            )
        )
        yield
