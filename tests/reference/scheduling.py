"""Seed form of the Problem-1 allocator's DNN feature assembly.

:meth:`TimeAllocationOptimizer._features` builds every user's feature row
with whole-array operations.  Before that it called
:meth:`FrameFeatureContext.features_for_bytes` once per user per gradient
step; :func:`per_user_features` keeps that assembly as the oracle.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.quality.curves import FrameFeatureContext


def per_user_features(
    contexts: Dict[int, FrameFeatureContext],
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """A drop-in ``_features`` that asks each user's context for its row."""
    users = sorted(contexts)

    def features(
        user_bytes: np.ndarray, layer_sizes: np.ndarray, static: np.ndarray
    ) -> np.ndarray:
        return np.vstack(
            [contexts[u].features_for_bytes(user_bytes[k]) for k, u in enumerate(users)]
        )

    return features
