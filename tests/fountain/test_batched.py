"""Equivalence tests: batched/incremental fountain codec vs the seed oracle.

The codec (cached coefficient rows, one-matmul batch encode, incremental
Gaussian elimination) must be *bit-identical* to the original per-symbol /
re-solve implementation in ``tests.reference`` for every reception pattern.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fountain.raptor import (
    COEFFICIENT_CACHE,
    CoefficientCache,
    FountainDecoder,
    FountainEncoder,
    _coefficients,
)
from repro.obs import observed

from tests.reference import SeedFountainDecoder, seed_path

_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)


def _payload(seed: int, nbytes: int) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, 256, size=nbytes, dtype=np.uint8)
        .tobytes()
    )


def _round_trip(block_id, data, symbol_size, symbol_ids,
                decoder_cls=FountainDecoder):
    """Encode, deliver exactly ``symbol_ids``, decode (None if rank-short).

    A set of exactly ``k`` symbols containing random repair rows is
    singular with probability ~1/255, so undecodability is a legitimate
    outcome the caller must compare across paths, not an error.
    """
    encoder = FountainEncoder(block_id, data, symbol_size)
    decoder = decoder_cls(block_id, len(data), symbol_size)
    for symbol_id in symbol_ids:
        decoder.add_symbol(encoder.symbol(symbol_id))
    return decoder.decode() if decoder.is_decoded else None


class TestBatchedEncodeEquivalence:
    @given(
        nbytes=st.integers(min_value=1, max_value=600),
        symbol_size=st.integers(min_value=8, max_value=64),
        block_id=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=1, max_value=12),
        data_seed=st.integers(min_value=0, max_value=999),
    )
    @settings(**_SETTINGS)
    def test_batch_matches_per_symbol_seed_path(
        self, nbytes, symbol_size, block_id, count, data_seed
    ):
        data = _payload(data_seed, nbytes)
        encoder = FountainEncoder(block_id, data, symbol_size)
        k = encoder.num_source_symbols
        start = max(0, k - 2)  # straddle the systematic/repair boundary
        batched = encoder.symbols(start, count)
        with seed_path():
            reference = [encoder.symbol(start + i) for i in range(count)]
        assert [s.payload for s in batched] == [s.payload for s in reference]
        assert [s.symbol_id for s in batched] == [s.symbol_id for s in reference]

    def test_cache_rows_match_coefficient_derivation(self):
        cache = CoefficientCache()
        k = 20
        for symbol_id in (20, 21, 57, 300):
            row = cache.row(77, k, symbol_id)
            np.testing.assert_array_equal(row, _coefficients(77, symbol_id, k))

    def test_cache_eviction_bounds_memory(self):
        cache = CoefficientCache(max_blocks=4)
        for block_id in range(10):
            cache.row(block_id, 5, 7)
        assert len(cache._blocks) <= 4
        # Evicted entries are recomputed correctly on the next request.
        np.testing.assert_array_equal(
            cache.row(0, 5, 7), _coefficients(0, 7, 5)
        )


class TestRoundTripEquivalence:
    """Decoded bytes identical across paths for every reception pattern."""

    @given(
        nbytes=st.integers(min_value=1, max_value=400),
        symbol_size=st.integers(min_value=8, max_value=48),
        loss_seed=st.integers(min_value=0, max_value=999),
        extra=st.integers(min_value=0, max_value=4),
    )
    @settings(**_SETTINGS)
    def test_random_loss(self, nbytes, symbol_size, loss_seed, extra):
        data = _payload(loss_seed + 5000, nbytes)
        encoder = FountainEncoder(42, data, symbol_size)
        k = encoder.num_source_symbols
        rng = np.random.default_rng(loss_seed)
        lost = rng.random(k) < 0.35
        ids = [i for i in range(k) if not lost[i]]
        ids += list(range(k, k + int(lost.sum()) + extra))
        rng.shuffle(ids)
        optimized = _round_trip(42, data, symbol_size, ids)
        with seed_path():
            reference = _round_trip(
                42, data, symbol_size, ids, SeedFountainDecoder
            )
        # Paths must agree on decodability; when decodable, on the bytes.
        assert optimized == reference
        if optimized is not None:
            assert optimized == data
        else:
            # Only an exactly-k set with repair rows may legitimately come
            # up rank-short (singular random submatrix).
            assert extra == 0 and int(lost.sum()) > 0

    @pytest.mark.parametrize(
        "pattern", ["systematic_only", "repair_only", "exactly_k", "k_plus_h"]
    )
    def test_canonical_patterns(self, pattern):
        data = _payload(7, 333)
        symbol_size = 21
        encoder = FountainEncoder(9, data, symbol_size)
        k = encoder.num_source_symbols
        ids = {
            "systematic_only": list(range(k)),
            "repair_only": list(range(k, 2 * k + 2)),
            "exactly_k": [0, 2] + list(range(k, 2 * k - 2)),
            "k_plus_h": list(range(3, k)) + list(range(k, k + 6)),
        }[pattern]
        optimized = _round_trip(9, data, symbol_size, ids)
        with seed_path():
            reference = _round_trip(9, data, symbol_size, ids, SeedFountainDecoder)
        assert optimized == reference == data


class TestIncrementalDecoder:
    def test_rank_grows_online(self):
        data = _payload(3, 200)
        encoder = FountainEncoder(5, data, 20)
        k = encoder.num_source_symbols
        decoder = FountainDecoder(5, len(data), 20)
        for i, symbol_id in enumerate(range(k, 2 * k)):
            decoder.add_symbol(encoder.symbol(symbol_id))
            assert decoder.rank == i + 1
        assert decoder.is_decoded

    def test_dependent_symbols_add_no_rank(self):
        data = _payload(4, 200)
        encoder = FountainEncoder(6, data, 20)
        k = encoder.num_source_symbols
        decoder = FountainDecoder(6, len(data), 20)
        for symbol_id in range(k - 1):
            decoder.add_symbol(encoder.symbol(symbol_id))
        # A duplicate id is ignored outright.
        decoder.add_symbol(encoder.symbol(0))
        assert decoder.rank == k - 1
        assert not decoder.is_decoded
        decoder.add_symbol(encoder.symbol(k - 1))
        assert decoder.is_decoded
        assert decoder.decode() == data

    def test_decodability_identical_to_seed_path_stepwise(self):
        """Both decoders flip to decoded on exactly the same symbol."""
        data = _payload(8, 310)
        symbol_size = 17
        encoder = FountainEncoder(11, data, symbol_size)
        k = encoder.num_source_symbols
        rng = np.random.default_rng(2)
        ids = list(rng.permutation(np.arange(2, k + 8)))
        incremental = FountainDecoder(11, len(data), symbol_size)
        reference = SeedFountainDecoder(11, len(data), symbol_size)
        for symbol_id in ids:
            symbol = encoder.symbol(int(symbol_id))
            ref_done = reference.add_symbol(symbol)
            assert incremental.add_symbol(symbol) == ref_done
        assert incremental.decode() == reference.decode() == data

    def test_observed_decode_emits_counters(self):
        """Under observability the decoder counts every symbol it ingests
        before the block completes, and the completion itself."""
        data = _payload(12, 200)
        encoder = FountainEncoder(13, data, 20)
        k = encoder.num_source_symbols
        decoder = FountainDecoder(13, len(data), 20)
        with observed("counters") as registry:
            for symbol in encoder.symbols(0, k + 1):
                decoder.add_symbol(symbol)
            counters = registry.counters()
        assert decoder.decode() == data
        assert counters["fountain.symbols_received"] == k
        assert counters["fountain.blocks_decoded"] == 1

    def test_shared_cache_isolated_per_block(self):
        COEFFICIENT_CACHE.clear()
        a, b = _payload(1, 100), _payload(2, 100)
        ids = list(range(10, 22))  # k = 10: repair-only, two spare
        out_a = _round_trip(100, a, 10, ids)
        out_b = _round_trip(101, b, 10, ids)
        assert out_a == a and out_b == b
