"""Seed fountain codec: per-symbol encode and full-Gaussian decode.

The production codec (:mod:`repro.fountain.raptor`) batches repair-symbol
encoding into one GF(256) matmul over cached coefficient rows and decodes
incrementally.  These are the original implementations it must match bit
for bit: every repair symbol derives its coefficient row afresh and takes
its own reference matmul, and the decoder re-solves the whole system with
:func:`repro.fountain.gf256.gf_solve` on every attempt.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import FountainCodeError
from repro.fountain.gf256 import gf_matmul_reference, gf_solve
from repro.fountain.raptor import FountainEncoder, FountainSymbol, _coefficients


def seed_symbol(encoder: FountainEncoder, symbol_id: int) -> FountainSymbol:
    """The coded symbol with stream index ``symbol_id``, one at a time."""
    if symbol_id < 0:
        raise FountainCodeError(f"symbol_id must be >= 0, got {symbol_id}")
    k = encoder.num_source_symbols
    if symbol_id < k:
        payload = encoder._source[symbol_id].tobytes()
    else:
        coeffs = _coefficients(encoder.block_id, symbol_id, k)
        payload = gf_matmul_reference(coeffs[None, :], encoder._source)[0].tobytes()
    return FountainSymbol(encoder.block_id, symbol_id, payload)


def seed_symbols(
    encoder: FountainEncoder, first_id: int, count: int
) -> List[FountainSymbol]:
    """``count`` consecutive symbols, each encoded on its own."""
    return [seed_symbol(encoder, first_id + i) for i in range(count)]


class SeedFountainDecoder:
    """Dense-code decoder that re-solves from scratch per decode attempt.

    Same surface as :class:`repro.fountain.raptor.FountainDecoder`; it never
    tracks rank online, so :attr:`rank` is the distinct-symbol count capped
    at ``K``.
    """

    def __init__(self, block_id: int, data_len: int, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(f"symbol_size must be positive, got {symbol_size}")
        if data_len <= 0:
            raise FountainCodeError(f"data_len must be positive, got {data_len}")
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = int(data_len)
        self.num_source_symbols = -(-data_len // symbol_size)
        self._symbols: Dict[int, bytes] = {}
        self._decoded: Optional[bytes] = None

    @property
    def received_count(self) -> int:
        return len(self._symbols)

    @property
    def is_decoded(self) -> bool:
        return self._decoded is not None

    @property
    def rank(self) -> int:
        return min(len(self._symbols), self.num_source_symbols)

    def received_ids(self) -> set:
        return set(self._symbols)

    @property
    def symbols_missing(self) -> int:
        return max(0, self.num_source_symbols - self.received_count)

    def add_symbol(self, symbol: FountainSymbol) -> bool:
        if symbol.block_id != self.block_id:
            raise FountainCodeError(
                f"symbol for block {symbol.block_id} fed to decoder for "
                f"block {self.block_id}"
            )
        if len(symbol.payload) != self.symbol_size:
            raise FountainCodeError(
                f"payload is {len(symbol.payload)} bytes, expected {self.symbol_size}"
            )
        if self._decoded is not None:
            return True
        self._symbols.setdefault(symbol.symbol_id, symbol.payload)
        if len(self._symbols) >= self.num_source_symbols:
            self._try_decode()
        return self._decoded is not None

    def decode(self) -> bytes:
        if self._decoded is None:
            self._try_decode()
        if self._decoded is None:
            raise FountainCodeError(
                f"block {self.block_id} not decodable: "
                f"{self.received_count}/{self.num_source_symbols} symbols"
            )
        return self._decoded

    def _try_decode(self) -> None:
        k = self.num_source_symbols
        if len(self._symbols) < k:
            return
        ids = sorted(self._symbols)
        systematic = [i for i in ids if i < k]
        if len(systematic) == k:
            data = b"".join(self._symbols[i] for i in range(k))
            self._decoded = data[: self.data_len]
            return
        matrix = np.zeros((len(ids), k), dtype=np.uint8)
        rhs = np.zeros((len(ids), self.symbol_size), dtype=np.uint8)
        for row, symbol_id in enumerate(ids):
            if symbol_id < k:
                matrix[row, symbol_id] = 1
            else:
                matrix[row] = _coefficients(self.block_id, symbol_id, k)
            rhs[row] = np.frombuffer(self._symbols[symbol_id], dtype=np.uint8)
        solved = gf_solve(matrix, rhs)
        if solved is None:
            return
        source, _ = solved
        self._decoded = source.tobytes()[: self.data_len]
