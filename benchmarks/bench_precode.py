"""Precode codec benchmark stage: encode throughput and decode-cost scaling.

Measures the RaptorQ-style precode against the dense batched path on the
same coding-unit shape as the ``fountain_encode`` stage, and sweeps decode
elimination effort over a K ladder to certify the inactivation decoder's
sub-cubic scaling (full Gaussian elimination on the instrumented seed
decoder of the ``tests/reference`` oracle is the control).  The two
headline outputs feed ``perf_gate``:

* ``encode_msymbols_per_s`` — a gated throughput metric, and
* ``decode_subcubic`` — a REQUIRED_FLAG boolean (growth-exponent fit of
  elimination element-ops must stay below 2.0 while the dense control
  stays above 2.3).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
# The dense control's seed decoder comes from the test oracle.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np

from repro.fountain.block import symbol_size_for
from repro.fountain.precode import Precode, PrecodeDecoder, PrecodeEncoder
from repro.fountain.raptor import FountainEncoder
from repro.obs import observed
from repro.perf import throughput, time_call, time_call_best
from repro.video.jigsaw import LayerStructure

from tests.reference import SeedFountainDecoder, seed_path

#: Decode-cost sweep ladder (K values) and per-decode symbol overhead.
SCALING_KS = (32, 64, 128, 256)
SCALING_OVERHEAD = 8
SCALING_SYMBOL_BYTES = 8

#: Sub-cubic certification bounds on the log-log growth exponent.
PRECODE_EXPONENT_MAX = 2.0
DENSE_EXPONENT_MIN = 2.3


def _payload(seed: int, nbytes: int) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, 256, size=nbytes, dtype=np.uint8)
        .tobytes()
    )


def _growth_exponent(ks, ops) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(ks, dtype=float)),
                          np.log(np.asarray(ops, dtype=float)), 1)
    return float(slope)


def _precode_decode_ops(k: int) -> int:
    """Elimination element-ops for one all-repair inactivation decode."""
    data = _payload(k, k * SCALING_SYMBOL_BYTES)
    encoder = PrecodeEncoder(0, data, SCALING_SYMBOL_BYTES)
    decoder = PrecodeDecoder(0, len(data), SCALING_SYMBOL_BYTES)
    for symbol in encoder.symbols(k, k + SCALING_OVERHEAD):
        decoder.add_symbol(symbol)
    assert decoder.decode() == data
    assert decoder.last_stats is not None
    return int(decoder.last_stats.elem_ops)


def _dense_decode_ops(k: int) -> int:
    """Control: gf_solve element-ops for one seed-path dense decode."""
    data = _payload(k, k * SCALING_SYMBOL_BYTES)
    with seed_path():
        with observed("counters") as registry:
            encoder = FountainEncoder(0, data, SCALING_SYMBOL_BYTES)
            decoder = SeedFountainDecoder(0, len(data), SCALING_SYMBOL_BYTES)
            for symbol in encoder.symbols(k, k + SCALING_OVERHEAD):
                decoder.add_symbol(symbol)
            assert decoder.decode() == data
    return int(registry.counters()["fountain.gf.solve_elem_ops"])


def _roundtrip_identical(structure: LayerStructure) -> bool:
    """Precode sessions must reproduce payloads and the systematic wire."""
    symbol_size = symbol_size_for(structure)
    data = _payload(17, structure.sublayer_nbytes)
    dense = FountainEncoder(3_000_003, data, symbol_size)
    pre = PrecodeEncoder(3_000_003, data, symbol_size)
    k = pre.num_source_symbols
    for sid in range(k):
        if pre.symbol(sid).payload != dense.symbol(sid).payload:
            return False
    decoder = PrecodeDecoder(3_000_003, len(data), symbol_size)
    for symbol in pre.symbols(k, k + 4):  # all-repair reception
        decoder.add_symbol(symbol)
    return decoder.is_decoded and decoder.decode() == data


def bench_precode(
    structure: LayerStructure,
    repair_symbols: int,
    dense_warm_msymbols_per_s: float,
) -> dict:
    """Precode encode throughput plus the decode-cost scaling sweep.

    ``dense_warm_msymbols_per_s`` is the ``fountain_encode`` stage's warm
    batched rate from the same process, the reference for the >=10x
    speedup acceptance flag.
    """
    symbol_size = symbol_size_for(structure)
    data = _payload(11, structure.sublayer_nbytes)

    Precode.clear_cache()
    encoder = PrecodeEncoder(1_000_001, data, symbol_size)
    k = encoder.num_source_symbols
    # Cold: first batch pays intermediate-block construction and LT row
    # derivation (both cached per K for the life of the process).
    _, cold_s = time_call(lambda: encoder.payload_block(k, repair_symbols))
    # Warm: the steady-state rate a live session sees; best-of-5 keeps the
    # gated metric from flapping on scheduler noise.
    _, warm_s = time_call_best(
        lambda: encoder.payload_block(k, repair_symbols), repeats=5
    )
    warm_rate = throughput(repair_symbols, warm_s) / 1e6

    precode_ops = [_precode_decode_ops(kk) for kk in SCALING_KS]
    dense_ops = [_dense_decode_ops(kk) for kk in SCALING_KS]
    precode_exponent = _growth_exponent(SCALING_KS, precode_ops)
    dense_exponent = _growth_exponent(SCALING_KS, dense_ops)
    decode_subcubic = (
        precode_exponent < PRECODE_EXPONENT_MAX
        and dense_exponent > DENSE_EXPONENT_MIN
    )

    encode_speedup = (
        warm_rate / dense_warm_msymbols_per_s
        if dense_warm_msymbols_per_s
        else float("inf")
    )
    return {
        "k": k,
        "symbol_bytes": symbol_size,
        "repair_symbols": repair_symbols,
        "encode_cold_msymbols_per_s": throughput(repair_symbols, cold_s) / 1e6,
        "encode_msymbols_per_s": warm_rate,
        "dense_batched_warm_msymbols_per_s": dense_warm_msymbols_per_s,
        "encode_speedup_vs_dense_batched": encode_speedup,
        "encode_speedup_10x": encode_speedup >= 10.0,
        "scaling_ks": list(SCALING_KS),
        "scaling_overhead": SCALING_OVERHEAD,
        "precode_decode_elem_ops": precode_ops,
        "dense_decode_elem_ops": dense_ops,
        "precode_decode_exponent": precode_exponent,
        "dense_decode_exponent": dense_exponent,
        "decode_subcubic": decode_subcubic,
        "roundtrip_identical": _roundtrip_identical(structure),
    }
