"""Struct-of-arrays receiver state for cohort-vectorized transmission.

One :class:`FrameCohort` per frame keeps every receiver's reception state
as numpy arrays indexed by a user-index map (user id -> array row), so a
packet's delivery outcome for the whole multicast group is a single
boolean row and a frame's bookkeeping is a handful of vectorized updates —
no per-receiver decoder objects and no Python loop over members per
packet.

Decodability without decoders
-----------------------------

The fountain code is systematic: symbol ids below ``K`` are source symbols,
higher ids are coded repair symbols.  For the dense random-linear code a
receiver's unit is decodable iff the GF(256) rank of its received
coefficient rows is ``K``.  For a received set with systematic ids ``S``
and repair rows ``R`` the identity
``rank([I_S; R]) = |S| + rank(R[:, complement(S)])`` reduces the check to
``rank(R[:, complement(S)]) >= need`` with ``need = K - |S|``: a small
elimination over the repair rows only.

Receivers with identical reception patterns share one check (``np.unique``
over pattern columns), and in the common case — all systematic ids
present — no elimination runs at all.  The distinct patterns of every
unit of the frame are then decided together, in one zero-padded stack
per round (:func:`repro.fountain.gf256.gf_rank_batch`; zero rows and
columns do not change a rank):

1. each pattern's first ``need`` received repair rows, restricted to its
   missing systematic columns.  A subset of rows has at most the rank of
   all of them, so ``rank >= need`` proves the pattern decodable — and a
   random square matrix over GF(256) is singular with probability about
   1/256, so almost every pattern is settled here;
2. only the patterns round 1 could not prove, with all their received
   repair rows.  Its verdict is exact.

:meth:`FrameCohort.decoded_matrices` stacks the whole frame;
:meth:`FrameCohort.plain_missing` reads one unit and stacks that unit's
patterns alone.  The verdicts are the same either way.

The precode's decodability is not a rank test over coefficient rows, so
for it each reception pattern's symbols are replayed into one
:class:`repro.fountain.precode.PrecodeDecoder`.

Per-user :class:`FrameBlockDecoder` objects are only *materialized* lazily
(:class:`CohortUserReception`), by replaying the recorded delivery events
for that one receiver; the replay feeds the exact symbol sequence the
receiver got, so the materialized decoder is indistinguishable from one
built online.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..fountain.block import (
    PRECODE_CODEC,
    CodingUnitId,
    FrameBlockDecoder,
    FrameBlockEncoder,
)
from ..fountain.gf256 import gf_rank_batch
from ..fountain.precode import PrecodeDecoder
from ..fountain.raptor import COEFFICIENT_CACHE, FountainSymbol
from ..obs import OBS
from ..types import NUM_LAYERS
from ..video.jigsaw import SUBLAYER_COUNTS

__all__ = [
    "CohortUserReception",
    "FrameCohort",
    "UserTallies",
    "UserTally",
]


@dataclass
class UserTally:
    """Cross-frame delivery tallies for one receiver (read-out snapshot)."""

    frames: int = 0
    packets_received: int = 0
    packets_lost: int = 0


class UserTallies:
    """Cross-frame per-receiver tallies as parallel arrays.

    One int64 row per tracked receiver, addressed through a user-index
    map, so a frame's end-of-transmission accounting is three vectorized
    adds instead of a loop over users.  Eviction swaps the last row into
    the vacated slot (order is never observable; readers sort).
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._ids = np.zeros(0, dtype=np.int64)
        self._frames = np.zeros(0, dtype=np.int64)
        self._received = np.zeros(0, dtype=np.int64)
        self._lost = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._index)

    def _rows_for(self, users: Sequence[int]) -> np.ndarray:
        """Rows for ``users``, growing the arrays for unseen ids."""
        new = [u for u in users if u not in self._index]
        if new:
            start = self._ids.size
            grow = len(new)
            self._ids = np.concatenate([self._ids, np.asarray(new, dtype=np.int64)])
            self._frames = np.concatenate([self._frames, np.zeros(grow, np.int64)])
            self._received = np.concatenate([self._received, np.zeros(grow, np.int64)])
            self._lost = np.concatenate([self._lost, np.zeros(grow, np.int64)])
            for offset, user in enumerate(new):
                self._index[user] = start + offset
        return np.fromiter(
            (self._index[u] for u in users), dtype=np.intp, count=len(users)
        )

    def update_frame(
        self,
        users: Sequence[int],
        received: np.ndarray,
        lost: np.ndarray,
    ) -> None:
        """Fold one frame's per-user delivery counts in (one frame each)."""
        rows = self._rows_for(users)
        self._frames[rows] += 1
        self._received[rows] += np.asarray(received, dtype=np.int64)
        self._lost[rows] += np.asarray(lost, dtype=np.int64)

    def get(self, user: int) -> Optional[UserTally]:
        """Tally snapshot for ``user`` (None if never served)."""
        row = self._index.get(user)
        if row is None:
            return None
        return UserTally(
            frames=int(self._frames[row]),
            packets_received=int(self._received[row]),
            packets_lost=int(self._lost[row]),
        )

    def tracked(self) -> List[int]:
        """Sorted ids of every receiver with live state."""
        return sorted(self._index)

    def evict(self, user: int) -> bool:
        """Drop ``user``'s row (swap-remove); True if it existed."""
        row = self._index.pop(user, None)
        if row is None:
            return False
        last = self._ids.size - 1
        if row != last:
            moved = int(self._ids[last])
            self._ids[row] = self._ids[last]
            self._frames[row] = self._frames[last]
            self._received[row] = self._received[last]
            self._lost[row] = self._lost[last]
            self._index[moved] = row
        self._ids = self._ids[:last]
        self._frames = self._frames[:last]
        self._received = self._received[:last]
        self._lost = self._lost[:last]
        return True


class _UnitState:
    """Reception state of one coding unit across the whole cohort.

    ``sys_mask[i, u]`` — receiver ``u`` holds systematic symbol ``i``;
    ``distinct[u]`` — distinct symbol ids held (the feedback quantity);
    repair symbols get one boolean row each over the cohort, plus their
    symbol id for coefficient lookup at decodability time.

    ``replay_decoder`` is ``None`` for the dense codec (rank oracle);
    for the precode it builds the fresh unit decoder that a reception
    pattern's symbols are replayed into.
    """

    __slots__ = (
        "block_id",
        "k",
        "sys_mask",
        "distinct",
        "repair_ids",
        "repair_rows",
        "repair_index",
        "events",
        "replay_decoder",
        "_decoded",
    )

    def __init__(
        self,
        block_id: int,
        k: int,
        num_users: int,
        replay_decoder: Optional[Callable[[], PrecodeDecoder]] = None,
    ) -> None:
        self.block_id = block_id
        self.k = k
        self.sys_mask = np.zeros((k, num_users), dtype=bool)
        self.distinct = np.zeros(num_users, dtype=np.int64)
        self.repair_ids: List[int] = []
        self.repair_rows: List[np.ndarray] = []
        self.repair_index: Dict[int, int] = {}
        #: Chronological (symbols, member_rows, delivered) records for
        #: replay (precode decodability, lazy per-user decoders).
        self.events: List[
            Tuple[List[FountainSymbol], np.ndarray, np.ndarray]
        ] = []
        self.replay_decoder = replay_decoder
        self._decoded: Optional[np.ndarray] = None

    def record(
        self,
        symbols: List[FountainSymbol],
        member_rows: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Fold one delivery event in: ``delivered`` is (symbols, members)."""
        self.events.append((symbols, member_rows, delivered))
        self._decoded = None
        ids = np.fromiter(
            (s.symbol_id for s in symbols), dtype=np.int64, count=len(symbols)
        )
        sys_sel = ids < self.k
        if sys_sel.any():
            sys_ids = ids[sys_sel]
            rows = delivered[sys_sel]
            if np.unique(sys_ids).size == sys_ids.size:
                grid = np.ix_(sys_ids, member_rows)
                fresh = rows & ~self.sys_mask[grid]
                self.sys_mask[grid] |= rows
                self.distinct[member_rows] += fresh.sum(axis=0)
            else:
                # Plain mode wraps ids modulo K, so one event can carry the
                # same id twice; fancy scatter would collapse them.
                for sid, row in zip(sys_ids, rows):
                    fresh = row & ~self.sys_mask[sid, member_rows]
                    self.sys_mask[sid, member_rows] |= row
                    self.distinct[member_rows] += fresh
        if not sys_sel.all():
            num_users = self.sys_mask.shape[1]
            for sid, row in zip(ids[~sys_sel], delivered[~sys_sel]):
                pos = self.repair_index.get(int(sid))
                if pos is None:
                    full = np.zeros(num_users, dtype=bool)
                    full[member_rows] = row
                    self.repair_index[int(sid)] = len(self.repair_ids)
                    self.repair_ids.append(int(sid))
                    self.repair_rows.append(full)
                    self.distinct[member_rows] += row
                else:
                    full = self.repair_rows[pos]
                    fresh = row & ~full[member_rows]
                    full[member_rows] |= row
                    self.distinct[member_rows] += fresh

    def received_symbols(self, row: int) -> Iterator[FountainSymbol]:
        """The symbols receiver ``row`` got for this unit, in arrival order."""
        for symbols, member_rows, delivered in self.events:
            cols = np.nonzero(member_rows == row)[0]
            if cols.size == 0:
                continue
            got = delivered[:, int(cols[0])]
            for s_idx in np.nonzero(got)[0]:
                yield symbols[int(s_idx)]

    def decoded_users(self) -> np.ndarray:
        """Boolean (num_users,) decodability of this unit, cached."""
        if self._decoded is None:
            _settle((self,))
        assert self._decoded is not None
        return self._decoded

    def candidate_patterns(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Cache the trivial verdicts; return what still needs a check.

        Sets :attr:`_decoded` to "holds every systematic symbol" and
        returns ``(candidates, patterns)`` — the rows that lack one but
        hold at least ``K`` distinct symbols, and their boolean
        ``(len(candidates), K + repairs)`` reception patterns — or None
        when no candidate is left.
        """
        decoded = self.sys_mask.all(axis=0)
        self._decoded = decoded
        if not self.repair_rows:
            return None
        candidates = np.nonzero(~decoded & (self.distinct >= self.k))[0]
        if candidates.size == 0:
            return None
        repair_mat = np.stack(self.repair_rows)
        patterns = np.concatenate(
            [self.sys_mask[:, candidates], repair_mat[:, candidates]]
        ).T
        return candidates, patterns

    def repair_coefficients(self) -> np.ndarray:
        """``(len(repair_ids), K)`` coefficient rows in repair-index order."""
        ids = np.asarray(self.repair_ids, dtype=np.int64)
        span = int(ids.max()) - self.k + 1
        return COEFFICIENT_CACHE.rows(self.block_id, self.k, self.k, span)[
            ids - self.k
        ]

    def _replay_verdict(self, row: int) -> bool:
        """Replay receiver ``row``'s symbols into one fresh unit decoder."""
        assert self.replay_decoder is not None
        decoder = self.replay_decoder()
        for symbol in self.received_symbols(row):
            # The uninstrumented ingest: the cohort reports decode
            # counters once per frame, not per replayed symbol.
            decoder._ingest(symbol)
        return decoder.is_decoded


def _settle(states: Sequence[_UnitState]) -> None:
    """Decide every undecided unit in ``states`` (units of one frame).

    Precode units replay one receiver per distinct pattern; the distinct
    patterns of all dense units go through :func:`_rank_verdicts` in one
    stack.
    """
    dense: List[Tuple[_UnitState, np.ndarray, np.ndarray, np.ndarray]] = []
    for state in states:
        if state._decoded is not None:
            continue
        pending = state.candidate_patterns()
        if pending is None:
            continue
        candidates, patterns = pending
        # Rows packed to bytes and compared as one opaque key each: the
        # same distinct rows as np.unique(axis=0), at a tenth of its cost.
        packed = np.packbits(patterns, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if state.replay_decoder is None:
            dense.append((state, candidates, patterns[first], inverse))
        else:
            verdicts = np.array(
                [state._replay_verdict(int(candidates[i])) for i in first],
                dtype=bool,
            )
            state._decoded[candidates] = verdicts[inverse]
    if not dense:
        return
    verdicts = _rank_verdicts(
        [state.repair_coefficients() for state, _, _, _ in dense],
        [unique for _, _, unique, _ in dense],
        dense[0][0].k,
    )
    start = 0
    for state, candidates, unique, inverse in dense:
        stop = start + unique.shape[0]
        state._decoded[candidates] = verdicts[start:stop][inverse]
        start = stop


def _rank_verdicts(
    coefficients: Sequence[np.ndarray], patterns: Sequence[np.ndarray], k: int
) -> np.ndarray:
    """Dense-code decodability of every distinct reception pattern.

    ``coefficients[u]`` is unit ``u``'s ``(R_u, K)`` repair rows and
    ``patterns[u]`` its ``(P_u, K + R_u)`` distinct patterns; the verdicts
    of all units come back concatenated.  Each pattern's submatrix is a
    gather from the units' stacked coefficient rows: its received repair
    rows first, its missing systematic columns first, anything past them
    zeroed.
    """
    sizes = np.array([p.shape[0] for p in patterns])
    repairs = np.array([c.shape[0] for c in coefficients])
    total = int(sizes.sum())
    have_sys = np.concatenate([p[:, :k] for p in patterns])
    have_rep = np.zeros((total, int(repairs.max())), dtype=bool)
    start = 0
    for p, size, r in zip(patterns, sizes, repairs):
        have_rep[start : start + size, :r] = p[:, k:]
        start += size
    offsets = np.repeat(np.cumsum(repairs) - repairs, sizes)
    stacked = np.concatenate(coefficients)
    need = k - have_sys.sum(axis=1)
    count = have_rep.sum(axis=1)
    cols = np.argsort(have_sys, axis=1, kind="stable")
    row_pos = np.argsort(~have_rep, axis=1, kind="stable")
    # Positions past a unit's own repair rows are padding: point them at a
    # valid row (they sit past ``count`` and the mask below zeroes them).
    rows = np.where(row_pos < repairs.repeat(sizes)[:, None], row_pos, 0)
    rows += offsets[:, None]

    def ranks(sel: np.ndarray, row_limit: np.ndarray) -> np.ndarray:
        m = int(row_limit.max())
        n = int(need[sel].max())
        sub = stacked[rows[sel, :m, None], cols[sel, None, :n]]
        keep = (np.arange(m)[None, :, None] < row_limit[:, None, None]) & (
            np.arange(n)[None, None, :] < need[sel, None, None]
        )
        sub[~keep] = 0
        return gf_rank_batch(sub)

    everyone = np.arange(total)
    verdicts = ranks(everyone, np.minimum(need, count)) >= need
    unproven = np.nonzero(~verdicts)[0]
    if unproven.size:
        verdicts[unproven] = ranks(unproven, count[unproven]) >= need[unproven]
    return verdicts


class FrameCohort:
    """All receivers' reception state for one frame, as arrays.

    Args:
        users: Receiver ids, defining the row order of every array.
        encoder: The frame's block encoder (structure/symbol geometry and
            codec).
    """

    def __init__(self, users: Sequence[int], encoder: FrameBlockEncoder) -> None:
        self.users: List[int] = list(users)
        self.index: Dict[int, int] = {u: i for i, u in enumerate(self.users)}
        self.frame_index = encoder.frame_index
        self.structure = encoder.structure
        self.symbol_size = encoder.symbol_size
        self.codec = encoder.codec
        self.k = encoder.symbols_per_unit()
        n = len(self.users)
        self.packets_received = np.zeros(n, dtype=np.int64)
        self.packets_lost = np.zeros(n, dtype=np.int64)
        self.delivered_payload_bytes = np.zeros(n, dtype=np.float64)
        self._units: Dict[CodingUnitId, _UnitState] = {}

    def __len__(self) -> int:
        return len(self.users)

    def member_rows(self, user_ids: Sequence[int]) -> np.ndarray:
        """Array rows of the cohort members among ``user_ids``, in order."""
        rows = [self.index[u] for u in user_ids if u in self.index]
        return np.asarray(rows, dtype=np.intp)

    def record(
        self,
        unit: CodingUnitId,
        symbols: List[FountainSymbol],
        member_rows: np.ndarray,
        delivered: np.ndarray,
    ) -> None:
        """Apply one group's delivery outcome for ``symbols`` of ``unit``.

        ``delivered`` is boolean ``(len(symbols), len(member_rows))``; every
        member either receives or loses each symbol.
        """
        if not symbols or member_rows.size == 0:
            return
        received = delivered.sum(axis=0)
        self.packets_received[member_rows] += received
        self.packets_lost[member_rows] += len(symbols) - received
        self.delivered_payload_bytes[member_rows] += (
            received * float(self.symbol_size)
        )
        state = self._units.get(unit)
        if state is None:
            replay = (
                partial(
                    PrecodeDecoder,
                    unit.block_id,
                    self.structure.sublayer_nbytes,
                    self.symbol_size,
                )
                if self.codec == PRECODE_CODEC
                else None
            )
            state = _UnitState(unit.block_id, self.k, len(self.users), replay)
            self._units[unit] = state
        state.record(symbols, member_rows, delivered)

    # --------------------------------------------------------- feedback reads

    def min_distinct(self, unit: CodingUnitId, member_rows: np.ndarray) -> int:
        """Smallest distinct-symbol count among members (0 if unit unseen)."""
        state = self._units.get(unit)
        if state is None or member_rows.size == 0:
            return 0
        return int(state.distinct[member_rows].min())

    def plain_missing(
        self, unit: CodingUnitId, member_rows: np.ndarray
    ) -> List[int]:
        """Sorted segment ids some non-decoded member still lacks."""
        state = self._units.get(unit)
        if state is None:
            return list(range(self.k)) if member_rows.size else []
        decoded = state.decoded_users()
        needy = member_rows[~decoded[member_rows]]
        if needy.size == 0:
            return []
        missing = ~state.sys_mask[:, needy].all(axis=1)
        return [int(i) for i in np.nonzero(missing)[0]]

    # ---------------------------------------------------------- outcome reads

    def decoded_matrices(self) -> List[np.ndarray]:
        """Per-layer boolean (num_users, sublayers) decodability matrices."""
        n = len(self.users)
        matrices = [
            np.zeros((n, count), dtype=bool) for count in SUBLAYER_COUNTS
        ]
        with OBS.span("decode.fountain", frame=self.frame_index) as span:
            _settle(list(self._units.values()))
            for unit, state in self._units.items():
                matrices[unit.layer][:, unit.sublayer] = state.decoded_users()
            if OBS.mode:
                received = int(self.packets_received.sum())
                blocks = sum(int(m.sum()) for m in matrices)
                OBS.count("fountain.symbols_received", received)
                OBS.count("fountain.blocks_decoded", blocks)
                span.set(symbols=received, blocks_decoded=blocks)
        return matrices

    def bytes_per_layer_matrix(self) -> np.ndarray:
        """(num_users, NUM_LAYERS) useful payload bytes, FrameStats-exact."""
        totals = np.zeros((len(self.users), NUM_LAYERS))
        for unit, state in self._units.items():
            useful = np.minimum(state.distinct, state.k)
            totals[:, unit.layer] += useful * float(self.symbol_size)
        return totals

    # ------------------------------------------------------- lazy decoders

    def materialize_decoder(self, row: int) -> FrameBlockDecoder:
        """Build the :class:`FrameBlockDecoder` receiver ``row`` would hold.

        Replays the recorded delivery events for that receiver in order.
        Per-unit decoders are independent, so replaying unit by unit yields
        the same state as the original chronological interleaving.
        """
        decoder = FrameBlockDecoder(
            self.frame_index, self.structure, self.symbol_size, codec=self.codec
        )
        for state in self._units.values():
            for symbol in state.received_symbols(row):
                decoder.ingest(symbol)
        return decoder


class CohortUserReception:
    """One receiver's view into a :class:`FrameCohort`.

    The scalar tallies read straight from the cohort arrays and the
    ``decoder`` materializes on first access (the pipeline stages never
    touch it, so streaming never builds per-user decoders).
    """

    __slots__ = ("_cohort", "_row", "_decoder")

    def __init__(self, cohort: FrameCohort, row: int) -> None:
        self._cohort = cohort
        self._row = row
        self._decoder: Optional[FrameBlockDecoder] = None

    @property
    def packets_received(self) -> int:
        return int(self._cohort.packets_received[self._row])

    @property
    def packets_lost(self) -> int:
        return int(self._cohort.packets_lost[self._row])

    @property
    def delivered_payload_bytes(self) -> float:
        return float(self._cohort.delivered_payload_bytes[self._row])

    @property
    def decoder(self) -> FrameBlockDecoder:
        if self._decoder is None:
            self._decoder = self._cohort.materialize_decoder(self._row)
        return self._decoder
