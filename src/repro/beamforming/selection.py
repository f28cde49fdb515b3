"""Scheme-aware beam and rate selection per multicast group.

Glues beamforming to the scheduler: for every candidate multicast group the
planner computes the transmit beam according to the active scheme, evaluates
the per-user RSS through the (estimated) channels, takes the group minimum —
the bottleneck user limits the multicast rate — and maps it to the UDP
throughput of the highest decodable MCS (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray
from ..phy.channel import ChannelState, LinkBudget
from ..phy.mcs import McsEntry, highest_supported_mcs
from ..types import BeamformingScheme
from .codebook import SectorCodebook
from .multicast import TIE_RTOL, max_min_multicast_beams


@dataclass(frozen=True)
class BeamPlan:
    """The transmission plan for one multicast group.

    Attributes:
        user_ids: Group members.
        beam: Transmit weights (unit norm).
        per_user_rss_dbm: RSS each member would see under this beam.
        min_rss_dbm: Bottleneck RSS (sets the group MCS).
        mcs: Selected MCS entry, or None when the group is unreachable.
        rate_mbps: UDP goodput at the selected MCS (0 when unreachable).
    """

    user_ids: Tuple[int, ...]
    beam: np.ndarray
    per_user_rss_dbm: Dict[int, float]
    min_rss_dbm: float
    mcs: Optional[McsEntry]
    rate_mbps: float


class GroupBeamPlanner:
    """Computes beams and rates for candidate groups under one scheme.

    Args:
        array: AP phased array.
        codebook: Predefined sector codebook (used by the PREDEFINED
            schemes).
        budget: Link budget for gain -> RSS conversion.
        scheme: Which of the four Sec 4.2.1 beamforming schemes to apply.
    """

    def __init__(
        self,
        array: PhasedArray,
        codebook: SectorCodebook,
        budget: LinkBudget,
        scheme: BeamformingScheme = BeamformingScheme.OPTIMIZED_MULTICAST,
        mcs_backoff_db: float = 2.0,
    ) -> None:
        self.array = array
        self.codebook = codebook
        self.budget = budget
        self.scheme = scheme
        # Select the MCS against RSS minus this margin: CSI estimation error
        # and mid-beacon fading mean the true RSS sits below the estimate,
        # and PER is brutal below sensitivity.  Real rate adaptation backs
        # off the same way.
        self.mcs_backoff_db = float(mcs_backoff_db)

    @property
    def allows_multiuser_groups(self) -> bool:
        """Unicast schemes restrict candidate groups to singletons."""
        return self.scheme in (
            BeamformingScheme.OPTIMIZED_MULTICAST,
            BeamformingScheme.PREDEFINED_MULTICAST,
        )

    @property
    def uses_codebook(self) -> bool:
        """Predefined schemes take their beams from the sector codebook."""
        return self.scheme in (
            BeamformingScheme.PREDEFINED_MULTICAST,
            BeamformingScheme.PREDEFINED_UNICAST,
        )

    def sector_gains(
        self, state: ChannelState, user_ids: Sequence[int]
    ) -> np.ndarray:
        """``(K, n_users)`` gains ``|F_k^H h_u|^2`` of every codebook beam at
        every listed user, columns in ascending user id, in one matmul."""
        users = sorted(set(user_ids))
        return self.codebook.gains_multi([state.channels[u] for u in users])

    def plan_group(
        self, state: ChannelState, user_ids: Sequence[int]
    ) -> BeamPlan:
        """Beam + RSS + MCS + rate for one candidate group.

        ``state`` should carry the AP's *estimated* channels — the beam is
        chosen from what the AP believes, exactly as in the real system.
        """
        return self.plan_groups(state, [user_ids])[0]

    def plan_groups(
        self,
        state: ChannelState,
        groups: Sequence[Sequence[int]],
        sector_gains: Optional[np.ndarray] = None,
    ) -> List[BeamPlan]:
        """Beam plans for many candidate groups in one batch.

        Optimized schemes refine every group's beam in one stacked max-min
        ascent (:func:`max_min_multicast_beams`); a group's plan is the same
        whether it is planned alone or among others.  Predefined schemes
        read every group's best sector off one ``(codebook beams x users)``
        gain matrix over the groups' users: ``sector_gains`` when the caller
        already has it (:meth:`sector_gains` of exactly those users).
        """
        ordered = [tuple(sorted(g)) for g in groups]
        if any(not users for users in ordered):
            raise BeamformingError("empty group")
        if not self.allows_multiuser_groups and any(len(u) > 1 for u in ordered):
            raise BeamformingError(
                f"scheme {self.scheme.value} only supports singleton groups"
            )
        if not self.uses_codebook:
            beams, gains = max_min_multicast_beams(
                self.array, [[state.channels[u] for u in users] for users in ordered]
            )
            return [self._plan(*args) for args in zip(ordered, beams, gains)]
        all_users = sorted({u for users in ordered for u in users})
        if sector_gains is None:
            sector_gains = self.sector_gains(state, all_users)
        elif sector_gains.shape[1] != len(all_users):
            raise BeamformingError(
                f"sector gains cover {sector_gains.shape[1]} users, "
                f"groups have {len(all_users)}"
            )
        column = {u: k for k, u in enumerate(all_users)}
        plans = []
        for users in ordered:
            member_gains = sector_gains[:, [column[u] for u in users]]
            worst = member_gains.min(axis=1)
            # First of the (near-)tied best sectors: mirrored sectors tie
            # exactly, and last-ulp noise must not pick between them.
            best = int(np.argmax(worst >= worst.max() * (1.0 - TIE_RTOL)))
            plans.append(
                self._plan(users, self.codebook.beam(best), member_gains[best])
            )
        return plans

    def _plan(
        self, users: Tuple[int, ...], beam: np.ndarray, gains: np.ndarray
    ) -> BeamPlan:
        """RSS, bottleneck MCS and rate for members' beamformed gains."""
        rss = {u: self.budget.rss_dbm(float(g)) for u, g in zip(users, gains)}
        min_rss = min(rss.values())
        mcs = highest_supported_mcs(min_rss - self.mcs_backoff_db)
        return BeamPlan(
            user_ids=users,
            beam=beam,
            per_user_rss_dbm=rss,
            min_rss_dbm=min_rss,
            mcs=mcs,
            rate_mbps=float(mcs.udp_throughput_mbps) if mcs else 0.0,
        )

