"""One-way message delay models.

The network asks its latency model for a one-way delay for each message.
Models are deliberately simple — the paper's effects depend on the *relative*
magnitude of intra-region vs. cross-country delays, not on precise tail
shapes — but jitter is included because perfectly deterministic delays would
hide races the protocols must survive.
"""

from __future__ import annotations

import random

from repro.net.topology import INTRA_DC_RTT_MS, PAPER_RTT_MS, Topology


class LatencyModel:
    """Interface: map (src datacenter, dst datacenter) to a one-way delay."""

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        """One-way delay in milliseconds for a message src → dst."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """The same fixed delay for every message.  Useful in unit tests."""

    def __init__(self, delay_ms: float = 1.0) -> None:
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self.delay_ms = delay_ms

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        return self.delay_ms


class RttMatrixLatency(LatencyModel):
    """Delays derived from a region-pair RTT matrix with multiplicative jitter.

    One-way delay = RTT/2 × J where J is a truncated Gaussian factor
    (mean 1, std ``jitter``, floored at ``1 - 2·jitter`` and at 0.5).  Two
    endpoints in the *same datacenter* use ``intra_dc_rtt_ms`` instead of the
    same-region figure.

    The default matrix is :data:`repro.net.topology.PAPER_RTT_MS`.
    """

    def __init__(
        self,
        topology: Topology,
        rtt_ms: dict[frozenset[str], float] | None = None,
        intra_dc_rtt_ms: float = INTRA_DC_RTT_MS,
        jitter: float = 0.08,
    ) -> None:
        if not 0 <= jitter < 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {jitter}")
        self.topology = topology
        self.rtt_ms = dict(PAPER_RTT_MS if rtt_ms is None else rtt_ms)
        self.intra_dc_rtt_ms = intra_dc_rtt_ms
        self.jitter = jitter
        self._jitter_floor = max(0.5, 1.0 - 2.0 * jitter)
        # (src_dc, dst_dc) -> half-RTT.  The matrix is keyed by *region*
        # pair behind two name lookups and a frozenset; the delay is drawn
        # once per message, so this cache is squarely on the hot path.
        self._half_rtt: dict[tuple[str, str], float] = {}

    def base_rtt(self, src_dc: str, dst_dc: str) -> float:
        """The jitter-free RTT between two datacenters."""
        if src_dc == dst_dc:
            return self.intra_dc_rtt_ms
        pair = frozenset(
            {self.topology.region_of(src_dc), self.topology.region_of(dst_dc)}
        )
        try:
            return self.rtt_ms[pair]
        except KeyError:
            raise KeyError(
                f"no RTT configured for region pair {sorted(pair)}"
            ) from None

    def one_way_delay(self, src_dc: str, dst_dc: str, rng: random.Random) -> float:
        base = self._half_rtt.get((src_dc, dst_dc))
        if base is None:
            base = self.base_rtt(src_dc, dst_dc) / 2.0
            self._half_rtt[(src_dc, dst_dc)] = base
        if self.jitter == 0:
            return base
        factor = rng.gauss(1.0, self.jitter)
        floor = self._jitter_floor
        if factor < floor:
            factor = floor
        return base * factor
