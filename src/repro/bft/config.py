"""PBFT group configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class BftConfig:
    """Static parameters of one BFT group.

    ``replica_ids`` is the ordered membership; the primary of view ``v`` is
    ``replica_ids[v % n]`` (round-robin, as in PBFT).  ``f`` is derived from
    the group size unless pinned explicitly.
    """

    replica_ids: tuple[str, ...]
    f: int | None = None
    checkpoint_interval: int = 10        # requests per checkpoint == block size
    watermark_window: int = 200          # high watermark = low + window
    view_change_timeout_s: float = 0.5   # baseline's timeout (§V-B, Fig. 8)
    max_open_per_node: int = 16          # DoS rate limit on open requests (§III-C)
    gap_fetch_timeout_s: float = 0.3     # execution-stall detection delay
    max_gap_fetch_span: int = 20         # decided seqs requested per fetch

    def __post_init__(self) -> None:
        n = len(self.replica_ids)
        if len(set(self.replica_ids)) != n:
            raise ConfigError("replica ids must be unique")
        max_f = (n - 1) // 3
        fault_budget = self.f if self.f is not None else max_f
        if fault_budget < 0 or n < 3 * fault_budget + 1:
            raise ConfigError(
                f"need n >= 3f+1: n={n}, f={fault_budget}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint interval must be >= 1")
        object.__setattr__(self, "f", fault_budget)

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def quorum(self) -> int:
        """2f+1 — the commit/checkpoint/view-change quorum."""
        return 2 * self.f + 1

    @property
    def prepared_quorum(self) -> int:
        """2f matching prepares (plus the preprepare) form a prepared proof."""
        return 2 * self.f

    def primary_of_view(self, view: int) -> str:
        return self.replica_ids[view % self.n]

    def is_member(self, replica_id: str) -> bool:
        return replica_id in self.replica_ids
