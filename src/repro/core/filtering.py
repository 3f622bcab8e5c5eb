"""Content-based duplicate filtering over a sliding checkpoint window.

"In practice, a check of the complete blockchain for every request is not
feasible; instead, we check against the recent history.  This is done
efficiently with a hashmap over the requests of a sliding window of past
checkpoints as well as open requests in R" (§III-C).

The index maps request digests to the sequence number that logged them.
Entries slide out once they fall more than ``window_checkpoints``
checkpoint intervals behind the latest stable checkpoint — a duplicate of
a request older than the window is *recorded rather than suspected*
(§III-C, Faulty Primary), so false positives are impossible by design.
"""

from __future__ import annotations

from collections import OrderedDict


class DedupIndex:
    """Hashmap of recently logged request digests with sliding eviction."""

    def __init__(self, checkpoint_interval: int = 10, window_checkpoints: int = 16) -> None:
        if checkpoint_interval < 1 or window_checkpoints < 1:
            raise ValueError("checkpoint interval and window must be >= 1")
        self._window_seqs = checkpoint_interval * window_checkpoints
        self._logged: OrderedDict[bytes, int] = OrderedDict()
        self._max_seq = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._logged)

    def record(self, digest: bytes, seq: int) -> None:
        """Record a decided request; evicts entries that left the window."""
        self._logged[digest] = seq
        self._max_seq = max(self._max_seq, seq)
        low = self._max_seq - self._window_seqs
        while self._logged:
            oldest_digest = next(iter(self._logged))
            if self._logged[oldest_digest] > low:
                break
            del self._logged[oldest_digest]
            self.evicted += 1

    def in_log(self, digest: bytes) -> bool:
        return digest in self._logged

    def logged_seq(self, digest: bytes) -> int | None:
        return self._logged.get(digest)

    def size_bytes(self) -> int:
        """Approximate memory footprint (32-byte digest + int per entry)."""
        return len(self._logged) * 48
