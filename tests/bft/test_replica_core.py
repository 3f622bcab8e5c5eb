"""The two backends share one replica core and fork none of it."""

import pytest

from repro.bft import BACKENDS, ReplicaCore

#: What a backend is expected to bring: its dispatch, its quorum handlers,
#: and the three hooks.  Everything else ``ReplicaCore`` defines is the core.
HOOKS = {"_endorse", "_survives_view_change", "_after_execute"}
CORE = {name for name, value in vars(ReplicaCore).items()
        if (callable(value) or isinstance(value, property)) and not name.startswith("__")}


def test_the_core_holds_everything_but_the_ordering_phase():
    assert CORE - HOOKS >= {
        "primary_id", "is_primary", "log_size_bytes", "stable_checkpoint",
        "latest_stable_checkpoint", "stable_checkpoint_seqs", "discard_checkpoints_below",
        "fast_forward", "adopt_view", "propose", "suspect", "_instance", "_in_watermarks",
        "_on_preprepare", "_execute_ready", "record_checkpoint", "_on_checkpoint",
        "_handle_checkpoint", "_garbage_collect", "_start_view_change", "_on_view_change",
        "_maybe_assume_leadership", "_new_view_preprepares", "_on_new_view", "_enter_view",
    }


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_backend_redefines_no_core_method(backend):
    # The next recovery fix lands in the core, so in both backends.
    replica_cls = BACKENDS[backend]
    assert ReplicaCore in replica_cls.__mro__
    forked = (CORE - HOOKS) & set(vars(replica_cls))
    assert not forked, f"{replica_cls.__name__} forks {sorted(forked)} from ReplicaCore"
    assert HOOKS - {"_after_execute"} <= set(vars(replica_cls))
    assert {"on_message", "vote_is_redundant", "MESSAGE_TYPES", "KINDS", "INSTANCE"} \
        <= set(vars(replica_cls))
