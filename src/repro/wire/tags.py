"""Loads every module that declares a tagged message.

A message's wire tag is on its class statement and registers when the class
is created, so :func:`~repro.wire.codec.registered_types` lists the tagged
classes of the loaded modules.  Importing this module loads all of them, as
``perfbench/layers.py`` does before it wraps each registered class.
"""

import repro.bft.checkpoint  # noqa: F401
import repro.bft.client  # noqa: F401
import repro.bft.linear  # noqa: F401
import repro.bft.messages  # noqa: F401
import repro.chain.block  # noqa: F401
import repro.core.messages  # noqa: F401
import repro.core.statesync  # noqa: F401
import repro.export.messages  # noqa: F401
import repro.obs.causal  # noqa: F401
import repro.wire.messages  # noqa: F401
