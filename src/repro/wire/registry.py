"""The envelope functions under their older import path.

They live in :mod:`repro.wire.codec`, next to the class statement that
registers a tag; ``perfbench/layers.py`` still imports them from here.
"""

from repro.wire.codec import decode_message, encode_message, registered_types

__all__ = ["decode_message", "encode_message", "registered_types"]
