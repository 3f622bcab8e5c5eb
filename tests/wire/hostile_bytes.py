"""Hostile bytes at every decoder: mutated frames must fail cleanly or round-trip.

Every tagged message type (through the tagged envelope, as it crosses a
socket; every ``repro`` module is imported, so none escapes) plus the two bus
structs starts from a known-good frame; seeded mutations — bit flips,
truncation, inserted and deleted bytes, bytes forced to
``00``/``7f``/``80``/``ff`` — are thrown at its decoder.  The property:
decoding raises :class:`CodecError`, or returns a value whose encoding equals
the bytes consumed.  Anything else (``IndexError``, ``UnicodeDecodeError``,
``MemoryError``, two frames for one message) is a finding.

``test_hostile_bytes.py`` runs a fixed-seed slice of this under pytest; this
module is also a CLI so CI can explore fresh seeds on every run::

    PYTHONPATH=src python tests/wire/hostile_bytes.py --rounds 200000 --seed 7

A finding prints the seed, round, type and hex frame and exits 1; paste the
hex into :func:`check` to reproduce it.
"""

import argparse
import importlib
import json
import pkgutil
import random
import sys
from pathlib import Path

import repro
from repro.bus.frames import BusCycleData, ProcessDataFrame
from repro.util.errors import CodecError
from repro.wire import decode_message, encode_message, registered_types

# Every module, so no registered type escapes the mutations.
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith(".__main__"):
        importlib.import_module(_module.name)

GOLDEN = json.loads(Path(__file__).with_name("golden_bytes.json").read_text())

EDGE_BYTES = (0x00, 0x7F, 0x80, 0xFF)

_CYCLE = BusCycleData(cycle_no=7, timestamp_us=448_000, frames=(
    ProcessDataFrame.create(0x101, b"\x01\x02\x03"),
    ProcessDataFrame.create(0x2FF, b""),
))


def _bare(cls):
    """Decode/encode pair for a struct that travels without the tagged envelope."""
    return (lambda frame: (cls.decode(frame), len(frame))), (lambda value: value.encode())


#: type name -> (good frame, decode(frame) -> (value, consumed), encode(value))
TARGETS = {
    cls.__name__: (bytes.fromhex(GOLDEN[cls.__name__]), decode_message, encode_message)
    for cls in registered_types().values()
}
TARGETS["BusCycleData"] = (_CYCLE.encode(), *_bare(BusCycleData))
TARGETS["ProcessDataFrame"] = (_CYCLE.frames[0].encode(), *_bare(ProcessDataFrame))


def mutate(rng: random.Random, frame: bytes) -> bytes:
    """``frame`` after one to three random edits."""
    data = bytearray(frame)
    for _ in range(rng.randint(1, 3)):
        if not data:
            data.append(rng.randrange(256))
            continue
        edit, at = rng.randrange(5), rng.randrange(len(data))
        if edit == 0:
            data[at] ^= 1 << rng.randrange(8)
        elif edit == 1:
            del data[at:]
        elif edit == 2:
            data.insert(at, rng.randrange(256))
        elif edit == 3:
            del data[at]
        else:
            data[at] = rng.choice(EDGE_BYTES)
    return bytes(data)


def check(name: str, frame: bytes) -> None:
    """Raise unless ``name``'s decoder rejects ``frame`` cleanly or round-trips it."""
    _, decode, encode = TARGETS[name]
    try:
        value, consumed = decode(frame)
    except CodecError:
        return
    again = encode(value)
    if again != frame[:consumed]:
        raise AssertionError(f"accepted {frame[:consumed].hex()} but re-encodes to {again.hex()}")


def run(rounds: int, seed: int, names=None) -> str | None:
    """Fuzz for ``rounds`` mutations; the first finding as text, or ``None``."""
    rng = random.Random(seed)
    names = sorted(names or TARGETS)
    for index in range(rounds):
        name = rng.choice(names)
        frame = mutate(rng, TARGETS[name][0])
        try:
            check(name, frame)
        except Exception as exc:  # the boundary: every escape is the finding
            return (f"seed {seed} round {index}: {name} {frame.hex()}\n"
                    f"  {type(exc).__name__}: {exc}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Throw mutated frames at every wire decoder.")
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    finding = run(args.rounds, args.seed)
    if finding:
        print(finding, file=sys.stderr)
        return 1
    print(f"hostile bytes OK ({args.rounds} rounds over {len(TARGETS)} types, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
