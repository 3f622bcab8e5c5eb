"""Golden zuglint findings: a seeded corpus and the checked-in findings.

Every registered rule code has at least one corpus entry here: a minimal
crate of in-memory sources whose pretend paths put it in the rule's
scope, and which must fire that code.  A few further entries (named
``CODE.<shape>``) drive the statement walkers through loops, ``try``
blocks, ``with`` blocks and early exits.  ``golden_findings.json`` pins
every finding (code, path, line, col, anchor, message) on each corpus
entry and on the repository's own trees, so a refactor of the analysis
must reproduce them exactly.

The corpus lives in strings, so ``python -m repro.lint src/ tests/``
never parses it as code.  ``test_golden_findings.py`` checks the corpus
under pytest; this module is also a CLI that checks the corpus and the
trees (run from the repository root)::

    PYTHONPATH=src python tests/lint/golden_findings.py --check

and, after a *deliberate* change to what a rule reports::

    PYTHONPATH=src python tests/lint/golden_findings.py --write
"""

import argparse
import json
import os
import sys
import textwrap
from pathlib import Path

from repro.lint import lint_paths, lint_sources

GOLDEN_PATH = Path(__file__).with_name("golden_findings.json")
ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "perfbench", "benchmarks", "examples")

REGENERATE_CMD = "PYTHONPATH=src python tests/lint/golden_findings.py --write"


CORPUS: dict[str, dict[str, str]] = {
    # -- ast stage: determinism ---------------------------------------------
    "DET001": {"src/repro/sim/det001.py": """
        import time

        def stamp():
            return time.time()
        """},
    "DET002": {"src/repro/sim/det002.py": """
        import random

        def jitter():
            return random.random()
        """},
    "DET003": {"src/repro/sim/det003.py": """
        def digest(entries):
            return sha256(*entries.values())
        """},
    "DET004": {"src/repro/sim/det004.py": """
        def order(nodes):
            return sorted(nodes, key=id)
        """},
    "DET005": {"src/repro/sim/det005.py": """
        def fire(env, timer):
            return timer.deadline == env.now()
        """},
    "DET006": {"src/repro/core/det006.py": """
        def stamp(loop):
            return loop.time()
        """},
    "DET007": {"src/repro/core/det007.py": """
        import time

        class Node:
            def rx(self, digest):
                self.tracer.emit("bus.rx", time.time(), self.id, digest=digest.hex())
        """},
    "DET008": {"src/repro/core/det008.py": """
        class Layer:
            def forge(self, env):
                env.causal.lamport += 10
        """},
    # -- ast stage: protocol ------------------------------------------------
    "PROTO001": {"src/repro/export/messages.py": """
        @dataclass(frozen=True)
        class Ping(WireStruct):
            seq: int

        @dataclass(frozen=True)
        class Pong(WireStruct, tag=1):
            seq: int
        """},
    "PROTO003": {"src/repro/core/proto003.py": """
        def on_request(node, raw):
            try:
                node.deliver(raw)
            except Exception:
                pass
        """},
    "PROTO004": {"src/repro/core/proto004.py": """
        def enqueue(item, queue=[]):
            queue.append(item)
        """},
    # -- flow stage -----------------------------------------------------------
    "FLOW001": {"src/repro/core/flow001.py": """
        import time
        from dataclasses import dataclass

        from repro.wire.codec import WireStruct

        @dataclass(frozen=True)
        class Stamp(WireStruct):
            at_us: int

        def _now_us():
            return int(time.time() * 1e6)

        def _freshness():
            return _now_us() + 1

        class Stamper:
            def stamp(self):
                return Stamp(at_us=_freshness())
        """},
    "FLOW001.params": {"src/repro/core/flow001p.py": """
        import time

        class Log:
            def note(self, value):
                self._store(value)

            def _store(self, value):
                self.entries[value] = True

            def tick(self):
                stamp = 0
                for _ in range(3):
                    self.note(stamp)
                    stamp = time.time()
                while stamp:
                    writer.put_uint({stamp})
                    break
                with self.lock:
                    self.last = stamp
        """},
    "FLOW002": {"src/repro/bft/flow002.py": """
        class Ping:
            pass

        class Pong:
            pass

        class Backend:
            def on_message(self, src, message):
                if isinstance(message, Ping):
                    self._on_ping(src, message)
                elif isinstance(message, Pong):
                    self._on_pong(src, message)

            def _on_ping(self, src, message):
                self._seen[message.seq] = message
                if not message.verify(self.keystore):
                    return

            def _on_pong(self, src, message):
                if not message.verify(self.keystore):
                    self.rejected += 1
                    return
                self._seen[message.seq] = message
        """},
    "FLOW002.shapes": {"src/repro/bft/flow002s.py": """
        class Ping:
            pass

        class Pong:
            pass

        class Pang:
            pass

        class Backend:
            def on_message(self, src, message):
                if isinstance(message, Ping):
                    self._on_ping(message)
                elif isinstance(message, Pong):
                    self._on_pong(message)
                elif isinstance(message, Pang):
                    self._on_pang(message)

            def _on_ping(self, message):
                try:
                    ok = message.verify(self.keystore)
                except ValueError:
                    self.log.append(message)
                    return
                finally:
                    self.count += 1
                self._store(message)

            def _on_pong(self, message):
                for vote in message.votes:
                    if vote.bad:
                        continue
                    self.votes.add(vote)
                else:
                    self.done = True
                while self.pending:
                    if self.is_member(message.sender):
                        break
                with self.lock:
                    self.pending.pop()

            def _on_pang(self, message):
                if message.kind:
                    if not message.verify(self.keystore):
                        return
                    state = self.table
                else:
                    raise ValueError("unknown")
                state[message.seq] = message
                self._store(message)

            def _store(self, message):
                self.log.append(message)
        """},
    "FLOW003": {
        "src/repro/core/cratemsgs.py": """
        from dataclasses import dataclass
        from repro.wire.codec import WireStruct

        @dataclass(frozen=True)
        class Ping(WireStruct, tag=1):
            seq: int

        @dataclass(frozen=True)
        class Pong(WireStruct, tag=2):
            seq: int

        @dataclass(frozen=True)
        class Loose(WireStruct):
            seq: int
        """,
        "src/repro/core/cratebackend.py": """
        from repro.core.cratemsgs import Ping, Pong, Loose

        class Backend:
            def handle_message(self, src, message):
                if isinstance(message, Ping):
                    return 1
                if isinstance(message, Loose):
                    return 2
        """,
    },
    # -- aio stage ------------------------------------------------------------
    "ASYNC001": {"src/repro/svc/async001.py": """
        import asyncio

        class Registry:
            async def bump(self):
                count = self._count
                await self._hop()
                self._count = count + 1

            async def _hop(self):
                await asyncio.sleep(0.1)
        """},
    "ASYNC001.shapes": {"src/repro/svc/async001s.py": """
        import asyncio

        class Registry:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def branches(self, flag):
                if flag:
                    seen = self._seen
                else:
                    seen = None
                try:
                    await asyncio.sleep(0)
                except OSError:
                    self._errors = self._errors + 1
                finally:
                    self._seen = seen
                for item in self._items:
                    self._items = [item]
                    await asyncio.sleep(0)
                while self._open:
                    await asyncio.sleep(0)
                    self._open = False
                async with self._lock:
                    total = self._total
                    await asyncio.sleep(0)
                    self._total = total + 1
                async for chunk in self.stream():
                    self._last = chunk
                self._tail.append(self._head)
                await asyncio.sleep(0)
                self._head = None
        """},
    "ASYNC002": {"src/repro/svc/async002.py": """
        import asyncio

        async def main(worker):
            asyncio.create_task(worker())
        """},
    "ASYNC003": {"src/repro/svc/async003.py": """
        import time

        def _pause():
            time.sleep(1)

        async def pause():
            _pause()
        """},
    "ASYNC004": {"src/repro/svc/async004.py": """
        import asyncio

        async def dial(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"hello")
            await writer.drain()
            return writer
        """},
    "ASYNC005": {"src/repro/svc/async005.py": """
        class Node:
            async def flush(self):
                return 1

            def tick(self):
                self.flush()
        """},
    "ASYNC006": {"src/repro/svc/async006.py": """
        import asyncio

        class Ingest:
            def __init__(self):
                self._inbox = asyncio.Queue()
        """},
    # -- sm stage -------------------------------------------------------------
    "SM001": {"src/repro/bft/sm001.py": """
        class Vote:
            pass

        class Commit:
            pass

        class Replica:
            def on_message(self, src, message):
                if isinstance(message, Vote):
                    self._on_vote(message)
                elif isinstance(message, Commit):
                    self._on_commit(message)

            def _on_vote(self, message):
                self.votes[message.replica_id] = message
                if len(self.votes) >= 3:
                    self._decide()

            def _on_commit(self, message):
                quorum = 2 * self.config.f + 1
                self.commits[message.replica_id] = message
                if len(self.commits) >= quorum:
                    self._decide()

            def _decide(self):
                pass
        """},
    "SM002": {"src/repro/bft/sm002.py": """
        class Vote:
            pass

        class CommitCert:
            votes: tuple[Vote, ...] = ()

            def verify(self, keystore, config):
                for vote in self.votes:
                    if not vote.verify(keystore):
                        return False
                return len(self.votes) >= config.quorum
        """},
    "SM003": {"src/repro/bft/sm003.py": """
        class Prepare:
            pass

        class Cert:
            pass

        class Replica:
            def on_message(self, src, message):
                if isinstance(message, Prepare):
                    self._on_prepare(message)
                elif isinstance(message, Cert):
                    self._on_cert(message)

            def _on_prepare(self, message):
                if not message.verify(self.keystore):
                    return
                instance = self.instances[message.seq]
                instance.prepared = True

            def _on_cert(self, cert):
                if not self._cert_ok(cert):
                    return
                self._apply(cert)

            def _cert_ok(self, cert):
                signers = {vote.replica_id for vote in cert.votes}
                return len(signers) >= self.config.quorum

            def _apply(self, cert):
                instance = self.instances[cert.seq]
                instance.certified = True
        """},
    "SM003.shapes": {"src/repro/bft/sm003s.py": """
        class Prepare:
            pass

        class Commit:
            pass

        class Replica:
            def on_message(self, src, message):
                if isinstance(message, Prepare):
                    self._on_prepare(message)
                elif isinstance(message, Commit):
                    self._on_commit(message)

            def _on_prepare(self, message):
                try:
                    ok = len(self.prepares) >= self.config.quorum
                except KeyError:
                    return
                self.instance.prepared = True
                for entry in self.backlog:
                    if len(entry.votes) >= self.config.quorum:
                        entry.prepared = True
                        break
                else:
                    self.last.prepared = True
                with self.lock:
                    while self.pending:
                        self.pending.pop().committed = True

            def _on_commit(self, message):
                if len(self.commits) < self.config.quorum:
                    return
                self.instance.committed = True
                self._finish(message)

            def _finish(self, message):
                self.instance.certified = True
        """},
    "SM004": {"src/repro/bft/sm004.py": """
        class StatusMsg:
            pass

        class Node:
            def on_message(self, src, message):
                if isinstance(message, StatusMsg):
                    self._on_status(message)

            def _on_status(self, message):
                self.view = message.view
        """},
    "SM005": {"src/repro/bft/sm005.py": """
        class Tracker:
            def on_seq(self, message):
                if message.seq == self.view:
                    self.hits += 1
        """},
    "SM006": {"src/repro/bft/sm006.py": """
        class ChainError(Exception):
            pass

        class Submit:
            pass

        class Query:
            pass

        class Node:
            def handle_message(self, src, message):
                if isinstance(message, Submit):
                    self._on_submit(message)
                elif isinstance(message, Query):
                    self._on_query(message)

            def _on_submit(self, message):
                if not message.verify(self.keystore):
                    raise ChainError("bad signature")
                self._append(message)

            def _append(self, message):
                if message.height != self.height + 1:
                    raise ChainError("height gap")
                self.height = message.height

            def _on_query(self, message):
                try:
                    self._append(message)
                except ChainError:
                    self.rejected += 1
        """},
    "SM006.shapes": {"src/repro/bft/sm006s.py": """
        class ChainError(Exception):
            pass

        class SyncError(ChainError):
            pass

        class Submit:
            pass

        class Query:
            pass

        class Node:
            def handle_message(self, src, message):
                if isinstance(message, Submit):
                    self._on_submit(message)
                elif isinstance(message, Query):
                    try:
                        self._walk(message)
                    finally:
                        self.seen += 1

            def _on_submit(self, message):
                for part in message.parts:
                    if part.bad:
                        raise SyncError("bad part")
                while message.more:
                    try:
                        self._walk(message)
                    except (SyncError, KeyError):
                        continue
                with self.lock:
                    raise ChainError("locked")

            def _walk(self, message):
                if message.depth > 3:
                    raise KeyError(message.depth)
                self._walk(message.child)
        """},
}


def _records(findings) -> list[dict]:
    return [
        {"code": f.code, "path": f.path, "line": f.line, "col": f.col,
         "anchor": f.anchor, "message": f.message}
        for f in findings
    ]


def corpus_findings(name: str) -> list[dict]:
    """Every finding, from every rule, on one corpus entry."""
    sources = {path: textwrap.dedent(text) for path, text in CORPUS[name].items()}
    return _records(lint_sources(sources))


def tree_findings(tree: str) -> list[dict]:
    """Every finding, from every rule and with no baseline, on one tree."""
    return _records(lint_paths([tree]))


def current_findings(trees: bool = True) -> dict:
    golden = {"corpus": {name: corpus_findings(name) for name in sorted(CORPUS)}}
    if trees:
        golden["trees"] = {tree: tree_findings(tree) for tree in TREES}
    return golden


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def diff_golden(trees: bool = True) -> list[str]:
    """Human-readable differences between the current and checked-in findings."""
    current, golden = current_findings(trees), load_golden()
    problems = []
    for section in current:
        for name in sorted(set(current[section]) | set(golden.get(section, {}))):
            want = golden.get(section, {}).get(name)
            got = current[section].get(name)
            if want != got:
                problems.append(f"{section}/{name}: golden {want!r} != current {got!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against golden_findings.json (exit 1 on drift)")
    mode.add_argument("--write", action="store_true",
                      help="regenerate golden_findings.json")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(current_findings(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    problems = diff_golden()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"zuglint findings drifted; after a deliberate change run: {REGENERATE_CMD}",
              file=sys.stderr)
        return 1
    print(f"OK: {len(CORPUS)} corpus entries and {len(TREES)} trees match {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
