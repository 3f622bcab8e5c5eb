"""DET00x rules: one triggering and one clean fixture per code."""

import textwrap

from repro.lint import lint_sources


def run(source, path="src/repro/sim/fixture.py", select=None):
    return lint_sources({path: textwrap.dedent(source)}, select=select)


def codes(findings):
    return [finding.code for finding in findings]


# --- DET001: wall clock -------------------------------------------------

def test_det001_flags_wall_clock_calls():
    findings = run(
        """
        import time
        from datetime import datetime

        def stamp():
            started = time.time()
            tick = time.monotonic()
            precise = time.perf_counter()
            wall = datetime.now()
            return started, tick, precise, wall
        """,
        select=["DET001"],
    )
    assert codes(findings) == ["DET001"] * 4


def test_det001_clean_inside_runtime_and_for_env_now():
    assert not run(
        """
        import time

        def bridge():
            return time.monotonic()
        """,
        path="src/repro/runtime/bridge.py",
        select=["DET001"],
    )
    assert not run(
        """
        def stamp(env):
            return env.now()
        """,
        select=["DET001"],
    )


# --- DET002: ambient randomness -----------------------------------------

def test_det002_flags_ambient_random():
    findings = run(
        """
        import random

        def jitter():
            a = random.random()
            b = random.randint(0, 10)
            rng = random.Random()
            srng = random.SystemRandom()
            return a, b, rng, srng
        """,
        select=["DET002"],
    )
    assert codes(findings) == ["DET002"] * 4


def test_det002_clean_for_seeded_and_injected_rng():
    assert not run(
        """
        import random

        def build(seed: int, rng: random.Random):
            local = random.Random(seed)
            return local.random() + rng.random()
        """,
        select=["DET002"],
    )
    # The stream factory itself is the one sanctioned construction site.
    assert not run(
        """
        import random

        def stream(seed):
            return random.Random(seed)
        """,
        path="src/repro/util/rng.py",
        select=["DET002"],
    )


# --- DET003: unordered iteration into hashing/encoding/emission ----------

def test_det003_flags_unordered_iteration_feeding_sinks():
    findings = run(
        """
        def digest(entries):
            return sha256(*entries.values())

        def frame(writer, entries):
            writer.put_structs([entry for entry in entries.keys()])

        def emit(env, peers):
            for peer in set(peers):
                env.send(peer, b"hello")
        """,
        select=["DET003"],
    )
    assert codes(findings) == ["DET003"] * 3


def test_det003_clean_when_sorted_or_order_insensitive():
    assert not run(
        """
        def digest(entries):
            return sha256(*sorted(entries.values()))

        def emit(env, peers):
            for peer in sorted(set(peers)):
                env.send(peer, b"hello")

        def total(sizes):
            return sum(size for size in sizes.values())
        """,
        select=["DET003"],
    )


# --- DET004: id()-based ordering ----------------------------------------

def test_det004_flags_id_ordering():
    findings = run(
        """
        def order(nodes, a, b):
            ranked = sorted(nodes, key=id)
            nodes.sort(key=lambda node: id(node))
            return ranked, id(a) < id(b)
        """,
        select=["DET004"],
    )
    assert codes(findings) == ["DET004"] * 3


def test_det004_clean_for_stable_keys_and_identity_checks():
    assert not run(
        """
        def order(nodes, a, b):
            ranked = sorted(nodes, key=lambda node: node.node_id)
            return ranked, id(a) == id(b)
        """,
        select=["DET004"],
    )


# --- DET005: float equality on deadlines ---------------------------------

def test_det005_flags_exact_deadline_equality():
    findings = run(
        """
        def fire(env, timer, expires_at):
            if timer.deadline == env.now():
                return True
            return env.now() != expires_at
        """,
        select=["DET005"],
    )
    assert codes(findings) == ["DET005"] * 2


def test_det005_clean_for_ordering_comparisons():
    assert not run(
        """
        def fire(kernel, timer, count):
            due = kernel.now >= timer.deadline
            return due and count == 5
        """,
        select=["DET005"],
    )


# --- DET006: event-loop clock in protocol code ---------------------------

def test_det006_flags_loop_time_in_protocol_code():
    findings = run(
        """
        def stamp(loop, event_loop):
            a = loop.time()
            b = event_loop.time()
            return a, b
        """,
        path="src/repro/core/layer.py",
        select=["DET006"],
    )
    assert codes(findings) == ["DET006"] * 2


def test_det006_flags_literal_asyncio_sleep_delays():
    findings = run(
        """
        import asyncio
        from asyncio import sleep

        async def settle():
            await asyncio.sleep(0.05)
            await sleep(2)
        """,
        path="src/repro/core/node.py",
        select=["DET006"],
    )
    assert codes(findings) == ["DET006"] * 2


def test_det006_flags_deprecated_get_event_loop_even_in_runtime():
    findings = run(
        """
        import asyncio

        def bind():
            return asyncio.get_event_loop()
        """,
        path="src/repro/runtime/asyncio_runtime.py",
        select=["DET006"],
    )
    assert codes(findings) == ["DET006"]


def test_det006_clean_for_runtime_adapters_and_variable_delays():
    # The runtime adapters are the sanctioned bridge to real time.
    assert not run(
        """
        import asyncio

        async def drive(loop, interval_s):
            loop.time()
            await asyncio.sleep(interval_s)
            await asyncio.sleep(0)
            asyncio.get_running_loop()
        """,
        path="src/repro/runtime/asyncio_runtime.py",
        select=["DET006"],
    )
    # Variable delays and non-loop receivers are fine in protocol code too.
    assert not run(
        """
        import asyncio

        async def drive(env, kernel, interval_s):
            env.now()
            kernel.time()
            await asyncio.sleep(interval_s)
        """,
        path="src/repro/core/layer.py",
        select=["DET006"],
    )


def test_det006_ignores_code_outside_repro():
    assert not run(
        """
        import asyncio

        async def wait(loop):
            loop.time()
            await asyncio.sleep(0.1)
            asyncio.get_event_loop()
        """,
        path="tools/example.py",
        select=["DET006"],
    )


def test_det007_flags_wall_clock_in_trace_emission():
    findings = run(
        """
        import time

        class Node:
            def rx(self, digest):
                self.tracer.emit("bus.rx", time.time(), self.id, digest=digest.hex())
        """,
        path="src/repro/core/node.py",
        select=["DET007"],
    )
    assert codes(findings) == ["DET007"]
    assert "env.now()" in findings[0].message


def test_det007_flags_ambient_formatting_in_trace_fields():
    findings = run(
        """
        class Node:
            def rx(self, env, state):
                self.tracer.emit("bus.rx", env.now(), self.id, keys=f"{state.keys()}")
                self.tracer.emit("bus.rx", env.now(), self.id, views=str({1, 2}))
                self.tracer.emit("bus.rx", env.now(), self.id, env_=repr(vars(self)))
        """,
        path="src/repro/core/node.py",
        select=["DET007"],
    )
    assert codes(findings) == ["DET007"] * 3


def test_det007_flags_wall_clock_in_metric_writes():
    findings = run(
        """
        import time

        def sample(counter, histogram):
            counter.inc(1)
            histogram.observe(time.monotonic())
        """,
        path="src/repro/obs/metrics.py",
        select=["DET007"],
    )
    assert codes(findings) == ["DET007"]


def test_det007_clean_for_scalar_fields_and_virtual_time():
    assert not run(
        """
        class Node:
            def rx(self, env, request, digest):
                self.tracer.emit("bus.rx", env.now(), self.id,
                                 digest=digest.hex(), link=request.source_link)
                self.tracer.emit("req.logged", env.now(), self.id,
                                 digest=digest.hex(), seq=len(self.log))
        """,
        path="src/repro/core/node.py",
        select=["DET007"],
    )


def test_det007_ignores_non_tracer_emit_and_plain_fstrings():
    # `.emit` on a non-tracer receiver and f-strings over opaque scalars
    # (whose rendering the linter cannot judge) are out of scope.
    assert not run(
        """
        import time

        def publish(signal, env):
            signal.emit("tick", time.time())

        class Node:
            def rx(self, env, view):
                self.tracer.emit("bus.rx", env.now(), self.id, label=f"view-{view}")
        """,
        path="src/repro/core/node.py",
        select=["DET007"],
    )


# --- DET008: causal emission funnel --------------------------------------

def test_det008_flags_clock_mutation_and_context_minting():
    findings = run(
        """
        from repro.obs.causal import CausalContext

        class Layer:
            def forge(self, env, origin):
                env.causal.lamport += 10
                env.causal.inbound = None
                self.clock.carry = True
                return CausalContext(origin=origin, lamport=99, parent=-1)
        """,
        path="src/repro/core/layer.py",
        select=["DET008"],
    )
    assert codes(findings) == ["DET008"] * 4


def test_det008_flags_forged_causal_annotations_on_emit():
    findings = run(
        """
        class Node:
            def rx(self, env, digest):
                self.tracer.emit("bus.rx", env.now(), self.id,
                                 digest=digest.hex(), lamport=7, cause="node-0#1")
        """,
        path="src/repro/core/node.py",
        select=["DET008"],
    )
    assert codes(findings) == ["DET008"] * 2


def test_det008_clean_inside_funnel_and_for_unrelated_state():
    # The emission funnel and the causal machinery own the clock.
    assert not run(
        """
        from repro.obs.causal import CausalClock, CausalContext

        class BaseEnv:
            def __init__(self, node_id):
                self.causal = CausalClock(node_id)

            def _emit(self, dsts, message):
                self._transport_emit(dsts, message, self.causal.stamp())

            def run_inbound(self, ctx, fn):
                previous = self.causal.inbound
                self.causal.inbound = ctx
                try:
                    fn()
                finally:
                    self.causal.inbound = previous
        """,
        path="src/repro/runtime/base.py",
        select=["DET008"],
    )
    # Same-named attributes on non-clock receivers are out of scope, as is
    # reading (never assigning) clock state.
    assert not run(
        """
        class Layer:
            def __init__(self):
                self.events = []
                self.inbound = None

            def snapshot(self, env):
                return env.causal.lamport
        """,
        path="src/repro/core/layer.py",
        select=["DET008"],
    )
