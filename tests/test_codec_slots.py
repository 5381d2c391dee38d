"""The codec slot: one writer, a fixed layer order, one store per entry.

Three of these cases pin bugs the six independent ``__dict__`` patchers
had (each fails on the commit before the slot existed): a tier commit
dropped the promoted op out of the profiler and the tracer, and
reconfiguring either of those after a promotion silently put the tier-0
codec back — without hotness — while the engine kept reporting tier 1.
The rest pin what the slot promises by construction: the disabled case
is the base function by identity, the order is the module constant
whatever order layers were turned on in, and swaps are atomic under
preempting threads.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import pytest

from repro import obs
from repro.obs import profile
from repro.runtime import StubServer
from repro.runtime.aio import ConnectionPool
from repro.runtime.tiering import TieringEngine, TierPolicy

from tests.test_tiering import (
    DbImpl,
    _TierRig,
    capture_requests,
    fill_window,
    fresh_db,
    make_hot,
)

HOT = ("_u_req_rev", "_m_rep_ok_rev")


@pytest.fixture(autouse=True)
def _observability_off():
    yield
    profile.shutdown()
    obs.shutdown()


def innermost(function):
    """Under every layer — and, for a ``closures`` entry its first call
    has compiled, under the deferred entry that hands over to it."""
    while hasattr(function, "__wrapped__"):
        function = function.__wrapped__
    return function


def assert_tier1_is_live(rig, tier1):
    """The module binds the tier-1 codecs, the engine says so, and the
    hotness counters still see every call."""
    module = rig.handle.module
    for name in HOT:
        assert innermost(getattr(module, name)) \
            is innermost(tier1[name]), name
    row = rig.engine.tier_summary()["rev"]
    assert (row["tier"], row["renderer"]) == (1, "closures")
    hot = rig.engine.hotness.hotness("rev")
    before = hot.calls
    rig.serve_all()
    assert hot.calls == before + len(HOT)


class TestPromotionSurvivesReconfiguration:
    def test_promoted_op_stays_profiled_and_traced(self):
        handle = fresh_db()
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        obs.instrument_stub_module(handle.module)
        profiler = profile.configure(sample=1)
        profile.instrument_stub_module(handle.module)
        rig = _TierRig(handle=handle)
        rig.promote("rev")
        sampled = profiler.profile("rev", "request").sampled
        decodes = len(exporter.by_name("decode"))
        encodes = len(exporter.by_name("encode"))
        rounds = 3
        for _ in range(rounds):
            rig.serve_all()  # one echo and one rev request per round
        assert profiler.profile("rev", "request").sampled \
            == sampled + rounds
        assert len(exporter.by_name("decode")) == decodes + 2 * rounds
        assert len(exporter.by_name("encode")) == encodes + 2 * rounds

    def test_profiler_restart_keeps_the_promoted_codec(self):
        handle = fresh_db()
        profile.configure(sample=4)
        profile.instrument_stub_module(handle.module)
        rig = _TierRig(handle=handle)
        tier1 = dict(rig.promote("rev").pending)
        profile.shutdown()
        assert_tier1_is_live(rig, tier1)
        profile.configure(sample=4)
        assert_tier1_is_live(rig, tier1)

    def test_tracer_restart_keeps_the_promoted_codec(self):
        handle = fresh_db()
        obs.instrument_stub_module(handle.module)
        rig = _TierRig(handle=handle)
        tier1 = dict(rig.promote("rev").pending)
        obs.configure(obs.CollectingExporter())
        assert_tier1_is_live(rig, tier1)
        obs.shutdown()
        assert_tier1_is_live(rig, tier1)


class TestSlotContract:
    def test_all_layers_off_is_the_base_by_identity(self):
        """Any seeded walk of layer on/off and base swaps that ends
        with every layer off leaves each entry bound to its base."""
        from repro.core.codecs import LAYER_ORDER

        handle = fresh_db()
        slots = handle.codecs
        module = handle.module
        names = [slot.name for slot in slots.entries()]
        originals = {name: getattr(module, name) for name in names}
        assert all(slots.base(name) is originals[name] for name in names)

        def layer(slot, inner):
            def wrapper(*args):
                return inner(*args)
            wrapper.__wrapped__ = inner
            return wrapper

        rng = random.Random(14)
        for _ in range(200):
            some = rng.sample(names, rng.randrange(1, len(names)))
            action = rng.randrange(3)
            if action == 0:
                slots.set_layer(rng.choice(LAYER_ORDER), layer, some)
            elif action == 1:
                slots.set_layer(rng.choice(LAYER_ORDER), None, some)
            else:
                slots.set_base(handle.recompile(
                    "rev", renderer=rng.choice(("py", "closures")),
                    install=False))
            for name in names:
                assert innermost(getattr(module, name)) \
                    is slots.base(name)
        for name in LAYER_ORDER:
            slots.set_layer(name, None)
        for name in names:
            assert getattr(module, name) is slots.base(name), name
        assert all(row["layers"] == []
                   for row in slots.describe().values())
        # Entries no base swap touched are the compiled originals.
        assert module._u_req_echo is originals["_u_req_echo"]

    def test_order_is_the_constant_not_the_call_order(self):
        from repro.core.codecs import LAYER_ORDER

        slots = fresh_db().codecs

        def tagging(tag):
            def factory(slot, inner):
                def wrapper(*args):
                    return inner(*args)
                wrapper.tag = tag
                wrapper.__wrapped__ = inner
                return wrapper
            return factory

        for name in reversed(LAYER_ORDER):
            slots.set_layer(name, tagging(name), ["_u_req_rev"])
        function, seen = slots.module._u_req_rev, []
        while hasattr(function, "__wrapped__"):
            seen.append(function.tag)
            function = function.__wrapped__
        assert seen == list(reversed(LAYER_ORDER))  # outermost first
        assert function is slots.base("_u_req_rev")

    def test_one_store_per_entry_and_subscribers_hear_each_op(self):
        handle = fresh_db()
        slots = handle.codecs
        heard = []
        slots.subscribe(lambda op, names: heard.append((op, set(names))))
        new = handle.recompile("rev", renderer="closures")
        assert heard == [("rev", set(new))]
        assert handle.module._u_req_rev is new["_u_req_rev"]
        del heard[:]
        slots.set_layer("trace", None)  # already off: nothing to store
        assert heard == []

    def test_describe_names_renderer_and_layers(self):
        handle = fresh_db()
        assert handle.codecs.describe()["rev"] \
            == {"renderer": "py", "layers": []}
        profile.configure(sample=8)
        profile.instrument_stub_module(handle.module)
        rig = _TierRig(handle=handle)
        rig.promote("rev")
        described = handle.codecs.describe()
        assert described["rev"] \
            == {"renderer": "closures", "layers": ["profile", "hotness"]}
        assert described["echo"]["renderer"] == "py"
        assert sorted(described) == handle.operations()

    def test_replace_base_only_over_the_base_it_names(self):
        """How a deferred ``closures`` entry hands over: compare and
        set, so a base somebody set in the meantime is not undone."""
        handle = fresh_db()
        slots = handle.codecs
        old = slots.base("_u_req_rev")
        heard = []
        slots.subscribe(lambda op, names: heard.append(names))

        def newer(d, o):
            return old(d, o)

        def stale(d, o):
            return old(d, o)

        slots.replace_base("_u_req_rev", old, newer)
        assert slots.base("_u_req_rev") is handle.module._u_req_rev is newer
        slots.replace_base("_u_req_rev", old, stale)  # old is not the base
        assert slots.base("_u_req_rev") is handle.module._u_req_rev is newer
        assert heard == [("_u_req_rev",)]

    def test_non_codec_names_are_refused(self):
        handle = fresh_db()
        before = handle.module._u_req_rev
        with pytest.raises(KeyError):
            handle.codecs.set_base({"_u_req_rev": lambda d, o: ((), o),
                                    "dispatch": lambda *a: None})
        assert handle.module._u_req_rev is before  # nothing applied


class TestAtomicUnderThreads:
    def test_swaps_are_invisible_to_20k_thread_dispatched_calls(self):
        """Thread-dispatched traffic under a 0.01 ms switch interval
        while a control thread cycles the profile layer and forces
        promote -> commit -> revert of the same op: every reply is the
        quiescent reply, no call fails, and the stack left behind is
        the one the final control-plane state implies."""
        calls, callers = 20000, 32
        handle = fresh_db()
        reference = fresh_db()
        frames = capture_requests(handle.module, [
            ("echo", (b"x" * 40,)),
            ("rev", (list(range(24)),)),
        ])
        ref_server = StubServer(reference.module, DbImpl())
        expected = [ref_server.serve_bytes(frame) for frame in frames]
        policy = TierPolicy(threshold=1, hysteresis=0.0,
                            min_timed_samples=1, max_retries=10 ** 9)
        engine = TieringEngine(handle, policy=policy).attach()
        profile.instrument_stub_module(handle.module)
        state = engine.ops["rev"]
        hot = engine.hotness.hotness("rev")
        tier0 = {name: handle.codecs.base(name) for name in HOT}
        server = StubServer(handle.module, DbImpl()).aio_server(
            dispatch_mode="thread", max_concurrency=8)
        done = threading.Event()
        cycles = []

        def control():
            while not done.is_set():
                profile.configure(sample=2)
                make_hot(engine, "rev")
                engine.poll_once()  # tier0 -> shadow
                deadline = time.monotonic() + 5.0
                while state.state == "shadow" and not done.is_set() \
                        and time.monotonic() < deadline:
                    time.sleep(0.0005)  # traffic verifies and commits
                profile.shutdown()
                if state.state == "tier1":
                    state.baseline = 1e-12
                    fill_window(hot, seconds=1.0, nbytes=1, samples=1)
                    engine.poll_once()  # reverted_slow -> tier0
                    cycles.append(state.state)

        async def main():
            pool = ConnectionPool(*server.address, pool_size=4)
            positions = iter(range(calls))
            wrong = []

            async def caller():
                for position in positions:
                    reply = await pool.acall(frames[position % 2])
                    if reply != expected[position % 2]:
                        wrong.append(position)

            try:
                await asyncio.wait_for(
                    asyncio.gather(*[caller() for _ in range(callers)]),
                    timeout=120)
            finally:
                await pool.aclose()
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        controller = threading.Thread(target=control)
        try:
            with server:
                controller.start()
                try:
                    wrong = asyncio.run(main())
                finally:
                    done.set()
                    controller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not controller.is_alive()
        assert wrong == []
        assert len(cycles) >= 3 and set(cycles) == {"tier0"}
        # The final stack is what the control plane's state implies.
        assert not profile.enabled()
        layers = ["hotness"] + ["shadow"] * (state.state == "shadow")
        row = handle.codecs.describe()["rev"]
        assert row["layers"] == layers
        base = state.pending if state.tier else tier0
        assert row["renderer"] == ("closures" if state.tier else "py")
        for name in HOT:
            assert innermost(handle.codecs.base(name)) \
                is innermost(base[name])
            assert innermost(getattr(handle.module, name)) \
                is innermost(base[name])
