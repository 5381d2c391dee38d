"""The codec slot: one writer, a fixed layer order, one store per entry.

Three of these cases pin bugs the six independent ``__dict__`` patchers
had (each fails on the commit before the slot existed): a base swap
dropped the swapped op out of the profiler and the tracer, and
reconfiguring either of those after a swap silently put the old codec
back.  The rest pin what the slot promises by construction: the
disabled case is the base function by identity, the order is the module
constant whatever order layers were turned on in, swaps are atomic
under preempting threads and invisible on the wire under live traffic,
and early-bound consumers (the gateway's plans) hear of every one.

The base swaps here are the ones the system still makes —
``install_closures`` over a loaded module, then each deferred entry's
first-call ``replace_base`` — plus :func:`rebuilt`, a stand-in for any
other producer of base functions.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading

import pytest

from repro import Flick, obs
from repro.core.codecs import LAYER_ORDER, codec_form
from repro.core.handle import CompiledInterface
from repro.mir.render_closures import compile_function, install_closures
from repro.obs import profile
from repro.runtime import StubServer, TcpClientTransport
from repro.runtime.aio import ConnectionPool
from repro.runtime.framing import RecordDecoder, encode_record

from tests.conftest import DB_IDL, MAIL_IDL, MailImpl
from tests.test_fuzz_wire import DbImpl, _capture_requests

REV = ("_m_rep_ok_rev", "_m_req_rev", "_u_rep_rev", "_u_req_rev")


@pytest.fixture(autouse=True)
def _observability_off():
    yield
    profile.shutdown()
    obs.shutdown()


def fresh_db():
    """A fresh compile per test: these tests mutate the module dict, so
    the cached conftest compilations must never be used here."""
    return Flick(frontend="oncrpc").compile(DB_IDL)


def rebuilt(handle, op):
    """New base functions for *op*'s entries: their rendered text
    compiled once more, over a copy of the loaded ``py`` module's
    globals (consts and helpers are already there)."""
    G = dict(vars(handle.module))
    return {fn.name: compile_function(fn, G, handle.module)
            for fn in handle.mir.functions if fn.operation == op}


def innermost(function):
    """Under every layer — and, for a ``closures`` entry its first call
    has compiled, under the deferred entry that hands over to it."""
    while hasattr(function, "__wrapped__"):
        function = function.__wrapped__
    return function


def is_compiled_text(function, module):
    """*function* is what a deferred entry's first call produced."""
    return function.__code__.co_filename.startswith(
        "<%s.%s_" % (module.__name__, function.__name__))


class _Rig:
    """A handle and a never-touched reference sharing one workload."""

    def __init__(self):
        self.handle = fresh_db()
        self.server = StubServer(self.handle.module, DbImpl())
        self.ref_server = StubServer(fresh_db().module, DbImpl())
        self.frames = _capture_requests(self.handle.module, [
            ("echo", (b"payload" * 16,)),
            ("rev", ([7, 1, 4, 4, 2] * 8,)),
        ])

    def serve_all(self):
        """One round of every frame; asserts wire byte-identity."""
        for frame in self.frames:
            assert self.server.serve_bytes(frame) \
                == self.ref_server.serve_bytes(frame), \
                "a base swap changed wire bytes"

    def swap(self, op="rev"):
        new = rebuilt(self.handle, op)
        self.handle.codecs.set_base(new)
        return new

    def assert_live(self, new):
        """The module binds *new* under whatever layers are on, and the
        slots agree."""
        for name, function in new.items():
            assert self.handle.codecs.base(name) is function, name
            assert innermost(getattr(self.handle.module, name)) \
                is function, name
        self.serve_all()


class TestCompiledInterface:
    def test_compile_returns_handle(self):
        handle = fresh_db()
        assert isinstance(handle, CompiledInterface)
        assert handle.module is handle.stubs.load()
        assert handle.module is handle.module  # cached, same object
        assert handle.renderer == handle.stubs.renderer

    def test_operations_sorted(self):
        assert fresh_db().operations() == ["count", "echo", "lookup",
                                           "rev", "store"]

    def test_codec_form(self):
        assert codec_form("_u_req_rev") == ("u_req", "rev")
        assert codec_form("_m_rep_ok_rev") == ("m_rep_ok", "rev")
        assert codec_form("_m_rep_x1_send") == ("m_rep_exc", "send")
        assert codec_form("dispatch") == (None, None)

    def test_codec_table_is_live(self):
        handle = fresh_db()
        table = handle.codec_table
        assert "_u_req_rev" in table["rev"]
        assert table["rev"]["_u_req_rev"] is handle.module._u_req_rev
        # Swap an entry underneath; the table reflects it on re-read.
        sentinel = lambda d, o: ((), o)  # noqa: E731
        handle.module.__dict__["_u_req_rev"] = sentinel
        assert handle.codec_table["rev"]["_u_req_rev"] is sentinel

    def test_missing_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            fresh_db().definitely_not_an_attribute


class TestBaseSwapSurvivesReconfiguration:
    def test_swapped_op_stays_profiled_and_traced(self):
        rig = _Rig()
        module = rig.handle.module
        exporter = obs.CollectingExporter()
        obs.configure(exporter)
        obs.instrument_stub_module(module)
        profiler = profile.configure(sample=1)
        profile.instrument_stub_module(module)
        rig.swap("rev")
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

    def test_profiler_restart_keeps_the_swapped_base(self):
        rig = _Rig()
        profile.configure(sample=4)
        profile.instrument_stub_module(rig.handle.module)
        new = rig.swap("rev")
        profile.shutdown()
        rig.assert_live(new)
        profile.configure(sample=4)
        rig.assert_live(new)
        assert rig.handle.module._u_req_rev is not new["_u_req_rev"]

    def test_tracer_restart_keeps_the_swapped_base(self):
        rig = _Rig()
        obs.instrument_stub_module(rig.handle.module)
        new = rig.swap("rev")
        obs.configure(obs.CollectingExporter())
        rig.assert_live(new)
        assert rig.handle.module._u_req_rev is not new["_u_req_rev"]
        obs.shutdown()
        rig.assert_live(new)


class TestSlotContract:
    def test_all_layers_off_is_the_base_by_identity(self):
        """Any seeded walk of layer on/off and base swaps that ends
        with every layer off leaves each entry bound to its base."""
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
            action = rng.randrange(3)
            if action == 0:
                slots.set_layer(rng.choice(LAYER_ORDER), layer)
            elif action == 1:
                slots.set_layer(rng.choice(LAYER_ORDER), None)
            else:
                slots.set_base(rebuilt(handle, rng.choice(("rev", "store"))))
            for name in names:
                assert innermost(getattr(module, name)) \
                    is slots.base(name)
        for name in LAYER_ORDER:
            slots.set_layer(name, None)
        for name in names:
            assert getattr(module, name) is slots.base(name), name
        # Entries no base swap touched are the compiled originals.
        assert module._u_req_echo is originals["_u_req_echo"]
        assert module._u_req_rev is not originals["_u_req_rev"]

    def test_order_is_the_constant_not_the_call_order(self):
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
            slots.set_layer(name, tagging(name))
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
        new = rebuilt(handle, "rev")
        assert set(new) == set(REV)
        slots.set_base(new)
        assert heard == [("rev", set(new))]
        assert handle.module._u_req_rev is new["_u_req_rev"]
        del heard[:]
        slots.set_layer("trace", None)  # already off: nothing to store
        assert heard == []

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
        while a control thread cycles the profile layer and swaps the
        base of the same op back and forth: every reply is the
        quiescent reply, no call fails, and the stack left behind is
        the one the final control-plane state implies."""
        calls, callers = 20000, 32
        handle = fresh_db()
        frames = _capture_requests(handle.module, [
            ("echo", (b"x" * 40,)),
            ("rev", (list(range(24)),)),
        ])
        ref_server = StubServer(fresh_db().module, DbImpl())
        expected = [ref_server.serve_bytes(frame) for frame in frames]
        slots = handle.codecs
        profile.instrument_stub_module(handle.module)
        bases = [{name: slots.base(name) for name in REV},
                 rebuilt(handle, "rev")]
        server = StubServer(handle.module, DbImpl()).aio_server(
            dispatch_mode="thread", max_concurrency=8)
        done = threading.Event()
        cycles = []

        def control():
            while not done.is_set():
                profile.configure(sample=2)
                slots.set_base(bases[len(cycles) % 2])
                profile.shutdown()
                cycles.append(len(cycles) % 2)

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
        assert len(cycles) >= 3
        # The final stack is what the control plane's state implies:
        # no layer on, so the module binds the last base set, itself.
        assert not profile.enabled()
        for name, function in bases[cycles[-1]].items():
            assert slots.base(name) is function
            assert getattr(handle.module, name) is function


class TestSwapUnderLoad:
    """``install_closures`` over a ``py``-loaded module while it serves:
    every entry becomes a deferred one, and the traffic itself makes the
    first calls that compile each and ``replace_base`` it.  Replies are
    the never-swapped reference's before, during and after."""

    def _workload(self):
        handle = fresh_db()
        frames = _capture_requests(handle.module, [
            ("echo", (b"x" * 200,)),
            ("rev", (list(range(64)),)),
        ])
        ref_server = StubServer(fresh_db().module, DbImpl())
        return handle, frames, [ref_server.serve_bytes(f) for f in frames]

    def _assert_swapped(self, handle, originals):
        module = handle.module
        assert module.__renderer__ == "closures"
        for name in ("_u_req_rev", "_m_rep_ok_rev", "_u_req_echo",
                     "_m_rep_ok_echo"):
            base = handle.codecs.base(name)
            assert base is getattr(module, name), name  # no layer on
            assert base is not originals[name], name
            assert is_compiled_text(base, module), name

    def test_64_aio_clients_see_identical_bytes_across_the_swap(self):
        handle, frames, expected = self._workload()
        originals = dict(vars(handle.module))
        server = StubServer(handle.module, DbImpl()).aio_server(
            dispatch_mode="inline", max_concurrency=128)
        swapped = threading.Event()
        swapper = threading.Thread(target=lambda: (
            install_closures(handle.module, handle.mir), swapped.set()))
        mismatches, before, after = [], [], []

        async def client(rounds):
            reader, writer = await asyncio.open_connection(
                *server.address)
            decoder = RecordDecoder()
            try:
                for _ in range(rounds):
                    for index, frame in enumerate(frames):
                        was_swapped = swapped.is_set()
                        writer.write(encode_record(frame))
                        await writer.drain()
                        records = []
                        while not records:
                            data = await reader.read(65536)
                            assert data, "server closed mid-call"
                            records.extend(decoder.feed(data))
                        assert len(records) == 1
                        if records[0] != expected[index]:
                            mismatches.append(index)
                        if was_swapped:
                            after.append(index)
                            continue
                        before.append(index)
                        if len(before) == 64 * 4:  # mid-traffic, once
                            swapper.start()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        async def drive():
            await asyncio.gather(*[client(12) for _ in range(64)])

        with server:
            asyncio.run(drive())
            swapper.join(timeout=30)
        assert swapped.is_set()
        assert not mismatches
        assert len(before) >= 64 * 4 and len(after) >= 64
        self._assert_swapped(handle, originals)

    def test_blocking_server_sees_identical_bytes_across_the_swap(self):
        handle, frames, expected = self._workload()
        originals = dict(vars(handle.module))
        server = StubServer(handle.module, DbImpl()).tcp_server()
        clients, rounds = 8, 40
        started = threading.Barrier(clients + 1)
        swapped = threading.Event()
        mismatches, after, errors = [], [], []

        def client():
            try:
                transport = TcpClientTransport(*server.address)
                try:
                    for round_ in range(rounds):
                        if round_ == 5:
                            started.wait(timeout=30)
                        for index, frame in enumerate(frames):
                            was_swapped = swapped.is_set()
                            if bytes(transport.call(frame)) \
                                    != expected[index]:
                                mismatches.append(index)
                            if was_swapped:
                                after.append(index)
                finally:
                    transport.close()
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                workers = [threading.Thread(target=client)
                           for _ in range(clients)]
                for worker in workers:
                    worker.start()
                started.wait(timeout=30)  # every client is mid-run
                install_closures(handle.module, handle.mir)
                swapped.set()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not mismatches
        assert len(after) >= clients
        self._assert_swapped(handle, originals)


class TestGatewayRebind:
    """The gateway's OpPlan binds codecs once at build time; the codec
    slots' notifications must walk it through every change with no
    wiring beyond ``build_plan``."""

    def _plan(self):
        from repro.gateway import build_plan

        ingress = Flick(frontend="corba", backend="iiop").compile(
            MAIL_IDL)
        egress = Flick(frontend="corba",
                       backend="oncrpc-xdr").compile(MAIL_IDL)
        plan = build_plan(ingress, egress)
        return ingress, plan, {p.name: p for p in plan.ops.values()}

    def test_plan_follows_a_layer_and_an_installed_base_swap(self):
        ingress, _plan, ops = self._plan()
        module, avg = ingress.module, ops["avg"]
        original = avg.u_req
        assert original is module._u_req_avg
        obs.instrument_stub_module(module)
        obs.configure(obs.CollectingExporter())
        assert avg.u_req is module._u_req_avg  # the trace wrapper
        assert avg.u_req.__wrapped__ is original
        install_closures(module, ingress.mir)
        # Without rebind the plan would still hold the old wrapper and
        # gateway traffic would never make the deferred first call.
        assert avg.u_req is module._u_req_avg
        deferred = ingress.codecs.base("_u_req_avg")
        assert avg.u_req.__wrapped__ is deferred is not original
        frame, = _capture_requests(module, [("avg", ([1, 2, 3],))])
        StubServer(module, MailImpl(module)).serve_bytes(frame)
        # The first call compiled and handed over; the plan heard.
        compiled = ingress.codecs.base("_u_req_avg")
        assert compiled is deferred.__wrapped__
        assert avg.u_req is module._u_req_avg
        assert avg.u_req.__wrapped__ is compiled
        assert avg.m_rep_ok is module._m_rep_ok_avg
        obs.shutdown()
        assert avg.u_req is module._u_req_avg is compiled

    def test_rebind_scopes_to_one_op(self):
        ingress, plan, ops = self._plan()
        avg, tri = ops["avg"], ops["tri"]
        stale_tri = tri.u_req
        sentinel = lambda d, o: ((), o)  # noqa: E731
        # A direct store is invisible to the plan until a slot
        # notification for that op arrives.
        ingress.module.__dict__["_u_req_tri"] = sentinel
        ingress.codecs.set_base({"_u_req_avg": sentinel})
        assert avg.u_req is sentinel
        assert tri.u_req is stale_tri
        plan.rebind()
        assert tri.u_req is sentinel
