"""Profile-guided tiered execution: the engine, the handle, the wiring.

The invariant every test here circles back to: **tier swaps are
byte-invisible on the wire**.  Whatever the engine decides — promote,
skip, revert on mismatched bytes, revert on a slow recompile — the
served reply bytes must equal a never-tiered reference server's, before,
during (shadow), and after the swap.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import warnings

import pytest

from repro import Flick
from repro.core.codecs import codec_form
from repro.core.handle import CompiledInterface
from repro.core.options import RendererPolicy
from repro.encoding.buffer import MarshalBuffer
from repro.errors import FlickError, TransportError
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.runtime import StubServer
from repro.runtime.framing import RecordDecoder, encode_record
from repro.runtime.supervisor.supervisor import merge_prometheus
from repro.runtime.tiering import (
    TieringEngine,
    TierPolicy,
    resolve_policy,
)

from tests.conftest import DB_IDL, MAIL_IDL, MailImpl


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------

class DbImpl:
    def lookup(self, name):
        return (0, None)

    def store(self, e):
        return 1

    def echo(self, data):
        return bytes(data)

    def rev(self, xs):
        return list(xs)[::-1]


def fresh_db():
    """A fresh compile per test: tiering mutates the module dict, so the
    cached conftest compilations must never be used here."""
    return Flick(frontend="oncrpc").compile(DB_IDL)


def capture_requests(module, calls):
    """Raw request frames the module's client puts on the wire."""

    class Capture:
        last = None

        def call(self, request):
            self.last = bytes(request)
            raise TransportError("captured")

        def send(self, request):
            self.last = bytes(request)

        def close(self):
            pass

    transport = Capture()
    client_class = next(getattr(module, name) for name in dir(module)
                        if name.endswith("Client"))
    client = client_class(transport)
    frames = []
    for operation, args in calls:
        try:
            getattr(client, operation)(*args)
        except TransportError:
            pass
        frames.append(transport.last)
    return frames


def make_hot(engine, op, score=10 ** 8):
    """Push *op* past any threshold without serving real traffic."""
    hot = engine.hotness.hotness(op)
    hot.bytes = score
    return hot


def fill_window(hot, *, seconds, nbytes, samples):
    hot.window.seconds = seconds
    hot.window.bytes = nbytes
    hot.window.samples = samples


class _TierRig:
    """A handle + engine + reference server sharing one workload."""

    def __init__(self, policy=None, registry=None, worker="",
                 handle=None):
        self.handle = handle or fresh_db()
        self.reference = fresh_db()
        self.server = StubServer(self.handle.module, DbImpl())
        self.ref_server = StubServer(self.reference.module, DbImpl())
        self.engine = TieringEngine(
            self.handle,
            policy=policy or TierPolicy(threshold=10 ** 6),
            registry=registry, worker=worker,
        ).attach()
        self.frames = capture_requests(self.handle.module, [
            ("echo", (b"payload" * 16,)),
            ("rev", ([7, 1, 4, 4, 2] * 8,)),
        ])

    def serve_all(self):
        """One round of every frame; asserts wire byte-identity."""
        for frame in self.frames:
            got = self.server.serve_bytes(frame)
            want = self.ref_server.serve_bytes(frame)
            assert got == want, "tier swap changed wire bytes"

    def promote(self, op="rev"):
        """Deterministically drive *op* to tier-1; returns its state."""
        make_hot(self.engine, op)
        actions = dict(self.engine.poll_once())
        assert actions.get(op, "").startswith("shadow:"), actions
        self.serve_all()  # the shadow round verifies and commits
        state = self.engine.ops[op]
        assert state.state == "tier1", state.state
        return state


# ----------------------------------------------------------------------
# TierPolicy / resolve_policy
# ----------------------------------------------------------------------

class TestTierPolicy:
    def test_json_round_trip(self):
        policy = TierPolicy(threshold=123, hysteresis=3.0,
                            revert_ratio=1.5, min_timed_samples=4,
                            interval_s=0.1, max_retries=1)
        assert TierPolicy.from_json(policy.to_json()) == policy

    def test_unknown_field_rejected(self):
        with pytest.raises(FlickError, match="treshold"):
            TierPolicy.from_json({"treshold": 5})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"threshold": 99, "max_retries": 0}))
        policy = TierPolicy.load(str(path))
        assert policy.threshold == 99
        assert policy.max_retries == 0
        assert policy.hysteresis == TierPolicy().hysteresis

    def test_but_returns_modified_copy(self):
        base = TierPolicy()
        tweaked = base.but(threshold=1)
        assert tweaked.threshold == 1
        assert base.threshold != 1

    def test_resolve_policy(self, tmp_path):
        assert resolve_policy(None) is None
        assert resolve_policy("off") is None
        assert resolve_policy("auto") == TierPolicy()
        path = tmp_path / "p.json"
        path.write_text('{"threshold": 7}')
        assert resolve_policy(str(path)).threshold == 7

    def test_resolve_policy_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(FlickError):
            resolve_policy(str(path))


# ----------------------------------------------------------------------
# The CompiledInterface handle (the enabling API)
# ----------------------------------------------------------------------

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

    def test_recompile_byte_identity(self):
        """Every renderer produces byte-identical wire output — the
        property the whole tiering design rests on."""
        handle = fresh_db()
        reference = fresh_db()
        impl = DbImpl()
        chain = handle.module.entry(
            "a", 1, handle.module.entry("b", 2, None))
        frames = capture_requests(handle.module, [
            ("echo", (b"abcdef",)),
            ("rev", ([1, 2, 3],)),
            ("lookup", ("k",)),
            ("store", (chain,)),
        ])
        want = [StubServer(reference.module, impl).serve_bytes(f)
                for f in frames]
        for renderer in ("py", "closures"):
            handle.recompile(renderer=renderer, install=True)
            got = [StubServer(handle.module, impl).serve_bytes(f)
                   for f in frames]
            assert got == want, renderer

    def test_recompile_install_false_leaves_module_alone(self):
        handle = fresh_db()
        before = handle.module._m_rep_ok_rev
        new = handle.recompile("rev", renderer="closures",
                               install=False)
        assert "_m_rep_ok_rev" in new and "_u_req_rev" in new
        assert handle.module._m_rep_ok_rev is before
        handle.recompile("rev", renderer="closures", install=True)
        assert handle.module._m_rep_ok_rev is not before

    def test_recompile_unknown_op(self):
        with pytest.raises(FlickError, match="no operation"):
            fresh_db().recompile("bogus")

    def test_recompile_c_is_inspect_only(self):
        with pytest.raises(FlickError, match="inspect-only"):
            fresh_db().recompile("rev", renderer="c")

    def test_recompile_accepts_policy(self):
        handle = fresh_db()
        new = handle.recompile(
            "rev", policy=RendererPolicy(renderer="closures"),
            install=False)
        assert new  # a policy's renderer is honoured

    def test_missing_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            fresh_db().definitely_not_an_attribute


class TestRendererPolicy:
    def test_coerce(self):
        assert RendererPolicy.coerce(None) == RendererPolicy()
        assert RendererPolicy.coerce("closures").renderer == "closures"
        policy = RendererPolicy(renderer="py")
        assert RendererPolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            RendererPolicy.coerce(42)

    def test_backend_options_normalize_hashable(self):
        policy = RendererPolicy(backend_options={"b": 2, "a": 1})
        assert policy.backend_options == (("a", 1), ("b", 2))
        assert policy.options() == {"a": 1, "b": 2}
        hash(policy)  # must stay usable as a cache key

    def test_resolve_flags_rejects_unknown_pass(self):
        with pytest.raises(ValueError):
            RendererPolicy(disable_passes=("bogus",)).resolve_flags()


# ----------------------------------------------------------------------
# Threshold, choice, and the shadow-commit path
# ----------------------------------------------------------------------

class TestPromotion:
    def test_cold_ops_never_considered(self):
        rig = _TierRig()
        for _ in range(3):
            rig.serve_all()
        assert rig.engine.poll_once() == []
        summary = rig.engine.tier_summary()
        assert all(s["tier"] == 0 for s in summary.values())

    def test_structural_choice_splits_by_shape(self):
        """echo (variable opaque) keeps the py tier-0 renderer
        (skipped_same); rev (all-int sequence) recompiles to closures."""
        rig = _TierRig()
        make_hot(rig.engine, "echo")
        make_hot(rig.engine, "rev")
        actions = dict(rig.engine.poll_once())
        assert actions["echo"] == "skipped_same"
        assert actions["rev"] == "shadow:closures"
        assert rig.engine.ops["echo"].converged

    def test_shadow_verifies_then_commits(self):
        rig = _TierRig(registry=MetricsRegistry())
        make_hot(rig.engine, "rev")
        rig.engine.poll_once()
        state = rig.engine.ops["rev"]
        assert state.state == "shadow"
        assert state.required == {"_u_req_rev", "_m_rep_ok_rev"}
        rig.serve_all()  # old serves, new shadow-verifies, commit
        assert state.state == "tier1"
        assert state.tier == 1
        assert state.renderer == "closures"
        rig.serve_all()  # tier-1 serves byte-identically too

    def test_untouched_ops_stay_tier0_after_siblings_promote(self):
        rig = _TierRig()
        rig.promote("rev")
        summary = rig.engine.tier_summary()
        assert summary["lookup"]["tier"] == 0
        assert summary["store"]["tier"] == 0
        assert summary["rev"]["tier"] == 1

    def test_recompile_failure_pins(self):
        class BrokenHandle:
            def __init__(self, handle):
                self._handle = handle

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def recompile(self, op, **kwargs):
                raise FlickError("synthetic recompile failure")

        registry = MetricsRegistry()
        rig = _TierRig(handle=BrokenHandle(fresh_db()),
                       registry=registry)
        make_hot(rig.engine, "rev")
        assert rig.engine.poll_once() == [("rev", "recompile_failed")]
        assert rig.engine.ops["rev"].state == "pinned"
        rig.serve_all()  # the op keeps serving on tier-0
        series = parse_prometheus(registry.render_prometheus())
        key = (("op", "rev"), ("outcome", "recompile_failed"),
               ("worker", ""))
        assert series["flick_tier_recompiles_total"][key] == 1


# ----------------------------------------------------------------------
# Shadow byte-mismatch: revert and pin, old bytes keep serving
# ----------------------------------------------------------------------

class _CorruptingHandle:
    """Delegates to a real handle but sabotages recompiled entries."""

    def __init__(self, handle, corrupt):
        self._handle = handle
        self._corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def recompile(self, op, **kwargs):
        new = self._handle.recompile(op, **kwargs)
        self._corrupt(new, op)
        return new


class TestShadowRevert:
    def _run(self, corrupt):
        registry = MetricsRegistry()
        rig = _TierRig(handle=_CorruptingHandle(fresh_db(), corrupt),
                       registry=registry)
        make_hot(rig.engine, "rev")
        actions = dict(rig.engine.poll_once())
        assert actions["rev"].startswith("shadow:")
        # The first shadowed call detects the mismatch; the OLD codec
        # served it, so the reply bytes are still correct.
        rig.serve_all()
        state = rig.engine.ops["rev"]
        assert state.state == "pinned"
        assert state.tier == 0
        rig.serve_all()  # and stays correct after the revert
        series = parse_prometheus(registry.render_prometheus())
        key = (("op", "rev"), ("outcome", "reverted_bytes"),
               ("worker", ""))
        assert series["flick_tier_recompiles_total"][key] == 1
        assert series["flick_tier_current"][
            (("op", "rev"), ("worker", ""))] == 0
        return rig

    def test_marshal_mismatch_reverts_and_pins(self):
        def corrupt(new, op):
            inner = new["_m_rep_ok_" + op]

            def bad(b, _ctx, *args):
                inner(b, _ctx, *args)
                offset = b.reserve(1)  # one trailing garbage byte
                b.data[offset] = 0xFF

            new["_m_rep_ok_" + op] = bad

        self._run(corrupt)

    def test_unmarshal_mismatch_reverts_and_pins(self):
        def corrupt(new, op):
            new["_u_req_" + op] = lambda d, o: (([999],), o)

        self._run(corrupt)

    def test_raising_shadow_counts_as_mismatch(self):
        def corrupt(new, op):
            def explode(d, o):
                raise RuntimeError("recompiled codec crashed")

            new["_u_req_" + op] = explode

        self._run(corrupt)

    def test_pinned_op_is_never_reconsidered(self):
        rig = self._run(lambda new, op: new.update(
            {"_u_req_" + op: lambda d, o: (([0],), o)}))
        make_hot(rig.engine, "rev", score=10 ** 12)
        assert rig.engine.poll_once() == []


# ----------------------------------------------------------------------
# The regression guard: revert-on-slower, hysteresis, pin after retries
# ----------------------------------------------------------------------

class TestRegressionGuard:
    def _promoted_rig(self, **policy_changes):
        policy = TierPolicy(threshold=10 ** 6,
                            min_timed_samples=4).but(**policy_changes)
        rig = _TierRig(policy=policy, registry=MetricsRegistry())
        hot = make_hot(rig.engine, "rev")
        # A known tier-0 baseline: 1 µs/byte.
        fill_window(hot, seconds=0.001, nbytes=1000, samples=4)
        rig.engine.poll_once()
        rig.serve_all()
        state = rig.engine.ops["rev"]
        assert state.state == "tier1"
        assert state.baseline == pytest.approx(1e-6)
        return rig, state, rig.engine.hotness.hotness("rev")

    def test_short_window_defers_judgement(self):
        rig, state, hot = self._promoted_rig()
        fill_window(hot, seconds=1.0, nbytes=10, samples=1)  # < min
        assert rig.engine.poll_once() == []
        assert state.state == "tier1" and not state.converged

    def test_fast_tier1_converges(self):
        rig, state, hot = self._promoted_rig()
        fill_window(hot, seconds=0.0005, nbytes=1000, samples=4)
        assert rig.engine.poll_once() == []
        assert state.converged
        # Converged ops drop out of the poll loop entirely.
        fill_window(hot, seconds=9.0, nbytes=1, samples=99)
        assert rig.engine.poll_once() == []
        assert state.state == "tier1"

    def test_slow_tier1_reverts_with_hysteresis(self):
        rig, state, hot = self._promoted_rig()
        fill_window(hot, seconds=0.01, nbytes=1000, samples=4)  # 10x
        assert rig.engine.poll_once() == [("rev", "reverted_slow")]
        assert state.state == "tier0"
        assert state.tier == 0
        assert state.retries == 1
        assert state.retry_at_score == pytest.approx(
            hot.score * rig.engine.policy.hysteresis)
        rig.serve_all()  # tier-0 bytes restored and correct
        # Hot but below the hysteresis bar: not retried.
        assert rig.engine.poll_once() == []
        # Grow past the bar: the engine tries again.
        hot.bytes = int(state.retry_at_score) + 10 ** 6
        actions = dict(rig.engine.poll_once())
        assert actions["rev"] == "shadow:closures"

    def test_pin_after_max_retries(self):
        rig, state, hot = self._promoted_rig(max_retries=0)
        fill_window(hot, seconds=0.01, nbytes=1000, samples=4)
        assert rig.engine.poll_once() == [("rev", "reverted_slow")]
        assert state.state == "pinned"
        make_hot(rig.engine, "rev", score=10 ** 12)
        assert rig.engine.poll_once() == []
        rig.serve_all()

    def test_borderline_ratio_tolerated(self):
        rig, state, hot = self._promoted_rig(revert_ratio=1.15)
        # 10% slower: inside the revert_ratio band, so it sticks.
        fill_window(hot, seconds=0.0011, nbytes=1000, samples=4)
        assert rig.engine.poll_once() == []
        assert state.converged and state.state == "tier1"


# ----------------------------------------------------------------------
# Byte identity across a tier swap under concurrent aio load
# ----------------------------------------------------------------------

class TestAioSwapUnderLoad:
    def test_64_clients_see_identical_bytes_across_the_swap(self):
        """64 concurrent connections hammer echo+rev while the engine's
        background thread promotes rev mid-traffic; every reply must
        equal the never-tiered reference, and rev must end on tier-1."""
        handle = fresh_db()
        reference = fresh_db()
        frames = capture_requests(handle.module, [
            ("echo", (b"x" * 200,)),
            ("rev", (list(range(64)),)),
        ])
        ref_server = StubServer(reference.module, DbImpl())
        expected = [ref_server.serve_bytes(frame) for frame in frames]
        policy = TierPolicy(threshold=20000, interval_s=0.01,
                            revert_ratio=10 ** 9)
        engine = TieringEngine(handle, policy=policy)
        server = StubServer(handle.module, DbImpl()).aio_server(
            dispatch_mode="inline", max_concurrency=128,
            tiering=engine,
        )
        mismatches = []

        async def client(rounds):
            reader, writer = await asyncio.open_connection(
                *server.address)
            decoder = RecordDecoder()
            try:
                for _ in range(rounds):
                    for index, frame in enumerate(frames):
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
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        async def drive():
            await asyncio.gather(*[client(12) for _ in range(64)])

        with server:
            assert engine._thread is not None  # started by the server
            asyncio.run(drive())
            # The load comfortably exceeded the threshold; give the
            # background poll a moment, then serve the one extra round
            # shadow verification needs to commit.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if engine.tier_summary()["rev"]["tier"] == 1:
                    break
                time.sleep(0.02)
                asyncio.run(client(1))
        assert engine._thread is None  # stopped by server close
        assert not mismatches
        summary = engine.tier_summary()
        assert summary["rev"]["tier"] == 1
        assert summary["rev"]["renderer"] == "closures"
        assert summary["echo"]["tier"] == 0  # converged on tier-0

    def test_blocking_server_runs_engine_lifecycle(self):
        handle = fresh_db()
        engine = TieringEngine(handle,
                               policy=TierPolicy(interval_s=0.01))
        server = StubServer(handle.module, DbImpl()).tcp_server(
            tiering=engine)
        with server:
            assert engine._thread is not None
        assert engine._thread is None


# ----------------------------------------------------------------------
# Gateway: early-bound plans must follow every swap
# ----------------------------------------------------------------------

class TestGatewayRebind:
    def test_plan_rebinds_through_shadow_and_commit(self):
        """The gateway's OpPlan binds codecs once at build time; the
        codec slots' notifications must walk it through hotness
        wrapper, shadow wrapper, and committed tier-1 bindings with no
        wiring beyond ``build_plan``."""
        from repro.gateway import build_plan

        ingress = Flick(frontend="corba", backend="iiop").compile(
            MAIL_IDL)
        egress = Flick(frontend="corba",
                       backend="oncrpc-xdr").compile(MAIL_IDL)
        plan = build_plan(ingress, egress)
        module = ingress.module
        plan_op = next(p for p in plan.ops.values() if p.name == "avg")
        engine = TieringEngine(ingress,
                               policy=TierPolicy(threshold=10 ** 5))
        tier0 = plan_op.u_req
        engine.attach()
        assert plan_op.u_req is module._u_req_avg  # hotness wrapper
        assert plan_op.u_req.__wrapped__ is tier0

        server = StubServer(module, MailImpl(module))
        frames = capture_requests(module, [("avg", ([1, 2, 3],))])
        make_hot(engine, "avg")
        actions = dict(engine.poll_once())
        assert actions["avg"] == "shadow:closures"
        # Without rebind the plan would still hold the old wrapper and
        # shadow verification would never run for gateway traffic.
        assert plan_op.u_req is module._u_req_avg
        assert plan_op.u_req.__wrapped__.__wrapped__ is tier0
        for frame in frames:
            server.serve_bytes(frame)
        assert engine.ops["avg"].state == "tier1"
        assert plan_op.u_req is module._u_req_avg  # committed binding
        assert plan_op.m_rep_ok is module._m_rep_ok_avg
        assert plan_op.u_req.__wrapped__ is \
            ingress.codecs.base("_u_req_avg")
        assert plan_op.u_req.__wrapped__ is not tier0

    def test_rebind_scopes_to_one_op(self):
        from repro.gateway import build_plan

        ingress = Flick(frontend="corba", backend="iiop").compile(
            MAIL_IDL)
        egress = Flick(frontend="corba",
                       backend="oncrpc-xdr").compile(MAIL_IDL)
        plan = build_plan(ingress, egress)
        avg = next(p for p in plan.ops.values() if p.name == "avg")
        tri = next(p for p in plan.ops.values() if p.name == "tri")
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


# ----------------------------------------------------------------------
# Metrics: per-worker series survive supervisor aggregation
# ----------------------------------------------------------------------

class TestTierMetrics:
    def test_merge_prometheus_keeps_worker_series_distinct(self):
        """Two workers, one promoted: the supervisor's merged /metrics
        must show rev hot on worker 1 and cold on worker 0 — not a
        meaningless sum."""
        registries = [MetricsRegistry(), MetricsRegistry()]
        rig0 = _TierRig(registry=registries[0], worker="0")
        rig1 = _TierRig(registry=registries[1], worker="1")
        rig1.promote("rev")
        merged = merge_prometheus([
            registry.render_prometheus() for registry in registries])
        series = parse_prometheus(merged)
        gauge = series["flick_tier_current"]
        assert gauge[(("op", "rev"), ("worker", "0"))] == 0
        assert gauge[(("op", "rev"), ("worker", "1"))] == 1
        counters = series["flick_tier_recompiles_total"]
        assert counters[(("op", "rev"), ("outcome", "promoted"),
                         ("worker", "1"))] == 1
        assert merged.count("# TYPE flick_tier_current") == 1
        del rig0

    def test_tier_summary_is_json_serializable(self):
        rig = _TierRig()
        rig.promote("rev")
        summary = rig.engine.tier_summary()
        json.dumps(summary)
        assert summary["rev"]["state"] == "tier1"
        assert summary["rev"]["renderer"] == "closures"
        assert summary["rev"]["layers"] == ["hotness"]
        assert summary["lookup"]["renderer"] == "py"
        assert summary["rev"]["score"] > 0
        assert "structural" in summary["rev"]["reason"]


class TestTopTierColumn:
    def test_rows_count_hot_workers(self):
        from repro.tools.cli import _top_rows

        samples = {
            "flick_server_requests_total": {
                (("op", "rev"),): 10.0,
            },
            "flick_tier_current": {
                (("op", "rev"), ("worker", "0")): 0.0,
                (("op", "rev"), ("worker", "1")): 1.0,
                (("op", "echo"), ("worker", "0")): 0.0,
            },
        }
        rows = _top_rows(samples)
        assert rows["rev"]["tier_series"] == 2
        assert rows["rev"]["tier_hot"] == 1
        assert rows["echo"]["tier_hot"] == 0

    def test_table_renders_tier_cell(self):
        from repro.tools.cli import _top_rows, _top_table

        samples = {
            "flick_server_requests_total": {
                (("op", "rev"),): 10.0,
                (("op", "echo"),): 5.0,
                (("op", "lookup"),): 1.0,
            },
            "flick_tier_current": {
                (("op", "rev"), ("worker", "0")): 1.0,
                (("op", "rev"), ("worker", "1")): 0.0,
                (("op", "echo"), ("worker", "0")): 1.0,
            },
        }
        table = _top_table(_top_rows(samples))
        assert "tier" in table.splitlines()[0]
        rev_line = next(l for l in table.splitlines()
                        if l.startswith("rev"))
        echo_line = next(l for l in table.splitlines()
                         if l.startswith("echo"))
        lookup_line = next(l for l in table.splitlines()
                           if l.startswith("lookup"))
        assert rev_line.rstrip().endswith("1/2")
        assert echo_line.rstrip().endswith("1")
        assert lookup_line.rstrip().endswith("-")


# ----------------------------------------------------------------------
# Engine lifecycle odds and ends
# ----------------------------------------------------------------------

class TestEngineLifecycle:
    def test_attach_is_idempotent(self):
        rig = _TierRig()
        before = dict(rig.engine.ops)
        rig.engine.attach()
        assert rig.engine.ops == before

    def test_context_manager_runs_background_thread(self):
        rig = _TierRig(policy=TierPolicy(threshold=10 ** 6,
                                         interval_s=0.005))
        make_hot(rig.engine, "rev")
        with rig.engine:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if rig.engine.ops["rev"].state != "tier0":
                    break
                time.sleep(0.005)
            rig.serve_all()
        assert rig.engine._thread is None
        assert rig.engine.ops["rev"].state in ("shadow", "tier1")

    def test_poll_exception_does_not_kill_thread(self):
        rig = _TierRig(policy=TierPolicy(interval_s=0.005))
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("tiering bug")

        rig.engine.poll_once = boom
        with rig.engine:
            deadline = time.monotonic() + 5.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert len(calls) >= 3  # kept polling after the exception

    def test_stop_without_start_is_noop(self):
        _TierRig().engine.stop()

    def test_deprecated_module_access_not_triggered_by_engine(self):
        """The engine must use the handle surface, never the shim."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rig = _TierRig()
            rig.promote("rev")
            rig.serve_all()
