"""Tests for the payload-shape profiler (`repro.obs.profile`).

The contract under test, per layer:

* the histogram/counter primitives keep workload modes exact and merge
  under exact associative/commutative laws (hypothesis-checked, so
  multi-worker snapshot merging is order-independent);
* instrumenting a stub module while profiling is off leaves the codec
  functions untouched (zero disabled cost), and configure/shutdown
  swap wrappers in and out losslessly;
* the acceptance scenario: a skewed workload (bimodal directory-listing
  lengths, a lopsided union) driven through the live asyncio server
  shows up in the saved snapshot with the right per-channel modes, arm
  skew, and at least one trace exemplar that joins to the JSONL trace
  export — all read back through ``flick profile --json``;
* the gateway records fused-vs-re-encode per op and the dynamic ratio
  matches ``flick bridge``'s static prediction;
* ``/profile`` and ``flick top --once`` read live state over HTTP.
"""

import contextlib
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro import api, documents, obs
from repro.core import codecs
from repro.encoding import MarshalBuffer
from repro.gateway import AioGatewayServer, build_plan, predict_fused
from repro.obs import profile
from repro.obs.profile import (
    OpProfile,
    ProfileSnapshot,
    ShapeHistogram,
)
from repro.runtime import LoopbackTransport, StubServer, TcpClientTransport
from repro.runtime.aio import ServerStats
from repro.tools import cli

from tests.conftest import MailImpl, base_of, compile_mail, profile_of
from tests.endpoint import registry_endpoint

#: The acceptance schema: directory listings with bimodal lengths and
#: a union whose arms the workload hits lopsidedly.
FS_IDL = """
interface Fs {
  struct Dirent { string name; long inode; };
  typedef sequence<Dirent> DirList;
  union Query switch (long) {
    case 0: long by_inode;
    default: string by_glob;
  };
  DirList list(in long n);
  long find(in Query q);
};
"""


@pytest.fixture(scope="module")
def fs_result():
    return api.compile(FS_IDL, "corba", backend="iiop")


@pytest.fixture(autouse=True)
def _profiler_off():
    """Every test starts and ends with the global profiler off."""
    profile.shutdown()
    yield
    profile.shutdown()


class FsImpl:
    def __init__(self, module):
        self.module = module

    def list(self, n):
        return [self.module.Fs_Dirent(name="f%d" % i, inode=i)
                for i in range(n)]

    def find(self, q):
        return 7


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

class TestShapeHistogram:
    def test_modes_stay_exact_for_repeated_shapes(self):
        hist = ShapeHistogram(kind="seq")
        for _ in range(40):
            hist.observe(2)
        for _ in range(10):
            hist.observe(30)
        assert hist.modes(2) == [(2, 40), (30, 10)]
        assert hist.total == 50
        assert hist.min == 2 and hist.max == 30

    def test_distinct_values_beyond_cap_spill_to_buckets(self):
        hist = ShapeHistogram()
        for n in range(profile.MAX_EXACT):
            hist.observe(n)
        hist.observe(1000)  # the 65th distinct value
        assert 1000 not in hist.exact
        assert hist.overflow == {(1000).bit_length(): 1}
        assert hist.total == profile.MAX_EXACT + 1
        assert hist.max == 1000

    def test_percentile_covers_exact_and_overflow(self):
        hist = ShapeHistogram()
        for n in range(profile.MAX_EXACT):
            hist.observe(0)
        assert hist.percentile(50) == 0
        hist.exact = {}
        hist.observe(5)
        assert hist.percentile(99) == 5

    def test_json_round_trip(self):
        hist = ShapeHistogram(kind="str")
        for n in (1, 1, 2, 700):
            hist.observe(n)
        back = documents.read(ShapeHistogram, documents.write(hist), "h")
        assert documents.write(back) == documents.write(hist)


class TestSkew:
    def test_skew_reports_the_dominant_arm(self):
        assert profile.skew({"0": 9, "2": 1}) == ("0", 0.9)

    def test_empty_skew(self):
        assert profile.skew({}) == (None, 0.0)


# ----------------------------------------------------------------------
# Merge laws (multi-worker snapshots combine in any order)
# ----------------------------------------------------------------------

_PATHS = ("xs", "name", "v.<arm>")
_KINDS = {"xs": "seq", "name": "str", "v.<arm>": "str"}

# Dyadic durations: float sums of n/1024 are exact, so the latency
# histogram's sum obeys the same exact merge laws as the
# integer tables.
_durations = st.integers(min_value=0, max_value=10**6).map(
    lambda n: n / 1024.0)

_events = st.lists(
    st.one_of(
        st.tuples(st.just("size"), st.integers(0, 1 << 20)),
        st.tuples(st.just("length"),
                  st.sampled_from(_PATHS), st.integers(0, 1 << 12)),
        st.tuples(st.just("arm"),
                  st.sampled_from(_PATHS), st.sampled_from("012")),
        st.tuples(st.just("path"), st.booleans()),
        st.tuples(st.just("codec"),
                  st.sampled_from(("encode", "decode")), _durations),
        st.tuples(st.just("exemplar"), _durations,
                  st.text("abcdef0123456789", min_size=4, max_size=8),
                  st.integers(0, 1 << 16)),
    ),
    max_size=30,
)


def _profile_from(events):
    out = OpProfile("op", "request")
    for event in events:
        if event[0] == "size":
            out.size.observe(event[1])
            out.calls += 1
            out.sampled += 1
        elif event[0] == "length":
            out.length(event[1], _KINDS[event[1]], event[2])
        elif event[0] == "arm":
            out.arm(event[1], event[2])
        elif event[0] == "path":
            path = "fused" if event[1] else "re-encode"
            out.paths[path] = out.paths.get(path, 0) + 1
        elif event[0] == "codec":
            out.codec_hist(event[1]).observe(event[2])
        else:
            out.note_exemplar(event[1], event[2], event[2], event[3])
    return out


def _copy(op_profile):
    return documents.read(OpProfile, documents.write(op_profile), "op")


def _read(document):
    return documents.read(ProfileSnapshot, document, "profile snapshot")


class TestMergeLaws:
    @settings(max_examples=60, deadline=None)
    @given(_events, _events, _events)
    def test_merge_is_associative(self, ea, eb, ec):
        a, b, c = map(_profile_from, (ea, eb, ec))
        left = _copy(a).merge(_copy(b).merge(_copy(c)))
        right = _copy(a).merge(_copy(b)).merge(_copy(c))
        assert documents.write(left) == documents.write(right)

    @settings(max_examples=60, deadline=None)
    @given(_events, _events)
    def test_merge_is_commutative(self, ea, eb):
        a, b = map(_profile_from, (ea, eb))
        ab = _copy(a).merge(_copy(b))
        ba = _copy(b).merge(_copy(a))
        assert documents.write(ab) == documents.write(ba)

    def test_merge_rejects_mismatched_ops(self):
        with pytest.raises(ValueError):
            OpProfile("a", "request").merge(OpProfile("b", "request"))

    def test_snapshot_merge_unions_ops_and_keeps_coarser_rate(self):
        a = ProfileSnapshot(sample=1,
                            ops=[OpProfile("send", "request", calls=5)])
        b = ProfileSnapshot(sample=64,
                            ops=[OpProfile("list", "reply", calls=3)])
        a.merge(b)
        assert a.sample == 64
        assert a.op_names() == ["list", "send"]

    def test_snapshot_file_round_trip(self, tmp_path):
        prof = OpProfile("send", "request", calls=16)
        snapshot = ProfileSnapshot(sample=8, ops=[prof])
        prof.size.observe(120)
        path = tmp_path / "snap.json"
        documents.save(snapshot, path)
        back = documents.load(ProfileSnapshot, path, "profile snapshot")
        assert documents.write(back) == documents.write(snapshot)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            documents.load(ProfileSnapshot, path, "profile snapshot")


# ----------------------------------------------------------------------
# A snapshot is outside input: every wrong shape is a ValueError
# ----------------------------------------------------------------------

def _snapshot(ops=None, **changes):
    """A healthy one-op snapshot document, with *changes* applied to
    the op (or *ops* replacing the list)."""
    prof = OpProfile("send", "request", calls=2, sampled=2)
    snapshot = ProfileSnapshot(sample=1, ops=[prof])
    prof.size.observe(100)
    prof.codec_hist("encode").observe(0.001)
    prof.length("msg", "str", 5)
    prof.arm("v", "0")
    prof.note_exemplar(0.001, "t1", "s1", 100)
    document = documents.write(snapshot)
    document["ops"][0].update(changes)
    if ops is not None:
        document["ops"] = ops
    return document


def _without(key):
    document = _snapshot()
    del document["ops"][0][key]
    return document


_HIST = _snapshot()["ops"][0]["codec"]["encode"]

#: ``(field the error must name, document)``.
MALFORMED = [
    ("the document", []),
    ("the document", 5),
    ("sample", dict(_snapshot(), sample="often")),
    ("ops", _snapshot(ops={"send": 1})),
    (r"ops\[0\]", _snapshot(ops=[3])),
    (r"ops\[0\]\.op", _without("op")),
    (r"ops\[0\]\.direction", _without("direction")),
    (r"ops\[0\]\.calls", _snapshot(calls="many")),
    (r"ops\[0\]\.sampled", _snapshot(sampled=1.5)),
    (r"ops\[0\]\.exemplar_cap", _snapshot(exemplar_cap=None)),
    (r"ops\[0\]\.size", _snapshot(size=[1])),
    (r"ops\[0\]\.size\.exact", _snapshot(size={"exact": {"abc": 1}})),
    (r"ops\[0\]\.size\.exact\[3\]", _snapshot(size={"exact": {"3": "x"}})),
    (r"ops\[0\]\.size\.overflow", _snapshot(size={"overflow": [1]})),
    (r"ops\[0\]\.size\.total", _snapshot(size={"total": True})),
    (r"ops\[0\]\.codec", _snapshot(codec=[])),
    (r"ops\[0\]\.codec\[encode\]", _snapshot(codec={"encode": 5})),
    (r"ops\[0\]\.codec\[encode\]\.bounds",
     _snapshot(codec={"encode": {}})),
    (r"ops\[0\]\.codec\[encode\]\.counts",
     _snapshot(codec={"encode": dict(_HIST, counts=[1, 2])})),
    (r"ops\[0\]\.codec\[encode\]\.sum",
     _snapshot(codec={"encode": dict(_HIST, sum="1")})),
    (r"ops\[0\]\.channels", _snapshot(channels=7)),
    (r"ops\[0\]\.channels\[msg\]", _snapshot(channels={"msg": "x"})),
    (r"ops\[0\]\.arms", _snapshot(arms=[])),
    (r"ops\[0\]\.arms\[v\]", _snapshot(arms={"v": [1]})),
    (r"ops\[0\]\.arms\[v\]\[0\]", _snapshot(arms={"v": {"0": "x"}})),
    (r"ops\[0\]\.paths", _snapshot(paths=3)),
    (r"ops\[0\]\.exemplars", _snapshot(exemplars={})),
    (r"ops\[0\]\.exemplars\[0\]", _snapshot(exemplars=[1])),
    (r"ops\[0\]\.exemplars\[0\]\.duration_s",
     _snapshot(exemplars=[{"trace_id": "t"}])),
    (r"ops\[0\]\.exemplars\[0\]\.trace_id",
     _snapshot(exemplars=[{"duration_s": 1.0, "trace_id": None}])),
    (r"ops\[0\]\.codec\[encode\]\.counts",
     _snapshot(codec={"encode": dict(_HIST, counts=[])})),
    (r"ops\[0\]\.codec\[encode\]\.total",
     _snapshot(codec={"encode": {key: value for key, value in _HIST.items()
                                 if key != "total"}})),
]


class TestMalformedSnapshots:
    def test_the_healthy_document_loads(self):
        document = _snapshot()
        assert documents.write(_read(document)) == document

    @pytest.mark.parametrize(
        "field, document", MALFORMED,
        ids=[str(index) for index in range(len(MALFORMED))])
    def test_wrong_shape_is_a_value_error_everywhere(
            self, field, document, tmp_path, capsys):
        """The reader names the field; ``flick profile`` reports it
        in one line; a worker answering with it is skipped, and the
        fleet's ``/profile`` still serves the healthy worker."""
        from tests.test_supervisor import _fake_worker, _supervisor_over

        with pytest.raises(ValueError, match="profile snapshot: " + field):
            _read(document)

        path = tmp_path / "snap.json"
        path.write_text(json.dumps(document))
        assert cli.main(["profile", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("flick: error: profile snapshot: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

        def worker(snapshot):
            return _fake_worker(lambda message: {
                "ok": True, "snapshot": snapshot})

        controls = [worker(document), worker(_snapshot())]
        sup = _supervisor_over(tmp_path, controls)
        try:
            assert sup.profile_json() == _snapshot()
        finally:
            for control in controls:
                control.close()

    def test_a_worker_on_other_bucket_bounds_is_skipped_whole(
            self, tmp_path):
        """Well-formed but unmergeable (another build's latency
        buckets): ``merge`` raises half way through an op, after its
        counts were added — the fleet's ``/profile`` must neither fail
        nor keep that half."""
        from tests.test_supervisor import _fake_worker, _supervisor_over

        foreign = _snapshot()
        bounds = foreign["ops"][0]["codec"]["encode"]["bounds"]
        foreign["ops"][0]["codec"]["encode"]["bounds"] = [
            bound * 2 for bound in bounds]
        _read(foreign)  # malformed it is not
        with pytest.raises(ValueError, match="bucket bounds"):
            _read(_snapshot()).merge(_read(foreign))

        controls = [
            _fake_worker(lambda message, document=document: {
                "ok": True, "snapshot": document})
            for document in (_snapshot(), foreign, _snapshot())]
        sup = _supervisor_over(tmp_path, controls)
        try:
            both = _read(_snapshot()).merge(_read(_snapshot()))
            assert sup.profile_json() == documents.write(both)
        finally:
            for control in controls:
                control.close()


# ----------------------------------------------------------------------
# Zero cost when off; sampling when on
# ----------------------------------------------------------------------

def _compile_fs():
    return api.compile(FS_IDL, "corba", backend="iiop")


class TestSwap:
    def test_instrumenting_while_off_leaves_codecs_untouched(self):
        module = _compile_fs().module
        before = module._m_req_list
        profile.instrument_stub_module(module)
        assert module._m_req_list is before

    def test_configure_wraps_and_shutdown_restores(self):
        module = _compile_fs().module
        profile.instrument_stub_module(module)
        deferred = module._m_req_list
        profile.configure(sample=1)
        assert module._m_req_list is not deferred
        buffer = MarshalBuffer()
        module._m_req_list(buffer, 3, 4)
        snapshot = profile.shutdown()
        # The first call handed the deferred entry over to what it
        # compiled, under the layer: shutdown restores the current base.
        assert module._m_req_list is deferred.__wrapped__
        assert module._m_req_list is base_of(codecs.of(module), "_m_req_list")
        assert profile_of(snapshot, "list", "request").calls == 1

    def test_wrapped_wire_bytes_are_identical(self):
        plain = _compile_fs().module
        wrapped = profile.instrument_stub_module(_compile_fs().module)
        profile.configure(sample=1)
        for module in (wrapped, plain):
            buffer = MarshalBuffer()
            module._m_req_find(buffer, 9, (1, "*.txt"))
            if module is plain:
                assert buffer.getvalue() == observed
            else:
                observed = buffer.getvalue()

    def test_sampling_rate_bounds_the_recorded_subset(self):
        module = profile.instrument_stub_module(_compile_fs().module)
        profile.configure(sample=8)
        buffer = MarshalBuffer()
        for _ in range(64):
            buffer.reset()
            module._m_req_list(buffer, 1, 2)
        snapshot = profile.shutdown()
        prof = profile_of(snapshot, "list", "request")
        assert prof.calls == 64
        assert prof.sampled == 8

    def test_decode_failures_still_raise_through_the_wrapper(self):
        module = profile.instrument_stub_module(_compile_fs().module)
        profile.configure(sample=1)
        with pytest.raises(Exception):
            module._u_req_list(b"\x00", 0)


#: One operation with a user exception, for the reply-arm labels.
BANK_IDL = """
module Bank {
  struct Rec { long id; string<16> memo; };
  exception Overdrawn { long short_by; string<16> note; };
  interface Account {
    long withdraw(in long amount, in Rec r) raises (Overdrawn);
  };
};
"""


class TestReplyArms:
    def test_an_exception_counts_under_its_arm_on_both_sides(self):
        """The server's ``_m_rep_x1_`` and the client's ``_u_rep_``
        count one exception arm under one label, ``x1``."""
        result = api.compile(BANK_IDL, "corba", backend="iiop")
        module = profile.instrument_stub_module(result.module)

        class Account:
            def withdraw(self, amount, r):
                if amount > 100:
                    raise module.Bank_Overdrawn(amount - 100, "rent")
                return 100 - amount

        profile.configure(sample=1)
        client = module.Bank_AccountClient(
            LoopbackTransport(module.dispatch, Account()))
        record = module.Bank_Rec(1, "rent")
        assert client.withdraw(40, record) == 60
        with pytest.raises(module.Bank_Overdrawn):
            client.withdraw(140, record)
        snapshot = profile.shutdown()
        reply = profile_of(snapshot, "withdraw", "reply")
        assert reply.arms[profile.REPLY_ARM] == {"ok": 2, "x1": 2}
        # The encoder probed the raised value along the arm's channel.
        assert sorted(reply.channels) == ["value.note"]


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------

class TestEndToEnd:
    def test_skewed_workload_profiles_through_live_server(
            self, fs_result, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        snap_path = tmp_path / "snap.json"
        module = fs_result.module
        obs.configure(obs.JsonlExporter(str(trace_path)))
        obs.instrument_stub_module(module)
        stats = ServerStats()
        profile.configure(sample=1, registry=stats.registry)
        profile.instrument_stub_module(module)
        try:
            server = StubServer(module, FsImpl(module)).aio_server(
                stats=stats)
            with server:
                transport = TcpClientTransport(*server.address)
                try:
                    client = module.FsClient(transport)
                    for index in range(20):
                        # Bimodal listing lengths: mostly 2, tail of 30.
                        n = 30 if index % 4 == 0 else 2
                        assert len(client.list(n)) == n
                        # Lopsided union: by_inode dominates 9:1.
                        q = (1, "*.rs") if index % 10 == 0 \
                            else (0, index)
                        assert client.find(q) == 7
                finally:
                    transport.close()
            snapshot = profile.shutdown()
            documents.save(snapshot, snap_path)
        finally:
            profile.shutdown()
            obs.shutdown()

        assert cli.main(["profile", str(snap_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sample"] == 1

        listing = document["ops"]["list"]["summary"]["reply"]
        lengths = listing["channels"]["_return"]
        assert lengths["kind"] == "seq"
        # The two workload modes, exactly.  Client and server run in
        # one process here, so each call's reply is probed twice (the
        # server encodes, the client decodes): 15 short lists and 5
        # long ones observe as 30 and 10.
        assert sorted(lengths["modes"]) == [[2, 30], [30, 10]]

        find = document["ops"]["find"]["summary"]["request"]
        arm = find["arms"]["q"]
        assert arm["top"] == "0"
        assert arm["skew"] == pytest.approx(0.9)

        # At least one slow-tail exemplar joins to the trace export.
        exported = {
            json.loads(line)["trace_id"]
            for line in trace_path.read_text().splitlines()
        }
        exemplars = [
            exemplar
            for op_doc in document["ops"].values()
            for direction in op_doc["directions"].values()
            for exemplar in direction["exemplars"]
        ]
        assert exemplars
        assert any(e["trace_id"] in exported for e in exemplars)

    def test_profile_endpoint_serves_the_live_snapshot(self, fs_result):
        module = fs_result.module
        stats = ServerStats()
        profile.configure(sample=1, registry=stats.registry)
        profile.instrument_stub_module(module)
        buffer = MarshalBuffer()
        module._m_req_list(buffer, 5, 12)
        with registry_endpoint(stats.registry) as endpoint:
            url = "http://%s:%d/profile" % endpoint.address[:2]
            with urllib.request.urlopen(url) as response:
                assert response.headers["Content-Type"] \
                    .startswith("application/json")
                live = json.loads(response.read().decode())
        snapshot = _read(live)
        assert profile_of(snapshot, "list", "request").calls == 1

    def test_profile_endpoint_404s_while_off(self, fs_result):
        stats = ServerStats()
        with registry_endpoint(stats.registry) as endpoint:
            url = "http://%s:%d/profile" % endpoint.address[:2]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 404

    def test_flick_top_once_renders_the_op_table(self, fs_result, capsys):
        module = fs_result.module
        stats = ServerStats()
        profile.configure(sample=1, registry=stats.registry)
        profile.instrument_stub_module(module)
        server = StubServer(module, FsImpl(module)).aio_server(stats=stats)
        with server:
            transport = TcpClientTransport(*server.address)
            try:
                client = module.FsClient(transport)
                for _ in range(5):
                    client.list(3)
            finally:
                transport.close()
            with registry_endpoint(stats.registry) as endpoint:
                target = "%s:%d" % endpoint.address[:2]
                assert cli.main(["top", target, "--once"]) == 0
        out = capsys.readouterr().out
        assert "list" in out
        assert "p99 ms" in out

    def test_cli_profile_rejects_unknown_op(self, tmp_path, capsys):
        snapshot = ProfileSnapshot(ops=[OpProfile("send", "request",
                                                  calls=1)])
        path = tmp_path / "snap.json"
        documents.save(snapshot, path)
        assert cli.main(["profile", str(path), "--op", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_cli_profile_merges_worker_snapshots(self, tmp_path, capsys):
        paths = []
        for index in (1, 2):
            prof = OpProfile("send", "request", calls=10 * index,
                             sampled=10 * index)
            snapshot = ProfileSnapshot(sample=1, ops=[prof])
            prof.size.observe(100)
            path = tmp_path / ("worker%d.json" % index)
            documents.save(snapshot, path)
            paths.append(str(path))
        assert cli.main(["profile", "--json"] + paths) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ops"]["send"]["summary"]["request"]["calls"] == 30


# ----------------------------------------------------------------------
# The gateway: dynamic fused ratio vs the static prediction
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def onc_result():
    return compile_mail("oncrpc-xdr")


@pytest.fixture(scope="module")
def iiop_result():
    return compile_mail("iiop")


@contextlib.contextmanager
def _bridge(ingress_result, egress_result, stats=None):
    egress_module = egress_result.module
    upstream = StubServer(egress_module, MailImpl(egress_module)) \
        .tcp_server()
    with upstream:
        plan = build_plan(ingress_result, egress_result)
        gateway = AioGatewayServer(
            plan, upstream.address[0], upstream.address[1], stats=stats)
        with gateway:
            yield gateway


class TestGatewayProfile:
    def test_dynamic_fused_ratio_matches_static_prediction(
            self, iiop_result, onc_result):
        profile.configure(sample=1)
        module = iiop_result.module
        with _bridge(iiop_result, onc_result) as gateway:
            transport = TcpClientTransport(*gateway.address)
            try:
                client = module.Test_MailClient(transport)
                rect = module.Test_Rect(module.Test_Point(1, 2),
                                        module.Test_Point(3, 4))
                for _ in range(10):
                    client.avg([1, 2, 3, 4])   # fuses both ways
                    # A union each way: re-encodes both ways.
                    client.send("hey", rect, (1, 1.5))
            finally:
                transport.close()
        snapshot = profile.shutdown()
        predicted = predict_fused(build_plan(iiop_result, onc_result))
        for op in ("avg", "send"):
            for direction in ("request", "reply"):
                prof = profile_of(snapshot, op, direction)
                assert sum(prof.paths.values()) == 10
                dynamic = prof.fused_fraction
                static = 1.0 if predicted[op][direction].fused else 0.0
                assert abs(dynamic - static) <= 0.05, (op, direction)

    def test_transcode_profiles_carry_sizes_and_latency(
            self, iiop_result, onc_result):
        profile.configure(sample=1)
        module = iiop_result.module
        with _bridge(iiop_result, onc_result) as gateway:
            transport = TcpClientTransport(*gateway.address)
            try:
                module.Test_MailClient(transport).avg([5, 6, 7])
            finally:
                transport.close()
        snapshot = profile.shutdown()
        prof = profile_of(snapshot, "avg", "request")
        assert prof.size.total == 1
        assert prof.size.sum > 0
        assert prof.codec_hist("transcode").total == 1

    def test_unified_family_replaces_gateway_alias(
            self, iiop_result, onc_result):
        stats = ServerStats()
        module = iiop_result.module
        with _bridge(iiop_result, onc_result, stats=stats) as gateway:
            transport = TcpClientTransport(*gateway.address)
            try:
                module.Test_MailClient(transport).avg([1, 2])
            finally:
                transport.close()
        text = stats.registry.render_prometheus()
        assert 'flick_profile_transcode_total{bridge="giop->oncrpc"' \
            in text
        assert 'direction="reply"' in text
        assert 'flick_gateway_requests_total' not in text
