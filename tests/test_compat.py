"""Cross-validation of the wire-compatibility analysis (``flick diff``).

Every row of the IDL-edit matrix below pins, per protocol, the static
verdict the analyzer must produce *and* the dynamically observed
behavior: the old schema's generated stubs encode a message, the new
schema's stubs decode it (and vice versa), and the outcome — decoded
faithfully or rejected/misread — must agree with the static claim.

The matrix covers both optimizing back ends (``oncrpc-xdr`` and
``iiop``) in both deploy directions (``old->new``: old encoders against
new decoders; ``new->old``: the reverse).  Witness values for BREAKING
channels are chosen to actually exercise the break (a string longer
than the narrowed bound, a canary field after a width change), so a
"probe fails" expectation is never satisfied vacuously.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.compat import (
    DEFAULT_PROTOCOLS,
    Verdict,
    diff_exit_code,
    diff_report_json,
    diff_texts,
)
from repro.encoding.buffer import MarshalBuffer
from repro.runtime.server import StubServer

CTX = 7
PROTOCOLS = DEFAULT_PROTOCOLS

#: Sentinel: this channel's probe must observably fail (decode rejected,
#: request never dispatched, or values misread).
BREAK = "<BREAK>"

WI = Verdict.WIRE_IDENTICAL
DC = Verdict.DECODE_COMPATIBLE
BR = Verdict.BREAKING


# ---------------------------------------------------------------------
# Probe harness: drive generated stubs of one schema against the other.
# ---------------------------------------------------------------------


class _Served(Exception):
    """Raised by the recorder to stop dispatch after capturing args."""


class _Recorder:
    """Servant that records the decoded arguments of any operation."""

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        calls = self.calls

        def method(*args):
            calls[name] = args
            raise _Served()

        return method


def _norm(value):
    """Normalize presented values so str/bytes and record/tuple
    presentation differences do not mask (or fake) a wire difference."""
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, (list, tuple)):
        return tuple(_norm(item) for item in value)
    if hasattr(value, "_fields"):
        return tuple(_norm(getattr(value, f)) for f in value._fields)
    return value


def _payload(spec, module):
    """A payload spec is a tuple of args, or a callable taking the
    sender's stub module (to construct its record classes)."""
    return spec(module) if callable(spec) else spec


def encode_request(module, op, args):
    buffer = MarshalBuffer()
    getattr(module, "_m_req_%s" % op)(buffer, CTX, *args)
    return buffer.getvalue()


def encode_reply(module, op, results):
    buffer = MarshalBuffer()
    getattr(module, "_m_rep_ok_%s" % op)(buffer, CTX, *results)
    return buffer.getvalue()


def probe_request(sender, receiver, op, args):
    """Encode a request with *sender*'s stubs, serve it with
    *receiver*'s dispatch; returns the decoded args or BREAK."""
    request = encode_request(sender, op, args)
    recorder = _Recorder()
    server = StubServer(receiver, recorder)
    try:
        server.serve_bytes(request)
    except Exception:
        pass
    if op not in recorder.calls:
        return BREAK
    return _norm(recorder.calls[op])


def probe_reply(sender, receiver, op, results):
    """Encode a success reply with *sender*'s stubs, decode it with
    *receiver*'s client-side unmarshaler; returns the value or BREAK."""
    reply = encode_reply(sender, op, results)
    try:
        offset = receiver._check_reply(reply, CTX)
        value = getattr(receiver, "_u_rep_%s" % op)(reply, offset)
    except Exception:
        return BREAK
    return _norm(value)


_COMPILED = {}


def compiled(text, lang, protocol):
    key = (text, lang, protocol)
    if key not in _COMPILED:
        result = api.compile(text, lang, backend=protocol)
        _COMPILED[key] = (result, result.stubs.load())
    return _COMPILED[key]


_DIFFED = {}


def diffed(old, new, lang, protocol):
    key = (old, new, lang, protocol)
    if key not in _DIFFED:
        _DIFFED[key] = diff_texts(old, new, lang,
                                  protocols=(protocol,))[protocol]
    return _DIFFED[key]


# ---------------------------------------------------------------------
# The IDL-edit matrix.
# ---------------------------------------------------------------------


def both(value):
    """The same expectation under both protocols."""
    return {"oncrpc-xdr": value, "iiop": value}


class Case:
    """One schema edit: IDL pair + pinned static verdicts + probe plan.

    ``channels`` maps channel label -> static Verdict (or a per-protocol
    dict).  ``probes`` maps channel label -> (payload, expected) where
    *expected* is the normalized value the receiver must observe, or
    BREAK; a per-protocol dict may wrap the pair.  ``findings`` lists
    substrings that must appear among the diff's finding reasons.
    """

    def __init__(self, name, lang, old, new, op, verdicts, channels,
                 probes, findings=(), protocols=PROTOCOLS):
        self.name = name
        self.lang = lang
        self.old = old
        self.new = new
        self.op = op
        self.verdicts = verdicts
        self.channels = channels
        self.probes = probes
        self.findings = findings
        self.protocols = protocols

    def expected_channels(self, protocol):
        out = {}
        for channel, verdict in self.channels.items():
            if isinstance(verdict, dict):
                verdict = verdict[protocol]
            out[channel] = verdict
        return out

    def probe_plan(self, protocol):
        out = {}
        for channel, spec in self.probes.items():
            if isinstance(spec, dict):
                spec = spec[protocol]
            out[channel] = spec
        return out

    def expected_findings(self, protocol):
        if isinstance(self.findings, dict):
            return self.findings.get(protocol, ())
        return self.findings


MATRIX = [
    Case(
        "identical", "corba",
        "interface T { long f(in string<16> s, in long v); };",
        "interface T { long f(in string<16> s, in long v); };",
        "f",
        verdicts=both(WI),
        channels={"request:old->new": WI, "request:new->old": WI,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (("hi", 5), ("hi", 5)),
                "request:new->old": (("hi", 5), ("hi", 5)),
                "reply:old->new": ((42,), 42),
                "reply:new->old": ((42,), 42)},
    ),
    Case(
        "param-rename", "corba",
        "interface T { long f(in long speed); };",
        "interface T { long f(in long velocity); };",
        "f",
        verdicts=both(WI),
        channels={"request:old->new": WI, "request:new->old": WI,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": ((5,), (5,)),
                "request:new->old": ((5,), (5,)),
                "reply:old->new": ((42,), 42),
                "reply:new->old": ((42,), 42)},
    ),
    Case(
        "widen-string-bound", "corba",
        "interface T { void f(in string<16> s); };",
        "interface T { void f(in string<64> s); };",
        "f",
        verdicts=both(DC),
        channels={"request:old->new": DC, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (("hi",), ("hi",)),
                "request:new->old": (("x" * 40,), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "narrow-string-bound", "corba",
        "interface T { void f(in string<64> s); };",
        "interface T { void f(in string<16> s); };",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": BR, "request:new->old": DC,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (("x" * 40,), BREAK),
                "request:new->old": (("hi",), ("hi",)),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "widen-sequence-bound", "corba",
        "interface T { void f(in sequence<long, 8> v); };",
        "interface T { void f(in sequence<long, 32> v); };",
        "f",
        verdicts=both(DC),
        channels={"request:old->new": DC, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (((1, 2, 3),), ((1, 2, 3),)),
                "request:new->old": (((1,) * 20,), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "add-trailing-request-param", "corba",
        "interface T { void f(in long v); };",
        "interface T { void f(in long v, in long extra); };",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": BR, "request:new->old": DC,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": ((5,), BREAK),
                # Requests tolerate trailing data: the old decoder reads
                # v and ignores the extra long the new encoder appended.
                "request:new->old": ((5, 9), (5,)),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "drop-trailing-request-param", "corba",
        "interface T { void f(in long v, in long extra); };",
        "interface T { void f(in long v); };",
        "f",
        verdicts=both(DC),
        channels={"request:old->new": DC, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": ((5, 9), (5,)),
                "request:new->old": ((5,), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "add-trailing-reply-field", "corba",
        "struct S { long a; }; interface T { S f(); };",
        "struct S { long a; long b; }; interface T { S f(); };",
        "f",
        verdicts=both(BR),
        # Replies do NOT tolerate trailing data (_chk_end), so the added
        # field breaks both directions: old replies truncate under the
        # new decoder, new replies carry trailing bytes the old decoder
        # rejects.
        channels={"request:old->new": WI, "request:new->old": WI,
                  "reply:old->new": BR, "reply:new->old": BR},
        probes={"request:old->new": ((), ()),
                "request:new->old": ((), ()),
                "reply:old->new": (lambda m: (m.S(1),), BREAK),
                "reply:new->old": (lambda m: (m.S(1, 2),), BREAK)},
    ),
    Case(
        "reorder-struct-fields", "corba",
        "struct S { long a; string<8> b; };"
        " interface T { void f(in S s); };",
        "struct S { string<8> b; long a; };"
        " interface T { void f(in S s); };",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": BR, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (lambda m: (m.S(7, "xy"),), BREAK),
                "request:new->old": (lambda m: (m.S("xy", 7),), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "long-to-longlong", "corba",
        "interface T { void f(in long v, in long tag); };",
        "interface T { void f(in long long v, in long tag); };",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": BR, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": ((5, 9), BREAK),
                "request:new->old": ((5, 9), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        # The paper's canonical protocol asymmetry: XDR widens short to
        # four bytes so the edit is invisible on the wire; CDR encodes
        # short in two bytes so every offset after it shifts.
        "short-to-long", "corba",
        "interface T { void f(in short v, in long tag); };",
        "interface T { void f(in long v, in long tag); };",
        "f",
        verdicts={"oncrpc-xdr": WI, "iiop": BR},
        channels={"request:old->new": {"oncrpc-xdr": WI, "iiop": BR},
                  "request:new->old": {"oncrpc-xdr": WI, "iiop": BR},
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": {"oncrpc-xdr": ((5, 9), (5, 9)),
                                     "iiop": ((5, 9), BREAK)},
                "request:new->old": {"oncrpc-xdr": ((5, 9), (5, 9)),
                                     "iiop": ((5, 9), BREAK)},
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        # Same asymmetry, other way round: XDR strings and opaques share
        # a layout (length + bytes), CDR strings carry a NUL terminator.
        "string-to-opaque", "oncrpc",
        "typedef string blob<16>;"
        " program P { version V { int f(blob) = 1; } = 1; } = 0x20000001;",
        "typedef opaque blob<16>;"
        " program P { version V { int f(blob) = 1; } = 1; } = 0x20000001;",
        "f",
        verdicts={"oncrpc-xdr": DC, "iiop": BR},
        channels={"request:old->new": {"oncrpc-xdr": DC, "iiop": BR},
                  "request:new->old": {"oncrpc-xdr": DC, "iiop": BR},
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": {"oncrpc-xdr": (("hi",), ("hi",)),
                                     "iiop": (("hi",), BREAK)},
                "request:new->old": {"oncrpc-xdr": ((b"hi",), ("hi",)),
                                     "iiop": ((b"hi",), BREAK)},
                "reply:old->new": ((3,), 3),
                "reply:new->old": ((3,), 3)},
    ),
    Case(
        "union-arm-added", "corba",
        "union U switch (long) { case 0: long a; case 1: long b; };"
        " interface T { void f(in U u); };",
        "union U switch (long) { case 0: long a; case 1: long b;"
        " case 2: long c; }; interface T { void f(in U u); };",
        "f",
        verdicts=both(DC),
        channels={"request:old->new": DC, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (((0, 5),), ((0, 5),)),
                # Witness: the new encoder selects the arm the old
                # decoder has never heard of.
                "request:new->old": (((2, 5),), BREAK),
                "reply:old->new": ((), None),
                "reply:new->old": ((), None)},
    ),
    Case(
        "union-default-routing", "corba",
        "union U switch (long) { case 0: long a; case 1: long b; };"
        " interface T { void f(in U u); };",
        "union U switch (long) { case 0: long a; default: long d; };"
        " interface T { void f(in U u); };",
        "f",
        verdicts=both(DC),
        channels={"request:old->new": DC, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={
            # disc=1 routes to the new decoder's default arm; the arm
            # payloads are layout-identical, so the value survives.
            "request:old->new": (((1, 42),), ((1, 42),)),
            # The new encoder's default accepts any discriminator; the
            # old decoder has no arm for 7.
            "request:new->old": (((7, 42),), BREAK),
            "reply:old->new": ((), None),
            "reply:new->old": ((), None)},
    ),
    Case(
        "removed-operation", "corba",
        "interface T { void f(in long v); void g(in long v); };",
        "interface T { void f(in long v); };",
        "g",
        verdicts=both(BR),
        channels={},
        probes={"request:old->new": ((5,), BREAK)},
        findings=("operation removed",),
    ),
    Case(
        "added-operation", "corba",
        "interface T { void f(in long v); };",
        "interface T { void f(in long v); void g(in long v); };",
        "g",
        verdicts=both(DC),
        channels={},
        probes={"request:new->old": ((5,), BREAK)},
        findings=("operation added",),
    ),
    Case(
        # Renumbering an ONC procedure breaks the envelope (demux key +
        # call header) while the body stays byte-identical; GIOP demuxes
        # on the operation *name*, so the same edit is invisible there.
        "onc-proc-renumber", "oncrpc",
        "program P { version V { int ping(int) = 1; } = 1; }"
        " = 0x20000002;",
        "program P { version V { int ping(int) = 3; } = 1; }"
        " = 0x20000002;",
        "ping",
        verdicts={"oncrpc-xdr": BR, "iiop": WI},
        channels={"request:old->new": WI, "request:new->old": WI,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": {"oncrpc-xdr": ((5,), BREAK),
                                     "iiop": ((5,), (5,))},
                "request:new->old": {"oncrpc-xdr": ((5,), BREAK),
                                     "iiop": ((5,), (5,))},
                "reply:old->new": ((3,), 3),
                "reply:new->old": ((3,), 3)},
        findings={"oncrpc-xdr": ("demux key changed",)},
    ),
    Case(
        "fixed-array-resize", "oncrpc",
        "struct S { int v[3]; int tag; };"
        " program P { version V { int f(S) = 1; } = 1; } = 0x20000003;",
        "struct S { int v[4]; int tag; };"
        " program P { version V { int f(S) = 1; } = 1; } = 0x20000003;",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": BR, "request:new->old": BR,
                  "reply:old->new": WI, "reply:new->old": WI},
        probes={"request:old->new": (lambda m: (m.S((1, 2, 3), 9),),
                                     BREAK),
                "request:new->old": (lambda m: (m.S((1, 2, 3, 4), 9),),
                                     BREAK),
                "reply:old->new": ((3,), 3),
                "reply:new->old": ((3,), 3)},
    ),
    Case(
        # A purely semantic break: the request bytes still decode, but
        # one side awaits a reply the other never sends.  The static
        # analysis must flag it even though every body channel is clean.
        "oneway-change", "corba",
        "interface T { void f(in long v); };",
        "interface T { oneway void f(in long v); };",
        "f",
        verdicts=both(BR),
        channels={"request:old->new": WI, "request:new->old": WI},
        probes={"request:old->new": ((5,), (5,)),
                "request:new->old": ((5,), (5,))},
        findings=("oneway changed",),
    ),
]

def _case_params():
    for case in MATRIX:
        for protocol in case.protocols:
            yield pytest.param(case, protocol,
                               id="%s-%s" % (case.name, protocol))


class TestMatrix:
    """Static verdicts must agree with observed encode/decode behavior."""

    @pytest.mark.parametrize("case,protocol", list(_case_params()))
    def test_static_verdicts(self, case, protocol):
        diff = diffed(case.old, case.new, case.lang, protocol)
        ops = {op.operation: op for op in diff.operations}
        assert case.op in ops
        operation = ops[case.op]
        assert operation.verdict is case.verdicts[protocol], (
            "operation verdict %s, expected %s" % (
                operation.verdict, case.verdicts[protocol]))
        channels = {ch.channel: ch.verdict for ch in operation.channels}
        for label, expected in case.expected_channels(protocol).items():
            assert channels[label] is expected, (
                "%s: static %s, expected %s"
                % (label, channels[label], expected))
        reasons = [f.reason for f in operation.findings]
        reasons += [f.reason for f in diff.findings]
        for needle in case.expected_findings(protocol):
            assert any(needle in reason for reason in reasons), (
                "no finding mentions %r in %r" % (needle, reasons))

    @pytest.mark.parametrize("case,protocol", list(_case_params()))
    def test_dynamic_agreement(self, case, protocol):
        _, old_mod = compiled(case.old, case.lang, protocol)
        _, new_mod = compiled(case.new, case.lang, protocol)
        diff = diffed(case.old, case.new, case.lang, protocol)
        operation = {op.operation: op
                     for op in diff.operations}[case.op]
        channels = {ch.channel: ch.verdict for ch in operation.channels}

        for label, (payload_spec, expected) in sorted(
                case.probe_plan(protocol).items()):
            kind, direction = label.split(":")
            if direction == "old->new":
                sender, receiver = old_mod, new_mod
            else:
                sender, receiver = new_mod, old_mod
            payload = _payload(payload_spec, sender)
            if kind == "request":
                observed = probe_request(sender, receiver, case.op,
                                         payload)
                sent = _norm(payload)
            else:
                observed = probe_reply(sender, receiver, case.op,
                                       payload)
                sent = (_norm(payload[0]) if len(payload) == 1
                        else _norm(payload))
            if expected is BREAK:
                # An observable break is either an outright rejection
                # (never dispatched / decode raised) or a silent
                # misread: the receiver "decoded" values that are not
                # what the sender put on the wire.
                assert observed is BREAK or observed != sent, (
                    "%s: expected an observable break, receiver decoded"
                    " %r faithfully" % (label, observed))
            else:
                assert observed == _norm(expected), (
                    "%s: receiver observed %r, expected %r"
                    % (label, observed, expected))
            # A channel the analysis calls BREAKING must fail in
            # practice; a probe that fails must be explained by a
            # BREAKING channel or a BREAKING envelope/structural
            # finding.
            static = channels.get(label)
            if static is BR:
                assert expected is BREAK, (
                    "%s claimed BREAKING but the probe was expected to"
                    " succeed" % label)
            if expected is BREAK and static not in (None, BR):
                assert any(f.verdict is BR for f in operation.findings), (
                    "%s: probe breaks with a %s channel and no BREAKING"
                    " finding" % (label, static))

    @pytest.mark.parametrize("case,protocol", list(_case_params()))
    def test_wire_identical_means_byte_identical(self, case, protocol):
        """WIRE_IDENTICAL is a proof obligation: same args must yield
        the same bytes from both schemas' encoders."""
        if case.verdicts[protocol] is not WI:
            pytest.skip("operation not WIRE_IDENTICAL under %s"
                        % protocol)
        _, old_mod = compiled(case.old, case.lang, protocol)
        _, new_mod = compiled(case.new, case.lang, protocol)
        for label, spec in case.probe_plan(protocol).items():
            if isinstance(spec, dict):
                spec = spec[protocol]
            payload_spec, expected = spec
            if expected is BREAK:
                continue
            kind = label.split(":")[0]
            old_payload = _payload(payload_spec, old_mod)
            new_payload = _payload(payload_spec, new_mod)
            if kind == "request":
                assert (encode_request(old_mod, case.op, old_payload)
                        == encode_request(new_mod, case.op, new_payload))
            else:
                assert (encode_reply(old_mod, case.op, old_payload)
                        == encode_reply(new_mod, case.op, new_payload))

    def test_matrix_is_large_enough(self):
        assert len(MATRIX) >= 15
        assert sum(len(c.protocols) for c in MATRIX) >= 30


# ---------------------------------------------------------------------
# Golden ``flick diff --json`` reports.
# ---------------------------------------------------------------------


class TestGoldenReports:
    def _golden(self, name):
        import os
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "compat", name)
        with open(path) as handle:
            return json.load(handle)

    def test_mail_evolution_json(self):
        """The shipped example pair produces exactly the stored report
        (both protocols) and the DECODE_COMPATIBLE exit code."""
        import os
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "idl")
        with open(os.path.join(root, "mail.idl")) as handle:
            old = handle.read()
        with open(os.path.join(root, "mail_v2.idl")) as handle:
            new = handle.read()
        diffs = diff_texts(old, new, "corba")
        report = diff_report_json(diffs, "mail.idl", "mail_v2.idl",
                                  lang="corba")
        assert report == self._golden("mail_v1_v2.json")
        assert diff_exit_code(diffs) == 1

    def test_breaking_narrow_json(self):
        old = "interface Mail { void send(in string<1024> msg); };"
        new = "interface Mail { void send(in string<16> msg); };"
        diffs = diff_texts(old, new, "corba")
        report = diff_report_json(diffs, "old.idl", "new.idl",
                                  lang="corba")
        assert report == self._golden("narrow_string.json")
        assert diff_exit_code(diffs) == 2

    #: golden file -> (old schema, new schema), example or inline
    #: (``tests.bridge_plans.source``), diffed on both protocols.
    PAIRS = {
        "sensor_v1_v2.json": ("sensor.idl", "sensor_v2.idl"),
        "sensor_v2_v1.json": ("sensor_v2.idl", "sensor.idl"),
        "shapes_long.json": ("shapes.idl", "shapes_long.idl"),
        "shapes_long_back.json": ("shapes_long.idl", "shapes.idl"),
    }

    @pytest.mark.parametrize("golden", sorted(PAIRS))
    def test_bridged_pairs_json(self, golden):
        """The schema pairs the bridge goldens bridge, diffed as plain
        schema evolutions (regenerate: ``python -m tests.bridge_plans
        diffs``)."""
        from tests import bridge_plans

        old, new = self.PAIRS[golden]
        assert bridge_plans.diff_report(old, new) == self._golden(golden)

    def test_cli_diff_json_matches_library(self, tmp_path, capsys):
        from repro.tools.cli import main
        old = tmp_path / "mail.idl"
        new = tmp_path / "mail_v2.idl"
        import os
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "idl")
        with open(os.path.join(root, "mail.idl")) as handle:
            old.write_text(handle.read())
        with open(os.path.join(root, "mail_v2.idl")) as handle:
            new.write_text(handle.read())
        code = main(["diff", str(old), str(new), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        golden = self._golden("mail_v1_v2.json")
        assert payload["protocols"] == golden["protocols"]
        assert payload["verdict"] == golden["verdict"]


# ---------------------------------------------------------------------
# Optional pointers and void arms through flick diff and flick bridge.
# ---------------------------------------------------------------------

#: An ONC program with an optional field in its request and a void
#: default arm in its reply union.
OPTIONAL_ONC = """
struct rec {
    int id;
    %s *extra;
};
union res switch (int status) {
case 0:
    int value;
default:
    void;
};
program OPT {
    version OPTV {
        res put(rec) = 1;
    } = 1;
} = 0x20000123;
"""


class TestOptionalAndVoidArms:
    def _write(self, tmp_path, name, element="int"):
        path = tmp_path / name
        path.write_text(OPTIONAL_ONC % element)
        return str(path)

    def test_diff_identity_walks_optional_and_void(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "opt.x")
        assert main(["diff", path, path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "WIRE_IDENTICAL"
        for protocol in ("iiop", "oncrpc-xdr"):
            channels = report["protocols"][protocol]["operations"]["put"][
                "channels"]
            assert sorted(channels) == ["reply:new->old", "reply:old->new",
                                        "request:new->old",
                                        "request:old->new"]
            assert all(channel == {"findings": [],
                                   "verdict": "WIRE_IDENTICAL"}
                       for channel in channels.values())

    def test_diff_recoded_optional_element_breaks(self, tmp_path, capsys):
        from repro.tools.cli import main

        old = self._write(tmp_path, "opt.x")
        new = self._write(tmp_path, "opt_hyper.x", "hyper")
        assert main(["diff", old, new]) == 2
        out = capsys.readouterr().out
        assert "request.arg1.extra* @48: atom recoded: sender i (4 bytes," \
            " align 4) vs receiver q (8 bytes, align 4) under xdr" in out
        assert "request.arg1.extra* @60: atom recoded: sender i (4 bytes," \
            " align 4) vs receiver q (8 bytes, align 8) under cdr-be" in out
        assert out.rstrip().endswith("verdict: BREAKING")

    def test_bridge_names_the_optional_blocker(self, tmp_path, capsys):
        from repro.tools.cli import main

        path = self._write(tmp_path, "opt.x")
        assert main(["bridge", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: WIRE_IDENTICAL" in out
        assert "    request falls back at request.arg1.extra: optional\n" \
            in out
        assert "    reply falls back at reply[case 0]._return: union\n" \
            in out
        assert "overall: 0/2 channels take the fused path" in out
        assert main(["bridge", path, "--json"]) == 0
        fused = json.loads(capsys.readouterr().out)["fused"]["put"]
        assert {direction: (prediction["fused"], prediction["blocker"])
                for direction, prediction in fused.items()} == {
            "request": (False, "request.arg1.extra: optional"),
            "reply": (False, "reply[case 0]._return: union")}


# ---------------------------------------------------------------------
# Property: diffing any schema against itself is WIRE_IDENTICAL, for
# every frontend and protocol.
# ---------------------------------------------------------------------


_CORBA_PARAM_TYPES = st.one_of(
    st.sampled_from(["long", "short", "unsigned long", "long long",
                     "octet", "boolean", "float", "double"]),
    st.integers(1, 64).map(lambda n: "string<%d>" % n),
    st.integers(1, 16).map(lambda n: "sequence<long, %d>" % n),
)


@st.composite
def corba_interfaces(draw):
    params = draw(st.lists(_CORBA_PARAM_TYPES, min_size=0, max_size=3))
    ret = draw(st.sampled_from(["void", "long", "string<32>"]))
    arglist = ", ".join("in %s p%d" % (t, i)
                        for i, t in enumerate(params))
    return "interface T { %s f(%s); };" % (ret, arglist)


_ONC_PARAM_TYPES = st.sampled_from(
    ["int", "unsigned int", "hyper", "bool", "float", "double"])


@st.composite
def onc_programs(draw):
    fields = draw(st.lists(_ONC_PARAM_TYPES, min_size=1, max_size=3))
    body = " ".join("%s m%d;" % (t, i) for i, t in enumerate(fields))
    number = draw(st.integers(0x20000100, 0x200001FF))
    return ("struct A { %s }; program P { version V {"
            " int f(A) = 1; } = 1; } = %d;" % (body, number))


@st.composite
def mig_subsystems(draw):
    count = draw(st.integers(1, 3))
    args = "; ".join("a%d : int" % i for i in range(count))
    return ("subsystem s %d;\nroutine f(server : mach_port_t; %s;"
            " out total : int);\n" % (draw(st.integers(100, 999)), args))


class TestIdentityProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=corba_interfaces())
    def test_corba_identity_is_wire_identical(self, text):
        for protocol in PROTOCOLS:
            diff = diff_texts(text, text, "corba",
                              protocols=(protocol,))[protocol]
            assert diff.verdict is WI, (protocol, text, diff.to_json())

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=onc_programs())
    def test_oncrpc_identity_is_wire_identical(self, text):
        for protocol in PROTOCOLS:
            diff = diff_texts(text, text, "oncrpc",
                              protocols=(protocol,))[protocol]
            assert diff.verdict is WI, (protocol, text, diff.to_json())

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=mig_subsystems())
    def test_mig_identity_is_wire_identical(self, text):
        diff = diff_texts(text, text, "mig",
                          protocols=("mach3",))["mach3"]
        assert diff.verdict is WI, (text, diff.to_json())
