"""Unit tests for the baseline comparator compilers."""

import pytest

from repro import frontends
from repro.errors import (
    BackEndError,
    MarshalError,
    RemoteCallError,
    TransportError,
    WireFormatError,
)
from repro.compilers import (
    BASELINES,
    COMPILER_ATTRIBUTES,
    make_baseline,
)
from repro.runtime import LoopbackTransport
from repro.pres.values import normalize

from tests.conftest import MAIL_IDL, MIG_IDL, MailImpl, compile_mail, present


@pytest.fixture(scope="module")
def mail_presc_iiop():
    return compile_mail("iiop").presc


@pytest.fixture(scope="module")
def mail_presc_xdr():
    return compile_mail("oncrpc-xdr").presc


def exercise(module):
    impl = MailImpl(module)
    client = module.Test_MailClient(
        LoopbackTransport(module.dispatch, impl)
    )
    rect = module.Test_Rect(module.Test_Point(1, 2), module.Test_Point(3, 4))
    assert normalize(client.send("hello", rect, (1, 2.5))) == (
        10, (1, 2.5), 2,
    )
    client.ping(5)
    assert impl.last_ping == 5
    assert client.avg([2, 4, 6]) == 4.0
    assert client.reverse(b"ab") == b"ba"
    with pytest.raises(module.Test_Bad):
        client.send("fail", rect, (0, 1))


class TestRpcgenStyle:
    def test_full_interface(self, mail_presc_xdr):
        module = make_baseline("rpcgen").generate(mail_presc_xdr).load()
        exercise(module)

    def test_generated_code_is_per_datum(self, mail_presc_xdr):
        stubs = make_baseline("rpcgen").generate(mail_presc_xdr)
        assert "_rt.put_int" in stubs.py_source
        assert "_rt.put_string" in stubs.py_source
        # The optimizing library's chunked packs must not appear.
        assert "_pack_into('>ii" not in stubs.py_source

    def test_named_types_get_xdr_functions(self, mail_presc_xdr):
        stubs = make_baseline("rpcgen").generate(mail_presc_xdr)
        assert "def _xdr_put_Test__Rect(" in stubs.py_source
        assert "def _xdr_get_Test__Rect(" in stubs.py_source

    def test_linear_dispatch(self, mail_presc_xdr):
        stubs = make_baseline("rpcgen").generate(mail_presc_xdr)
        assert "_HANDLERS" not in stubs.py_source

    def test_bound_checks_preserved(self, mail_presc_xdr):
        module = make_baseline("rpcgen").generate(mail_presc_xdr).load()
        client = module.Test_MailClient(None)
        from repro.encoding import MarshalBuffer

        buffer = MarshalBuffer()
        with pytest.raises(MarshalError):
            module._m_req_tri(buffer, 1, [])


class TestPowerRpcStyle:
    def test_full_interface(self, mail_presc_xdr):
        module = make_baseline("powerrpc").generate(mail_presc_xdr).load()
        exercise(module)

    def test_is_rpcgen_derived(self):
        from repro.compilers import PowerRpcStyleCompiler, RpcgenStyleCompiler

        assert issubclass(PowerRpcStyleCompiler, RpcgenStyleCompiler)


class TestOrbelineStyle:
    def test_full_interface(self, mail_presc_iiop):
        module = make_baseline("orbeline").generate(mail_presc_iiop).load()
        exercise(module)

    def test_streams_per_datum(self, mail_presc_iiop):
        stubs = make_baseline("orbeline").generate(mail_presc_iiop)
        assert "_s.put_long(" in stubs.py_source
        assert "CdrOutStream" in stubs.py_source

    def test_runtime_layer_in_client_path(self, mail_presc_iiop):
        stubs = make_baseline("orbeline").generate(mail_presc_iiop)
        assert "_orb_runtime_layer(" in stubs.py_source


class TestIluStyle:
    def test_full_interface(self, mail_presc_iiop):
        module = make_baseline("ilu").generate(mail_presc_iiop).load()
        exercise(module)

    def test_no_generated_marshal_code(self, mail_presc_iiop):
        stubs = make_baseline("ilu").generate(mail_presc_iiop)
        assert "interpretive" in stubs.py_source

    def test_metadata_marks_interpretive(self, mail_presc_iiop):
        stubs = make_baseline("ilu").generate(mail_presc_iiop)
        assert stubs.metadata["style"] == "interpretive"

    def test_structs_decode_to_dicts(self, mail_presc_iiop):
        module = make_baseline("ilu").generate(mail_presc_iiop).load()

        captured = {}

        class Impl:
            def tri(self, t):
                captured["t"] = t

        from repro.encoding import MarshalBuffer

        buffer = MarshalBuffer()
        module._m_req_tri(
            buffer, 1,
            [{"x": 1, "y": 2}, {"x": 3, "y": 4}, {"x": 5, "y": 6}],
        )
        reply = MarshalBuffer()
        module.dispatch(buffer.getvalue(), Impl(), reply)
        assert captured["t"][0] == {"x": 1, "y": 2}

    def test_truncated_frames_are_wire_format_errors(self, mail_presc_iiop):
        """A short request or reply is refused as a WireFormatError, as
        every Flick stub refuses it (a server then answers MARSHAL and
        keeps the connection), never as a raw struct.error (which a
        server takes for a servant crash)."""
        from repro.encoding import MarshalBuffer

        module = make_baseline("ilu").generate(mail_presc_iiop).load()
        request = MarshalBuffer()
        module._m_req_avg(request, 1, [1, 2])
        request = request.getvalue()
        reply = MarshalBuffer()
        assert module.dispatch(request, MailImpl(module), reply)
        with pytest.raises(WireFormatError):
            module.dispatch(request[:14], MailImpl(module), MarshalBuffer())
        with pytest.raises(WireFormatError):
            module._check_reply(reply.getvalue()[:14], 1)

    def test_reply_envelope_verdicts_match_flick(self, mail_presc_iiop):
        """A system-exception reply raises the RemoteCallError it carries
        and a reply to another request is a TransportError, as in the
        stubs Flick generates."""
        from repro.encoding import MarshalBuffer

        flick = compile_mail("iiop").module
        module = make_baseline("ilu").generate(mail_presc_iiop).load()
        request = MarshalBuffer()
        flick._m_req_avg(request, 1, [1, 2])
        refusal = MarshalBuffer()
        assert flick.encode_error_reply(
            request.getvalue(), WireFormatError("bad frame"), refusal)

        class Canned:
            def call(self, _request):
                return refusal.getvalue()

        client = module.Test_MailClient(Canned())
        with pytest.raises(RemoteCallError) as raised:
            client.avg([1, 2])
        assert raised.value.code == "IDL:omg.org/CORBA/MARSHAL:1.0"
        with pytest.raises(TransportError):
            client.avg([1, 2])  # the second call's id is 2


class TestMigStyle:
    def test_staged_byte_copy_in_c(self):
        """MIG stages byte data through a copy; its C binds the data
        pointer once and copies the run from there."""
        root = frontends.get("corba").compile_frontend(
            "typedef sequence<octet, 64> Blob;"
            " interface I { void put(in Blob b); };")
        text = make_baseline("mig").generate(present(root, "I")).c_source
        assert "    __auto_type _stage2 = b._buffer;\n" in text
        assert "memcpy(_buf->data + _o3 + 8, _stage2, _n1);" in text

    def test_rejects_structs(self, mail_presc_xdr):
        with pytest.raises(BackEndError) as exc_info:
            make_baseline("mig").generate(mail_presc_xdr)
        assert "MIG cannot express" in str(exc_info.value)

    def test_rejects_exceptions(self):
        root = frontends.get("corba").compile_frontend(
            "exception E { long c; };"
            "interface I { void f(in long x) raises (E); };")
        presc = present(root, "I")
        with pytest.raises(BackEndError):
            make_baseline("mig").generate(presc)

    def test_accepts_scalar_interface(self):
        from repro import api

        presc = api.compile(MIG_IDL, "mig").presc
        module = make_baseline("mig").generate(presc).load()

        class Impl(module.arithServant):
            def add(self, a, b):
                return a + b

            def total(self, values):
                return sum(values)

            def poke(self, value):
                self.poked = value

            def greet(self, who):
                return "hi " + who

        client = module.arithClient(
            LoopbackTransport(module.dispatch, Impl())
        )
        assert client.add(40, 2) == 42
        assert client.total(list(range(10))) == 45
        assert client.greet("mach") == "hi mach"

    def test_staging_copy_in_generated_code(self):
        from repro import api

        stubs = make_baseline("mig").generate(
            api.compile(MIG_IDL, "mig").presc)
        assert "bytearray(" in stubs.py_source  # the typed-message staging


class TestPinnedText:
    def test_every_cell_matches_golden(self):
        """Every comparator's text (or refusal) for every schema and
        presentation is the one tests/golden/baselines.json pins."""
        import json

        from tests import baseline_cells

        with open(baseline_cells.GOLDEN) as handle:
            golden = json.load(handle)
        actual = baseline_cells.cells()
        assert sorted(actual) == sorted(golden)
        changed = [key for key in golden if actual[key] != golden[key]]
        assert not changed, changed


class TestRegistry:
    def test_all_baselines_constructible(self):
        for name in BASELINES:
            assert make_baseline(name).name == name

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            make_baseline("corba-2000")

    def test_table3_attributes_cover_all_compilers(self):
        names = {row[0] for row in COMPILER_ATTRIBUTES}
        assert {"rpcgen", "PowerRPC", "ORBeline", "ILU", "MIG", "Flick"} <= names
