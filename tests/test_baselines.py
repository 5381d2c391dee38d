"""Unit tests for the baseline comparator compilers."""

import pytest

from repro import Flick
from repro.errors import BackEndError, MarshalError
from repro.compilers import (
    BASELINES,
    COMPILER_ATTRIBUTES,
    make_baseline,
)
from repro.runtime import LoopbackTransport
from repro.pres.values import normalize

from tests.conftest import MAIL_IDL, MIG_IDL, MailImpl, compile_mail


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


class TestMigStyle:
    def test_rejects_structs(self, mail_presc_xdr):
        with pytest.raises(BackEndError) as exc_info:
            make_baseline("mig").generate(mail_presc_xdr)
        assert "MIG cannot express" in str(exc_info.value)

    def test_rejects_exceptions(self):
        flick = Flick(frontend="corba")
        root = flick.parse(
            "exception E { long c; };"
            "interface I { void f(in long x) raises (E); };"
        )
        presc = flick.present(root, "I")
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
