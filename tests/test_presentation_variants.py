"""Tests for the length-carrying presentation (paper section 2.2).

"the Mail_send function could be defined to take a separate message
length argument ... This change to the presentation would not affect the
network contract between client and server."
"""

import pytest

from repro import api
from repro.cast import emit_c
from repro.encoding import MarshalBuffer
from repro.errors import BackEndError
from repro.runtime import LoopbackTransport

MAIL_IDL = """
interface Mail {
    long send(in string msg);
    string motd();
};
"""


@pytest.fixture(scope="module")
def standard():
    return api.compile(MAIL_IDL, "corba", backend="iiop")


@pytest.fixture(scope="module")
def with_length():
    return api.compile(
        MAIL_IDL, "corba", presentation="corba-c-len", backend="iiop")


class TestLengthPresentation:
    def test_c_contract_gains_length_parameter(self, with_length):
        text = emit_c([with_length.presc.stub_named("send").c_decl])
        assert "CORBA_unsigned_long msg_len" in text

    def test_standard_contract_has_no_length(self, standard):
        text = emit_c([standard.presc.stub_named("send").c_decl])
        assert "msg_len" not in text

    def test_python_side_takes_bytes(self, with_length):
        module = with_length.module

        class Impl(module.MailServant):
            def send(self, msg):
                assert isinstance(msg, bytes)
                return len(msg)

            def motd(self):
                return b"welcome"

        client = module.MailClient(
            LoopbackTransport(module.dispatch, Impl())
        )
        assert client.send(b"hello") == 5
        assert client.motd() == b"welcome"

    def test_network_contract_unchanged(self, standard, with_length):
        """The paper's key sentence: messages are byte-identical."""
        standard_module = standard.module
        length_module = with_length.module
        buffer_a, buffer_b = MarshalBuffer(), MarshalBuffer()
        standard_module._m_req_send(buffer_a, 7, "hello")
        length_module._m_req_send(buffer_b, 7, b"hello")
        assert buffer_a.getvalue() == buffer_b.getvalue()

    def test_cross_presentation_interop(self, standard, with_length):
        """A standard-presentation client against a length-presentation
        server: same wire, different programmer's contracts."""
        length_module = with_length.module

        class Impl(length_module.MailServant):
            def send(self, msg):
                return len(msg)

            def motd(self):
                return b"hi"

        standard_module = standard.module
        client = standard_module.MailClient(
            LoopbackTransport(length_module.dispatch, Impl())
        )
        assert client.send("four") == 4
        assert client.motd() == "hi"  # standard side decodes to str

    def test_no_encode_in_generated_marshal(self, with_length):
        source = with_length.stubs.py_source
        body = source.split("def _m_req_send(")[1].split("def ")[0]
        assert ".encode(" not in body

    def test_bound_still_enforced(self):
        result = api.compile(
            "interface I { void f(in string<4> s); };", "corba",
            presentation="corba-c-len", backend="iiop")
        module = result.module
        from repro.errors import MarshalError

        buffer = MarshalBuffer()
        with pytest.raises(MarshalError):
            module._m_req_f(buffer, 1, b"toolong")

    def test_baselines_reject_the_variant(self, with_length):
        from repro.compilers import make_baseline

        for name in ("rpcgen", "orbeline"):
            with pytest.raises(BackEndError):
                make_baseline(name).generate(with_length.presc)

    def test_strings_nested_in_structs(self):
        result = api.compile(
            "struct Msg { string subject; long prio; };"
            "interface Q { Msg bump(in Msg m); };",
            "corba", presentation="corba-c-len", backend="iiop")
        module = result.module

        class Impl(module.QServant):
            def bump(self, m):
                assert isinstance(m.subject, bytes)
                return module.Msg(m.subject + b"!", m.prio + 1)

        client = module.QClient(
            LoopbackTransport(module.dispatch, Impl())
        )
        out = client.bump(module.Msg(b"hi", 1))
        assert out.subject == b"hi!" and out.prio == 2

    def test_interp_codec_agrees(self, with_length):
        from repro.pres import InterpretiveCodec
        from repro.encoding import CDR_BE

        presc = with_length.presc
        stub = presc.stub_named("send")
        codec = InterpretiveCodec(
            CDR_BE, presc.pres_registry, presc.mint_registry
        )
        module = with_length.module
        generated = MarshalBuffer()
        module._m_req_send(generated, 7, b"hello")
        header = len(module._H_req_send)
        reference = MarshalBuffer()
        reference.reserve(header)
        codec.encode(stub.request_pres, {"msg": b"hello"}, reference)
        assert generated.getvalue()[header:] == reference.getvalue()[header:]

    def test_all_backends_support_it(self):
        for backend in ("iiop", "oncrpc-xdr", "mach3", "fluke"):
            result = api.compile(
                MAIL_IDL, "corba", presentation="corba-c-len", backend=backend)
            module = result.module

            class Impl(module.MailServant):
                def send(self, msg):
                    return len(msg)

                def motd(self):
                    return b"x"

            client = module.MailClient(
                LoopbackTransport(module.dispatch, Impl())
            )
            assert client.send(b"12345") == 5
