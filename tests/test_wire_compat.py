"""Cross-compiler and cross-configuration wire compatibility.

The optimizations must be invisible on the wire: every optimization flag
combination, every baseline compiler, and the interpretive reference codec
must produce byte-identical messages for the same values.
"""

import itertools

import pytest

from repro import OptFlags, api
from repro.compilers import make_baseline
from repro.encoding import FORMATS, MarshalBuffer
from repro.errors import FlickUserException
from repro.pres import InterpretiveCodec
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

from tests.conftest import (
    ALL_BACKENDS, ATOMS_IDL, ATOMS_X, MAIL_IDL, MailImpl, compile_mail)

_FORMAT_FOR = {
    "iiop": "cdr-be",
    "oncrpc-xdr": "xdr",
    "mach3": "mach3",
    "fluke": "fluke",
}

_HEADER_LEN = {"iiop": 56, "oncrpc-xdr": 40, "mach3": 20, "fluke": 4}

FLAG_VARIANTS = [
    OptFlags(),
    OptFlags.all_off(),
    OptFlags(chunk_atoms=False),
    OptFlags(memcpy_arrays=False),
    OptFlags(inline_marshal=False),
    OptFlags(batch_buffer_checks=False),
]


def marshal_send(module, rect_args=(1, 2, 3, 4), msg="hello", v=(1, 2.5)):
    buffer = MarshalBuffer()
    rect = module.Test_Rect(
        module.Test_Point(rect_args[0], rect_args[1]),
        module.Test_Point(rect_args[2], rect_args[3]),
    )
    module._m_req_send(buffer, 7, msg, rect, v)
    return buffer.getvalue()


class TestFlagInvariance:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_flags_do_not_change_bytes(self, backend):
        reference = None
        for flags in FLAG_VARIANTS:
            module = compile_mail(backend, flags).module
            data = marshal_send(module)
            if reference is None:
                reference = data
            assert data == reference, flags

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_union_arms_stable_across_flags(self, backend):
        values = [(0, 7), (1, -1.5), (2, "dflt")]
        for value in values:
            reference = None
            for flags in FLAG_VARIANTS:
                module = compile_mail(backend, flags).module
                data = marshal_send(module, v=value)
                if reference is None:
                    reference = data
                assert data == reference, (value, flags)


class TestInterpAgreement:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_request_body_matches_interp(self, backend):
        result = compile_mail(backend)
        module = result.module
        presc = result.presc
        stub = presc.stub_named("send")
        codec = InterpretiveCodec(
            FORMATS[_FORMAT_FOR[backend]],
            presc.pres_registry,
            presc.mint_registry,
        )
        header = _HEADER_LEN[backend]
        buffer = MarshalBuffer()
        buffer.reserve(header)
        request = {
            "msg": "hello",
            "r": {"ul": {"x": 1, "y": 2}, "lr": {"x": 3, "y": 4}},
            "v": (1, 2.5),
        }
        codec.encode(stub.request_pres, request, buffer)
        generated = marshal_send(module)
        assert buffer.getvalue()[header:] == generated[header:]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_interp_decodes_generated_body(self, backend):
        result = compile_mail(backend)
        module = result.module
        presc = result.presc
        stub = presc.stub_named("send")
        codec = InterpretiveCodec(
            FORMATS[_FORMAT_FOR[backend]],
            presc.pres_registry,
            presc.mint_registry,
        )
        generated = marshal_send(module)
        from repro.encoding import ReadCursor

        cursor = ReadCursor(generated, _HEADER_LEN[backend])
        decoded = {
            field.name: codec._decode(field.pres, cursor)
            for field in stub.request_pres.fields
        }
        assert decoded["msg"] == "hello"
        assert decoded["r"]["ul"] == {"x": 1, "y": 2}
        assert decoded["v"] == (1, 2.5)


#: The Flick back end whose wire each rival speaks.
RIVAL_WIRE = {"rpcgen": "oncrpc-xdr", "powerrpc": "oncrpc-xdr",
              "orbeline": "iiop", "ilu": "iiop"}


class AtomsImpl:
    """A servant for ATOMS_IDL and ATOMS_X over any stub module."""

    def __init__(self, module):
        self.module = module

    def shorts(self, a, b, c):
        if a == -1:
            raise self.module.Atoms_Full(7, "full")
        if a == -2:
            raise self.module.Atoms_Empty()
        return -a

    def bytes(self, a, b, c, d):
        return (a + len(d) + c) % 256

    def moods(self, a, p):
        return a, p, 2.5

    def floats(self, a, b, s):
        return a + len(s)

    def pairs(self, a, b):
        return [a[1], b[0]]

    def nums(self, a, b):
        return a

    def tell(self, a, m):
        pass

    def boxes(self, box):
        return box

    def chain(self, head):
        return head

    def keys(self, key):
        return 1 - key


def _pts(module, *pairs):
    return [module.Atoms_Pt(x, y) for x, y in pairs]


#: schema -> (text, front end, [(operation, module -> arguments)]).
ATOM_CALLS = {
    "ATOMS_IDL": (ATOMS_IDL, "corba", [
        ("shorts", lambda m: (-32767, 65535, -2 ** 63)),
        ("shorts", lambda m: (-1, 0, 0)),
        ("shorts", lambda m: (-2, 0, 0)),
        ("bytes", lambda m: (255, "q", True, b"\x00\xff")),
        ("moods", lambda m: (2, (0, 9))),
        ("moods", lambda m: (0, (2, False))),
        ("floats", lambda m: (1.5, -2.25, "hello")),
        ("pairs", lambda m: (_pts(m, (-1, 65535), (2, 3)), _pts(m, (4, 5)))),
        ("nums", lambda m: ((1, -2 ** 40), (2, True))),
        ("nums", lambda m: ((3, 2.5), (0, 255))),
        ("nums", lambda m: ((7, "z"), (0, 0))),
        ("tell", lambda m: (_pts(m, (1, 1)), 1)),
    ]),
    "ATOMS_X": (ATOMS_X, "oncrpc", [
        ("boxes", lambda m: (m.box(2 ** 64 - 1, b"abcdef", b"xyz", 7),)),
        ("boxes", lambda m: (m.box(0, bytes(6), b"", None),)),
        ("chain", lambda m: (m.node(1, m.node(-2 ** 63, None)),)),
        ("chain", lambda m: (None,)),
        ("keys", lambda m: (2 ** 40,)),
    ]),
}


def _request(module, operation, args):
    buffer = MarshalBuffer()
    getattr(module, "_m_req_" + operation)(buffer, 7, *args)
    return buffer.getvalue()


def _reply(module, request):
    buffer = MarshalBuffer()
    if module.dispatch(request, AtomsImpl(module), buffer):
        return buffer.getvalue()
    return None


def _outcome(client_module, server_module, operation, make_args):
    """What a call returns (or raises), as plain data."""
    client_class = next(getattr(client_module, name)
                        for name in dir(client_module)
                        if name.endswith("Client"))
    client = client_class(LoopbackTransport(
        server_module.dispatch, AtomsImpl(server_module)))
    try:
        return normalize(
            getattr(client, operation)(*make_args(client_module)))
    except FlickUserException as error:
        return normalize(error)


class TestCrossCompiler:
    def test_xdr_compilers_wire_identical(self):
        result = compile_mail("oncrpc-xdr")
        flick_module = result.module
        rpcgen_module = make_baseline("rpcgen").generate(result.presc).load()
        assert marshal_send(flick_module) == marshal_send(rpcgen_module)

    def test_iiop_compilers_wire_identical(self):
        result = compile_mail("iiop")
        flick_module = result.module
        orbeline_module = make_baseline("orbeline").generate(
            result.presc
        ).load()
        ilu_module = make_baseline("ilu").generate(result.presc).load()
        flick_bytes = marshal_send(flick_module)
        assert flick_bytes == marshal_send(orbeline_module)
        assert flick_bytes == marshal_send(ilu_module)

    def test_flick_client_against_rpcgen_server(self):
        result = compile_mail("oncrpc-xdr")
        flick_module = result.module
        rpcgen_module = make_baseline("rpcgen").generate(result.presc).load()
        impl = MailImpl(rpcgen_module)
        transport = LoopbackTransport(rpcgen_module.dispatch, impl)
        client = flick_module.Test_MailClient(transport)
        rect = flick_module.Test_Rect(
            flick_module.Test_Point(1, 2), flick_module.Test_Point(3, 4)
        )
        assert normalize(client.send("hello", rect, (1, 2.5))) == (
            10, (1, 2.5), 2,
        )

    def test_rpcgen_client_against_flick_server(self):
        result = compile_mail("oncrpc-xdr")
        flick_module = result.module
        rpcgen_module = make_baseline("rpcgen").generate(result.presc).load()
        impl = MailImpl(flick_module)
        transport = LoopbackTransport(flick_module.dispatch, impl)
        client = rpcgen_module.Test_MailClient(transport)
        rect = rpcgen_module.Test_Rect(
            rpcgen_module.Test_Point(1, 2), rpcgen_module.Test_Point(3, 4)
        )
        assert normalize(client.send("hi", rect, (0, 9))) == (7, (0, 9), 2)

    def test_ilu_client_against_flick_server(self):
        result = compile_mail("iiop")
        flick_module = result.module
        ilu_module = make_baseline("ilu").generate(result.presc).load()
        impl = MailImpl(flick_module)
        transport = LoopbackTransport(flick_module.dispatch, impl)
        client = ilu_module.Test_MailClient(transport)
        rect = ilu_module.Test_Rect(
            ilu_module.Test_Point(5, 5), ilu_module.Test_Point(5, 5)
        )
        assert normalize(client.send("abc", rect, (1, 0.5))) == (
            13, (1, 0.5), 2,
        )

    def test_exception_across_compilers(self):
        result = compile_mail("iiop")
        flick_module = result.module
        orbeline_module = make_baseline("orbeline").generate(
            result.presc
        ).load()
        impl = MailImpl(flick_module)
        transport = LoopbackTransport(flick_module.dispatch, impl)
        client = orbeline_module.Test_MailClient(transport)
        rect = orbeline_module.Test_Rect(
            orbeline_module.Test_Point(0, 0), orbeline_module.Test_Point(0, 0)
        )
        with pytest.raises(orbeline_module.Test_Bad) as exc_info:
            client.send("fail", rect, (0, 1))
        assert exc_info.value.code == -3

    @pytest.mark.parametrize("schema", sorted(ATOM_CALLS))
    @pytest.mark.parametrize("baseline", sorted(RIVAL_WIRE))
    def test_every_atom_both_directions(self, schema, baseline):
        """Each operation of the all-atom schemas: the rival marshals
        Flick's request bytes, its server answers a request with Flick's
        reply bytes, and every client against every server returns the
        same values (or raises the same exception)."""
        text, lang, calls = ATOM_CALLS[schema]
        result = api.compile(text, lang, backend=RIVAL_WIRE[baseline])
        modules = (result.module,
                   make_baseline(baseline).generate(result.presc).load())
        for operation, make_args in calls:
            requests = [_request(module, operation, make_args(module))
                        for module in modules]
            assert requests[0] == requests[1], operation
            replies = [_reply(module, requests[0]) for module in modules]
            assert replies[0] == replies[1], operation
            outcomes = [_outcome(client, server, operation, make_args)
                        for client in modules for server in modules]
            assert outcomes[1:] == outcomes[:1] * 3, (operation, outcomes)

    def test_little_endian_iiop_roundtrip(self):
        module = api.compile(
            MAIL_IDL, "corba", backend="iiop", little_endian=True).module
        impl = MailImpl(module)
        client = module.Test_MailClient(
            LoopbackTransport(module.dispatch, impl)
        )
        assert client.avg([1, 2, 3]) == 2.0
