"""Property-based round-trip tests (hypothesis).

For randomized values of a rich fixed type set, check the central
invariants across every wire format and compiler:

* ``unmarshal(marshal(x)) == x`` for generated stubs;
* the interpretive reference codec produces byte-identical messages and
  decodes generated bytes to the same values;
* optimization flags never change wire bytes.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptFlags, api
from repro.encoding import FORMATS, MarshalBuffer, ReadCursor
from repro.pres import InterpretiveCodec
from repro.pres.values import get_field, normalize

PROP_IDL = """
struct scalars {
  int i; unsigned int u; hyper h; unsigned hyper uh;
  short s; bool b; char c; double d; float f;
};
struct node { int v; node *next; };
union shape switch (int kind) {
  case 0: int i;
  case 1: double d;
  case 2: string s<100>;
  default: void;
};
typedef int ints<>;
typedef double doubles<>;
typedef opaque blob<>;
program PROP {
  version PV {
    void p_scalars(scalars) = 1;
    void p_text(string) = 2;
    void p_blob(blob) = 3;
    void p_ints(ints) = 4;
    void p_doubles(doubles) = 5;
    void p_shape(shape) = 6;
    void p_list(node) = 7;
  } = 1;
} = 0x20000777;
"""

BACKENDS = ("oncrpc-xdr", "iiop", "mach3", "fluke")

_FORMAT_FOR = {
    "oncrpc-xdr": "xdr",
    "iiop": "cdr-be",
    "mach3": "mach3",
    "fluke": "fluke",
}

_HEADERS = {"oncrpc-xdr": 40, "iiop": None, "mach3": 20, "fluke": 4}

_modules = {}


def module_for(backend, flags=None):
    key = (backend, flags)
    if key not in _modules:
        _modules[key] = api.compile(
            PROP_IDL, "oncrpc", backend=backend, flags=flags or OptFlags())
    return _modules[key]


# ----------------------------------------------------------------------
# Value strategies
# ----------------------------------------------------------------------

latin_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=255),
    max_size=64,
)

scalars_values = st.fixed_dictionaries({
    "i": st.integers(-2**31, 2**31 - 1),
    "u": st.integers(0, 2**32 - 1),
    "h": st.integers(-2**63, 2**63 - 1),
    "uh": st.integers(0, 2**64 - 1),
    "s": st.integers(-2**15, 2**15 - 1),
    "b": st.booleans(),
    "c": st.characters(min_codepoint=1, max_codepoint=255),
    "d": st.floats(allow_nan=False, width=64),
    "f": st.floats(allow_nan=False, width=32),
})

shape_values = st.one_of(
    st.tuples(st.just(0), st.integers(-2**31, 2**31 - 1)),
    st.tuples(st.just(1), st.floats(allow_nan=False, width=64)),
    st.tuples(
        st.just(2),
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=255),
            max_size=100,
        ),
    ),
    st.tuples(st.integers(3, 50), st.none()),
)

list_values = st.lists(st.integers(-2**31, 2**31 - 1), max_size=12)


def build_node_chain(module, values):
    chain = None
    for value in reversed(values):
        chain = module.node(value, chain)
    return chain


def chain_to_list(chain):
    out = []
    while chain is not None:
        out.append(get_field(chain, "v"))
        chain = get_field(chain, "next")
    return out


def roundtrip(backend, op, *args):
    """Marshal a request with generated stubs and unmarshal it back."""
    compiled = module_for(backend)
    module = compiled.module
    buffer = MarshalBuffer()
    getattr(module, "_m_req_%s" % op)(buffer, 1, *args)
    data = buffer.getvalue()
    offset = _HEADERS[backend]
    if offset is None:
        # IIOP request headers are parsed dynamically; use dispatch-level
        # parsing through a capturing impl instead.
        captured = []

        class Capture:
            def __getattr__(self, name):
                def handler(*got):
                    captured.append(got)
                return handler

        reply = MarshalBuffer()
        module.dispatch(data, Capture(), reply)
        return captured[0], data
    values, _end = getattr(module, "_u_req_%s" % op)(data, offset)
    return values, data


def interp_body(backend, op, value_dict):
    compiled = module_for(backend)
    presc = compiled.presc
    stub = presc.stub_named(op)
    codec = InterpretiveCodec(
        FORMATS[_FORMAT_FOR[backend]], presc.pres_registry,
        presc.mint_registry,
    )
    header = _HEADERS[backend]
    if header is None:
        header = len(compiled.module.__dict__["_H_req_%s" % op])
    buffer = MarshalBuffer()
    buffer.reserve(header)
    codec.encode(stub.request_pres, value_dict, buffer)
    return buffer.getvalue()[header:], header


@pytest.mark.parametrize("backend", BACKENDS)
class TestScalarRoundtrip:
    @settings(max_examples=60, deadline=None)
    @given(value=scalars_values)
    def test_scalars(self, backend, value):
        module = module_for(backend).module
        record = module.scalars(**value)
        (got,), _data = roundtrip(backend, "p_scalars", record)
        assert normalize(got) == _expected_scalars(value)

    @settings(max_examples=40, deadline=None)
    @given(text=latin_text)
    def test_text(self, backend, text):
        (got,), _data = roundtrip(backend, "p_text", text)
        assert got == text

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_blob(self, backend, data):
        (got,), _ = roundtrip(backend, "p_blob", data)
        assert bytes(got) == data

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.integers(-2**31, 2**31 - 1), max_size=50))
    def test_ints(self, backend, xs):
        (got,), _ = roundtrip(backend, "p_ints", xs)
        assert list(got) == xs

    @settings(max_examples=40, deadline=None)
    @given(ds=st.lists(st.floats(allow_nan=False, width=64), max_size=30))
    def test_doubles(self, backend, ds):
        (got,), _ = roundtrip(backend, "p_doubles", ds)
        assert list(got) == ds

    @settings(max_examples=60, deadline=None)
    @given(value=shape_values)
    def test_union(self, backend, value):
        (got,), _ = roundtrip(backend, "p_shape", value)
        assert normalize(got) == value

    @settings(max_examples=40, deadline=None)
    @given(values=list_values)
    def test_recursive_list(self, backend, values):
        module = module_for(backend).module
        chain = build_node_chain(module, values)
        if chain is None:
            return  # p_list takes a node, not an optional node
        (got,), _ = roundtrip(backend, "p_list", chain)
        assert chain_to_list(got) == values


def _expected_scalars(value):
    expected = dict(value)
    expected["f"] = struct.unpack(">f", struct.pack(">f", value["f"]))[0]
    return expected


@pytest.mark.parametrize("backend", BACKENDS)
class TestInterpByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(value=scalars_values)
    def test_scalars_bytes_match(self, backend, value):
        module = module_for(backend).module
        record = module.scalars(**value)
        _got, data = roundtrip(backend, "p_scalars", record)
        body, header = interp_body(backend, "p_scalars", {"arg1": value})
        assert data[header:] == body

    @settings(max_examples=30, deadline=None)
    @given(value=shape_values)
    def test_union_bytes_match(self, backend, value):
        _got, data = roundtrip(backend, "p_shape", value)
        body, header = interp_body(backend, "p_shape", {"arg1": value})
        assert data[header:] == body

    @settings(max_examples=30, deadline=None)
    @given(text=latin_text)
    def test_text_bytes_match(self, backend, text):
        _got, data = roundtrip(backend, "p_text", text)
        body, header = interp_body(backend, "p_text", {"arg1": text})
        assert data[header:] == body


class TestFlagByteIdentity:
    FLAGS = [
        OptFlags.all_off(),
        OptFlags(chunk_atoms=False),
        OptFlags(memcpy_arrays=False),
        OptFlags(inline_marshal=False),
    ]

    @settings(max_examples=25, deadline=None)
    @given(value=scalars_values, text=latin_text,
           xs=st.lists(st.integers(-2**31, 2**31 - 1), max_size=20))
    def test_xdr_bytes_invariant_under_flags(self, value, text, xs):
        references = None
        for flags in [OptFlags()] + self.FLAGS:
            module = module_for("oncrpc-xdr", flags).module
            record = module.scalars(**value)
            messages = []
            for op, argument in (
                ("p_scalars", record), ("p_text", text), ("p_ints", xs),
            ):
                buffer = MarshalBuffer()
                getattr(module, "_m_req_%s" % op)(buffer, 1, argument)
                messages.append(buffer.getvalue())
            if references is None:
                references = messages
            assert messages == references, flags


class TestCrossCompilerFuzz:
    """Random values marshal under one compiler and unmarshal under the
    other — wire compatibility beyond byte comparison."""

    _mods = {}

    @classmethod
    def modules(cls):
        if not cls._mods:
            from repro.compilers import make_baseline

            flick = module_for("oncrpc-xdr")
            cls._mods["flick"] = flick.module
            cls._mods["rpcgen"] = make_baseline("rpcgen").generate(
                flick.presc
            ).load()
        return cls._mods["flick"], cls._mods["rpcgen"]

    @settings(max_examples=40, deadline=None)
    @given(value=scalars_values, direction=st.booleans())
    def test_scalars_cross_decode(self, value, direction):
        flick, rpcgen = self.modules()
        encoder, decoder = (flick, rpcgen) if direction else (rpcgen, flick)
        buffer = MarshalBuffer()
        record = encoder.scalars(**value)
        encoder._m_req_p_scalars(buffer, 1, record)
        (got,), _o = decoder._u_req_p_scalars(buffer.getvalue(), 40)
        from repro.pres.values import normalize

        assert normalize(got) == _expected_scalars(value)

    @settings(max_examples=30, deadline=None)
    @given(value=shape_values, direction=st.booleans())
    def test_union_cross_decode(self, value, direction):
        flick, rpcgen = self.modules()
        encoder, decoder = (flick, rpcgen) if direction else (rpcgen, flick)
        buffer = MarshalBuffer()
        encoder._m_req_p_shape(buffer, 1, value)
        (got,), _o = decoder._u_req_p_shape(buffer.getvalue(), 40)
        from repro.pres.values import normalize

        assert normalize(got) == value
