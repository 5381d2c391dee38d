"""Property test: paired dataclass/IDL schemas are wire-identical.

For randomly generated schemas — nested structs, bounded strings and
sequences, fixed-width scalars — render the *same* schema twice, once
as top-level CORBA IDL and once as annotated Python dataclasses, then
drive identical echo calls through every wire protocol and assert the
recorded traffic is byte-for-byte identical across both compilations.
"""

import string

from hypothesis import given, settings, strategies as st

from repro import api
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

from tests.test_mir_renderers import RecordingTransport

BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")

IDL_SCALARS = {"i32": "long", "i16": "short", "f64": "double",
               "bool": "boolean"}
PY_SCALARS = {"i32": "i32", "i16": "i16", "f64": "f64", "bool": "bool"}


@st.composite
def schemas(draw):
    """A schema AST plus argument values for each operation.

    Returns ``(structs, ops)`` where ``structs`` is ``[(name,
    [(field, type), ...]), ...]`` in dependency order and ``ops`` is
    ``[(name, type, value), ...]``; types are tagged tuples.
    """
    structs = []

    def field_type(depth):
        options = ["i32", "i16", "f64", "bool", "str"]
        if depth < 2:
            options.append("struct")
        kind = draw(st.sampled_from(options))
        if kind == "str":
            return ("str", draw(st.integers(1, 24)))
        if kind == "struct":
            return make_struct(depth)
        return (kind,)

    def make_struct(depth):
        count = draw(st.integers(1, 3))
        fields = [("f%d" % i, field_type(depth + 1)) for i in range(count)]
        name = "S%d" % len(structs)
        structs.append((name, fields))
        return ("ref", name)

    def op_type(depth):
        if draw(st.booleans()):
            return ("seq", field_type(depth + 1), draw(st.integers(1, 6)))
        return field_type(depth)

    def value_for(node):
        kind = node[0]
        if kind == "i32":
            return draw(st.integers(-2**31, 2**31 - 1))
        if kind == "i16":
            return draw(st.integers(-2**15, 2**15 - 1))
        if kind == "f64":
            return draw(st.floats(allow_nan=False, allow_infinity=False))
        if kind == "bool":
            return draw(st.booleans())
        if kind == "str":
            return draw(st.text(alphabet=string.ascii_letters,
                                max_size=node[1]))
        if kind == "seq":
            length = draw(st.integers(0, node[2]))
            return ["list", [value_for(node[1]) for _ in range(length)]]
        if kind == "ref":
            fields = dict(structs)[node[1]]
            return ["mk", node[1],
                    [value_for(ftype) for _fname, ftype in fields]]
        raise AssertionError(kind)

    ops = []
    for index in range(draw(st.integers(1, 2))):
        node = op_type(0)
        ops.append(("op%d" % index, node, value_for(node)))
    return structs, ops


def idl_type(node):
    if node[0] == "str":
        return "string<%d>" % node[1]
    if node[0] == "seq":
        return "sequence<%s, %d>" % (idl_type(node[1]), node[2])
    if node[0] == "ref":
        return node[1]
    return IDL_SCALARS[node[0]]


def py_type(node):
    if node[0] == "str":
        return "Annotated[str, Len(%d)]" % node[1]
    if node[0] == "seq":
        return "Annotated[list[%s], Len(%d)]" % (py_type(node[1]), node[2])
    if node[0] == "ref":
        return node[1]
    return PY_SCALARS[node[0]]


def render_idl(structs, ops):
    lines = []
    for name, fields in structs:
        members = " ".join("%s %s;" % (idl_type(ftype), fname)
                           for fname, ftype in fields)
        lines.append("struct %s { %s };" % (name, members))
    lines.append("interface P {")
    for name, node, _value in ops:
        lines.append("    %s %s(in %s x);" % (idl_type(node), name,
                                              idl_type(node)))
    lines.append("};")
    return "\n".join(lines)


def render_pyschema(structs, ops):
    lines = [
        "from dataclasses import dataclass",
        "from typing import Annotated",
        "from repro.pyschema import Len, f64, i16, i32, interface",
        "",
    ]
    for name, fields in structs:
        lines.append("@dataclass")
        lines.append("class %s:" % name)
        for fname, ftype in fields:
            lines.append("    %s: %s" % (fname, py_type(ftype)))
        lines.append("")
    lines.append("@interface")
    lines.append("class P:")
    for name, node, _value in ops:
        lines.append("    def %s(self, x: %s) -> %s: ..."
                     % (name, py_type(node), py_type(node)))
    return "\n".join(lines)


def materialize(value, module):
    """Build the runtime argument from a value AST, per stub module."""
    if isinstance(value, list) and value and value[0] == "mk":
        _tag, name, fields = value
        return getattr(module, name)(
            *[materialize(item, module) for item in fields])
    if isinstance(value, list) and value and value[0] == "list":
        return [materialize(item, module) for item in value[1]]
    if isinstance(value, list) and value == []:
        return []
    return value


class Echo:
    def __getattr__(self, name):
        if name.startswith("op"):
            return lambda x: x
        raise AttributeError(name)


def drive(module, ops):
    transport = RecordingTransport(LoopbackTransport(module.dispatch, Echo()))
    client = module.PClient(transport)
    results = []
    for name, _node, value in ops:
        results.append(getattr(client, name)(materialize(value, module)))
    return normalize(results), transport.log


@given(schemas())
@settings(max_examples=15, deadline=None)
def test_generated_pairs_wire_identical(schema):
    structs, ops = schema
    idl_text = render_idl(structs, ops)
    py_text = render_pyschema(structs, ops)
    for backend in BACKENDS:
        runs = []
        for lang, source in (("corba", idl_text), ("pyschema", py_text)):
            module = api.compile(source, lang, backend=backend).module
            runs.append((lang,) + drive(module, ops))
        _lang0, base_results, base_log = runs[0]
        for lang, results, log in runs[1:]:
            assert results == base_results, (backend, lang)
            assert log == base_log, (backend, lang)
