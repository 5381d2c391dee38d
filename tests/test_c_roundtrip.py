"""The C cell of the oracle: the printed C stubs are the Python stubs.

Every example schema (``examples/idl/*`` and the benchmark's
``ledger.idl``) is compiled for every back end, once with the default
flags and once with every pass off (and, for ``mail.idl`` over IIOP,
once per single pass off); so are the suite's own schemas, for what the
examples lack — unions, optionals, recursive lists, struct arrays with
padding, the rpcgen and length-carrying presentations.  The printed
``.c``/``.h``, ``flick-runtime.h`` and a small test runtime
(:data:`RUNTIME` — a flat buffer, a captured send, a canned reply) are
built into one shared object with the C compiler and driven through
:mod:`ctypes`.  For every operation:

* the Python client's request goes into the C dispatch switch; the
  server skeleton decodes it and calls a work function that calls the C
  client stub with what it was handed, so the request that stub sends
  must be the Python request, byte for byte;
* the client stub decodes the Python servant's reply (canned), returns
  it through the work function to the skeleton, and the reply the
  skeleton encodes must be the Python reply, byte for byte.

User-exception and system-error replies are out of scope: their C is
compiled (``tests/test_c_compile.py`` and every build here) but never
run.  The round trip is skipped only when there is no C compiler.

Both artifacts come from one lowering: for every case the program
lowered with the C spelling table has the ops, offsets, formats, reserve
plans, header patches and checks of the Python one — only the text of
value positions differs.
"""

import ctypes
import dataclasses
import os
import shutil
import struct
import subprocess

import pytest

from repro import OptFlags, api
from repro.backend import interface_file_stem, runtime_header_path
from repro.cast import nodes as cn
from repro.cast.emit import CEmitter
from repro.mint import types as mt
from repro.mir import ops as m, render_c
from repro.mir.build import build_program
from repro.mir.passes import PASS_NAMES, PassManager
from repro.pres import nodes as p
from repro.runtime import LoopbackTransport
from repro.tools.cli import main

from tests.conftest import DB_IDL, MAIL_IDL, MIG_IDL
from tests.test_mir_renderers import SHAPES_IDL, RecordingTransport

CC = shutil.which("cc") or shutil.which("gcc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def read(path):
    with open(os.path.join(ROOT, path)) as handle:
        return handle.read()


#: id -> (source text, language, presentation).
SCHEMAS = {
    "/".join(path.split("/")[-2:]): (read(path), None, None)
    for path in sorted(
        ["examples/idl/" + name
         for name in os.listdir(os.path.join(ROOT, "examples", "idl"))]
        + ["benchmarks/e2e/schemas/ledger.idl"])
}
SCHEMAS.update({
    "MAIL_IDL": (MAIL_IDL, "corba", None),
    "MAIL_IDL-rpcgen": (MAIL_IDL, "corba", "rpcgen"),
    "MAIL_IDL-corba-c-len": (MAIL_IDL, "corba", "corba-c-len"),
    "DB_IDL": (DB_IDL, "oncrpc", None),
    "MIG_IDL": (MIG_IDL, "mig", None),
    "SHAPES_IDL": (SHAPES_IDL, "corba", None),
})
BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")
HANDLES = ("_obj", "_ev", "clnt")

CASES = [
    pytest.param(schema, backend, flags,
                 id="%s-%s-%s" % (schema, backend, label))
    for schema in SCHEMAS for backend in BACKENDS
    for label, flags in (("default", None), ("all_off", OptFlags.all_off()))
] + [
    pytest.param("idl/mail.idl", "iiop", OptFlags().but(**{name: False}),
                 id="idl/mail.idl-iiop-no_%s" % name)
    for name in sorted(PASS_NAMES)
] + [pytest.param("idl/db.x", "oncrpc-xdr", OptFlags().but(
    chunk_atoms=False), id="idl/db.x-oncrpc-xdr-no_chunk_atoms")]

#: Op fields holding target-language text; the rest are what lowering
#: decided (offsets, formats, reserve kinds and sizes, header patches,
#: checks, region versus loop, every temporary's name).
SPELLED = {"expr", "var", "cond", "arg_expr", "data_expr", "element_expr",
           "iterable", "message_expr", "literal", "value_expr", "exprs",
           "field_exprs", "head_exprs"}

#: Ops only a spelling that builds records adds (the Python one builds
#: each in the decoder's frame; the C stores each field through its
#: dest instead).
BUILDS = (m.NewRecord, m.SetFields)

#: The test runtime: what flick-runtime.h leaves to the transport.
RUNTIME = r"""
#include <stdlib.h>
flick_buf_t flick_test_stream, flick_test_sent, flick_test_out;
char flick_test_request[1 << 16], flick_test_reply[1 << 16];
size_t flick_test_lengths[2], flick_test_body[2];
flick_u32 flick_test_id, flick_test_key[8];
int flick_test_errors;
static char arena[1 << 20];
static size_t used;
void flick_buf_grow(flick_buf_t *b, size_t need)
{ b->data = realloc(b->data, b->capacity = 2 * (b->length + need)); }
static void fill(flick_buf_t *b, const char *from, size_t n)
{ b->length = 0; flick_reserve(b, n); if (n) memcpy(b->data, from, n); }
static flick_buf_t *stream(void)
{ flick_test_stream.length = 0; return &flick_test_stream; }
flick_buf_t *flick_object_buffer(flick_object_t obj) { return stream(); }
flick_buf_t *flick_client_buffer(CLIENT *clnt) { return stream(); }
void flick_send(flick_object_t obj, flick_buf_t *msg)
{ fill(&flick_test_sent, msg->data, msg->length); }
void flick_send_await_reply(flick_object_t obj, flick_buf_t *msg)
{ flick_send(obj, msg); fill(msg, flick_test_reply, flick_test_lengths[1]); }
flick_u32 flick_next_id(void) { return flick_test_id; }
flick_u32 flick_demux_word(flick_buf_t *in, unsigned word)
{ return flick_test_key[word]; }
size_t flick_body_offset(flick_buf_t *msg)
{ return flick_test_body[msg == &flick_test_stream]; }
void *flick_alloc(size_t n)
{ void *at = arena + used; used += (n + 7) & ~(size_t)7; return at; }
void flick_error(const char *what) { flick_test_errors++; }
int flick_test_dispatch(void)
{
    flick_buf_t in = {flick_test_request, flick_test_lengths[0], 0};
    used = 0;
    flick_test_errors = 0;
    flick_test_sent.length = flick_test_out.length = 0;
    return DISPATCH(&in, 0, &flick_test_out);
}
"""


class Buf(ctypes.Structure):
    _fields_ = [("data", ctypes.c_void_p), ("length", ctypes.c_size_t),
                ("capacity", ctypes.c_size_t)]

    def value(self):
        return ctypes.string_at(self.data, self.length) if self.length \
            else b""


def work_functions(presc):
    """``<stub>_server`` for every stub: hand everything to the client
    stub and return what it returns."""
    emitter = CEmitter()
    lines = []
    for stub in presc.stubs:
        decl = stub.c_decl
        work = cn.FuncDecl(decl.return_type, "%s_server" % stub.stub_name,
                           tuple(param for param in decl.parameters
                                 if param.name not in HANDLES))
        call = "%s(%s)" % (stub.stub_name, ", ".join(
            "0" if param.name in HANDLES else param.name
            for param in decl.parameters))
        void = decl.return_type == cn.TypeName("void")
        lines.append("%s { %s%s; }" % (emitter._prototype(work),
                                       "" if void else "return ", call))
    return "\n".join(lines)


def build(tmp_path, result):
    """The shared object of *result*'s C stubs plus the test runtime."""
    backend = result.stubs.backend_instance
    stem = interface_file_stem(result.presc.interface_name, backend.name)
    shutil.copy(runtime_header_path(), tmp_path / "flick-runtime.h")
    (tmp_path / ("%s.h" % stem)).write_text(result.stubs.c_header)
    (tmp_path / ("%s.c" % stem)).write_text(result.stubs.c_source)
    (tmp_path / "test.c").write_text(
        '#include "flick-runtime.h"\n#include "%s.h"\n'
        "int %s_dispatch(flick_buf_t *, void *, flick_buf_t *);\n"
        "#define DISPATCH %s_dispatch\n%s\n%s\n"
        % (stem, result.presc.interface_name.replace("::", "_"),
           result.presc.interface_name.replace("::", "_"),
           work_functions(result.presc), RUNTIME))
    library = tmp_path / ("%s.so" % stem)
    completed = subprocess.run(
        [CC, "-std=c11", "-Wall", "-Werror", "-shared", "-fPIC", "-o",
         str(library), "-I", str(tmp_path), str(tmp_path / ("%s.c" % stem)),
         str(tmp_path / "test.c")],
        capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    library = ctypes.CDLL(str(library))
    library.flick_test_dispatch.argtypes = []
    library.flick_test_dispatch.restype = ctypes.c_int
    return library


def sample(pres, presc, module, depth=0):
    """A deterministic presented value of *pres* (optional pointers are
    followed twice, so a recursive list has three nodes)."""
    pres = presc.pres_registry.resolve(pres)

    def again(element, deeper=0):
        return sample(element, presc, module, depth + deeper)

    if isinstance(pres, p.PresDirect):
        mint = presc.mint_registry.resolve(pres.mint)
        if isinstance(mint, mt.MintFloat):
            return 2.5
        if isinstance(mint, mt.MintChar):
            return "q"
        if isinstance(mint, mt.MintBoolean):
            return True
        return 7
    if isinstance(pres, p.PresEnum):
        return pres.members[-1][1]
    if isinstance(pres, p.PresString):
        text = "hello, flick"[:pres.bound]
        return text.encode("latin-1") if pres.carries_length else text
    if isinstance(pres, p.PresBytes):
        return bytes(range(3, 3 + (pres.fixed_length or min(
            5, pres.bound or 5))))
    if isinstance(pres, p.PresFixedArray):
        return [again(pres.element) for _ in range(pres.length)]
    if isinstance(pres, p.PresCountedArray):
        return [again(pres.element) for _ in range(min(3, pres.bound or 3))]
    if isinstance(pres, p.PresOptPtr):
        return again(pres.element, 1) if depth < 2 else None
    if isinstance(pres, p.PresStruct):
        return getattr(module, pres.record_name.replace("::", "__"))(*[
            again(field.pres) for field in pres.fields])
    if isinstance(pres, p.PresUnion):
        arm = next(arm for arm in pres.arms if not arm.is_default)
        return (arm.labels[0], None if isinstance(arm.pres, p.PresVoid)
                else again(arm.pres))
    raise AssertionError("no sample for %r" % pres)


def python_traffic(result):
    """``[(stub, request, reply or None)]`` of one call per operation."""
    presc, module = result.presc, result.module

    class Servant:
        def __getattr__(self, name):
            stub = presc.stub_named(name)
            results = [sample(field.pres, presc, module)
                       for field in stub.reply_pres.arms[0].pres.fields
                       ] if stub.reply_pres else []
            value = (None if not results else results[0]
                     if len(results) == 1 else tuple(results))
            return lambda *args: value

    transport = RecordingTransport(LoopbackTransport(module.dispatch,
                                                     Servant()))
    client = getattr(module, "%sClient"
                     % presc.interface_name.replace("::", "_"))(transport)
    for stub in presc.stubs:
        getattr(client, stub.operation_name)(*[
            sample(param.pres, presc, module)
            for param in stub.in_parameters()])
    return [(stub,) + exchange
            for stub, exchange in zip(presc.stubs, transport.log)]


def key_words(key):
    if isinstance(key, int):
        return (key,)
    key += b"\0" * (4 - len(key) % 4)
    return struct.unpack(">%dI" % (len(key) // 4), key)


def compile_case(schema, backend, flags):
    text, lang, presentation = SCHEMAS[schema]
    return api.compile(text, lang, name=schema, backend=backend,
                       flags=flags, presentation=presentation)


def layout(value):
    """*value* (ops, functions) with every spelled field and every
    record build left out."""
    if isinstance(value, (list, tuple)):
        return [layout(item) for item in value
                if not isinstance(item, BUILDS)]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {
            field.name: layout(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in SPELLED}
    return value


@pytest.mark.parametrize("schema, backend, flags", CASES)
def test_one_lowering_for_both_tables(schema, backend, flags):
    result = compile_case(schema, backend, flags)
    stubs = result.stubs
    c_program = PassManager(stubs.flags).run(build_program(
        stubs.backend_instance, result.presc, stubs.flags,
        render_c.SPELLING))
    assert layout(c_program.functions) == layout(stubs.mir.functions)
    assert c_program.aliases == stubs.mir.aliases


def test_a_disabled_pass_changes_the_c(tmp_path):
    printed = []
    for extra in ([], ["--disable-pass", "chunk_atoms"]):
        out = tmp_path / str(len(printed))
        assert main(["compile", os.path.join(ROOT, "examples/idl/db.x"),
                     "-o", str(out), "--emit", "c"] + extra) == 0
        printed.append((out / "db_dbv_oncrpc_xdr.c").read_text())
    assert printed[0] != printed[1]


@needs_cc
@pytest.mark.parametrize("schema, backend, flags", CASES)
def test_c_stubs_put_the_python_bytes_on_the_wire(tmp_path, schema,
                                                  backend, flags):
    result = compile_case(schema, backend, flags)
    library = build(tmp_path, result)
    generator = result.stubs.backend_instance
    sent = Buf.in_dll(library, "flick_test_sent")
    out = Buf.in_dll(library, "flick_test_out")
    lengths = (ctypes.c_size_t * 2).in_dll(library, "flick_test_lengths")
    body = (ctypes.c_size_t * 2).in_dll(library, "flick_test_body")
    keys = (ctypes.c_uint32 * 8).in_dll(library, "flick_test_key")
    for stub, request, reply in python_traffic(result):
        spec = generator.request_header(result.presc, stub)
        for offset, fmt, expr in spec.patches:
            ctypes.c_uint32.in_dll(library, "flick_test_id").value, = \
                struct.unpack_from(fmt, request, offset)
        for name, index, data in (("flick_test_request", 0, request),
                                  ("flick_test_reply", 1, reply or b"")):
            assert len(data) <= 1 << 16, (name, len(data))
            ctypes.memmove(ctypes.addressof(ctypes.c_char.in_dll(
                library, name)), data, len(data))
            lengths[index] = len(data)
        body[0] = len(spec.template)
        if reply is not None:
            body[1] = len(generator.reply_header(result.presc,
                                                 stub).template)
        for index, word in enumerate(key_words(
                generator.demux_key(result.presc, stub))):
            keys[index] = word
        where = (schema, backend, stub.operation_name)
        assert library.flick_test_dispatch() == (reply is not None), where
        assert ctypes.c_int.in_dll(library, "flick_test_errors").value == 0
        assert sent.value() == request, where
        if reply is not None:
            assert out.value() == reply, where
