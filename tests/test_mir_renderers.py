"""Renderer equivalence: one marshal IR, byte-identical codecs.

The optimizing back end loads the rendered codec text two ways:
compiled with the module (the ``py`` renderer) and function by function
at first call, over a module loaded without its codec section (the
``closures`` renderer).  These tests drive full loopback RPC sessions —
requests, replies, user exceptions, oneways, recursive lists — through
both for every front end and wire protocol, recording the raw wire
traffic, and assert *identical bytes in both directions* and identical
decoded results: every first call on the ``closures`` side goes through
a deferred entry, so this is the proof that deferred loading binds what
the module text binds, for every schema × back end × pass toggle.
"""

import itertools
import re

import pytest

from repro import OptFlags, api
from repro.mir.passes import PASS_NAMES
from repro.runtime import LoopbackTransport

from tests.conftest import DB_IDL, MAIL_IDL, MIG_IDL, MailImpl


class RecordingTransport:
    """Wrap a transport; keep every request/reply byte string."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def call(self, request):
        reply = self.inner.call(request)
        self.log.append((bytes(request), bytes(reply)))
        return reply

    def send(self, request):
        self.log.append((bytes(request), None))
        self.inner.send(request)


# ----------------------------------------------------------------------
# Scripted sessions: one per schema, covering every codec path
# ----------------------------------------------------------------------


def drive_mail(module):
    """Requests, replies, unions, the exception arm, oneway, arrays."""
    impl = MailImpl(module)
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    client = module.Test_MailClient(transport)
    results = []
    rect = module.Test_Rect(module.Test_Point(1, 2), module.Test_Point(3, 4))
    results.append(client.send("hello", rect, (1, 2.5)))
    results.append(client.send("ab", rect, (2, "deflt")))
    try:
        client.send("fail", rect, (0, 7))
        results.append("no exception")
    except module.Test_Bad as error:
        results.append(("Test_Bad", error.why, error.code))
    client.ping(123)
    results.append(("ping", impl.last_ping))
    results.append(client.avg(list(range(101))))
    results.append(bytes(client.reverse(b"\x01\x02\x03")))
    client.tri([module.Test_Point(0, 0)] * 3)
    results.append(client._get_counter())
    return results, transport.log


def drive_db(module):
    """Recursive lists (the iterative-list loop), opaques, unions."""

    class Impl:
        def lookup(self, key):
            head = None
            for index in range(40):
                head = module.entry("node%d" % index, index, head)
            return (0, head) if key == "deep" else (1, None)

        def store(self, node):
            total = 0
            while node is not None:
                total += node.value
                node = node.next
            return total

        def echo(self, data):
            return bytes(data)

        def rev(self, xs):
            return list(reversed(xs))

    transport = RecordingTransport(
        LoopbackTransport(module.dispatch, Impl())
    )
    client = module.DB_DBVClient(transport)
    results = []
    status, head = client.lookup("deep")
    chain = []
    while head is not None:
        chain.append((head.name, head.value))
        head = head.next
    results.append((status, chain))
    results.append(client.lookup("missing"))
    node = module.entry("a", 1, module.entry("b", 2, None))
    results.append(client.store(node))
    results.append(bytes(client.echo(b"xyzzy")))
    results.append(client.rev([5, 4, 3]))
    return results, transport.log


def drive_mig(module):
    """Mach typed messages: scalars, arrays, oneway, strings."""

    class Impl(module.arithServant):
        def add(self, a, b):
            return a + b

        def total(self, values):
            return sum(values)

        def poke(self, value):
            self.poked = value

        def greet(self, who):
            return "hi " + who

    impl = Impl()
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    client = module.arithClient(transport)
    results = []
    results.append(client.add(1, 2))
    results.append(client.total(list(range(64))))
    client.poke(9)
    results.append(("poke", impl.poked))
    results.append(client.greet("x"))
    return results, transport.log


#: (schema id, IDL text, front end, drive function).
SCHEMAS = {
    "mail": (MAIL_IDL, "corba", drive_mail),
    "db": (DB_IDL, "oncrpc", drive_db),
    "mig": (MIG_IDL, "mig", drive_mig),
}

#: Wire protocols each schema is driven over.  MIG pairs with the
#: kernel-IPC back ends; the AOI languages cross both TCP protocols
#: (CDR and XDR) plus the kernel formats.
PROTOCOLS = {
    "mail": ("iiop", "oncrpc-xdr", "mach3", "fluke"),
    "db": ("oncrpc-xdr", "iiop", "mach3", "fluke"),
    "mig": ("mach3", "fluke"),
}

CASES = [
    (schema, backend)
    for schema in SCHEMAS
    for backend in PROTOCOLS[schema]
]


def _compile_pair(schema, backend, flags=None):
    text, lang, drive = SCHEMAS[schema]
    py = api.compile(text, lang, backend=backend, flags=flags,
                     renderer="py")
    clo = api.compile(text, lang, backend=backend, flags=flags,
                      renderer="closures")
    return py, clo, drive


def _assert_identical(py, clo, drive):
    module_py = py.module
    module_clo = clo.module
    results_py, log_py = drive(module_py)
    results_clo, log_clo = drive(module_clo)
    assert results_py == results_clo
    assert len(log_py) == len(log_clo)
    for (req_py, rep_py), (req_clo, rep_clo) in zip(log_py, log_clo):
        assert req_py == req_clo
        assert rep_py == rep_clo


class TestRendererByteIdentity:
    @pytest.mark.parametrize("schema,backend", CASES)
    def test_wire_traffic_identical(self, schema, backend):
        py, clo, drive = _compile_pair(schema, backend)
        _assert_identical(py, clo, drive)

    @pytest.mark.parametrize("schema,backend", CASES)
    def test_same_source_same_ir(self, schema, backend):
        """Closure stubs reuse the rendered source and carry the IR."""
        py, clo, _drive = _compile_pair(schema, backend)
        assert py.stubs.py_source == clo.stubs.py_source
        assert clo.stubs.mir is not None
        assert clo.stubs.renderer == "closures"
        assert py.stubs.renderer == "py"


class TestRendererUnderAblation:
    """Both renderers agree under every pass configuration."""

    @pytest.mark.parametrize("pass_name", sorted(PASS_NAMES))
    def test_each_pass_disabled(self, pass_name):
        flags = OptFlags().but(**{pass_name: False})
        for schema, backend in (("mail", "iiop"), ("db", "oncrpc-xdr")):
            py, clo, drive = _compile_pair(schema, backend, flags)
            assert py.stubs.mir.passes[pass_name] is False
            _assert_identical(py, clo, drive)

    def test_all_passes_off(self):
        for schema, backend in (("mail", "iiop"), ("db", "oncrpc-xdr"),
                                ("mig", "mach3")):
            py, clo, drive = _compile_pair(schema, backend,
                                           OptFlags.all_off())
            _assert_identical(py, clo, drive)


class TestRendererSelection:
    def test_unknown_renderer_rejected(self):
        from repro.errors import BackEndError

        with pytest.raises(BackEndError):
            api.compile(MAIL_IDL, "corba", renderer="fortran")

    def test_compile_threads_renderer(self):
        result = api.compile(MAIL_IDL, "corba", renderer="closures")
        assert result.stubs.renderer == "closures"

    def test_compile_all_threads_renderer(self):
        results = api.compile_all(MAIL_IDL, "corba", renderer="closures")
        for result in results.values():
            assert result.stubs.renderer == "closures"

    def test_baselines_load_whole(self):
        """Rival code styles bypass the IR and carry no section table, so
        nothing defers for them."""
        from repro.compilers import make_baseline

        presc = api.compile(DB_IDL, "oncrpc").presc
        stubs = make_baseline("rpcgen").generate(presc)
        assert stubs.sections == ()
        assert "_m_req_rev" in vars(stubs.load())


# ----------------------------------------------------------------------
# Struct arrays: the array-region form against the interpretive reference
# ----------------------------------------------------------------------

#: Arrays of fixed-layout elements.  ``Rect`` is homogeneous.  ``Mixed``
#: has internal CDR padding and a padding-free 16-byte stride, but CDR
#: aligns members, not structs: from an offset that is 4 mod 8 its first
#: element is laid out differently from the rest, so it is a region only
#: where its start is known to be 8-aligned.  ``Wide`` starts with its
#: most-aligned member, so aligning the region base is what CDR does
#: anyway (and an empty array must then carry no padding).  ``Odd`` is 5
#: bytes at alignment 4 on CDR (a padded stride: loop).  ``Vec`` holds a
#: nested fixed atom array; ``Poly`` a fixed-length array of structs.
#: Every operation echoes its array, and the scalars around it leave
#: the message offset unaligned for the element on CDR.
SHAPES_IDL = """
struct Coord { long x, y; };
struct Rect { Coord ul; Coord lr; };
struct Mixed { short a; long b; double c; };
struct Wide { double d; long a; long b; };
struct Odd { long a; char b; };
struct Vec { long id; long v[4]; };
struct Poly { long id; Rect r[8]; };
typedef sequence<Rect> RectSeq;
typedef sequence<Mixed> MixedSeq;
typedef sequence<Wide> WideSeq;
typedef sequence<Odd> OddSeq;
typedef sequence<Vec> VecSeq;
interface Shapes {
  RectSeq rects(in long tag, in RectSeq a, in char c);
  MixedSeq mixed(in long tag, in MixedSeq a, in char c);
  WideSeq wides(in long tag, in WideSeq a, in char c);
  OddSeq odds(in char c, in OddSeq a);
  VecSeq vecs(in VecSeq a, in char c);
  Poly poly(in char c, in Poly p);
};
"""

SHAPE_OPS = ("rects", "mixed", "wides", "odds", "vecs", "poly")

#: The flags an array region needs; any one off must yield the loop.
REGION_FLAGS = ("chunk_atoms", "batch_buffer_checks", "memcpy_arrays")

_WIRE_FORMATS = {"iiop": "cdr-be", "oncrpc-xdr": "xdr", "mach3": "mach3",
                 "fluke": "fluke"}


class ShapesImpl:
    """Echo servant: every reply runs the array back through the reply
    codecs."""

    def rects(self, tag, a, c):
        return a

    def mixed(self, tag, a, c):
        return a

    def wides(self, tag, a, c):
        return a

    def odds(self, c, a):
        return a

    def vecs(self, a, c):
        return a

    def poly(self, c, p):
        return p


def _shape_args(module, op, n):
    """(call arguments, the same values keyed for the interpreter)."""
    rect = lambda i: module.Rect(module.Coord(i, -i),  # noqa: E731
                                 module.Coord(i + 7, 2 ** 31 - 1 - i))
    if op == "rects":
        value = [rect(i) for i in range(n)]
        return (5, value, "x"), {"tag": 5, "a": value, "c": "x"}
    if op == "mixed":
        value = [module.Mixed(i - 3, 1000 * i, i / 4.0) for i in range(n)]
        return (5, value, "x"), {"tag": 5, "a": value, "c": "x"}
    if op == "wides":
        value = [module.Wide(i / 8.0, i, -i) for i in range(n)]
        return (5, value, "x"), {"tag": 5, "a": value, "c": "x"}
    if op == "odds":
        value = [module.Odd(i, chr(65 + i)) for i in range(n)]
        return ("x", value), {"c": "x", "a": value}
    if op == "vecs":
        value = [module.Vec(i, [i, i + 1, i + 2, i + 3]) for i in range(n)]
        return (value, "x"), {"a": value, "c": "x"}
    value = module.Poly(n, [rect(i + n) for i in range(8)])
    return ("x", value), {"c": "x", "p": value}


def _shape_reference(compiled, backend, op, fields, reply_value):
    """Request and reply messages' bodies as the interpreter encodes
    them, laid out from the offsets the real headers end at."""
    from repro.encoding import FORMATS, MarshalBuffer
    from repro.pres.interp import InterpretiveCodec

    presc = compiled.presc
    stub = presc.stub_named(op)
    codec = InterpretiveCodec(FORMATS[_WIRE_FORMATS[backend]],
                              presc.pres_registry, presc.mint_registry)
    generator = compiled.stubs.backend_instance
    bodies = []
    for template, pres, value in (
        (generator.request_header(presc, stub).template,
         stub.request_pres, fields),
        (generator.reply_header(presc, stub).template,
         stub.reply_pres, (0, {"_return": reply_value})),
    ):
        buffer = MarshalBuffer()
        buffer.reserve(len(template))
        codec.encode(pres, value, buffer)
        bodies.append(buffer.getvalue()[len(template):])
    return bodies


def _plain(value):
    """Records as nested tuples, so py and closure results compare."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if hasattr(value, "_fields"):
        return tuple(_plain(getattr(value, name)) for name in value._fields)
    return value


#: Cells where the generated stubs have never matched the interpreter:
#: it pads a Mach byte-descriptor array to 4 bytes after the elements,
#: the stubs' aggregate loops do not.  Regions keep the stubs' bytes.
_INTERPRETER_DIFFERS = {("mach3", "odds")}


def _shape_traffic(backend, flags, renderer):
    """Every shape op at n = 0, 1, 5: results checked, wire recorded."""
    compiled = api.compile(SHAPES_IDL, "corba", backend=backend,
                           flags=flags, renderer=renderer)
    module = compiled.module
    transport = RecordingTransport(
        LoopbackTransport(module.dispatch, ShapesImpl()))
    client = module.ShapesClient(transport)
    reference = []
    for op in SHAPE_OPS:
        for n in (0, 1, 5):
            args, fields = _shape_args(module, op, n)
            value = fields["p" if op == "poly" else "a"]
            assert _plain(getattr(client, op)(*args)) == _plain(value)
            reference.append((op, n) + tuple(_shape_reference(
                compiled, backend, op, fields, value)))
    return transport.log, reference


class TestStructArrayRegions:
    @pytest.mark.parametrize("backend", sorted(_WIRE_FORMATS))
    def test_identical_to_interpreter(self, backend):
        """Both renderers, with the region form on and with each flag
        it depends on off, put the interpreter's bytes on the wire."""
        baseline = None
        for flags in [None] + [OptFlags().but(**{name: False})
                               for name in REGION_FLAGS]:
            for renderer in ("py", "closures"):
                log, reference = _shape_traffic(backend, flags, renderer)
                if baseline is None:
                    baseline = log
                assert log == baseline, (backend, flags, renderer)
                for (request, reply), (op, n, want_request,
                                       want_reply) in zip(log, reference):
                    if (backend, op) in _INTERPRETER_DIFFERS:
                        continue
                    where = (backend, flags, renderer, op, n)
                    assert request.endswith(want_request), where
                    assert reply.endswith(want_reply), where

    @pytest.mark.parametrize("backend", sorted(_WIRE_FORMATS))
    def test_region_ops_chosen_by_layout(self, backend):
        """Which arrays become regions is decided by the element's
        layout under the wire format, and only with all three flags."""
        from repro.mir import ops as m

        def region_ops(flags=None):
            program = api.compile(SHAPES_IDL, "corba", backend=backend,
                                  flags=flags).stubs.mir
            found = {}
            for fn in program.functions:
                kinds = {type(op) for op in m.walk_ops(fn.ops)}
                found[fn.name] = (m.PutArrayRegion in kinds
                                  or m.GetArrayRegion in kinds)
            return found

        found = region_ops()
        for op in ("rects", "wides", "poly"):
            for name in ("_m_req_", "_u_req_", "_m_rep_ok_", "_u_rep_"):
                assert found[name + op], (backend, name + op)
        # CDR aligns members, not structs: a short-first element is one
        # region only where nothing has to be padded in front of it.
        assert found["_m_req_mixed"] == (backend != "iiop")
        assert found["_u_req_mixed"] == (backend != "iiop")
        # A nested fixed array keeps its per-element length check, so
        # only the decode side of ``vecs`` is a region — and not on
        # Mach, where every array, nested or not, has a descriptor.
        assert not found["_m_req_vecs"]
        assert found["_u_req_vecs"] == (backend != "mach3")
        # 5 bytes at alignment 4 is a padded stride on CDR and Mach:
        # loop there.  XDR widens the char, Fluke aligns nothing.
        odd_is_region = backend in ("oncrpc-xdr", "fluke")
        assert found["_u_req_odds"] == odd_is_region
        assert found["_m_req_odds"] == odd_is_region
        for name in REGION_FLAGS:
            off = region_ops(OptFlags().but(**{name: False}))
            assert not any(off.values()), (backend, name)

    def test_iiop_rects_have_no_per_element_space_check(self):
        """The rendered IIOP codecs for a Rect array hold no loop but
        the decoders' one over the region's ``_iter_unpack`` rows, which
        builds the records and reads nothing: no per-element reserve,
        no per-element alignment arithmetic, no per-element read."""
        source = api.compile(SHAPES_IDL, "corba",
                             backend="iiop").stubs.py_source
        for name in ("_m_req_rects", "_u_req_rects",
                     "_m_rep_ok_rects", "_u_rep_rects"):
            start = source.index("def %s(" % name)
            body = source[start:source.index("\ndef ", start + 1)]
            lines = body.splitlines()
            loops = [at for at, line in enumerate(lines)
                     if line.strip().startswith(("for ", "while "))]
            assert len(loops) == name.startswith("_u_"), body
            for at in loops:
                assert " in _iter_unpack(" in lines[at], body
                depth = len(lines[at]) - len(lines[at].lstrip())
                inside = itertools.takewhile(
                    lambda line: len(line) - len(line.lstrip()) > depth,
                    lines[at + 1:])
                assert not [line for line in inside
                            if re.search(r"\bo \+=|_unpack_from|\bif ",
                                         line)], body
            assert "-b.length %" not in body, body


class TestFixedOpaqueAfterString:
    """A headerless fixed opaque is bytes: the encoder must not align it
    (the decoder never did), wherever the message offset stands."""

    IDL = """
    struct S { string s; };
    struct T { S inner; octet arr[1]; };
    interface Fuzz { T echo(in T v); };
    """

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    @pytest.mark.parametrize("backend", sorted(_WIRE_FORMATS))
    def test_round_trips_at_an_unaligned_offset(self, backend, renderer):
        module = api.compile(self.IDL, "corba", backend=backend,
                             renderer=renderer).module

        class Impl:
            def echo(self, v):
                return v

        client = module.FuzzClient(
            LoopbackTransport(module.dispatch, Impl()))
        for text in ("", "a", "ab", "abc", "abcd"):
            result = client.echo(module.T(module.S(text), b"\x07"))
            assert (result.inner.s, bytes(result.arr)) == (text, b"\x07")
