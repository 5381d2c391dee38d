"""The pyschema front end: dataclasses in, byte-identical wire out.

The headline claim: a Python dataclass schema and its hand-written
CORBA IDL equivalent compile to *byte-identical wire traffic* on every
protocol x renderer combination.  These tests prove it with the same
recording-transport machinery the renderer-identity suite uses, then
cover the type-mapping table, object inputs (dataclass / @interface
class / module), CLI integration, and schema errors.
"""

import textwrap

import pytest

from repro import api, frontends
from repro.errors import FlickError
from repro.runtime import LoopbackTransport

from tests.test_mir_renderers import RecordingTransport

# ----------------------------------------------------------------------
# The equivalence pair: one schema, two languages
# ----------------------------------------------------------------------

#: Hand-written top-level CORBA IDL...
CORBA_EQ = """
enum Color { red, green, blue };
struct Point { long x; long y; };
struct Rect { Point lo; Point hi; };
union Value switch (Color) {
  case red: long num;
  case green: string<12> word;
  default: double real;
};
exception Bad { string<32> why; long code; };
interface Mail {
    void send(in string<1024> msg, in long urgency);
    long check(in string<64> user);
    double area(in Rect r);
    long pts(in sequence<Point, 16> ps);
    Value swap(in Value v);
    octet first(in sequence<octet, 64> data);
    boolean flag(in boolean b);
    string<1024> fetch(in long slot) raises (Bad);
    oneway void ping(in long token);
};
"""

#: ... and the same schema as annotated Python dataclasses.
PYSCHEMA_EQ = '''
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Union

from repro.pyschema import (
    Len, Tag, exception, f64, i32, interface, octet, oneway, raises,
)


class Color(Enum):
    red = 0
    green = 1
    blue = 2


@dataclass
class Point:
    x: i32
    y: i32


@dataclass
class Rect:
    lo: Point
    hi: Point


Value = Annotated[Union[int, str, float], Tag(
    (Color.red, "num", i32),
    (Color.green, "word", Annotated[str, Len(12)]),
    default=("real", f64),
    discriminant=Color,
    name="Value",
)]


@exception
class Bad:
    why: Annotated[str, Len(32)]
    code: i32


@interface
class Mail:
    def send(self, msg: Annotated[str, Len(1024)], urgency: i32) -> None: ...
    def check(self, user: Annotated[str, Len(64)]) -> i32: ...
    def area(self, r: Rect) -> f64: ...
    def pts(self, ps: Annotated[list[Point], Len(16)]) -> i32: ...
    def swap(self, v: Value) -> Value: ...
    def first(self, data: Annotated[bytes, Len(64)]) -> octet: ...
    def flag(self, b: bool) -> bool: ...

    @raises(Bad)
    def fetch(self, slot: i32) -> Annotated[str, Len(1024)]: ...

    @oneway
    def ping(self, token: i32) -> None: ...
'''

PROTOCOLS = ("iiop", "oncrpc-xdr", "mach3", "fluke")


class EqImpl:
    """One servant driving every operation, usable with either module."""

    def __init__(self, module):
        self.module = module
        self.last_ping = None

    def send(self, msg, urgency):
        return None

    def check(self, user):
        return len(user)

    def area(self, r):
        from repro.pres.values import get_field

        lo, hi = get_field(r, "lo"), get_field(r, "hi")
        width = get_field(hi, "x") - get_field(lo, "x")
        height = get_field(hi, "y") - get_field(lo, "y")
        return float(width * height)

    def pts(self, ps):
        return len(ps)

    def swap(self, v):
        return v

    def first(self, data):
        return data[0]

    def flag(self, b):
        return not b

    def fetch(self, slot):
        if slot < 0:
            raise self.module.Bad("no such slot", -2)
        return "msg%d" % slot

    def ping(self, token):
        self.last_ping = token


def drive_eq(module):
    """A scripted session covering every operation and codec path."""
    impl = EqImpl(module)
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    client = module.MailClient(transport)
    results = []
    results.append(client.send("hello", 3))
    results.append(client.check("alice"))
    rect = module.Rect(module.Point(1, 2), module.Point(4, 6))
    results.append(client.area(rect))
    results.append(client.pts([module.Point(5, 6), module.Point(7, 8)]))
    results.append(client.swap((0, 42)))
    results.append(client.swap((1, "word")))
    results.append(client.swap((2, 2.5)))
    results.append(client.first(b"\x09\x08\x07"))
    results.append(client.flag(True))
    results.append(client.fetch(7))
    try:
        client.fetch(-1)
        results.append("no exception")
    except module.Bad as error:
        results.append(("Bad", error.why, error.code))
    client.ping(99)
    results.append(("ping", impl.last_ping))
    return results, transport.log


class TestIdlEquivalence:
    """Dataclass schema == hand-written CORBA IDL, on the wire."""

    @pytest.mark.parametrize("backend", PROTOCOLS)
    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_wire_traffic_byte_identical(self, backend, renderer):
        sessions = {}
        for lang, source in (("corba", CORBA_EQ),
                             ("pyschema", PYSCHEMA_EQ)):
            result = api.compile(source, lang, backend=backend,
                                 renderer=renderer)
            sessions[lang] = drive_eq(result.module)
        results_idl, log_idl = sessions["corba"]
        results_py, log_py = sessions["pyschema"]
        assert results_py == results_idl
        assert len(log_py) == len(log_idl)
        for (req_py, rep_py), (req_idl, rep_idl) in zip(log_py, log_idl):
            assert req_py == req_idl
            assert rep_py == rep_idl

    def test_same_interface_identity(self):
        """Same repository id + request codes, hence the same bytes."""
        idl = api.compile(CORBA_EQ, "corba")
        pys = api.compile(PYSCHEMA_EQ, "pyschema")
        assert idl.interface.code == pys.interface.code == "IDL:Mail:1.0"
        assert (
            [op.request_code for op in idl.interface.operations]
            == [op.request_code for op in pys.interface.operations]
        )

    def test_diff_reports_wire_identical(self):
        from repro.compat import diff_texts

        diffs = diff_texts(CORBA_EQ, PYSCHEMA_EQ,
                           old_name="mail.idl", new_name="mail_py.py")
        for diff in diffs.values():
            assert diff.verdict.name == "WIRE_IDENTICAL"


# ----------------------------------------------------------------------
# Golden ``flick diff --json``: dataclass vs IDL, pinned exit codes
# ----------------------------------------------------------------------


def _example(*parts):
    import os

    return os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", *parts)


def _golden(name):
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "golden", "compat",
                        name)
    with open(path) as handle:
        return json.load(handle)


class TestGoldenDiffReports:
    def test_wire_identical_report_and_exit_code(self):
        from repro.compat import diff_texts
        from repro.compat.report import diff_exit_code, diff_report_json

        with open(_example("idl", "mail.idl")) as handle:
            old = handle.read()
        with open(_example("pyschema_mail.py")) as handle:
            new = handle.read()
        diffs = diff_texts(old, new, None, old_name="mail.idl",
                           new_name="pyschema_mail.py")
        report = diff_report_json(diffs, "mail.idl", "pyschema_mail.py",
                                  lang=None)
        assert report == _golden("pyschema_mail_identical.json")
        assert diff_exit_code(diffs) == 0

    def test_breaking_report_and_exit_code(self):
        from repro.compat import diff_texts
        from repro.compat.report import diff_exit_code, diff_report_json

        with open(_example("idl", "mail.idl")) as handle:
            old = handle.read()
        with open(_example("pyschema_mail.py")) as handle:
            new = handle.read().replace(
                "urgency: i32", "urgency: Annotated[str, Len(8)]")
        diffs = diff_texts(old, new, None, old_name="mail.idl",
                           new_name="pyschema_mail_v2.py")
        report = diff_report_json(diffs, "mail.idl",
                                  "pyschema_mail_v2.py", lang=None)
        assert report == _golden("pyschema_mail_breaking.json")
        assert diff_exit_code(diffs) == 2

    def test_cli_diff_py_against_idl(self, tmp_path, capsys):
        import json
        import shutil

        from repro.tools.cli import main

        old = tmp_path / "mail.idl"
        new = tmp_path / "pyschema_mail.py"
        shutil.copy(_example("idl", "mail.idl"), old)
        shutil.copy(_example("pyschema_mail.py"), new)
        code = main(["diff", str(old), str(new), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        golden = _golden("pyschema_mail_identical.json")
        assert payload["verdict"] == golden["verdict"]
        assert payload["protocols"] == golden["protocols"]
        assert payload["lang"] is None  # mixed languages, one wire

    def test_cli_diff_breaking_exit_code(self, tmp_path, capsys):
        import shutil

        from repro.tools.cli import main

        old = tmp_path / "mail.idl"
        new = tmp_path / "mail_v2.py"
        shutil.copy(_example("idl", "mail.idl"), old)
        text = open(_example("pyschema_mail.py")).read().replace(
            "urgency: i32", "urgency: Annotated[str, Len(8)]")
        new.write_text(text)
        assert main(["diff", str(old), str(new), "--json"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Object inputs: dataclass, @interface class, module
# ----------------------------------------------------------------------


class TestObjectInputs:
    def test_bare_dataclass_echo_interface(self):
        from dataclasses import dataclass

        from repro.pyschema import i32

        @dataclass
        class Sample:
            count: i32
            label: str

        result = api.compile(Sample)
        assert result.frontend == "pyschema"
        assert result.interface.name == "Sample"
        assert result.interface.code == "IDL:Sample:1.0"
        [op] = result.interface.operations
        assert op.name == "echo"
        module = result.module

        class Impl:
            def echo(self, value):
                return value

        client = module.SampleClient(
            LoopbackTransport(module.dispatch, Impl()))
        value = module.Sample(3, "hi")
        assert client.echo(value) == value

    def test_interface_class_input(self):
        from repro.pyschema import i32, interface

        @interface(name="Calc", code="IDL:test/Calc:1.0")
        class _Calculator:
            def add(self, a: i32, b: i32) -> i32: ...

        result = api.compile(_Calculator)
        assert result.interface.name == "Calc"
        assert result.interface.code == "IDL:test/Calc:1.0"
        module = result.module

        class Impl:
            def add(self, a, b):
                return a + b

        client = module.CalcClient(LoopbackTransport(module.dispatch, Impl()))
        assert client.add(20, 22) == 42

    def test_module_object_input(self, tmp_path):
        import importlib.util

        path = tmp_path / "mod_schema.py"
        path.write_text(PYSCHEMA_EQ)
        spec = importlib.util.spec_from_file_location("mod_schema", path)
        module = importlib.util.module_from_spec(spec)
        import sys

        sys.modules["mod_schema"] = module
        try:
            spec.loader.exec_module(module)
            result = api.compile(module)
        finally:
            del sys.modules["mod_schema"]
        assert result.frontend == "pyschema"
        assert result.interface.name == "Mail"

    def test_rejected_object(self):
        with pytest.raises(FlickError, match="no front end accepts"):
            api.compile(12345)

    def test_detect_lang_on_objects(self):
        from dataclasses import dataclass

        @dataclass
        class Thing:
            n: int

        assert api.detect_lang(Thing) == "pyschema"


# ----------------------------------------------------------------------
# The type-mapping table (docs/INTERNALS.md section 15)
# ----------------------------------------------------------------------


def _single_field_aoi(annotation_source):
    """AOI node for a one-field dataclass whose field is *annotation*."""
    source = textwrap.dedent("""
        from dataclasses import dataclass
        from enum import Enum
        from typing import Annotated, Optional, Union

        from repro.pyschema import (
            CHAR, Fixed, Len, Tag, char, f32, f64, i8, i16, i32, i64,
            octet, u8, u16, u32, u64,
        )


        @dataclass
        class Holder:
            value: %s
    """) % annotation_source
    root = frontends.get("pyschema").compile_frontend(source)
    holder = root.types["Holder"]
    return holder.fields[0].type


class TestTypeMapping:
    @pytest.mark.parametrize("annotation,bits,signed", [
        ("i8", 8, True), ("i16", 16, True), ("i32", 32, True),
        ("i64", 64, True), ("u8", 8, False), ("u16", 16, False),
        ("u32", 32, False), ("u64", 64, False), ("int", 32, True),
    ])
    def test_integer_aliases(self, annotation, bits, signed):
        node = _single_field_aoi(annotation)
        assert type(node).__name__ == "AoiInteger"
        assert (node.bits, node.signed) == (bits, signed)

    @pytest.mark.parametrize("annotation,bits", [
        ("f32", 32), ("f64", 64), ("float", 64),
    ])
    def test_float_aliases(self, annotation, bits):
        node = _single_field_aoi(annotation)
        assert type(node).__name__ == "AoiFloat"
        assert node.bits == bits

    def test_bool_before_int(self):
        # bool is an int subclass; the mapping must check it first.
        assert type(_single_field_aoi("bool")).__name__ == "AoiBoolean"

    def test_octet_and_char(self):
        assert type(_single_field_aoi("octet")).__name__ == "AoiOctet"
        assert type(_single_field_aoi("char")).__name__ == "AoiChar"

    def test_strings(self):
        unbounded = _single_field_aoi("str")
        assert type(unbounded).__name__ == "AoiString"
        assert unbounded.bound is None
        bounded = _single_field_aoi("Annotated[str, Len(40)]")
        assert bounded.bound == 40

    def test_bytes_to_octet_sequence(self):
        node = _single_field_aoi("Annotated[bytes, Len(128)]")
        assert type(node).__name__ == "AoiSequence"
        assert type(node.element).__name__ == "AoiOctet"
        assert node.bound == 128

    def test_fixed_to_array(self):
        node = _single_field_aoi("Annotated[list[i32], Fixed(3)]")
        assert type(node).__name__ == "AoiArray"
        assert node.length == 3
        assert type(node.element).__name__ == "AoiInteger"

    def test_optional_pointer(self):
        node = _single_field_aoi("Optional[i32]")
        assert type(node).__name__ == "AoiOptional"

    def test_bare_union_rejected(self):
        with pytest.raises(FlickError, match="Tag"):
            _single_field_aoi("Union[int, str]")

    def test_unsupported_type_rejected(self):
        with pytest.raises(FlickError, match="INTERNALS"):
            _single_field_aoi("dict")


class TestSchemaErrors:
    def test_unannotated_parameter(self):
        from repro.pyschema import interface

        @interface
        class Bad:
            def op(self, x) -> None: ...

        with pytest.raises(FlickError, match="annotat"):
            api.compile(Bad)

    def test_interface_without_methods(self):
        from repro.pyschema import interface

        @interface
        class Empty:
            pass

        with pytest.raises(FlickError, match="public method"):
            api.compile(Empty)

    def test_non_int_enum_rejected(self):
        source = textwrap.dedent("""
            from dataclasses import dataclass
            from enum import Enum


            class Mode(Enum):
                a = "x"


            @dataclass
            class Holder:
                value: Mode
        """)
        with pytest.raises(FlickError, match="int"):
            frontends.get("pyschema").compile_frontend(source)

    def test_invalid_python_source(self):
        with pytest.raises(FlickError, match="invalid Python schema"):
            frontends.get("pyschema").compile_frontend("def broken(:\n")

    def test_future_annotations_supported(self):
        source = (
            "from __future__ import annotations\n"
            + PYSCHEMA_EQ.replace("from dataclasses", "from dataclasses", 1)
        )
        root = frontends.get("pyschema").compile_frontend(source)
        assert root.interface_named("Mail") is not None


# ----------------------------------------------------------------------
# CLI: flick compile module.py
# ----------------------------------------------------------------------


class TestCli:
    def test_compile_py_module(self, tmp_path, capsys):
        from repro.tools import cli

        schema = tmp_path / "mail_schema.py"
        schema.write_text(PYSCHEMA_EQ)
        out = tmp_path / "stubs"
        status = cli.main([
            "compile", str(schema), "-o", str(out)])
        assert status == 0
        written = list(out.glob("*.py"))
        assert written, capsys.readouterr().out
        assert any("Mail" in path.read_text() for path in written)

    def test_detect_py_suffix(self):
        # Suffix wins before content sniffing.
        assert api.detect_lang("# nothing here", name="schema.py") == \
            "pyschema"

    def test_detect_py_content(self):
        assert api.detect_lang(PYSCHEMA_EQ) == "pyschema"
