"""Tests for the MIG front end and its conjoined presentation."""

import pytest

from repro.errors import IdlSyntaxError
from repro import api
from repro.mig import parse_mig_idl
from repro.mig.parser import MigArray, MigCString, MigNamed
from repro.backend import make_backend
from repro.runtime import LoopbackTransport

from tests.conftest import MIG_IDL


def mig_presc(text):
    return api.compile(text, "mig").presc


class TestParser:
    def test_subsystem_header(self):
        subsystem = parse_mig_idl(MIG_IDL)
        assert subsystem.name == "arith"
        assert subsystem.base == 4200

    def test_type_declarations(self):
        subsystem = parse_mig_idl(MIG_IDL)
        types = {decl.name: decl.type for decl in subsystem.types}
        int_array = types["int_array"]
        assert isinstance(int_array, MigArray)
        assert int_array.length is None and int_array.bound == 4096
        assert isinstance(types["name_t"], MigCString)

    def test_fixed_array(self):
        subsystem = parse_mig_idl(
            "subsystem s 1;\ntype v = array[8] of int;"
        )
        declared = subsystem.types[0].type
        assert declared.length == 8

    def test_routine_numbering_with_skip(self):
        subsystem = parse_mig_idl(
            "subsystem s 100;\n"
            "routine a(p : mach_port_t);\n"
            "skip;\n"
            "routine b(p : mach_port_t);\n"
        )
        numbers = {r.name: r.number for r in subsystem.routines}
        assert numbers == {"a": 1, "b": 3}

    def test_simpleroutine_flag(self):
        subsystem = parse_mig_idl(MIG_IDL)
        flags = {r.name: r.oneway for r in subsystem.routines}
        assert flags["poke"] is True
        assert flags["add"] is False

    def test_parameter_directions(self):
        subsystem = parse_mig_idl(MIG_IDL)
        add = next(r for r in subsystem.routines if r.name == "add")
        assert [p.direction for p in add.parameters] == [
            "in", "in", "in", "out",
        ]

    def test_syntax_error(self):
        with pytest.raises(IdlSyntaxError):
            parse_mig_idl("subsystem broken;")


class TestPresentation:
    def test_produces_presc_directly(self):
        presc = mig_presc(MIG_IDL)
        assert presc.presentation_style == "mig"
        assert presc.interface_code == 4200

    def test_stub_names(self):
        presc = mig_presc(MIG_IDL)
        assert [s.stub_name for s in presc.stubs] == [
            "arith_add", "arith_total", "arith_poke", "arith_greet",
        ]

    def test_port_parameter_excluded_from_message(self):
        presc = mig_presc(MIG_IDL)
        add = presc.stub_named("add")
        assert [f.name for f in add.request_pres.fields] == ["a", "b"]

    def test_out_parameters_in_reply(self):
        presc = mig_presc(MIG_IDL)
        add = presc.stub_named("add")
        success = add.reply_pres.arms[0].pres
        assert [f.name for f in success.fields] == ["total"]

    def test_request_codes_are_ordinals(self):
        presc = mig_presc(MIG_IDL)
        assert presc.stub_named("add").request_code == 1
        assert presc.stub_named("greet").request_code == 4


class TestEndToEnd:
    def make_client(self, backend_name="mach3"):
        presc = mig_presc(MIG_IDL)
        module = make_backend(backend_name).generate(presc).load()

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
        client = module.arithClient(
            LoopbackTransport(module.dispatch, impl)
        )
        return client, impl, module

    def test_over_mach(self):
        client, impl, _module = self.make_client("mach3")
        assert client.add(1, 2) == 3
        assert client.total(list(range(64))) == 2016
        client.poke(9)
        assert impl.poked == 9
        assert client.greet("x") == "hi x"

    def test_msgh_ids_use_subsystem_base(self):
        presc = mig_presc(MIG_IDL)
        from repro.backend.mach3 import message_id

        assert message_id(presc, presc.stub_named("add")) == 4201
        assert message_id(presc, presc.stub_named("greet")) == 4204

    def test_over_fluke_too(self):
        # The PRES_C is back-end independent even for MIG input.
        client, _impl, _module = self.make_client("fluke")
        assert client.add(20, 22) == 42
