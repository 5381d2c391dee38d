"""Unit tests for presentation generation (PRES_C construction)."""

import pytest

from repro import frontends
from repro.errors import PresentationError
from repro.cast import emit_c
from repro.pgen import make_presentation
from repro.pres import nodes as p

from tests.conftest import MAIL_IDL, DB_IDL, present


@pytest.fixture(scope="module")
def mail_presc():
    root = frontends.get("corba").compile_frontend(MAIL_IDL)
    return present(root, "Test::Mail")


@pytest.fixture(scope="module")
def db_presc():
    root = frontends.get("oncrpc").compile_frontend(DB_IDL)
    return present(root, "DB::DBV", "rpcgen")


class TestCorbaPresentation:
    def test_stub_names_follow_corba_c_mapping(self, mail_presc):
        names = [stub.stub_name for stub in mail_presc.stubs]
        assert "Test_Mail_send" in names
        assert "Test_Mail_ping" in names

    def test_attribute_expands_to_getter(self, mail_presc):
        names = [stub.operation_name for stub in mail_presc.stubs]
        assert "_get_counter" in names
        assert "_set_counter" not in names  # readonly

    def test_request_pres_has_in_flowing_fields(self, mail_presc):
        stub = mail_presc.stub_named("send")
        assert [f.name for f in stub.request_pres.fields] == ["msg", "r", "v"]

    def test_reply_union_shape(self, mail_presc):
        stub = mail_presc.stub_named("send")
        reply = stub.reply_pres
        assert isinstance(reply, p.PresUnion)
        assert len(reply.arms) == 2  # success + Bad
        success = reply.arms[0].pres
        assert [f.name for f in success.fields] == ["_return", "v", "c"]

    def test_exception_arm(self, mail_presc):
        stub = mail_presc.stub_named("send")
        arm = stub.reply_pres.arms[1]
        assert isinstance(arm.pres, p.PresException)
        assert arm.pres.exception_name == "Test::Bad"
        assert [f.name for f in arm.pres.fields] == ["why", "code"]

    def test_oneway_has_no_reply(self, mail_presc):
        assert mail_presc.stub_named("ping").reply_pres is None

    def test_string_presented_as_pres_string(self, mail_presc):
        stub = mail_presc.stub_named("send")
        assert isinstance(stub.request_pres.fields[0].pres, p.PresString)

    def test_octet_sequence_presented_as_bytes(self, mail_presc):
        stub = mail_presc.stub_named("reverse")
        pres = mail_presc.pres_registry.resolve(
            stub.request_pres.fields[0].pres
        )
        assert isinstance(pres, p.PresBytes)

    def test_named_struct_registered(self, mail_presc):
        assert "Test::Rect" in mail_presc.pres_registry
        rect = mail_presc.pres_registry["Test::Rect"]
        assert isinstance(rect, p.PresStruct)
        assert rect.record_name == "Test_Rect"

    def test_union_arm_labels_normalized(self, mail_presc):
        union = mail_presc.pres_registry["Test::Value"]
        assert union.arms[0].labels == (0,)   # RED
        assert union.arms[1].labels == (1,)   # GREEN
        assert union.arms[2].is_default

    def test_c_prototype_shape(self, mail_presc):
        stub = mail_presc.stub_named("send")
        text = emit_c([stub.c_decl])
        assert "CORBA_long Test_Mail_send(" in text
        assert "CORBA_Environment *_ev" in text
        assert "Test_Value *v" in text       # inout by pointer
        assert "Test_Color *c" in text       # out by pointer

    def test_c_decls_include_types(self, mail_presc):
        text = emit_c(mail_presc.c_decls)
        assert "struct Test_Rect {" in text
        assert "enum Test_Color {" in text
        assert "union Test_Value_u {" in text


class TestRpcgenPresentation:
    def test_stub_names_carry_version(self, db_presc):
        names = [stub.stub_name for stub in db_presc.stubs]
        assert "lookup_2" in names  # version 2

    def test_request_codes_are_procedure_numbers(self, db_presc):
        assert db_presc.stub_named("lookup").request_code == 1
        assert db_presc.stub_named("rev").request_code == 4

    def test_interface_code_is_prog_vers(self, db_presc):
        assert db_presc.interface_code == (0x20000099, 2)

    def test_c_prototype_rpcgen_shape(self, db_presc):
        stub = db_presc.stub_named("store")
        text = emit_c([stub.c_decl])
        assert "CLIENT *clnt" in text
        assert text.strip().startswith("int *store_2(")

    def test_recursive_type_registered(self, db_presc):
        assert "entry" in db_presc.pres_registry
        entry = db_presc.pres_registry["entry"]
        (next_field,) = [struct_field for struct_field in entry.fields
                         if struct_field.name == "next"]
        assert isinstance(next_field.pres, p.PresOptPtr)
        assert isinstance(next_field.pres.element, p.PresRef)


class TestFlukePresentation:
    def test_derived_from_corba(self):
        root = frontends.get("corba").compile_frontend(MAIL_IDL)
        presc = present(root, "Test::Mail", "fluke")
        stub = presc.stub_named("send")
        assert stub.stub_name == "fluke_Test_Mail_send"
        text = emit_c([stub.c_decl])
        assert "CORBA_Environment" not in text

    def test_void_ops_return_int_code(self):
        root = frontends.get("corba").compile_frontend(
            "interface I { void f(); };")
        presc = present(root, "I", "fluke")
        text = emit_c([presc.stub_named("f").c_decl])
        assert text.strip().startswith("int fluke_I_f(")


class TestInheritance:
    def test_parent_operations_flattened(self):
        root = frontends.get("corba").compile_frontend(
            "interface A { void base(); };"
            "interface B : A { void extra(); };")
        presc = present(root, "B")
        names = [stub.operation_name for stub in presc.stubs]
        assert names == ["base", "extra"]

    def test_diamond_inheritance_deduplicated(self):
        root = frontends.get("corba").compile_frontend(
            "interface R { void r(); };"
            "interface A : R {};"
            "interface B : R {};"
            "interface C : A, B { void c(); };")
        presc = present(root, "C")
        names = [stub.operation_name for stub in presc.stubs]
        assert names.count("r") == 1


class TestSides:
    def test_separate_client_server_prescs(self, mail_presc):
        root = frontends.get("corba").compile_frontend(MAIL_IDL)
        server = present(root, "Test::Mail", side="server")
        assert server.side == "server"
        assert mail_presc.side == "client"

    def test_invalid_side_rejected(self):
        root = frontends.get("corba").compile_frontend(MAIL_IDL)
        with pytest.raises(PresentationError):
            make_presentation("corba-c").generate(
                root, root.interface_named("Test::Mail"), side="middle"
            )
