"""Names Python cannot bind as written are presented with a trailing ``_``.

A field, parameter, operation or exception member that is a Python
keyword (``from``, ``pass``, ``lambda``), ``self``, or a name the
presented classes already use (``_fields``, ``__slots__``, ``args``) is
spelled by :func:`repro.pres.values.python_name`, and so is a presented
class named like what its stub module binds itself (``dispatch``,
``MarshalBuffer``, ``IClient``); what goes on the wire is unchanged.
Each case compiles the schema, makes one call through the generated
proxy and ``dispatch``, and compares the bytes with those of the same
schema spelled with an ordinary name.
"""

import inspect

import pytest

from repro import api
from repro.errors import PresentationError
from repro.pres.values import exception_class, normalize, python_name, \
    record_class
from repro.runtime import LoopbackTransport


class Recording(LoopbackTransport):
    """A loopback that keeps every message it carries."""

    def __init__(self, dispatch, impl):
        super().__init__(dispatch, impl)
        self.carried = []

    def _carry(self, message):
        self.carried.append(bytes(message))
        return message


def client_of(module, servant):
    proxy = next(name for name in dir(module) if name.endswith("Client"))
    transport = Recording(module.dispatch, servant)
    return getattr(module, proxy)(transport), transport


def compile_module(text, lang="corba", backend="iiop"):
    return api.compile(text, lang, backend=backend).module


class TestFields:
    def test_a_struct_field_named_from(self):
        text = ("struct S { long %s; long to; };"
                " interface I { long f(in S s); };")
        wires = []
        for name in ("from", "frm"):
            module = compile_module(text % name)
            spelled = python_name(name)
            assert module.S._fields == (spelled, "to")

            class Servant:
                def f(self, s):
                    return getattr(s, spelled) * 10 + s.to

            client, transport = client_of(module, Servant())
            assert client.f(module.S(**{spelled: 4, "to": 2})) == 42
            wires.append(transport.carried)
        assert wires[0] == wires[1]

    def test_an_onc_struct_field_named_from(self):
        text = ("struct s { int %s; int to; };"
                " program P { version V { int F(s) = 1; } = 1; }"
                " = 0x20000001;")
        wires = []
        for name in ("from", "frm"):
            module = compile_module(text % name, "oncrpc", "oncrpc-xdr")
            spelled = python_name(name)
            assert module.s._fields == (spelled, "to")

            class Servant:
                def F(self, arg):
                    return getattr(arg, spelled) - arg.to

            client, transport = client_of(module, Servant())
            assert client.F(module.s(7, 2)) == 5
            wires.append(transport.carried)
        assert wires[0] == wires[1]

    @pytest.mark.parametrize("name", ["_fields", "__slots__", "to_dict"])
    def test_a_field_the_record_class_uses(self, name):
        text = ("struct S { long %s; long b; };"
                " interface I { long f(in S s); };")
        wires = []
        for written in (name, "plain"):
            module = compile_module(text % written)
            spelled = python_name(written)
            assert module.S._fields == (spelled, "b")
            value = module.S(3, 4)
            assert normalize(value) == {spelled: 3, "b": 4}

            class Servant:
                def f(self, s):
                    return getattr(s, spelled) + s.b

            client, transport = client_of(module, Servant())
            assert client.f(value) == 7
            wires.append(transport.carried)
        # No record method is named to_dict: a field keeps that name.
        assert python_name(name) == (
            name if name == "to_dict" else name + "_")
        assert wires[0] == wires[1]


class TestTypeNames:
    def test_a_struct_named_from(self):
        text = "struct %s { long a; }; interface I { long f(in %s s); };"
        wires = []
        for name in ("from", "frm"):
            module = compile_module(text % (name, name))
            cls = getattr(module, python_name(name))
            assert cls.__name__ == python_name(name)

            class Servant:
                def f(self, s):
                    return s.a + 1

            client, transport = client_of(module, Servant())
            assert client.f(cls(41)) == 42
            wires.append(transport.carried)
        assert wires[0] == wires[1]


    @pytest.mark.parametrize("name", [
        "dispatch", "MarshalBuffer", "_check_reply", "IClient", "IServant",
        "_HANDLERS"])
    def test_a_struct_named_like_what_the_module_binds(self, name):
        """A class that took a name the stub module binds itself would
        shadow it or be shadowed: it is spelled with a trailing ``_``."""
        text = "struct %s { long x; }; interface I { long f(in %s d); };"
        wires = []
        for written, spelled in ((name, name + "_"), ("plain", "plain")):
            module = compile_module(text % (written, written))
            cls = getattr(module, spelled)
            assert (cls.__name__, cls._fields) == (spelled, ("x",))

            class Servant:
                def f(self, d):
                    return d.x + 1

            transport = Recording(module.dispatch, Servant())
            assert module.IClient(transport).f(cls(41)) == 42
            wires.append(transport.carried)
        assert wires[0] == wires[1]

    def test_an_exception_named_like_what_the_module_binds(self):
        text = ("exception %s { long x; };"
                " interface I { void f(in long x) raises (%s); };")
        wires = []
        for written, spelled in (("dispatch", "dispatch_"), ("E", "E")):
            module = compile_module(text % (written, written))
            raised = getattr(module, spelled)

            class Servant:
                def f(self, x):
                    raise raised(x)

            transport = Recording(module.dispatch, Servant())
            with pytest.raises(raised) as caught:
                module.IClient(transport).f(5)
            assert caught.value.x == 5
            wires.append(transport.carried)
        assert wires[0] == wires[1]


class TestParameters:
    @pytest.mark.parametrize("name", ["from", "self"])
    def test_an_in_parameter(self, name):
        text = "interface I { long f(in long %s, in long b); };"
        wires = []
        for written in (name, "plain"):
            module = compile_module(text % written)
            spelled = python_name(written)
            assert list(inspect.signature(module.IClient.f).parameters) \
                == ["self", spelled, "b"]
            assert list(inspect.signature(module.IServant.f).parameters) \
                == ["self", spelled, "b"]

            class Servant:
                def f(self, first, b):
                    return first - b

            client, transport = client_of(module, Servant())
            assert client.f(9, 4) == 5
            wires.append(transport.carried)
        assert python_name(name) == name + "_"
        assert wires[0] == wires[1]


class TestOperations:
    def test_an_operation_named_pass(self):
        text = "interface I { long %s(in long x); };"
        wires = []
        for written in ("pass", "paso"):
            module = compile_module(text % written)
            spelled = python_name(written)
            assert hasattr(module.IClient, spelled)
            assert hasattr(module.IServant, spelled)

            class Servant:
                pass

            setattr(Servant, spelled, lambda self, x: x + 1)
            client, transport = client_of(module, Servant())
            assert getattr(client, spelled)(41) == 42
            wires.append(transport.carried)
        # GIOP carries the operation as the IDL wrote it.
        request = wires[0][0]
        assert b"\x00\x00\x00\x05pass\x00" in request
        assert b"pass_" not in request
        assert [message.replace(b"paso", b"pass")
                for message in wires[1]] == wires[0]


class TestExceptionMembers:
    def test_members_named_lambda_and_args(self):
        text = ("exception E { long %s; long %s; };"
                " interface I { void f(in long x) raises (E); };")
        wires = []
        for first, second in (("lambda", "args"), ("lam", "arg")):
            module = compile_module(text % (first, second))
            names = (python_name(first), python_name(second))
            assert module.E._fields == names

            class Servant:
                def f(self, x):
                    raise module.E(x, x + 1)

            client, transport = client_of(module, Servant())
            with pytest.raises(module.E) as caught:
                client.f(5)
            assert [getattr(caught.value, name) for name in names] == [5, 6]
            assert str(caught.value) == "E"
            wires.append(transport.carried)
        assert wires[0] == wires[1]


class TestTheFactoryRefuses:
    @pytest.mark.parametrize("fields", [
        ("from",), ("self",), ("_fields",), ("x", "x"), ("1x",), ("a-b",)])
    def test_a_field_python_cannot_bind(self, fields):
        with pytest.raises(PresentationError, match="record S: field"):
            record_class("S", fields)
        with pytest.raises(PresentationError, match="exception E: field"):
            exception_class("E", "M::E", fields)

    @pytest.mark.parametrize("name", ["from", "M::S", ""])
    def test_a_class_name_python_cannot_bind(self, name):
        with pytest.raises(PresentationError, match="not a Python"):
            record_class(name, ("x",))
