"""Decoded records are the records their class builds.

A decoder builds each record in its own frame — ``_new(Cls)`` and a
store per field, no ``__init__`` — so nothing but the stores says that
every slot is set.  Random values of every operation of every schema
under ``examples/idl`` and ``benchmarks/e2e/schemas``, and of two
inline schemas (fields Python spells with a trailing ``_``, and a
tail-recursive list), go through a loopback call under every
presentation and back end; every record the servant and the client get
back must have the type of the one sent, built by calling its class,
every slot bound, and be ``==`` to it with the same ``repr``.
"""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api, frontends
from repro.errors import FlickError
from repro.mint import types as mt
from repro.pres import nodes as p
from repro.pres.values import Record
from repro.runtime import LoopbackTransport

from tests.conftest import ALL_BACKENDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Struct fields named like what generated Python takes itself.
KEYWORDS_IDL = """
module K {
  struct Lambda { long self; string args; boolean from; short pass; };
  struct Outer { Lambda lambda; octet class[3]; sequence<Lambda, 4> def; };
  typedef sequence<Outer, 3> Outers;
  interface Kw { Outers echo(in Outers xs, in Lambda one); };
};
"""

#: A tail-recursive list: its decoder is the iterative list loop.
LIST_X = """
struct entry { int v; string tag<16>; entry *next; };
program LISTS { version LV { entry echo(entry) = 1; } = 1; } = 0x20000400;
"""

SCHEMAS = {
    os.path.relpath(path, ROOT): (open(path).read(), os.path.basename(path))
    for path in sorted(
        glob.glob(os.path.join(ROOT, "examples", "idl", "*"))
        + glob.glob(os.path.join(ROOT, "benchmarks", "e2e", "schemas",
                                 "*.*")))}
SCHEMAS["keywords.idl"] = (KEYWORDS_IDL, "keywords.idl")
SCHEMAS["list.x"] = (LIST_X, "list.x")

PRESENTATIONS = (None, "corba-c-len", "rpcgen")

_compiled = {}


def compiled(schema, presentation, backend):
    """The results of every interface of *schema*, or () when the
    presentation or the back end refuses it."""
    key = schema, presentation, backend
    if key not in _compiled:
        text, file_name = SCHEMAS[schema]
        lang = frontends.detect(text, file_name).name
        try:
            results = list(api.compile_all(
                text, lang, name=file_name, backend=backend,
                presentation=presentation).values())
            for result in results:
                result.module.dispatch  # noqa: B018 — refusals show here
        except FlickError:
            results = []
        _compiled[key] = results
    return _compiled[key]


def values(pres, presc, module, depth=0):
    """A strategy for presented values of *pres*, records built by
    calling their classes."""
    pres = presc.pres_registry.resolve(pres)

    def of(element, deeper=0):
        return st.deferred(lambda: values(element, presc, module,
                                          depth + deeper))

    if isinstance(pres, p.PresVoid):
        return st.none()
    if isinstance(pres, p.PresDirect):
        mint = presc.mint_registry.resolve(pres.mint)
        if isinstance(mint, mt.MintFloat):
            return st.floats(width=mint.bits, allow_nan=False)
        if isinstance(mint, mt.MintChar):
            return st.characters(min_codepoint=1, max_codepoint=255)
        if isinstance(mint, mt.MintBoolean):
            return st.booleans()
        low, high = mint.range()
        return st.integers(low, high)
    if isinstance(pres, p.PresEnum):
        return st.sampled_from([value for _name, value in pres.members])
    if isinstance(pres, p.PresString):
        text = st.text(st.characters(min_codepoint=1, max_codepoint=255),
                       max_size=min(pres.bound or 8, 8))
        if pres.carries_length:
            return text.map(lambda value: value.encode("latin-1"))
        return text
    if isinstance(pres, p.PresBytes):
        if pres.fixed_length is not None:
            return st.binary(min_size=pres.fixed_length,
                             max_size=pres.fixed_length)
        return st.binary(max_size=min(pres.bound or 8, 8))
    if isinstance(pres, p.PresFixedArray):
        return st.lists(of(pres.element), min_size=pres.length,
                        max_size=pres.length)
    if isinstance(pres, p.PresCountedArray):
        return st.lists(of(pres.element),
                        max_size=min(pres.bound or 3, 3))
    if isinstance(pres, p.PresOptPtr):
        if depth >= 3:
            return st.none()
        return st.none() | of(pres.element, 1)
    if isinstance(pres, p.PresStruct):
        record = getattr(module, pres.record_name.replace("::", "_"))
        return st.tuples(*[of(field.pres) for field in pres.fields]).map(
            lambda fields: record(*fields))
    if isinstance(pres, p.PresUnion):
        return st.one_of([
            st.tuples(st.just(arm.labels[0]), of(arm.pres))
            for arm in pres.arms if not arm.is_default])
    raise AssertionError("no strategy for %r" % (pres,))


def same_records(got, sent):
    """Every record of *got* is the one at its place in *sent*: same
    type, every slot bound, equal, with the same repr."""
    if isinstance(sent, Record):
        assert type(got) is type(sent)
        for name in type(sent).__slots__:
            getattr(got, name)  # an unbound slot raises AttributeError
        assert got == sent
        assert repr(got) == repr(sent)
        for name in sent._fields:
            same_records(getattr(got, name), getattr(sent, name))
    elif isinstance(sent, (list, tuple)):
        assert len(got) == len(sent)
        for item, expected in zip(got, sent):
            same_records(item, expected)
    else:
        assert got == sent


def exchange(data, result):
    """One call of every operation of *result* with drawn values."""
    presc, module = result.presc, result.module
    received = []

    class Servant:
        def __getattr__(self, name):
            return lambda *args: received.append(args) or answers[name]

    answers = {}
    client = getattr(module, "%sClient" % presc.interface_name.replace(
        "::", "_"))(LoopbackTransport(module.dispatch, Servant()))
    for stub in presc.stubs:
        fields = stub.reply_pres.arms[0].pres.fields \
            if stub.reply_pres else ()
        results = [data.draw(values(field.pres, presc, module))
                   for field in fields]
        answers[stub.operation_name] = (
            None if not results else results[0] if len(results) == 1
            else tuple(results))
        args = [data.draw(values(parameter.pres, presc, module))
                for parameter in stub.in_parameters()]
        del received[:]
        got = getattr(client, stub.operation_name)(*args)
        (servant_got,) = received
        same_records(list(servant_got), args)
        if not stub.oneway:
            same_records(got, answers[stub.operation_name])


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_decoded_records_are_what_their_class_builds(schema, backend, data):
    cells = [result for presentation in PRESENTATIONS
             for result in compiled(schema, presentation, backend)]
    assert cells, "every presentation refused"
    for result in cells:
        exchange(data, result)


def test_fields_python_spells_with_a_trailing_underscore():
    """The inline schema's fields are the ones it is there for."""
    module = compiled("keywords.idl", None, "iiop")[0].module
    assert module.K_Lambda._fields == ("self_", "args_", "from_", "pass_")
    assert module.K_Outer._fields == ("lambda_", "class_", "def_")
