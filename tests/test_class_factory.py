"""A factory-built record or exception class behaves like the class a
generated module used to print.

The reference is the printed text itself — ``class ...(_Record):`` with
``__slots__``, ``_fields`` and an ``__init__`` setting each field — exec'd
under a module name, against the one line a module prints now, exec'd
the same way.
"""

import inspect
import keyword
import sys
import traceback

from hypothesis import given, settings, strategies as st

from repro import api
from repro.backend import stubrt
from repro.errors import FlickUserException
from repro.pres import values
from repro.pres.values import Record, python_name

MODULE = "flick_factory_probe"


def printed_record(name, fields):
    """The class text the back end printed for a record."""
    literal = "".join(repr(field) + ", " for field in fields)
    lines = ["class %s(_Record):" % name,
             "    __slots__ = (%s)" % literal,
             "    _fields = (%s)" % literal,
             "    def __init__(self%s):" % "".join(
                 ", %s=None" % field for field in fields)]
    lines += ["        self.%s = %s" % (field, field) for field in fields]
    return "\n".join(lines + ["        pass"] * (not fields)) + "\n"


def printed_exception(name, idl_name, fields):
    """The class text the back end printed for a user exception."""
    literal = "".join(repr(field) + ", " for field in fields)
    lines = ["class %s(FlickUserException):" % name,
             "    _fields = (%s)" % literal,
             "    def __init__(self%s):" % "".join(
                 ", %s=None" % field for field in fields),
             "        FlickUserException.__init__(self, %r)" % idl_name]
    lines += ["        self.%s = %s" % (field, field) for field in fields]
    return "\n".join(lines) + "\n"


def define(text, name):
    """Exec *text* as a stub module would and return its class *name*."""
    namespace = {"__name__": MODULE, "_Record": Record}
    namespace.update((name, getattr(stubrt, name)) for name in stubrt.NAMES)
    exec(compile(text, "<%s>" % MODULE, "exec"), namespace)
    return namespace[name]


def outcome(call):
    try:
        return ("ok", call())
    except TypeError as error:
        return ("TypeError", str(error))


identifiers = st.from_regex(r"\A[a-z][a-z0-9_]{0,7}\Z").filter(
    lambda name: python_name(name) == name)
field_lists = st.lists(identifiers, unique=True, max_size=40)


def assert_same_class(old, new, fields, data):
    assert new.__name__ == old.__name__
    assert new.__qualname__ == old.__qualname__
    assert new.__module__ == old.__module__ == MODULE
    assert new.__bases__ == old.__bases__
    assert new._fields == old._fields == tuple(fields)
    assert str(inspect.signature(new)) == str(inspect.signature(old))
    old_init, new_init = old.__init__, new.__init__
    assert new_init.__qualname__ == old_init.__qualname__
    assert new_init.__defaults__ == old_init.__defaults__
    for attribute in ("co_code", "co_consts", "co_names", "co_varnames",
                      "co_argcount", "co_flags", "co_qualname"):
        assert getattr(new_init.__code__, attribute) \
            == getattr(old_init.__code__, attribute), attribute
    values_ = data.draw(st.lists(st.integers(), min_size=len(fields),
                                 max_size=len(fields)))
    split = data.draw(st.integers(0, len(fields)))
    keywords = data.draw(st.sets(st.sampled_from(fields[split:]))
                         if fields[split:] else st.just(set()))
    args = values_[:split]
    kwargs = {field: value for field, value in zip(fields, values_)
              if field in keywords}
    built = []
    for cls in (old, new):
        obj = cls(*args, **kwargs)
        built.append(obj)
        # Fields not given are None.
        assert [getattr(obj, field) for field in fields] == [
            value if index < split or field in keywords else None
            for index, (field, value) in enumerate(zip(fields, values_))]
    # Too many positional arguments, an unknown keyword.
    for call in (lambda cls: cls(*range(len(fields) + 1)),
                 lambda cls: cls(**{"Unknown": 1})):
        assert outcome(lambda: call(new)) == outcome(lambda: call(old))
    return built


class TestRecordClass:
    @settings(max_examples=60, deadline=None)
    @given(fields=field_lists, data=st.data())
    def test_behaves_like_the_printed_class(self, fields, data):
        old = define(printed_record("Probe", fields), "Probe")
        new = define("Probe = _record('Probe', %r)" % (tuple(fields),),
                     "Probe")
        assert new.__slots__ == old.__slots__
        before, after = assert_same_class(old, new, fields, data)
        assert not hasattr(after, "__dict__")
        assert before == after and after == before
        assert repr(after) == repr(before)
        assert values.normalize(after) == values.normalize(before)


class TestExceptionClass:
    @settings(max_examples=60, deadline=None)
    @given(fields=field_lists, data=st.data())
    def test_behaves_like_the_printed_class(self, fields, data):
        old = define(printed_exception("Oops", "M::Oops", fields), "Oops")
        new = define("Oops = _exception('Oops', 'M::Oops', %r)"
                     % (tuple(fields),), "Oops")
        before, after = assert_same_class(old, new, fields, data)
        assert isinstance(after, FlickUserException)
        assert str(after) == str(before) == "M::Oops"
        assert after.args == before.args
        assert values.normalize(after) == values.normalize(before)


class TestTemplates:
    def test_one_template_per_arity_and_kind(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(values, "_TEMPLATES", {})
        monkeypatch.setattr(values, "compile", lambda *args, **kwargs: (
            compiled.append(args[1]) or compile(*args, **kwargs)),
            raising=False)
        first = values.record_class("A", ("x", "y"))
        second = values.record_class("B", ("p", "q"))
        values.record_class("C", ("z",))
        values.exception_class("E", "M::E", ("x", "y"))
        assert len(compiled) == 3
        assert first.__init__.__code__.co_code \
            == second.__init__.__code__.co_code
        assert first.__init__.__code__ is not second.__init__.__code__

    def test_every_python_keyword_is_spelled(self):
        for word in keyword.kwlist:
            assert python_name(word) == word + "_"
        assert python_name("self") == "self_"
        assert python_name("fromage") == "fromage"


class TestTracebacks:
    def test_a_traceback_through_an_init_names_the_module_line(self):
        module = api.compile(
            "struct Point { long x; long y; };"
            " interface Plane { void put(in Point p); };",
            "corba", backend="iiop").module
        init = module.Point.__init__
        assert init.__code__.co_filename == module.__file__
        line = module.__source__.split("\n")[
            init.__code__.co_firstlineno - 1]
        assert line.startswith("Point = _record('Point', ")
        try:
            init(object(), 1)
        except AttributeError:
            _type, error, trace = sys.exc_info()
        frames = traceback.extract_tb(trace)
        assert (frames[-1].filename, frames[-1].lineno, frames[-1].name) \
            == (module.__file__, init.__code__.co_firstlineno, "__init__")
        assert frames[-1].line == line
        text = "".join(traceback.format_exception(error))
        assert module.__file__ in text and line in text
