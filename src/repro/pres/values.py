"""Presented Python values: the record and exception class factory,
and helpers over the values.

Generated record classes, plain mappings (as produced by the interpretive
baseline), and ``(discriminator, payload)`` union pairs all flow through
the same stubs and tests; these helpers give every component one way to
read them.  Every presented record and user exception class is built by
:func:`record_class` / :func:`exception_class`: a generated module
prints one line per type, not a class body.
"""

from __future__ import annotations

import keyword
import sys
import types

from repro.errors import FlickUserException, MarshalError, PresentationError


def get_field(value, name):
    """Read struct field *name* from a record object or a mapping."""
    if isinstance(value, dict):
        try:
            return value[name]
        except KeyError:
            raise MarshalError(
                "struct value is missing field %r" % name
            ) from None
    try:
        return getattr(value, name)
    except AttributeError:
        raise MarshalError(
            "struct value %r has no field %r" % (type(value).__name__, name)
        ) from None


def make_union(discriminator, payload):
    """Build the canonical presented union value."""
    return (discriminator, payload)


def union_parts(value):
    """Split a presented union value into (discriminator, payload)."""
    try:
        discriminator, payload = value
    except (TypeError, ValueError):
        raise MarshalError(
            "union value must be a (discriminator, payload) pair, got %r"
            % (value,)
        ) from None
    return discriminator, payload


class Record:
    """Base class for generated record classes.

    :func:`record_class` builds the subclasses, with ``_fields``,
    ``__slots__`` and an ``__init__`` taking each field, ``None`` by
    default; equality and repr are field-wise, and :func:`normalize`
    converts them to dicts so records produced by different compilers
    compare equal.
    """

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        if isinstance(other, Record):
            if self._fields != other._fields:
                return NotImplemented
            return all(
                getattr(self, name) == getattr(other, name)
                for name in self._fields
            )
        return NotImplemented

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (name, getattr(self, name, None))
            for name in self._fields
        )
        return "%s(%s)" % (type(self).__name__, parts)


def normalize(value):
    """Recursively convert presented values to plain Python data.

    Records become dicts, lists are normalized element-wise, and union
    pairs keep their shape.  Two values produced by different compilers
    (e.g. Flick record objects vs. interpretive dicts) normalize equal
    exactly when they present the same message.
    """
    if isinstance(value, Record):
        return {name: normalize(getattr(value, name))
                for name in value._fields}
    if isinstance(value, dict):
        return {name: normalize(item) for name, item in value.items()}
    if isinstance(value, tuple):
        return tuple(normalize(item) for item in value)
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, BaseException):
        result = {"_exception": type(value).__name__}
        for name in getattr(value, "_fields", ()):
            result[name] = normalize(getattr(value, name))
        return result
    return value


# ----------------------------------------------------------------------
# The class factory
# ----------------------------------------------------------------------

#: Names no field or parameter of a presented type or operation can
#: take: the receiver of every method, and what the presented classes
#: already use (``args`` is ``BaseException``'s, and setting it to a
#: number raises).
TAKEN = frozenset(("self", "_fields", "__slots__", "args"))


#: What :func:`python_name` spells with a trailing ``_``.
_SPELLED = frozenset(keyword.kwlist) | TAKEN


def python_name(name, taken=()):
    """*name* as generated Python spells it: with a trailing ``_`` when
    it is a Python keyword, :data:`TAKEN` or in *taken* — for a class,
    a name its stub module binds itself (PEP 8's rule for a name that
    clashes).  What a name is on the wire does not change."""
    return name + "_" if name in _SPELLED or name in taken else name


def check_names(kind, name, fields):
    """Refuse a class *name* or a field of *fields* that generated
    Python cannot bind: not an identifier, a keyword, :data:`TAKEN`
    (the class name may be that) or repeated."""
    if not name.isidentifier() or keyword.iskeyword(name):
        raise PresentationError(
            "%s name %r is not a Python identifier" % (kind, name))
    if _SPELLED.isdisjoint(fields) and len(set(fields)) == len(fields) \
            and all(map(str.isidentifier, fields)):
        return
    for index, field in enumerate(fields):
        if field in fields[:index]:
            raise PresentationError(
                "%s %s: field %r is repeated" % (kind, name, field))
        if not field.isidentifier() or field in _SPELLED:
            raise PresentationError(
                "%s %s: field %r is not a Python identifier a field can"
                " have" % (kind, name, field))


#: ``(kind, arity)`` -> the ``__init__`` every class of that kind and
#: arity shares, compiled once per process with fields ``a0``, ``a1``...
_TEMPLATES = {}

#: What an exception template passes ``FlickUserException.__init__``,
#: replaced by the exception's IDL name.
_IDL_NAME = "\0idl name"


def _template(kind, arity):
    """The ``__init__`` code of *kind* (``record``/``exception``) with
    *arity* fields, on one line, so that whatever line it is moved to
    every instruction is on that line.  Its locals are ``self`` and the
    fields, and the fields are the last of its names."""
    names = ["a%d" % index for index in range(arity)]
    body = ["self.%s = %s" % (name, name) for name in names]
    if kind == "exception":
        body.insert(0, "FlickUserException.__init__(self, %r)" % _IDL_NAME)
    text = "def __init__(%s): %s\n" % (
        ", ".join(["self"] + ["%s=None" % name for name in names]),
        "; ".join(body or ["pass"]))
    (code,) = [constant for constant in compile(
        text, "<%s __init__ template>" % kind, "exec",
        dont_inherit=True).co_consts if isinstance(constant, types.CodeType)]
    return _TEMPLATES.setdefault((kind, arity), _without_columns(code))


def _without_columns(code):
    """*code* with every instruction on its first line and no column
    range (CPython 3.11's location table, code 13 per run of at most 8
    code units): a traceback shows the line it is moved to, with no
    carets under a column of another line."""
    units = len(code.co_code) // 2
    table = bytearray()
    while units:
        run = min(units, 8)
        table += bytes((0x80 | 13 << 3 | (run - 1), 0))
        units -= run
    return code.replace(co_linetable=bytes(table))


def _make(kind, base, name, fields, namespace, idl_name=None):
    """The class *name* over *base*: its ``__init__`` is the template of
    *kind* and ``len(fields)``, renamed, and placed on the line of the
    factory call two frames up (a generated module's own line)."""
    fields = tuple(fields)
    check_names(kind, name, fields)
    caller = sys._getframe(2)
    module = caller.f_globals.get("__name__")
    template = _TEMPLATES.get((kind, len(fields))) \
        or _template(kind, len(fields))
    names, consts = template.co_names, template.co_consts
    if idl_name is not None:
        consts = tuple(idl_name if constant == _IDL_NAME else constant
                       for constant in consts)
    code = template.replace(
        co_varnames=("self",) + fields,
        co_names=names[:len(names) - len(fields)] + fields,
        co_consts=consts, co_qualname=name + ".__init__",
        co_filename=caller.f_code.co_filename,
        co_firstlineno=caller.f_lineno)
    init = types.FunctionType(code, globals(), "__init__",
                              (None,) * len(fields) or None)
    init.__module__ = module
    namespace.update(_fields=fields, __init__=init, __module__=module,
                     __qualname__=name)
    return type(name, (base,), namespace)


def record_class(name, fields):
    """The record class *name* with *fields*: ``__slots__`` and
    ``_fields`` are *fields*, and ``__init__(self, f0=None, ...)`` sets
    each, in the bytecode a class statement with that ``__init__``
    compiles to."""
    return _make("record", Record, name, fields, {"__slots__": tuple(fields)})


def exception_class(name, idl_name, fields):
    """The user exception class *name*: a :class:`FlickUserException`
    whose message is *idl_name*, with ``_fields`` *fields*, each set by
    ``__init__`` (``None`` by default)."""
    return _make("exception", FlickUserException, name, fields, {},
                 idl_name)
