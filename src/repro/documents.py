"""Outside documents: JSON read and written from dataclass descriptions.

Every JSON document that crosses a process or an operator boundary — a
:class:`~repro.runtime.service.ServiceConfig` a worker loads, a
:class:`~repro.faults.FaultPlan` file, a profile snapshot, a control
command or reply — is a dataclass, and the dataclass *is* its
description: field name = JSON key, annotation = JSON shape.  There is
no second schema; the checks follow from the annotations the way
Flick's marshal code follows from the IDL.

Shapes: ``int``, ``float`` (an ``int`` is accepted), ``str``, ``bool``
(never a number), ``Optional[T]``, ``list[T]``, ``dict[str, T]``,
``dict[int, T]`` (string keys in JSON), nested dataclasses and
``Literal[...]``.  A missing field takes its default and is an error
without one; unknown keys are refused; ``init=False`` fields are not
part of the document.  Every wrong shape is one :class:`DocumentError`
naming the field path.  Descriptions resolve at the first read or
write of a class, never at import.

The same description is a command line: a field whose metadata is
:func:`flag` is an option of the verbs it names (:func:`add_flags`),
and the parsed namespace is read back through the document checks
(:func:`read_flags`), so ``--port 70000`` and ``{"port": 70000}`` are
refused by the same code.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing

from repro.errors import FlickError

_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string", list: "a list", dict: "an object"}


class DocumentError(FlickError, ValueError):
    """A document of the wrong shape.

    ``path`` is the offending field's path (``ops[0].codec[encode].sum``),
    ``""`` when the document as a whole is wrong.
    """

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


def _wrong(what, path, problem):
    return DocumentError("%s: %s %s" % (what, path or "the document",
                                        problem), path)


@functools.lru_cache(maxsize=None)
def _fields(cls):
    """``[(name, annotation, required)]`` of *cls*'s document fields."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.init]


def read(cls, data, what):
    """*data*, a parsed JSON document, as a *cls*.

    Raises :class:`DocumentError` whose message starts ``what:`` and
    names the field.
    """
    return _read(cls, data, what, "")


def _read(shape, value, what, path):
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is typing.Union:  # Optional[T]
        return None if value is None else _read(args[0], value, what, path)
    if origin is typing.Literal:
        if not any(type(value) is type(arg) and value == arg
                   for arg in args):
            raise _wrong(what, path, "must be %s, not %r" % (
                " or ".join(map(repr, args)), value))
        return value
    if dataclasses.is_dataclass(shape):
        return _record(shape, _checked(value, dict, what, path), what, path)
    if origin is list:
        return [_read(args[0], item, what, "%s[%d]" % (path, index))
                for index, item
                in enumerate(_checked(value, list, what, path))]
    if origin is dict:
        out = {}
        for key, item in _checked(value, dict, what, path).items():
            if args[0] is int:
                try:
                    key = int(key)
                except (TypeError, ValueError):
                    raise _wrong(what, path, "has the non-integer key"
                                 " %r" % (key,)) from None
            out[key] = _read(args[1], item, what, "%s[%s]" % (path, key))
        return out
    return _checked(value, shape, what, path)


def _checked(value, shape, what, path):
    accepted = (int, float) if shape is float else shape
    if not isinstance(value, accepted) \
            or (isinstance(value, bool) and shape is not bool):
        raise _wrong(what, path, "must be %s, not %r"
                     % (_KINDS[shape], value))
    return value


def _record(cls, data, what, path):
    fields = _fields(cls)
    unknown = set(data) - {name for name, _shape, _required in fields}
    if unknown:
        raise _wrong(what, path, "has unknown fields: %s"
                     % ", ".join(sorted(map(repr, unknown))))
    prefix = path + "." if path else ""
    values = {}
    for name, shape, required in fields:
        if name in data:
            values[name] = _read(shape, data[name], what, prefix + name)
        elif required:
            raise _wrong(what, prefix + name, "is missing")
    try:
        return cls(**values)
    except (FlickError, ValueError) as error:  # a check the types can't say
        raise DocumentError("%s: %s%s" % (what, prefix, error),
                            path) from None


def write(value):
    """The JSON form of *value*: a described record, or what a field
    holds.  Dict keys come out sorted, so a save is byte-stable."""
    if dataclasses.is_dataclass(value):
        return {name: write(getattr(value, name))
                for name, _shape, _required in _fields(type(value))}
    if isinstance(value, dict):
        return {str(key): write(item)
                for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [write(item) for item in value]
    return value


def flag(help, *verbs, spelling=None, **options):
    """Field metadata making the field the option *spelling* (default
    ``--field-name``) of *verbs* (default: every verb that asks);
    *options* go to ``add_argument`` as they are."""
    return {"flag": (spelling, verbs, dict(options, help=help))}


def add_flags(parser, cls, verb):
    """Add to *parser* the option of each :func:`flag` field of *cls*
    that *verb* has.  The dest is the field's name, the default its
    default; ``bool`` is a switch (``store_false`` when it defaults to
    True), ``Literal[...]`` gives the choices, ``Optional[T]`` is a
    ``T``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "flag" not in f.metadata:
            continue
        spelling, verbs, options = f.metadata["flag"]
        if verbs and verb not in verbs:
            continue
        shape = hints[f.name]
        if typing.get_origin(shape) is typing.Union:
            shape = typing.get_args(shape)[0]
        if shape is bool:
            options = dict(options, action="store_false" if f.default
                           else "store_true")
        elif typing.get_origin(shape) is typing.Literal:
            options = dict(options, choices=typing.get_args(shape))
        elif shape is not str:
            options = dict(options, type=shape)
        parser.add_argument(spelling or "--" + f.name.replace("_", "-"),
                            dest=f.name, default=f.default, **options)


def read_flags(cls, namespace, what, **values):
    """The *cls* a parsed argparse *namespace* says — its attributes
    named like fields, then *values* — through :func:`read`'s checks."""
    names = {name for name, _shape, _required in _fields(cls)}
    data = {name: value for name, value in vars(namespace).items()
            if name in names}
    return read(cls, dict(data, **values), what)


def decode(text, what):
    """One JSON text (``str`` or ``bytes``) as plain, unchecked data."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise _wrong(what, "", "is not JSON: %s" % error) from None


def parse(cls, text, what):
    """One JSON text (``str`` or ``bytes``) as a *cls*."""
    return read(cls, decode(text, what), what)


def load(cls, path, what):
    """The JSON file *path* as a *cls*."""
    with open(path, "rb") as handle:
        return parse(cls, handle.read(), what)


def save(record, path):
    """Write *record* to *path* as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(write(record), handle, indent=2, sort_keys=True)
        handle.write("\n")
