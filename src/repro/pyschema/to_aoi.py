"""Lower annotated Python dataclasses to AOI.

The pyschema front end derives the interface contract from native Python
type definitions instead of a separate IDL file — the move the
reflective-distribution line of work makes (PAPERS.md), grafted onto
Flick's pipeline: the *types* come from ``dataclasses`` and ``typing``
annotations, but the output is an ordinary validated
:class:`repro.aoi.AoiRoot`, so every presentation generator, back end and
renderer consumes it unchanged.

Type mapping (see docs/INTERNALS.md section 15 for the full table)::

    int                      -> AoiInteger(32, signed)   (i8..u64 narrow it)
    bool                     -> AoiBoolean
    float                    -> AoiFloat(64)             (f32 narrows it)
    str                      -> AoiString        (Len(n) bounds it)
    bytes                    -> AoiSequence(AoiOctet())  (Len/Fixed bound it)
    list[T]                  -> AoiSequence(T)   (Len(n) bounds, Fixed(n)
                                                 makes a fixed AoiArray)
    Optional[T]              -> AoiOptional(T)
    Annotated[Union[...], Tag(...)] -> AoiUnion (discriminated)
    enum.Enum subclass       -> AoiEnum (int values)
    @dataclass class         -> AoiStruct (registered, referenced by name)

Interfaces are classes marked with :func:`interface`; each public method
becomes an operation (parameters are ``in`` by default, the return
annotation is the reply).  A bare dataclass synthesizes an ``echo``
interface so ``api.compile(SomeDataclass)`` yields codecs for the type
through every back end.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import itertools
import sys
import types
import typing

from repro.errors import FlickError, IdlSyntaxError
from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiEnum,
    AoiException,
    AoiFloat,
    AoiInteger,
    AoiInterface,
    AoiNamedRef,
    AoiOctet,
    AoiOperation,
    AoiOptional,
    AoiParameter,
    AoiRoot,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiStructField,
    AoiUnion,
    AoiUnionCase,
    AoiVoid,
    Direction,
)

_NONE_TYPE = type(None)


# ----------------------------------------------------------------------
# Annotation markers
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Int:
    """Width/signedness marker: ``Annotated[int, Int(16, signed=False)]``."""

    bits: int = 32
    signed: bool = True


@dataclasses.dataclass(frozen=True)
class Float:
    """Precision marker: ``Annotated[float, Float(32)]``."""

    bits: int = 64


@dataclasses.dataclass(frozen=True)
class Len:
    """Maximum-length bound for ``str``, ``bytes``, and ``list`` fields."""

    max: int


@dataclasses.dataclass(frozen=True)
class Fixed:
    """Fixed length for ``list``/``bytes`` fields (lowers to AoiArray)."""

    length: int


class _OctetMarker:
    """Marks an ``int`` as an uninterpreted octet (never byte-swapped)."""


class _CharMarker:
    """Marks a one-character ``str`` as an AOI char."""


OCTET = _OctetMarker()
CHAR = _CharMarker()


class Tag:
    """Discriminated-union marker: ``Annotated[Union[...], Tag(...)]``.

    Each positional case is ``(label, arm_type)`` or
    ``(label, arm_name, arm_type)``; labels are ints or int-valued enum
    members, and an arm type of ``None`` carries no payload (void arm).
    ``discriminant`` is any pyschema type expression (``int`` by default,
    or an ``enum.Enum`` subclass, or ``i16``/...); ``default`` names the
    optional default arm the same way a case does, minus the label.
    """

    def __init__(self, *cases, discriminant=int, default=None, name=None):
        self.cases = tuple(cases)
        self.discriminant = discriminant
        self.default = default
        self.name = name


# Convenience aliases mirroring the fixed-width IDL primitive set.
Annotated = typing.Annotated

i8 = Annotated[int, Int(8, True)]
i16 = Annotated[int, Int(16, True)]
i32 = Annotated[int, Int(32, True)]
i64 = Annotated[int, Int(64, True)]
u8 = Annotated[int, Int(8, False)]
u16 = Annotated[int, Int(16, False)]
u32 = Annotated[int, Int(32, False)]
u64 = Annotated[int, Int(64, False)]
f32 = Annotated[float, Float(32)]
f64 = Annotated[float, Float(64)]
octet = Annotated[int, OCTET]
char = Annotated[str, CHAR]


# ----------------------------------------------------------------------
# Decorators
# ----------------------------------------------------------------------


def interface(cls=None, *, name=None, code=None):
    """Mark *cls* as an interface: public methods become operations.

    ``name`` overrides the interface name (default: the class name);
    ``code`` overrides the wire identifier (default: the CORBA-style
    repository id ``IDL:<name>:1.0`` so a pyschema interface is
    wire-identical to the equivalent top-level CORBA IDL interface).
    """

    def mark(klass):
        klass.__flick_interface__ = {"name": name, "code": code}
        return klass

    if cls is None:
        return mark
    return mark(cls)


def exception(cls):
    """Mark *cls* (auto-converted to a dataclass) as a raisable error."""
    if not dataclasses.is_dataclass(cls):
        cls = dataclasses.dataclass(cls)
    cls.__flick_exception__ = True
    return cls


def oneway(func):
    """Mark a method as fire-and-forget (no reply message)."""
    func.__flick_oneway__ = True
    return func


def raises(*exception_classes):
    """Declare the :func:`exception` classes a method may raise."""

    def mark(func):
        func.__flick_raises__ = tuple(exception_classes)
        return func

    return mark


# ----------------------------------------------------------------------
# Parse: source text / module / class -> PySchemaSpec
# ----------------------------------------------------------------------


@dataclasses.dataclass
class PySchemaSpec:
    """The pyschema front end's parse product.

    ``interfaces`` are :func:`interface`-marked classes; ``synthesized``
    are bare dataclasses to be wrapped in an ``echo`` interface.
    ``namespace`` is the globals dict used to resolve type hints.
    """

    name: str
    namespace: dict
    interfaces: tuple
    synthesized: tuple


def parse_pyschema(source, name="<pyschema>"):
    """Parse a pyschema input: ``.py`` source text, a module, or a class."""
    if isinstance(source, str):
        return _parse_source(source, name)
    if isinstance(source, types.ModuleType):
        return _spec_from_namespace(
            vars(source), name=name if name != "<pyschema>" else source.__name__,
            defined_in=source.__name__,
        )
    if isinstance(source, type):
        return _spec_from_class(source, name)
    raise FlickError(
        "pyschema input must be Python source text, a module, an"
        " @interface class, or a dataclass; got %r" % type(source).__name__
    )


_SOURCE_COUNTER = itertools.count(1)


def _parse_source(text, name):
    # A real module registered (briefly) in sys.modules: the dataclass
    # decorator resolves string annotations through
    # ``sys.modules[cls.__module__]``, so a bare dict namespace breaks
    # sources using ``from __future__ import annotations``.
    module_name = "_flick_pyschema_%d" % next(_SOURCE_COUNTER)
    module = types.ModuleType(module_name, "pyschema source %s" % name)
    try:
        # dont_inherit: never leak this module's own __future__ flags
        # into the user's schema source.
        code = compile(text, name, "exec", dont_inherit=True)
    except SyntaxError as exc:
        raise IdlSyntaxError(
            "%s: invalid Python schema source: %s" % (name, exc)
        ) from None
    sys.modules[module_name] = module
    try:
        exec(code, module.__dict__)
    except Exception as exc:
        raise FlickError(
            "%s: error executing Python schema source: %s" % (name, exc)
        ) from exc
    finally:
        sys.modules.pop(module_name, None)
    return _spec_from_namespace(
        vars(module), name, defined_in=module_name)


def _spec_from_class(cls, name):
    module = sys.modules.get(getattr(cls, "__module__", None))
    namespace = vars(module) if module is not None else {}
    if "__flick_interface__" in vars(cls):
        return PySchemaSpec(name, namespace, (cls,), ())
    if dataclasses.is_dataclass(cls):
        return PySchemaSpec(name, namespace, (), (cls,))
    raise FlickError(
        "pyschema class %r is neither an @interface class nor a"
        " dataclass" % cls.__name__
    )


def _spec_from_namespace(namespace, name, defined_in):
    classes = []
    for value in namespace.values():
        if not isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != defined_in:
            continue
        if value not in classes:
            classes.append(value)
    interfaces = tuple(
        cls for cls in classes if "__flick_interface__" in vars(cls)
    )
    if interfaces:
        return PySchemaSpec(name, namespace, interfaces, ())
    candidates = [
        cls for cls in classes
        if dataclasses.is_dataclass(cls)
        and "__flick_exception__" not in vars(cls)
        and not cls.__name__.startswith("_")
    ]
    referenced = set()
    for cls in candidates:
        referenced.update(_referenced_dataclasses(cls, namespace))
    roots = tuple(cls for cls in candidates if cls not in referenced)
    if not roots:
        roots = tuple(candidates)
    if not roots:
        raise FlickError(
            "%s: no @interface classes or dataclasses found; a pyschema"
            " module must define at least one" % name
        )
    return PySchemaSpec(name, namespace, (), roots)


def _referenced_dataclasses(cls, namespace):
    """Dataclasses appearing (at any nesting) in *cls*'s field types."""
    try:
        hints = typing.get_type_hints(
            cls, globalns=namespace, include_extras=True)
    except Exception:
        return set()
    out = set()
    stack = [hints[f.name] for f in dataclasses.fields(cls)
             if f.name in hints]
    seen = set()
    while stack:
        tp = stack.pop()
        if id(tp) in seen:
            continue
        seen.add(id(tp))
        if isinstance(tp, type) and dataclasses.is_dataclass(tp):
            out.add(tp)
            continue
        stack.extend(typing.get_args(tp))
    return out


# ----------------------------------------------------------------------
# Lower: PySchemaSpec -> AoiRoot
# ----------------------------------------------------------------------


class _Lowerer:
    def __init__(self, spec):
        self.spec = spec
        self.root = AoiRoot(name=spec.name)
        self._classes = {}
        self._in_progress = set()
        self._tags = {}

    def lower(self):
        for cls in self.spec.interfaces:
            self.root.add_interface(self._lower_interface(cls))
        for cls in self.spec.synthesized:
            self.root.add_interface(self._lower_echo(cls))
        return self.root

    # -- interfaces ----------------------------------------------------

    def _lower_interface(self, cls):
        meta = cls.__flick_interface__
        iface_name = meta.get("name") or cls.__name__
        code = meta.get("code") or (
            "IDL:%s:1.0" % iface_name.replace("::", "/"))
        operations = []
        for attr_name, func in vars(cls).items():
            if attr_name.startswith("_"):
                continue
            if not isinstance(func, types.FunctionType):
                continue
            operations.append(
                self._lower_operation(iface_name, attr_name, func))
        if not operations:
            raise FlickError(
                "pyschema interface %r has no public methods" % iface_name)
        return AoiInterface(
            name=iface_name, operations=tuple(operations), code=code)

    def _lower_operation(self, iface_name, op_name, func):
        context = "%s.%s" % (iface_name, op_name)
        try:
            hints = typing.get_type_hints(
                func, globalns=self.spec.namespace, include_extras=True)
        except Exception as exc:
            raise FlickError(
                "pyschema: cannot resolve annotations of %s: %s"
                % (context, exc)) from None
        signature = inspect.signature(func)
        parameters = []
        for param_name in list(signature.parameters)[1:]:  # skip self
            if param_name not in hints:
                raise FlickError(
                    "pyschema: parameter %r of %s has no type annotation"
                    % (param_name, context))
            parameters.append(AoiParameter(
                param_name,
                self._lower_type(
                    hints[param_name], "%s.%s" % (context, param_name)),
                Direction.IN,
            ))
        return_hint = hints.get("return")
        if return_hint is None or return_hint is _NONE_TYPE:
            return_type = AoiVoid()
        else:
            return_type = self._lower_type(return_hint, context + ".return")
        raises_names = tuple(
            self._lower_exception(exc_cls)
            for exc_cls in getattr(func, "__flick_raises__", ())
        )
        return AoiOperation(
            op_name,
            tuple(parameters),
            return_type,
            request_code=op_name,
            oneway=getattr(func, "__flick_oneway__", False),
            raises=raises_names,
        )

    def _lower_echo(self, cls):
        """Wrap a bare dataclass in a single-operation echo interface."""
        reference = self._lower_struct(cls)
        name = cls.__name__
        operation = AoiOperation(
            "echo",
            (AoiParameter("value", reference, Direction.IN),),
            reference,
            request_code="echo",
        )
        return AoiInterface(
            name=name, operations=(operation,), code="IDL:%s:1.0" % name)

    # -- named definitions ---------------------------------------------

    def _lower_struct(self, cls):
        name = cls.__name__
        if name in self._classes:
            if self._classes[name] is not cls:
                raise FlickError(
                    "pyschema: two different classes named %r in one"
                    " schema" % name)
            return AoiNamedRef(name)
        if name in self._in_progress:
            return AoiNamedRef(name)  # recursion ties through the name
        self._in_progress.add(name)
        try:
            struct = AoiStruct(name=name, fields=self._struct_fields(cls))
        finally:
            self._in_progress.discard(name)
        self._classes[name] = cls
        self.root.define_type(name, struct)
        return AoiNamedRef(name)

    def _struct_fields(self, cls):
        if not dataclasses.is_dataclass(cls):
            raise FlickError(
                "pyschema: %r must be a dataclass to be used as a"
                " struct" % cls.__name__)
        try:
            hints = typing.get_type_hints(
                cls, globalns=self.spec.namespace, include_extras=True)
        except Exception as exc:
            raise FlickError(
                "pyschema: cannot resolve field annotations of %r: %s"
                % (cls.__name__, exc)) from None
        return tuple(
            AoiStructField(
                field.name,
                self._lower_type(
                    hints[field.name],
                    "%s.%s" % (cls.__name__, field.name)),
            )
            for field in dataclasses.fields(cls)
        )

    def _lower_enum(self, cls, context):
        name = cls.__name__
        if name in self._classes:
            if self._classes[name] is not cls:
                raise FlickError(
                    "pyschema: two different classes named %r in one"
                    " schema" % name)
            return AoiNamedRef(name)
        members = []
        for member in cls:
            if not isinstance(member.value, int):
                raise FlickError(
                    "%s: enum %s.%s must have an int value (wire"
                    " discriminators are integral)"
                    % (context, name, member.name))
            members.append((member.name, member.value))
        self._classes[name] = cls
        self.root.define_type(name, AoiEnum(name, tuple(members)))
        return AoiNamedRef(name)

    def _lower_exception(self, cls):
        name = cls.__name__
        if name not in self.root.exceptions:
            self.root.define_exception(
                AoiException(name, self._struct_fields(cls)))
        return name

    # -- type expressions ----------------------------------------------

    def _lower_type(self, tp, context):
        metadata = ()
        while hasattr(tp, "__metadata__"):  # Annotated[...]
            metadata = tuple(tp.__metadata__) + metadata
            tp = tp.__origin__

        marker = bound = fixed = tag = None
        for item in metadata:
            if isinstance(item, (Int, Float, _OctetMarker, _CharMarker)):
                marker = item
            elif isinstance(item, Len):
                bound = item.max
            elif isinstance(item, Fixed):
                fixed = item.length
            elif isinstance(item, Tag):
                tag = item
            # other Annotated metadata (docs, validators) is ignored

        if tag is not None:
            return self._lower_union(tp, tag, context)
        if isinstance(marker, Int):
            return AoiInteger(marker.bits, marker.signed)
        if isinstance(marker, Float):
            return AoiFloat(marker.bits)
        if isinstance(marker, _OctetMarker):
            return AoiOctet()
        if isinstance(marker, _CharMarker):
            return AoiChar()

        origin = typing.get_origin(tp)
        if origin in (list, tuple):
            args = [a for a in typing.get_args(tp) if a is not Ellipsis]
            if len(args) != 1:
                raise FlickError(
                    "%s: sequences must have exactly one element type"
                    " (use list[T] or tuple[T, ...])" % context)
            element = self._lower_type(args[0], context + "[]")
            if fixed is not None:
                return AoiArray(element, fixed)
            return AoiSequence(element, bound)
        if origin is typing.Union or origin is getattr(
                types, "UnionType", object()):
            args = typing.get_args(tp)
            payload = [a for a in args if a is not _NONE_TYPE]
            if len(payload) == len(args):
                raise FlickError(
                    "%s: a bare Union needs a discriminant — annotate it"
                    " as Annotated[Union[...], Tag(...)]" % context)
            if len(payload) != 1:
                raise FlickError(
                    "%s: Optional with multiple payload arms needs"
                    " Annotated[Union[...], Tag(...)]" % context)
            return AoiOptional(self._lower_type(payload[0], context))

        if tp is bool:
            return AoiBoolean()
        if tp is int:
            return AoiInteger(32, True)
        if tp is float:
            return AoiFloat(64)
        if tp is str:
            return AoiString(bound)
        if tp in (bytes, bytearray):
            if fixed is not None:
                return AoiArray(AoiOctet(), fixed)
            return AoiSequence(AoiOctet(), bound)
        if tp is _NONE_TYPE:
            return AoiVoid()
        if isinstance(tp, type) and issubclass(tp, enum.Enum):
            return self._lower_enum(tp, context)
        if isinstance(tp, type) and dataclasses.is_dataclass(tp):
            return self._lower_struct(tp)
        raise FlickError(
            "%s: unsupported pyschema type %r (see the type-mapping"
            " table in docs/INTERNALS.md section 15)" % (context, tp))

    def _lower_union(self, tp, tag, context):
        origin = typing.get_origin(tp)
        if origin is not typing.Union and origin is not getattr(
                types, "UnionType", object()):
            raise FlickError(
                "%s: Tag(...) metadata applies to typing.Union types,"
                " got %r" % (context, tp))
        if not tag.cases:
            raise FlickError("%s: Tag(...) needs at least one case"
                             % context)
        # The same Tag annotation may appear in several positions (a
        # parameter and a return, say); they share one union type.
        if id(tag) in self._tags:
            return AoiNamedRef(self._tags[id(tag)])
        discriminator = self._lower_type(
            tag.discriminant, context + ".discriminant")
        cases = []
        for index, case in enumerate(tag.cases):
            label, arm_name, arm_type = self._unpack_case(
                case, index, context)
            arm_aoi = (AoiVoid() if arm_type is None
                       else self._lower_type(
                           arm_type, "%s.%s" % (context, arm_name)))
            cases.append(AoiUnionCase((label,), arm_name, arm_aoi))
        if tag.default is not None:
            default = tag.default
            if isinstance(default, tuple):
                default_name, default_type = default
            else:
                default_name, default_type = "default_arm", default
            arm_aoi = (AoiVoid() if default_type is None
                       else self._lower_type(
                           default_type, "%s.%s" % (context, default_name)))
            cases.append(AoiUnionCase((), default_name, arm_aoi))
        union_name = tag.name or context.replace(".", "_") + "_union"
        if union_name in self.root.types:
            raise FlickError(
                "%s: union name %r already defined; give this Tag an"
                " explicit name=" % (context, union_name))
        self.root.define_type(
            union_name, AoiUnion(union_name, discriminator, tuple(cases)))
        self._tags[id(tag)] = union_name
        return AoiNamedRef(union_name)

    def _unpack_case(self, case, index, context):
        if not isinstance(case, tuple) or len(case) not in (2, 3):
            raise FlickError(
                "%s: Tag case %d must be (label, type) or (label, name,"
                " type)" % (context, index))
        if len(case) == 3:
            label, arm_name, arm_type = case
        else:
            label, arm_type = case
            arm_name = "arm%d" % index
        if isinstance(label, enum.Enum):
            label = label.value
        if not isinstance(label, int):
            raise FlickError(
                "%s: Tag case %d label must be an int or int-valued enum"
                " member, got %r" % (context, index, label))
        return label, arm_name, arm_type


def pyschema_to_aoi(spec, name="<pyschema>"):
    """Lower a parsed :class:`PySchemaSpec` to an (unvalidated) AoiRoot."""
    lowerer = _Lowerer(spec)
    root = lowerer.lower()
    root.name = name or spec.name
    return root
