"""The generic presentation-generation library.

This is the large shared base (paper Table 1: 6509 lines of base library
versus a few hundred per derived generator) from which the CORBA C, rpcgen,
and Fluke presentation generators derive.  It owns all the structural work:

* building MINT message types for every operation (via
  :class:`repro.mint.builder.MintBuilder`),
* building the PRES trees that associate MINT nodes with presented types,
  keeping both registries in lock step so recursive types resolve,
* expanding CORBA attributes into ``_get_``/``_set_`` operation pairs,
* flattening interface inheritance,
* and assembling the per-stub :class:`repro.pres.presc.PresCStub` records.

Subclasses override only the *policy* hooks: identifier naming, the C
spelling table (:attr:`PresentationGenerator.c_spelling`) and prototype
construction.  Every name a presented type, field, parameter or
operation is given passes :func:`repro.pres.values.python_name`, so a
Python keyword (``from``) is presented as ``from_``; wire names are the
IDL's.
"""

from __future__ import annotations

from functools import partial

from repro.backend.base import SCAFFOLD
from repro.errors import PresentationError
from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiEnum,
    AoiFloat,
    AoiInteger,
    AoiNamedRef,
    AoiOctet,
    AoiOperation,
    AoiOptional,
    AoiParameter,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiUnion,
    AoiVoid,
    Direction,
)
from repro.cast import nodes as c
from repro.mint.builder import MintBuilder
from repro.mint.types import (
    MintInteger,
    MintStruct,
    MintSlot,
    MintTypeRef,
    MintUnion,
    MintUnionCase,
    MintVoid,
)
from repro.pres import nodes as p
from repro.pres.presc import PresC, PresCStub, PresParam
from repro.pres.values import python_name


class PresentationGenerator:
    """Maps AOI onto a particular presentation style.

    Drive it with :meth:`generate`, which returns one :class:`PresC` for
    the requested side of an interface.
    """

    #: Registry name of the style; subclasses set this.
    style = "abstract"
    #: The C spellings that differ between presentations: the scalar
    #: names (integers keyed ``(bits, signed)``, then ``"float32"``,
    #: ``"float64"``, ``"char"`` — also what a string points at —
    #: ``"boolean"`` and ``"octet"``), the bytes carrier (``"bytes"``)
    #: and the counted-array suffix (``"seq"``).
    c_spelling = {}
    #: The names no presented class may take: what the stub module of
    #: the interface being presented binds itself (set by
    #: :meth:`generate`).
    scaffold = frozenset()

    # ------------------------------------------------------------------
    # Policy hooks (overridden by concrete presentations)
    # ------------------------------------------------------------------

    def mangle(self, scoped_name):
        """Flatten an ``A::B`` scoped name into a C identifier."""
        return scoped_name.replace("::", "_")

    def stub_name(self, interface, operation):
        """The generated function name for an operation's stub."""
        return "%s_%s" % (self.mangle(interface.name), operation.name)

    def record_name(self, type_name):
        """The generated record class / C struct name for an AOI struct."""
        return self.mangle(type_name)

    def union_name(self, type_name):
        return self.mangle(type_name)

    def type_name(self, type_name):
        """The record or enum name of *type_name*, as generated code
        spells it: :meth:`record_name` under :func:`python_name`."""
        return python_name(self.record_name(type_name), self.scaffold)

    def exception_class(self, exception_name):
        return self.mangle(exception_name)

    def c_scalar_type(self, aoi_type):
        """C type name for an atomic AOI type."""
        if isinstance(aoi_type, AoiInteger):
            key = (aoi_type.bits, aoi_type.signed)
        elif isinstance(aoi_type, AoiFloat):
            key = "float%d" % aoi_type.bits
        elif isinstance(aoi_type, AoiChar):
            key = "char"
        elif isinstance(aoi_type, AoiBoolean):
            key = "boolean"
        elif isinstance(aoi_type, AoiOctet):
            key = "octet"
        else:
            raise TypeError("not a scalar AOI type: %r" % (aoi_type,))
        return self.c_spelling[key]

    def string_pres(self, mint, bound):
        """How strings present; the default is the OPT_STR char* style."""
        from repro.pres.nodes import PresString

        return PresString(mint, "char *", bound)

    def c_prelude_decls(self, interface):
        """Leading C declarations (the interface's object handle type)."""
        return [
            c.Typedef(
                c.TypeName("flick_object_t"), self.mangle(interface.name)
            )
        ]

    def c_seq_decl(self, element_pres):
        """(carrier type name, element C type) for an anonymous counted
        array appearing in a stub signature."""
        element = base = self._base_c_type(element_pres)
        while isinstance(base, (c.Pointer, c.ArrayOf)):
            base = base.target if isinstance(base, c.Pointer) else base.element
        return base.name.replace(" ", "_") + self.c_spelling["seq"], element

    def _base_c_type(self, pres):
        """The C type a stub signature spells for *pres*."""
        if isinstance(pres, p.PresString):
            return c.Pointer(c.TypeName(self.c_spelling["char"]))
        if isinstance(pres, p.PresRef):
            return c.TypeName(self.type_name(pres.name))
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            return c.TypeName(pres.c_type_name)
        if isinstance(pres, p.PresStruct):
            return c.TypeName(pres.record_name)
        if isinstance(pres, p.PresUnion):
            return c.TypeName(pres.union_name)
        if isinstance(pres, p.PresBytes):
            return c.TypeName(self.c_spelling["bytes"])
        if isinstance(pres, p.PresCountedArray):
            return c.TypeName(self.c_seq_decl(pres.element)[0])
        if isinstance(pres, p.PresFixedArray):
            return c.ArrayOf(self._base_c_type(pres.element), pres.length)
        if isinstance(pres, p.PresOptPtr):
            return c.Pointer(self._base_c_type(pres.element))
        if isinstance(pres, p.PresVoid):
            return c.TypeName("void")
        raise TypeError("no C type for %r" % type(pres).__name__)

    def c_stub_decl(self, interface, operation, stub_name, parameters):
        """Build the CAST prototype for one stub."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def generate(self, root, interface, side="client"):
        """Produce the :class:`PresC` for *interface* on *side*."""
        if side not in ("client", "server"):
            raise PresentationError("side must be 'client' or 'server'")
        proxy = interface.name.replace("::", "_")
        self.scaffold = SCAFFOLD | {proxy + "Client", proxy + "Servant"}
        builder = MintBuilder(root)
        pres_registry = p.PresRegistry()
        context = _Context(self, root, builder, pres_registry)
        operations = tuple(self._all_operations(root, interface))
        stubs = tuple(context.build_stub(interface, operation)
                      for operation in operations)
        return PresC(
            interface_name=interface.name,
            interface_code=interface.code,
            side=side,
            presentation_style=self.style,
            stubs=stubs,
            mint_registry=builder.registry,
            pres_registry=pres_registry,
            c_decls_factory=partial(context.collect_c_decls, stubs,
                                    interface),
            exception_classes=dict(context.exception_classes),
            source=(interface.code, operations, root.types,
                    root.exceptions, root.constants),
        )

    def _all_operations(self, root, interface):
        """Flatten inherited operations and expand attributes."""
        operations = []
        seen_interfaces = set()
        seen_names = set()

        def visit(current):
            if current.name in seen_interfaces:
                return
            seen_interfaces.add(current.name)
            for parent_name in current.parents:
                visit(root.interface_named(parent_name))
            for operation in current.operations:
                if operation.name not in seen_names:
                    seen_names.add(operation.name)
                    operations.append(operation)
            for attribute in current.attributes:
                for operation in self._attribute_operations(attribute):
                    if operation.name not in seen_names:
                        seen_names.add(operation.name)
                        operations.append(operation)

        visit(interface)
        return operations

    def _attribute_operations(self, attribute):
        """CORBA attributes present as _get_/_set_ operation pairs."""
        getter = AoiOperation(
            "_get_%s" % attribute.name,
            (),
            attribute.type,
            request_code="_get_%s" % attribute.name,
        )
        if attribute.readonly:
            return [getter]
        setter = AoiOperation(
            "_set_%s" % attribute.name,
            (AoiParameter("value", attribute.type, Direction.IN),),
            AoiVoid(),
            request_code="_set_%s" % attribute.name,
        )
        return [getter, setter]


class _Context:
    """One generation run: keeps the MINT and PRES registries aligned."""

    def string_pres(self, mint, bound):
        """The string mapping; presentations may substitute variants."""
        return self.policy.string_pres(mint, bound)

    def __init__(self, policy, root, builder, pres_registry):
        self.policy = policy
        self.root = root
        self.builder = builder
        self.pres_registry = pres_registry
        self.exception_classes = {}
        # Exception class name -> member PRES fields, for the C records.
        self._exception_fields = {}
        # C declarations for named types, in definition order.
        self._c_type_decls = []
        self._c_declared = set()

    # ------------------------------------------------------------------
    # PRES construction (mirrors MintBuilder.mint_for structurally)
    # ------------------------------------------------------------------

    def pres_for(self, aoi_type):
        """Build the PRES node presenting *aoi_type*.

        The MINT side is rebuilt through the shared MintBuilder so that the
        PRES node's ``mint`` is structurally identical to what the message
        MINT contains.
        """
        policy = self.policy
        mint = self.builder.mint_for(aoi_type)
        if isinstance(aoi_type, AoiNamedRef):
            name = aoi_type.name
            if name not in self.pres_registry:
                # Reserve the slot to terminate recursion, then fill it in.
                self.pres_registry.define(name, None)
                definition = self.pres_for_definition(
                    self.root.types[name], name
                )
                self.pres_registry._definitions[name] = definition
            return p.PresRef(mint, name)
        return self.pres_for_definition(aoi_type, None)

    def pres_for_definition(self, aoi_type, definition_name):
        policy = self.policy
        mint = self.builder.mint_for(
            AoiNamedRef(definition_name) if definition_name else aoi_type
        )
        if definition_name is not None:
            mint = self.builder.registry[definition_name]
        if isinstance(aoi_type, AoiNamedRef):
            return self.pres_for(aoi_type)
        if isinstance(aoi_type, AoiVoid):
            return p.PresVoid(mint)
        if isinstance(
            aoi_type, (AoiInteger, AoiFloat, AoiChar, AoiBoolean, AoiOctet)
        ):
            return p.PresDirect(mint, policy.c_scalar_type(aoi_type))
        if isinstance(aoi_type, AoiEnum):
            name = definition_name or aoi_type.name
            # Enum type naming follows the same policy as records so the
            # C declarations and every use agree.
            enum_name = policy.type_name(name)
            return p.PresEnum(mint, enum_name, enum_name, aoi_type.members)
        if isinstance(aoi_type, AoiString):
            return self.string_pres(mint, aoi_type.bound)
        if isinstance(aoi_type, AoiArray):
            resolved_element = self.root.resolve(aoi_type.element)
            if isinstance(resolved_element, AoiOctet):
                return p.PresBytes(
                    mint, "flick_octet[]", fixed_length=aoi_type.length
                )
            element = self.pres_for(aoi_type.element)
            return p.PresFixedArray(
                mint, element, aoi_type.length,
                c_type_name="%s[%d]" % (element.c_type_name, aoi_type.length),
            )
        if isinstance(aoi_type, AoiSequence):
            resolved_element = self.root.resolve(aoi_type.element)
            if isinstance(resolved_element, AoiOctet):
                return p.PresBytes(
                    mint, "flick_octet_seq", bound=aoi_type.bound
                )
            element = self.pres_for(aoi_type.element)
            return p.PresCountedArray(
                mint, element, aoi_type.bound,
                c_type_name="%s_seq" % element.c_type_name,
            )
        if isinstance(aoi_type, AoiOptional):
            element = self.pres_for(aoi_type.element)
            return p.PresOptPtr(
                mint, element, c_type_name="%s *" % element.c_type_name
            )
        if isinstance(aoi_type, AoiStruct):
            name = definition_name or aoi_type.name
            record = policy.type_name(name)
            fields = tuple(
                p.PresStructField(python_name(field.name),
                                  self.pres_for(field.type))
                for field in aoi_type.fields
            )
            return p.PresStruct(mint, record, fields, c_type_name=record)
        if isinstance(aoi_type, AoiUnion):
            return self._pres_for_union(aoi_type, definition_name, mint)
        raise PresentationError(
            "cannot present AOI node %r" % type(aoi_type).__name__
        )

    def _pres_for_union(self, aoi_union, definition_name, mint):
        policy = self.policy
        name = definition_name or aoi_union.name
        union_name = policy.union_name(name)
        discriminator_aoi = self.root.resolve(aoi_union.discriminator)
        discriminator = self.pres_for(aoi_union.discriminator)
        arms = []
        for index, case in enumerate(aoi_union.cases):
            labels = mint.cases[index].labels
            arm_pres = (
                p.PresVoid(MintVoid())
                if isinstance(self.root.resolve(case.type), AoiVoid)
                else self.pres_for(case.type)
            )
            arms.append(p.PresUnionArm(labels, case.name, arm_pres))
        return p.PresUnion(
            mint, union_name, discriminator, tuple(arms),
            c_type_name=union_name,
        )

    # ------------------------------------------------------------------
    # Stub assembly
    # ------------------------------------------------------------------

    def build_stub(self, interface, operation):
        policy = self.policy
        name = python_name(operation.name)
        parameters = []
        request_fields = []
        for parameter in operation.parameters:
            pres = self.pres_for(parameter.type)
            spelled = python_name(parameter.name)
            parameters.append(
                PresParam(spelled, parameter.direction.value, pres)
            )
            if parameter.direction.is_in:
                request_fields.append(p.PresStructField(spelled, pres))
        return_pres = None
        if not isinstance(self.root.resolve(operation.return_type), AoiVoid):
            return_pres = self.pres_for(operation.return_type)
            parameters.append(PresParam("_return", "return", return_pres))
        request_mint = self.builder.request_mint(operation)
        request_pres = p.PresStruct(
            request_mint,
            "%s_request" % name,
            tuple(request_fields),
        )
        reply_pres = self._build_reply_pres(operation, name, parameters)
        stub_name = policy.stub_name(interface, operation)
        return PresCStub(
            operation_name=name,
            wire_name=operation.name,
            stub_name=stub_name,
            request_code=operation.request_code,
            oneway=operation.oneway,
            parameters=tuple(parameters),
            request_pres=request_pres,
            reply_pres=reply_pres,
            c_decl_factory=partial(policy.c_stub_decl, interface,
                                   operation, stub_name, tuple(parameters)),
        )

    def _build_reply_pres(self, operation, name, parameters):
        if operation.oneway:
            return None
        reply_mint = self.builder.reply_mint(operation)
        # Field order matches the reply MINT: the return value first, then
        # out/inout parameters in declaration order.
        success_fields = [
            p.PresStructField("_return", parameter.pres)
            for parameter in parameters
            if parameter.direction == "return"
        ]
        for parameter in parameters:
            if parameter.direction in ("out", "inout"):
                success_fields.append(
                    p.PresStructField(parameter.name, parameter.pres)
                )
        success_mint = reply_mint.cases[0].type
        arms = [
            p.PresUnionArm(
                (0,),
                "_success",
                p.PresStruct(
                    success_mint,
                    "%s_reply" % name,
                    tuple(success_fields),
                ),
            )
        ]
        for index, exception_name in enumerate(operation.raises, 1):
            exception = self.root.exception_named(exception_name)
            class_name = python_name(
                self.policy.exception_class(exception_name),
                self.policy.scaffold)
            self.exception_classes[exception_name] = class_name
            fields = tuple(
                p.PresStructField(python_name(field.name),
                                  self.pres_for(field.type))
                for field in exception.fields
            )
            self._exception_fields[class_name] = fields
            arms.append(
                p.PresUnionArm(
                    (index,),
                    exception_name,
                    p.PresException(
                        reply_mint.cases[index].type,
                        exception_name,
                        class_name,
                        fields,
                    ),
                )
            )
        return p.PresUnion(
            reply_mint,
            "%s_reply_union" % name,
            p.PresDirect(
                reply_mint.discriminator,
                self.policy.c_scalar_type(AoiInteger(32, False)),
            ),
            tuple(arms),
        )

    # ------------------------------------------------------------------
    # C declarations (fidelity artifact), built when C is first read
    # ------------------------------------------------------------------

    def collect_c_decls(self, stubs, interface):
        declarations = list(self.policy.c_prelude_decls(interface))
        for name in self.pres_registry.names():
            self._declare_named_type(name, declarations)
        for class_name, fields in sorted(self._exception_fields.items()):
            for struct_field in fields:
                self._declare_value_dependencies(
                    struct_field.pres, declarations)
            declarations.extend(self._c_record(class_name, fields))
        for stub in stubs:
            for parameter in stub.parameters:
                self._declare_param_support(parameter.pres, declarations)
            declarations.append(stub.c_decl)
        return declarations

    def _declare_named_type(self, name, declarations):
        if name in self._c_declared:
            return
        self._c_declared.add(name)
        pres = self.pres_registry[name]
        # Value members require complete types, so declare those named
        # dependencies first; pointer-like members (optionals, counted
        # arrays) only need the incomplete struct tag.
        self._declare_value_dependencies(pres, declarations)
        declarations.extend(self._c_decls_for(name, pres))

    def _declare_value_dependencies(self, pres, declarations):
        if isinstance(pres, p.PresRef):
            self._declare_named_type(pres.name, declarations)
        elif isinstance(pres, p.PresStruct):
            for struct_field in pres.fields:
                self._declare_value_dependencies(
                    struct_field.pres, declarations
                )
        elif isinstance(pres, p.PresUnion):
            for arm in pres.arms:
                self._declare_value_dependencies(arm.pres, declarations)
        elif isinstance(pres, p.PresFixedArray):
            self._declare_value_dependencies(pres.element, declarations)
        # OptPtr / CountedArray members are pointers: no dependency.

    def _declare_param_support(self, pres, declarations):
        """Emit carrier typedefs for anonymous sequences in signatures."""
        if isinstance(pres, (p.PresFixedArray, p.PresOptPtr)):
            self._declare_param_support(pres.element, declarations)
            return
        if not isinstance(pres, p.PresCountedArray):
            return
        self._declare_param_support(pres.element, declarations)
        name, element_type = self.policy.c_seq_decl(pres.element)
        if name in self._c_declared:
            return
        self._c_declared.add(name)
        declarations.append(
            c.StructDef(
                "%s_carrier" % name,
                (
                    c.FieldDecl(c.TypeName("flick_u32"), "_length"),
                    c.FieldDecl(c.Pointer(element_type), "_buffer"),
                ),
            )
        )
        declarations.append(
            c.Typedef(c.TypeName("struct %s_carrier" % name), name)
        )

    def _c_decls_for(self, name, pres):
        policy = self.policy
        # Named types keep their presentation-level spelling (rpcgen
        # preserves XDR names verbatim; the CORBA mapping flattens).
        mangled = policy.type_name(name)
        if isinstance(pres, p.PresStruct):
            return self._c_record(pres.record_name, pres.fields)
        if isinstance(pres, p.PresUnion):
            union_fields = tuple(
                c.FieldDecl(self._c_type(arm.pres), arm.name)
                for arm in pres.arms
                if not isinstance(arm.pres, p.PresVoid)
            )
            wrapper = c.StructDef(
                pres.union_name,
                (
                    c.FieldDecl(
                        self._c_type(pres.discriminator), "_d"
                    ),
                    c.FieldDecl(
                        c.TypeName("union %s_u" % pres.union_name), "_u"
                    ),
                ),
            )
            return (
                c.UnionDef("%s_u" % pres.union_name, union_fields),
                wrapper,
                c.Typedef(
                    c.TypeName("struct %s" % pres.union_name),
                    pres.union_name,
                ),
            )
        if isinstance(pres, p.PresEnum):
            return (
                c.EnumDef(mangled, pres.members),
                c.Typedef(c.TypeName("enum %s" % mangled), mangled),
            )
        if isinstance(pres, p.PresCountedArray):
            element_type = self._c_type(pres.element)
            return (
                c.StructDef(
                    "%s_carrier" % mangled,
                    (
                        c.FieldDecl(c.TypeName("flick_u32"), "_length"),
                        c.FieldDecl(c.Pointer(element_type), "_buffer"),
                    ),
                ),
                c.Typedef(
                    c.TypeName("struct %s_carrier" % mangled), mangled
                ),
            )
        if isinstance(pres, p.PresBytes) and pres.fixed_length is None:
            return (c.Typedef(c.TypeName("flick_octet_seq"), mangled),)
        # Typedef of a non-constructed type.
        return (c.Typedef(self._c_type(pres), mangled),)

    def _c_record(self, name, fields):
        """``struct name { ... }; typedef struct name name;``"""
        return (
            c.StructDef(name, tuple(
                c.FieldDecl(self._c_type(field.pres), field.name)
                for field in fields
            )),
            c.Typedef(c.TypeName("struct %s" % name), name),
        )

    def _c_type(self, pres):
        if isinstance(pres, p.PresRef):
            target = self.pres_registry[pres.name]
            if isinstance(target, p.PresStruct):
                return c.TypeName("struct %s" % target.record_name)
            if isinstance(target, p.PresUnion):
                return c.TypeName("struct %s" % target.union_name)
            return c.TypeName(self.policy.type_name(pres.name))
        if isinstance(pres, p.PresString):
            return c.Pointer(c.TypeName("char"))
        if isinstance(pres, p.PresBytes):
            if pres.fixed_length is not None:
                return c.ArrayOf(c.TypeName("unsigned char"), pres.fixed_length)
            return c.TypeName("flick_octet_seq")
        if isinstance(pres, p.PresFixedArray):
            return c.ArrayOf(self._c_type(pres.element), pres.length)
        if isinstance(pres, p.PresCountedArray):
            return c.Pointer(self._c_type(pres.element))
        if isinstance(pres, p.PresOptPtr):
            return c.Pointer(self._c_type(pres.element))
        if isinstance(pres, p.PresStruct):
            return c.TypeName("struct %s" % pres.record_name)
        if isinstance(pres, p.PresUnion):
            return c.TypeName("struct %s" % pres.union_name)
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            return c.TypeName(pres.c_type_name)
        if isinstance(pres, p.PresVoid):
            return c.TypeName("void")
        raise PresentationError(
            "no C type for PRES node %r" % type(pres).__name__
        )
