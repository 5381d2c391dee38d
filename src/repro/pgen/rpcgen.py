"""The rpcgen-compatible presentation generator.

Implements Sun's rpcgen C presentation style: stub names are the lowercased
procedure name suffixed with the version number (``send_1``), the client
stub takes a pointer to its single argument plus a ``CLIENT *`` handle and
returns a pointer to a static result, and XDR type names follow rpcgen's
conventions (``u_int``, ``bool_t``, ``quad_t``).
"""

from __future__ import annotations

from repro.aoi import (
    AoiBoolean,
    AoiChar,
    AoiFloat,
    AoiInteger,
    AoiOctet,
    AoiVoid,
)
from repro.cast import nodes as c
from repro.pgen.base import PresentationGenerator
from repro.pres import nodes as p

_SCALARS = {
    (8, True): "char",
    (8, False): "u_char",
    (16, True): "short",
    (16, False): "u_short",
    (32, True): "int",
    (32, False): "u_int",
    (64, True): "quad_t",
    (64, False): "u_quad_t",
}


class RpcgenPresentation(PresentationGenerator):
    """Sun rpcgen's C presentation style."""

    style = "rpcgen"

    def mangle(self, scoped_name):
        return scoped_name.replace("::", "_").lower()

    def record_name(self, type_name):
        # rpcgen keeps XDR type names as written.
        return type_name.replace("::", "_")

    def union_name(self, type_name):
        return type_name.replace("::", "_")

    def stub_name(self, interface, operation):
        # `Program::Version` interfaces carry (program, version) codes.
        version = 1
        if isinstance(interface.code, tuple) and len(interface.code) == 2:
            version = interface.code[1]
        return "%s_%d" % (operation.name.lower(), version)

    def c_scalar_type(self, aoi_type):
        if isinstance(aoi_type, AoiInteger):
            return _SCALARS[(aoi_type.bits, aoi_type.signed)]
        if isinstance(aoi_type, AoiFloat):
            return "float" if aoi_type.bits == 32 else "double"
        if isinstance(aoi_type, AoiChar):
            return "char"
        if isinstance(aoi_type, AoiBoolean):
            return "bool_t"
        if isinstance(aoi_type, AoiOctet):
            return "u_char"
        if isinstance(aoi_type, AoiVoid):
            return "void"
        raise TypeError("not a scalar AOI type: %r" % (aoi_type,))

    def c_stub_decl(self, interface, operation, stub_name, parameters):
        # rpcgen: result pointer, argument pointers, CLIENT handle.  An
        # out parameter (CORBA IDL under this presentation) is a pointer
        # argument too: its storage is the caller's.
        return_param = None
        argument_types = []
        for parameter in parameters:
            if parameter.direction == "return":
                return_param = parameter
            else:
                argument_types.append(parameter)
        if return_param is None:
            return_type = c.Pointer(c.TypeName("void"))
        else:
            return_type = c.Pointer(self._base_c_type(return_param.pres))
        params = [
            c.Param(c.Pointer(self._base_c_type(parameter.pres)),
                    parameter.name)
            for parameter in argument_types
        ]
        params.append(c.Param(c.Pointer(c.TypeName("CLIENT")), "clnt"))
        return c.FuncDecl(return_type, stub_name, tuple(params))

    def _base_c_type(self, pres):
        if isinstance(pres, p.PresString):
            return c.Pointer(c.TypeName("char"))
        if isinstance(pres, p.PresRef):
            return c.TypeName(self.record_name(pres.name))
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            return c.TypeName(pres.c_type_name)
        if isinstance(pres, p.PresStruct):
            return c.TypeName(pres.record_name)
        if isinstance(pres, p.PresUnion):
            return c.TypeName(pres.union_name)
        if isinstance(pres, p.PresBytes):
            return c.TypeName("opaque_seq")
        if isinstance(pres, p.PresCountedArray):
            # rpcgen presents variable arrays as { u_int len; T *val; }.
            return c.TypeName("%s_array" % self._element_name(pres.element))
        if isinstance(pres, p.PresFixedArray):
            return c.ArrayOf(self._base_c_type(pres.element), pres.length)
        if isinstance(pres, p.PresOptPtr):
            return c.Pointer(self._base_c_type(pres.element))
        if isinstance(pres, p.PresVoid):
            return c.TypeName("void")
        raise TypeError("no C type for %r" % type(pres).__name__)

    def _element_name(self, pres):
        base = self._base_c_type(pres)
        while isinstance(base, (c.Pointer, c.ArrayOf)):
            base = base.target if isinstance(base, c.Pointer) else base.element
        return base.name.replace(" ", "_")

    def c_seq_decl(self, element_pres):
        return (
            "%s_array" % self._element_name(element_pres),
            self._base_c_type(element_pres),
        )

    def c_prelude_decls(self, interface):
        # rpcgen clients speak through the classic CLIENT handle, which
        # the runtime header declares; no per-interface handle type.
        return []
