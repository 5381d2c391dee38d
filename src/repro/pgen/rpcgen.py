"""The rpcgen-compatible presentation generator.

Implements Sun's rpcgen C presentation style: stub names are the lowercased
procedure name suffixed with the version number (``send_1``), the client
stub takes a pointer to its single argument plus a ``CLIENT *`` handle and
returns a pointer to a static result, and XDR type names follow rpcgen's
conventions (``u_int``, ``bool_t``, ``quad_t``).
"""

from __future__ import annotations

from repro.cast import nodes as c
from repro.pgen.base import PresentationGenerator


class RpcgenPresentation(PresentationGenerator):
    """Sun rpcgen's C presentation style."""

    style = "rpcgen"
    c_spelling = {
        (8, True): "char",
        (8, False): "u_char",
        (16, True): "short",
        (16, False): "u_short",
        (32, True): "int",
        (32, False): "u_int",
        (64, True): "quad_t",
        (64, False): "u_quad_t",
        "float32": "float",
        "float64": "double",
        "char": "char",
        "boolean": "bool_t",
        "octet": "u_char",
        "bytes": "opaque_seq",
        # rpcgen presents variable arrays as { u_int len; T *val; }.
        "seq": "_array",
    }

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

    def c_prelude_decls(self, interface):
        # rpcgen clients speak through the classic CLIENT handle, which
        # the runtime header declares; no per-interface handle type.
        return []
