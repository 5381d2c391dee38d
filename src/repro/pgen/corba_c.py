"""The CORBA C-language mapping presentation generator.

Implements the presentation style of the CORBA 2.0 C mapping, as in the
paper's Mail example: ``void Mail_send(Mail obj, char *msg,
CORBA_Environment *ev)``.  Scoped names flatten with underscores, every stub
takes the object reference first and the environment pointer last, ``out``
parameters pass by pointer, and non-void results return directly.
"""

from __future__ import annotations

from repro.cast import nodes as c
from repro.pgen.base import PresentationGenerator
from repro.pres import nodes as p


class CorbaCPresentation(PresentationGenerator):
    """CORBA 2.0 C-language mapping."""

    style = "corba-c"
    c_spelling = {
        (8, True): "CORBA_char",
        (8, False): "CORBA_octet",
        (16, True): "CORBA_short",
        (16, False): "CORBA_unsigned_short",
        (32, True): "CORBA_long",
        (32, False): "CORBA_unsigned_long",
        (64, True): "CORBA_long_long",
        (64, False): "CORBA_unsigned_long_long",
        "float32": "CORBA_float",
        "float64": "CORBA_double",
        "char": "CORBA_char",
        "boolean": "CORBA_boolean",
        "octet": "CORBA_octet",
        "bytes": "CORBA_octet_seq",
        "seq": "_seq",
    }

    def c_stub_decl(self, interface, operation, stub_name, parameters):
        object_type = c.TypeName(self.mangle(interface.name))
        params = [c.Param(object_type, "_obj")]
        return_type = c.TypeName("void")
        for parameter in parameters:
            if parameter.direction == "return":
                return_type = self._param_c_type(parameter.pres, by_ref=False)
                continue
            by_ref = parameter.direction in ("out", "inout")
            params.append(
                c.Param(
                    self._param_c_type(parameter.pres, by_ref=by_ref),
                    parameter.name,
                )
            )
        params.append(
            c.Param(c.Pointer(c.TypeName("CORBA_Environment")), "_ev")
        )
        return c.FuncDecl(return_type, stub_name, tuple(params))

    def _param_c_type(self, pres, by_ref):
        base = self._base_c_type(pres)
        if by_ref:
            return c.Pointer(base)
        return base


class CorbaCLenPresentation(CorbaCPresentation):
    """The paper's alternative presentation (section 2.2).

    Departs from the standard CORBA C mapping exactly as the paper's
    example does: every string parameter carries an explicit length —
    ``void Mail_send(Mail obj, char *msg, int len)`` — so the stub never
    counts characters.  In the executable Python stubs the caller passes
    already-encoded ``bytes`` (whose length is implicit), so marshal
    skips the character encode as well.  The network contract is
    untouched: messages are byte-identical to the standard presentation.
    """

    style = "corba-c-len"

    def string_pres(self, mint, bound):
        return p.PresString(mint, "char *", bound, carries_length=True)

    def c_stub_decl(self, interface, operation, stub_name, parameters):
        declaration = super().c_stub_decl(
            interface, operation, stub_name, parameters
        )
        by_name = {
            parameter.name: parameter for parameter in parameters
        }
        params = []
        for param in declaration.parameters:
            params.append(param)
            pres_param = by_name.get(param.name)
            if pres_param is not None and isinstance(
                pres_param.pres, p.PresString
            ):
                params.append(
                    c.Param(
                        c.TypeName("CORBA_unsigned_long"),
                        "%s_len" % param.name,
                    )
                )
        return c.FuncDecl(
            declaration.return_type, declaration.name, tuple(params)
        )
