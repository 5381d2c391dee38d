"""The rpcgen-style baseline compiler (and its PowerRPC derivative).

Generates stubs in the style of Sun's rpcgen: the call header is written
field by field, every atomic datum is marshaled by its own ``xdr_*``
library routine (each with its own buffer check — see
:mod:`repro.compilers.xdr_rt`), aggregates are per-element routine calls,
every named type gets a pair of ``_xdr_put_/_xdr_get_`` functions, and the
server dispatch compares procedure numbers down an if-chain.  The walk is
:class:`repro.compilers.per_datum.PerDatumBackEnd`'s; this module spells
it in ``xdr_rt`` calls.

The generated module exposes the same public surface as Flick's modules
(``_m_req_*``, ``_u_req_*``, client/servant classes, ``dispatch``), and
its wire bytes are identical to Flick's ONC/XDR back end, so the
benchmark harness can drive every compiler uniformly and messages
interoperate across compilers.
"""

from __future__ import annotations

from repro.backend.oncxdr import OncXdrBackEnd
from repro.compilers.per_datum import PerDatumBackEnd

#: struct-format char (or char/bool conversion) -> xdr_rt routine suffix.
_ATOM_FNS = {
    "i": "int", "I": "uint", "q": "hyper", "Q": "uhyper",
    "f": "float", "d": "double", "char": "char", "bool": "bool",
}


class RpcgenStyleCompiler(PerDatumBackEnd, OncXdrBackEnd):
    """Sun rpcgen reproduced: per-datum library calls over ONC/XDR."""

    name = "rpcgen"
    origin = "Sun"

    runtime_import = "from repro.compilers import xdr_rt as _rt"
    library = "_rt.%s_%s"
    lead = stream = {"put": "b", "get": "d, o"}
    got = "%s, o"
    offset = "o"
    prefix = "_xdr"
    word = "uint"
    opaque = "opaque"
    string_refusal = ("the rpcgen baseline supports only the standard"
                      " string presentation")
    style = "per-datum xdr_* calls"

    def routine(self, codec):
        return _ATOM_FNS.get(codec.conversion) or _ATOM_FNS[codec.format]

    def open_message(self, w, stub, kind, spec):
        """The header field by field, as rpcgen-era stubs wrote it."""
        patched = {offset: expr for offset, _f, expr in spec.patches}
        template = spec.template
        for offset in range(0, len(template), 4):
            w.line(self._call("put", self.word, patched.get(offset) or "%d"
                              % int.from_bytes(template[offset:offset + 4],
                                               "big")))


class PowerRpcStyleCompiler(RpcgenStyleCompiler):
    """Netbula PowerRPC: a commercial rpcgen derivative.

    The paper notes PowerRPC "provides an IDL that is similar to the CORBA
    IDL; however, PowerRPC's back end produces stubs that are compatible
    with those produced by rpcgen", and Figures 3-6 show it performing
    essentially like rpcgen.  Its reproduction therefore shares the
    rpcgen-style generator (front ends differ: it is typically driven from
    CORBA IDL input) and differs only in identification.
    """

    name = "powerrpc"
    origin = "Netbula"
