"""The MIG-style baseline: rigid but specialized.

MIG (the Mach Interface Generator) is the paper's opposite pole from ILU:
a "very rigid compiler that produces fast stubs".  Its reproduction:

* **Rigidity**: only scalars, strings, and arrays of scalars are accepted;
  structures, unions, optional data, and nested arrays raise
  :class:`BackEndError` — exactly why the paper's Figure 7 could only use
  integer arrays, and why its directory-interface Table 2 column is empty.
* **Specialization**: stubs are as lean as Flick's for scalar data (MIG
  and Flick both emit straight-line code), and MIG pairs with the
  combined send/receive kernel trap
  (:data:`repro.runtime.machipc.MACH_IPC_COMBINED`), halving per-message
  kernel cost — the specialization the paper credits for MIG's 2x small-
  message advantage.
* **Typed-message staging**: array data is assembled in a staging area
  and then copied into the typed message, an extra pass Flick's
  marshal-buffer management avoids; this is why Flick overtakes MIG as
  messages grow (Figure 7: crossover near 8 KB, +17% at 64 KB).
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.backend.mach3 import Mach3BackEnd
from repro.core.options import OptFlags
from repro.pres import nodes as p

#: MIG stubs are compiled straight-line code (inline marshal, chunked
#: stores), but each call allocates a fresh typed message buffer — MIG
#: had no cross-call buffer reuse, one of the costs that lets Flick pull
#: ahead on large messages (Figure 7).
BASELINE_FLAGS = OptFlags(zero_copy_server=False, reuse_buffers=False)


def _check_mig_type(pres, presc, context, depth=0):
    """Enforce MIG's type restrictions (scalars and arrays of scalars)."""
    if isinstance(pres, p.PresRef):
        _check_mig_type(
            presc.pres_registry[pres.name], presc, context, depth
        )
        return
    if isinstance(pres, (p.PresDirect, p.PresEnum, p.PresVoid)):
        return
    if isinstance(pres, (p.PresString, p.PresBytes)):
        if depth:
            raise BackEndError(
                "MIG cannot express nested variable data (%s)" % context
            )
        return
    if isinstance(pres, (p.PresFixedArray, p.PresCountedArray)):
        if depth:
            raise BackEndError(
                "MIG cannot express arrays of arrays (%s)" % context
            )
        element = pres.element
        if isinstance(element, p.PresRef):
            element = presc.pres_registry[element.name]
        if not isinstance(element, (p.PresDirect, p.PresEnum)):
            raise BackEndError(
                "MIG cannot express arrays of non-atomic types (%s)"
                % context
            )
        return
    raise BackEndError(
        "MIG cannot express %s at %s"
        % (type(pres).__name__.replace("Pres", "").lower(), context)
    )


class MigStyleCompiler(Mach3BackEnd):
    """CMU/OSF MIG reproduced: restricted types, specialized Mach stubs."""

    name = "mig"
    origin = "CMU"
    baseline_flags = BASELINE_FLAGS
    sectioned = False  # the module is one piece and loads whole
    #: Mach typed-message assembly built out-of-line data in a staging
    #: area before the kernel copied the message; the MIR lowering
    #: stages array and byte runs through a temporary when this is set.
    staged_copies = True

    def generate(self, presc, flags=None):
        return super().generate(presc, self.baseline_flags)

    def supports(self, presc):
        for stub in presc.stubs:
            for parameter in stub.parameters:
                _check_mig_type(
                    parameter.pres, presc,
                    "%s.%s" % (stub.operation_name, parameter.name),
                )
            if stub.reply_pres is not None and len(stub.reply_pres.arms) > 1:
                raise BackEndError(
                    "MIG cannot express user exceptions (%s)"
                    % stub.operation_name
                )
