"""repro.mir — the explicit marshal IR (typed ops, passes, renderers).

Pipeline::

    PRES_C --build_program--> MirProgram --PassManager--> MirProgram
           --render_py / render_c--> stubs

PRES_C stays the one description of what travels on the wire: this IR
is only its lowering, and code that asks about a message's shape (the
gateway planner, the profiler's :mod:`repro.mir.shape` probe) reads
:meth:`~repro.pres.presc.PresCStub.channels` instead.
:mod:`repro.mir.ops` defines the op vocabulary, :mod:`repro.mir.build`
walks PRES_C once to produce a :class:`~repro.mir.ops.MirProgram`,
:mod:`repro.mir.passes` runs the section-3 optimizations, and the
renderer modules consume the optimized IR.  :mod:`repro.mir.render_py`
is the one place an op becomes executable behaviour, and
:mod:`repro.mir.render_closures` decides when its text becomes code:
each codec function at its first call, under either renderer name.
"""

from repro.mir.ops import MirFunction, MirProgram, mangle  # noqa: F401
from repro.mir.build import build_program  # noqa: F401
from repro.mir.passes import (  # noqa: F401
    IR_PASSES,
    LOWERING_PASSES,
    PASS_NAMES,
    PassManager,
)
