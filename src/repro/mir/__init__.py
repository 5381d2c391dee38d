"""repro.mir — the explicit marshal IR (typed ops, passes, renderers).

Pipeline::

    PRES_C --build_program--> MirProgram --PassManager--> MirProgram
           --render_py / render_c--> stubs

:mod:`repro.mir.ops` defines the op vocabulary, :mod:`repro.mir.build`
walks PRES_C once to produce a :class:`~repro.mir.ops.MirProgram`,
:mod:`repro.mir.passes` runs the section-3 optimizations, and the
renderer modules consume the optimized IR.  :mod:`repro.mir.render_py`
is the one place an op becomes executable behaviour; the ``closures``
renderer name (:mod:`repro.mir.render_closures`) is that same text
compiled per function at first call instead of with the module.
"""

from repro.mir.ops import MirFunction, MirProgram, mangle  # noqa: F401
from repro.mir.build import build_naive, build_program  # noqa: F401
from repro.mir.passes import (  # noqa: F401
    IR_PASSES,
    LOWERING_PASSES,
    PASS_NAMES,
    PassManager,
)
