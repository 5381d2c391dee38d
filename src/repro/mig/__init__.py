"""The MIG front end.

MIG (the Mach Interface Generator) definitions contain constructs that are
applicable only to C and to the Mach message system, so — as in the paper
(section 2.1, Figure 1) — this front end is *conjoined* with its own
presentation generator: it registers with ``has_aoi=False`` and its
``lower`` phase translates a MIG subsystem directly into PRES_C,
bypassing AOI.

Supported subset::

    subsystem arith 4200;
    type int_array = array[*:4096] of int;
    type name_t = c_string[64];
    routine add(server : mach_port_t; a : int; b : int; out total : int);
    simpleroutine poke(server : mach_port_t; value : int);
"""

import re

from repro import frontends
from repro.mig.parser import parse_mig_idl
from repro.mig.to_presc import mig_to_presc


frontends.register(frontends.FrontEnd(
    name="mig",
    description="Mach Interface Generator (conjoined: lowers to PRES_C)",
    suffixes=(".defs",),
    patterns=(
        ("subsystem declaration",
         re.compile(r"^\s*subsystem\s+\w+", re.MULTILINE)),
    ),
    parse=parse_mig_idl,
    lower=lambda subsystem, name: mig_to_presc(subsystem),
    has_aoi=False,
    priority=10,
    backend="mach3",
    servable=False,
    diff_protocols=("mach3",),
    sample=("subsystem probe 4300;\n"
            "routine poke(server : mach_port_t; value : int);\n"),
))

__all__ = ["parse_mig_idl", "mig_to_presc"]
