"""The CORBA IDL front end.

Parses (a substantial subset of) CORBA 2.0 IDL — modules, interfaces with
inheritance, operations with ``in``/``out``/``inout`` parameters and
``raises`` clauses, attributes, structs, discriminated unions, enums,
typedefs, sequences, bounded strings, fixed arrays, constants, and
exceptions — and lowers the result to AOI.
"""

import re

from repro import frontends
from repro.corba.parser import parse_corba_idl
from repro.corba.to_aoi import corba_to_aoi


def _lower(specification, name):
    from repro.aoi import validate

    return validate(corba_to_aoi(specification, name=name))


frontends.register(frontends.FrontEnd(
    name="corba",
    description="CORBA 2.0 IDL (PLDI'97 section 2; GIOP/IIOP native)",
    suffixes=(".idl",),
    patterns=(
        ("interface/module declaration",
         re.compile(r"\b(?:interface|module)\s+\w+")),
    ),
    parse=parse_corba_idl,
    lower=_lower,
    priority=30,
    presentation="corba-c",
    sample="interface Probe { long poke(in long x); };\n",
))

__all__ = ["parse_corba_idl", "corba_to_aoi"]
