"""AOI: the Abstract Object Interface.

AOI is Flick's IDL-neutral intermediate representation for interfaces (paper
section 2.1.1).  It records the *network contract* of an interface — the
operations that can be invoked and the data exchanged for each invocation —
independently of any presentation, encoding, or transport.  Both the CORBA
and ONC RPC front ends lower to AOI; every presentation generator consumes
it.
"""

from repro.aoi.types import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiEnum,
    AoiFloat,
    AoiInteger,
    AoiNamedRef,
    AoiOctet,
    AoiOptional,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiStructField,
    AoiType,
    AoiUnion,
    AoiUnionCase,
    AoiVoid,
)
from repro.aoi.interfaces import (
    AoiAttribute,
    AoiConstant,
    AoiException,
    AoiInterface,
    AoiOperation,
    AoiParameter,
    AoiRoot,
    Direction,
)
from repro.aoi.validate import validate

__all__ = [
    "AoiArray",
    "AoiAttribute",
    "AoiBoolean",
    "AoiChar",
    "AoiConstant",
    "AoiEnum",
    "AoiException",
    "AoiFloat",
    "AoiInteger",
    "AoiInterface",
    "AoiNamedRef",
    "AoiOctet",
    "AoiOperation",
    "AoiOptional",
    "AoiParameter",
    "AoiRoot",
    "AoiSequence",
    "AoiString",
    "AoiStruct",
    "AoiStructField",
    "AoiType",
    "AoiUnion",
    "AoiUnionCase",
    "AoiVoid",
    "Direction",
    "validate",
]
