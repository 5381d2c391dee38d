"""MINT: the Message INTerface representation.

MINT describes the abstract structure of every message exchanged between
client and server (paper section 2.2.1): a graph of atomic types, aggregates
(fixed- and variable-length arrays, structs, discriminated unions), and typed
literal constants.  MINT deliberately specifies *neither* a target-language
representation *nor* a byte-level encoding — it is the glue between PRES
(target-language mapping) above and the wire formats below.
"""

from repro.mint.types import (
    MintArray,
    MintBoolean,
    MintChar,
    MintConst,
    MintFloat,
    MintInteger,
    MintRegistry,
    MintStruct,
    MintSlot,
    MintSystemException,
    MintType,
    MintTypeRef,
    MintUnion,
    MintUnionCase,
    MintVoid,
)
from repro.mint.builder import MintBuilder
from repro.mint.analysis import (
    StorageClass,
    StorageInfo,
    analyze_storage,
    is_recursive,
)

__all__ = [
    "MintArray",
    "MintBoolean",
    "MintBuilder",
    "MintChar",
    "MintConst",
    "MintFloat",
    "MintInteger",
    "MintRegistry",
    "MintSlot",
    "MintStruct",
    "MintSystemException",
    "MintType",
    "MintTypeRef",
    "MintUnion",
    "MintUnionCase",
    "MintVoid",
    "StorageClass",
    "StorageInfo",
    "analyze_storage",
    "is_recursive",
]
