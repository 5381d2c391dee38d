"""Analyses over MINT message graphs.

These implement the compile-time reasoning behind the paper's marshal-buffer
optimization (section 3.1): every message region is classified into one of
three storage classes — *fixed* size, *variable but bounded*, or *variable
and unbounded* — so back ends can emit one free-space check per region
instead of one per atomic datum.

All size arithmetic is parameterized by a *wire layout* object (one per
encoding; see :mod:`repro.encoding.base`) providing ``atom_size``,
``atom_alignment``, ``array_header_size``, and ``array_padding`` — MINT
itself never commits to byte counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import FlickError
from repro.mint.types import (
    MintArray,
    MintChar,
    MintConst,
    MintRegistry,
    MintSlot,
    MintStruct,
    MintSystemException,
    MintType,
    MintTypeRef,
    MintUnion,
    MintVoid,
    is_atom,
)


class StorageClass(enum.Enum):
    """The paper's three storage size classes."""

    FIXED = "fixed"
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class StorageInfo:
    """Result of storage analysis for one MINT subtree.

    ``max_size`` is a worst-case byte count including any alignment padding
    the encoding might insert (``None`` when unbounded); ``min_size`` is the
    guaranteed minimum.  For FIXED regions the wire size does not depend on
    the value being sent, so ``max_size`` is the (worst-case-padded) size of
    every instance.
    """

    storage_class: StorageClass
    min_size: int
    max_size: Optional[int]

    def merge_sequential(self, other):
        """Combine with the info of data that follows this region."""
        if self.max_size is None or other.max_size is None:
            max_size = None
        else:
            max_size = self.max_size + other.max_size
        storage_class = _worst(self.storage_class, other.storage_class)
        return StorageInfo(
            storage_class, self.min_size + other.min_size, max_size
        )

    def merge_alternative(self, other):
        """Combine with the info of an alternative region (union arms)."""
        if self.max_size is None or other.max_size is None:
            max_size = None
        else:
            max_size = max(self.max_size, other.max_size)
        storage_class = _worst(self.storage_class, other.storage_class)
        if (
            storage_class is StorageClass.FIXED
            and self.max_size != other.max_size
        ):
            storage_class = StorageClass.BOUNDED
        return StorageInfo(
            storage_class, min(self.min_size, other.min_size), max_size
        )


_ORDER = {
    StorageClass.FIXED: 0,
    StorageClass.BOUNDED: 1,
    StorageClass.UNBOUNDED: 2,
}


def _worst(first, second):
    return first if _ORDER[first] >= _ORDER[second] else second


def analyze_storage(mint_type, layout, registry=None):
    """Classify *mint_type* under *layout*; returns :class:`StorageInfo`.

    Recursive types are necessarily UNBOUNDED.
    """
    registry = registry or MintRegistry()
    return _analyze(mint_type, layout, registry, walking=())


def _analyze(mint_type, layout, registry, walking):
    if isinstance(mint_type, MintTypeRef):
        if mint_type.name in walking:
            return StorageInfo(StorageClass.UNBOUNDED, 0, None)
        return _analyze(
            registry[mint_type.name], layout, registry,
            walking + (mint_type.name,),
        )
    if isinstance(mint_type, MintVoid):
        return StorageInfo(StorageClass.FIXED, 0, 0)
    if isinstance(mint_type, MintConst):
        return _analyze(mint_type.type, layout, registry, walking)
    if isinstance(mint_type, MintSystemException):
        return StorageInfo(StorageClass.UNBOUNDED, 0, None)
    if is_atom(mint_type):
        size = layout.atom_size(mint_type)
        alignment = layout.atom_alignment(mint_type)
        # Worst-case alignment padding; none when the format guarantees
        # item boundaries at least this aligned (XDR pads everything to 4,
        # so its atoms never need extra padding).
        universal = getattr(layout, "universal_alignment", 1)
        padding = alignment - 1 if alignment > universal else 0
        return StorageInfo(StorageClass.FIXED, size, size + padding)
    if isinstance(mint_type, MintStruct):
        info = StorageInfo(StorageClass.FIXED, 0, 0)
        for slot in mint_type.slots:
            info = info.merge_sequential(
                _analyze(slot.type, layout, registry, walking)
            )
        return info
    if isinstance(mint_type, MintArray):
        return _analyze_array(mint_type, layout, registry, walking)
    if isinstance(mint_type, MintUnion):
        discriminator = _analyze(
            mint_type.discriminator, layout, registry, walking
        )
        arms = None
        for case in mint_type.cases:
            case_info = _analyze(case.type, layout, registry, walking)
            arms = case_info if arms is None else arms.merge_alternative(case_info)
        if arms is None:
            arms = StorageInfo(StorageClass.FIXED, 0, 0)
        elif len(mint_type.cases) > 1 and arms.storage_class is StorageClass.FIXED:
            # Which arm travels depends on the value, so even size-equal
            # arms leave the region FIXED only if they are byte-identical
            # in size; merge_alternative already handled unequal sizes.
            pass
        combined = discriminator.merge_sequential(arms)
        if (
            combined.storage_class is StorageClass.FIXED
            and len(mint_type.cases) > 1
            and not _all_arm_sizes_equal(mint_type, layout, registry, walking)
        ):
            combined = StorageInfo(
                StorageClass.BOUNDED, combined.min_size, combined.max_size
            )
        return combined
    raise FlickError(
        "cannot analyze MINT node %r" % type(mint_type).__name__
    )


def _all_arm_sizes_equal(union, layout, registry, walking):
    sizes = set()
    for case in union.cases:
        info = _analyze(case.type, layout, registry, walking)
        if info.storage_class is not StorageClass.FIXED:
            return False
        sizes.add(info.max_size)
    return len(sizes) <= 1


def _analyze_array(array, layout, registry, walking):
    header = layout.array_header_size(array)
    element = _analyze(array.element, layout, registry, walking)
    packed = layout.packed_element_size(array.element)
    if packed is not None:
        per_element_max = packed
        per_element_min = packed
        if isinstance(array.element, MintChar) \
                and element.max_size is not None:
            # A char array packs one byte per char when presented as a
            # string, but occupies the standalone char atom (4 bytes in
            # XDR) when presented element-wise.  MINT cannot tell which
            # presentation will be used, so the bounds cover both.
            per_element_max = max(packed, element.max_size)
    else:
        per_element_max = element.max_size
        per_element_min = element.min_size
    trailer = layout.array_padding(array)
    if array.is_fixed:
        if per_element_max is None:
            return StorageInfo(StorageClass.UNBOUNDED, header, None)
        if packed is not None and trailer:
            # The data size is static, so the trailing pad is exact.
            trailer = -(array.max_length * packed) % 4
        max_size = header + array.max_length * per_element_max + trailer
        min_size = header + array.min_length * per_element_min
        storage_class = (
            StorageClass.FIXED
            if element.storage_class is StorageClass.FIXED
            else element.storage_class
        )
        if (storage_class is StorageClass.FIXED and packed is not None
                and per_element_min != per_element_max):
            # The presentation-dependent char packing above: the size is
            # no longer a single static value.
            storage_class = StorageClass.BOUNDED
        if storage_class is StorageClass.UNBOUNDED:
            max_size = None
        return StorageInfo(storage_class, min_size, max_size)
    if not array.is_bounded or per_element_max is None:
        return StorageInfo(
            StorageClass.UNBOUNDED,
            header + array.min_length * (per_element_min or 0),
            None,
        )
    if element.storage_class is StorageClass.UNBOUNDED:
        return StorageInfo(StorageClass.UNBOUNDED, header, None)
    return StorageInfo(
        StorageClass.BOUNDED,
        header + array.min_length * per_element_min,
        header + array.max_length * per_element_max + trailer,
    )


# ----------------------------------------------------------------------


def is_recursive(mint_type, registry=None):
    """True if *mint_type* reaches a MintTypeRef cycle.

    Lowering asks this of the same few named types at every reference,
    so the answer for a :class:`MintTypeRef` is remembered on its
    registry until the next ``define``.
    """
    if registry is None or not isinstance(mint_type, MintTypeRef):
        return _recurses(mint_type, registry or MintRegistry(), walking=())
    memo = registry.recursive_memo
    if mint_type.name not in memo:
        memo[mint_type.name] = _recurses(mint_type, registry, walking=())
    return memo[mint_type.name]


def _recurses(mint_type, registry, walking):
    if isinstance(mint_type, MintTypeRef):
        if mint_type.name in walking:
            return True
        return _recurses(
            registry[mint_type.name], registry,
            walking + (mint_type.name,),
        )
    if isinstance(mint_type, MintConst):
        return _recurses(mint_type.type, registry, walking)
    if isinstance(mint_type, MintStruct):
        return any(
            _recurses(slot.type, registry, walking)
            for slot in mint_type.slots
        )
    if isinstance(mint_type, MintArray):
        return _recurses(mint_type.element, registry, walking)
    if isinstance(mint_type, MintUnion):
        return any(
            _recurses(case.type, registry, walking)
            for case in mint_type.cases
        )
    return False
