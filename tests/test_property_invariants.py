"""Property-based tests on core data-structure invariants (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import MarshalBuffer, XDR, CDR_BE, MACH, FLUKE
from repro.mint.analysis import StorageClass, analyze_storage
from repro.mint.builder import MintBuilder
from repro.mir.ops import largest_pow2_divisor
from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiFloat,
    AoiInteger,
    AoiOctet,
    AoiRoot,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiStructField,
)


class TestMarshalBufferProperties:
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(0, 300), min_size=1, max_size=40))
    def test_reserve_offsets_partition_the_buffer(self, sizes):
        buffer = MarshalBuffer(capacity=16)
        expected_offset = 0
        for size in sizes:
            offset = buffer.reserve(size)
            assert offset == expected_offset
            expected_offset += size
        assert buffer.length == sum(sizes)
        assert len(buffer.data) >= buffer.length

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=500))
    def test_written_bytes_survive_growth(self, payload):
        buffer = MarshalBuffer(capacity=4)
        offset = buffer.reserve(len(payload))
        buffer.data[offset:offset + len(payload)] = payload
        buffer.reserve(4096)  # force growth
        assert bytes(buffer.data[offset:offset + len(payload)]) == payload

    @settings(max_examples=50, deadline=None)
    @given(first=st.binary(max_size=64), second=st.binary(max_size=64))
    def test_reset_reuse_is_clean(self, first, second):
        buffer = MarshalBuffer()
        offset = buffer.reserve(len(first))
        buffer.data[offset:offset + len(first)] = first
        buffer.reset()
        offset = buffer.reserve(len(second))
        buffer.data[offset:offset + len(second)] = second
        assert buffer.getvalue() == second


class TestPow2Divisor:
    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(0, 10**6),
           limit=st.sampled_from([1, 2, 4, 8]))
    def test_result_divides_and_is_bounded(self, value, limit):
        result = largest_pow2_divisor(value, limit)
        assert 1 <= result <= limit
        assert value % result == 0 or value == 0
        # Maximality: doubling (within limit) must not divide.
        if result < limit and value:
            assert value % (result * 2) != 0


def _aoi_types():
    scalar = st.sampled_from([
        AoiInteger(32, True), AoiInteger(64, False), AoiInteger(16, True),
        AoiFloat(64), AoiFloat(32), AoiChar(), AoiBoolean(), AoiOctet(),
    ])

    def extend(children):
        structs = st.lists(children, min_size=1, max_size=4).map(
            lambda items: AoiStruct(
                "S", tuple(
                    AoiStructField("f%d" % index, item)
                    for index, item in enumerate(items)
                )
            )
        )
        return st.one_of(
            st.tuples(children, st.integers(1, 5)).map(
                lambda pair: AoiArray(pair[0], pair[1])
            ),
            st.tuples(children, st.integers(1, 8)).map(
                lambda pair: AoiSequence(pair[0], pair[1])
            ),
            children.map(lambda item: AoiSequence(item, None)),
            structs,
        )

    return st.recursive(
        st.one_of(scalar, st.builds(AoiString, st.integers(1, 32)),
                  st.just(AoiString(None))),
        extend,
        max_leaves=8,
    )


class TestStorageAnalysisProperties:
    @settings(max_examples=150, deadline=None)
    @given(aoi_type=_aoi_types(),
           layout=st.sampled_from([XDR, CDR_BE, MACH, FLUKE]))
    def test_bounds_are_consistent(self, aoi_type, layout):
        root = AoiRoot()
        builder = MintBuilder(root)
        mint = builder.mint_for(aoi_type)
        info = analyze_storage(mint, layout, builder.registry)
        assert info.min_size >= 0
        if info.storage_class is StorageClass.FIXED:
            assert info.max_size is not None
            assert info.min_size <= info.max_size
        elif info.storage_class is StorageClass.BOUNDED:
            assert info.max_size is not None
            assert info.min_size <= info.max_size
        else:
            assert info.max_size is None

    @settings(max_examples=100, deadline=None)
    @given(aoi_type=_aoi_types())
    def test_actual_xdr_size_within_bounds(self, aoi_type):
        """Encoding a minimal instance stays within the analyzed bounds."""
        from repro.pgen import make_presentation
        from repro.pres import InterpretiveCodec

        root = AoiRoot()
        builder = MintBuilder(root)
        mint = builder.mint_for(aoi_type)
        info = analyze_storage(mint, XDR, builder.registry)
        value = _minimal_value(aoi_type)
        generator = make_presentation("corba-c")
        from repro.pgen.base import _Context

        context = _Context(generator, root, builder, __import__(
            "repro.pres.nodes", fromlist=["PresRegistry"]
        ).PresRegistry())
        pres = context.pres_for(aoi_type)
        codec = InterpretiveCodec(XDR, context.pres_registry,
                                  builder.registry)
        encoded = codec.encode(pres, value).getvalue()
        assert len(encoded) >= info.min_size
        if info.max_size is not None:
            assert len(encoded) <= info.max_size


def _minimal_value(aoi_type):
    """The smallest legal presented value of *aoi_type*."""
    if isinstance(aoi_type, AoiInteger):
        return 0
    if isinstance(aoi_type, AoiFloat):
        return 0.0
    if isinstance(aoi_type, AoiChar):
        return "a"
    if isinstance(aoi_type, AoiBoolean):
        return False
    if isinstance(aoi_type, AoiOctet):
        return 0
    if isinstance(aoi_type, AoiString):
        return ""
    if isinstance(aoi_type, AoiArray):
        from repro.aoi import AoiOctet as _Octet

        if isinstance(aoi_type.element, _Octet):
            return b"\0" * aoi_type.length
        return [_minimal_value(aoi_type.element)] * aoi_type.length
    if isinstance(aoi_type, AoiSequence):
        from repro.aoi import AoiOctet as _Octet

        if isinstance(aoi_type.element, _Octet):
            return b""
        return []
    if isinstance(aoi_type, AoiStruct):
        return {
            field.name: _minimal_value(field.type)
            for field in aoi_type.fields
        }
    raise AssertionError(type(aoi_type).__name__)
