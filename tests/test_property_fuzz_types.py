"""Full-pipeline fuzzing: random types, random values, live round trips.

Hypothesis generates arbitrary AOI type trees together with matching
values; each example builds an echo interface over that type, runs the
whole pipeline (presentation -> back end -> generated module), and calls
the echo operation through loopback dispatch.  The value that comes back
must normalize equal to the value sent — for a rotating choice of back
end.

This exercises emitter corner cases no hand-written interface hits:
unions inside arrays inside optionals, structs of strings of odd lengths,
deeply nested sequences, and so on.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiFloat,
    AoiInteger,
    AoiInterface,
    AoiOctet,
    AoiOperation,
    AoiOptional,
    AoiParameter,
    AoiRoot,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiStructField,
    AoiUnion,
    AoiUnionCase,
    AoiVoid,
    Direction,
    validate,
)
from repro.pgen import make_presentation
from repro.backend import make_backend
from repro.pres import nodes as p
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

# ----------------------------------------------------------------------
# Joint (type, value) strategy
# ----------------------------------------------------------------------

latin_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=255), max_size=12
)


def scalar_pairs():
    return st.one_of(
        st.integers(-2**31, 2**31 - 1).map(
            lambda v: (AoiInteger(32, True), v)
        ),
        st.integers(0, 2**64 - 1).map(
            lambda v: (AoiInteger(64, False), v)
        ),
        st.floats(allow_nan=False, width=64).map(
            lambda v: (AoiFloat(64), v)
        ),
        st.booleans().map(lambda v: (AoiBoolean(), v)),
        st.characters(min_codepoint=1, max_codepoint=255).map(
            lambda v: (AoiChar(), v)
        ),
        st.integers(0, 255).map(lambda v: (AoiOctet(), v)),
        latin_text.map(lambda v: (AoiString(None), v)),
        st.binary(max_size=16).map(
            lambda v: (AoiSequence(AoiOctet(), None), v)
        ),
    )


def extend_pairs(children):
    def fixed_array(child_pairs):
        # All elements share the element type of the first pair.
        aoi, _v = child_pairs[0]
        values = [value for _t, value in child_pairs]
        if isinstance(aoi, AoiOctet):
            # Octet arrays present as bytes.
            return (AoiArray(aoi, len(values)), bytes(values))
        return (AoiArray(aoi, len(child_pairs)), values)

    def make_struct(child_pairs):
        fields = tuple(
            AoiStructField("f%d" % index, pair[0])
            for index, pair in enumerate(child_pairs)
        )
        return (
            AoiStruct("S", fields),
            {"f%d" % index: pair[1]
             for index, pair in enumerate(child_pairs)},
        )

    def make_union(data):
        child_pairs, chosen, with_default = data
        cases = tuple(
            AoiUnionCase((index,), "a%d" % index, pair[0])
            for index, pair in enumerate(child_pairs)
        )
        if with_default:
            cases = cases + (AoiUnionCase((), "dflt", AoiVoid()),)
            if chosen == len(child_pairs):
                return (
                    AoiUnion("U", AoiInteger(32, True), cases),
                    (7777, None),
                )
        chosen = min(chosen, len(child_pairs) - 1)
        return (
            AoiUnion("U", AoiInteger(32, True), cases),
            (chosen, child_pairs[chosen][1]),
        )

    same_type_list = children.flatmap(
        lambda pair: st.lists(st.just(pair[0]), min_size=1, max_size=3).map(
            lambda types: pair
        )
    )

    def make_sequence(data):
        (element, value), count = data
        if isinstance(element, AoiOctet):
            return (AoiSequence(element, None), bytes([value] * count))
        return (AoiSequence(element, None), [value] * count)

    return st.one_of(
        # Sequence of same-typed elements: draw one pair for the type,
        # then several values of "that shape" by just repeating it.
        st.tuples(children, st.integers(0, 3)).map(make_sequence),
        st.lists(children, min_size=1, max_size=3).map(
            lambda pairs: fixed_array([pairs[0]] * len(pairs))
        ),
        st.lists(children, min_size=1, max_size=4).map(make_struct),
        st.tuples(
            st.lists(children, min_size=1, max_size=3),
            st.integers(0, 3),
            st.booleans(),
        ).map(make_union),
        st.tuples(children, st.booleans()).map(
            lambda data: (
                AoiOptional(data[0][0]),
                data[0][1] if data[1] else None,
            )
        ),
    )


type_value_pairs = st.recursive(scalar_pairs(), extend_pairs, max_leaves=6)

_counter = itertools.count()
_BACKENDS = itertools.cycle(("oncrpc-xdr", "iiop", "mach3", "fluke"))


def _uniquify(aoi_type, names):
    """Give every struct/union in the tree a unique registered name."""
    if isinstance(aoi_type, AoiStruct):
        fields = tuple(
            AoiStructField(field.name, _uniquify(field.type, names))
            for field in aoi_type.fields
        )
        name = "S%d" % next(names)
        return AoiStruct(name, fields)
    if isinstance(aoi_type, AoiUnion):
        cases = tuple(
            AoiUnionCase(case.labels, case.name,
                         _uniquify(case.type, names))
            for case in aoi_type.cases
        )
        name = "U%d" % next(names)
        return AoiUnion(name, aoi_type.discriminator, cases)
    if isinstance(aoi_type, AoiArray):
        return AoiArray(_uniquify(aoi_type.element, names), aoi_type.length)
    if isinstance(aoi_type, AoiSequence):
        return AoiSequence(
            _uniquify(aoi_type.element, names), aoi_type.bound
        )
    if isinstance(aoi_type, AoiOptional):
        return AoiOptional(_uniquify(aoi_type.element, names))
    return aoi_type


def build_module(aoi_type, backend_name):
    root = AoiRoot("<fuzz>")
    operation = AoiOperation(
        "echo",
        (AoiParameter("v", aoi_type, Direction.IN),),
        aoi_type,
        request_code=1,
    )
    interface = AoiInterface("Fuzz", (operation,), code=(0x20009999, 1))
    root.add_interface(interface)
    validate(root)
    presc = make_presentation("corba-c").generate(root, interface)
    stubs = make_backend(backend_name).generate(presc)
    return presc, stubs.load()


def denormalize(module, presc, pres, value):
    """Build the presented value (records etc.) from normalized data."""
    pres = presc.pres_registry.resolve(pres)
    if isinstance(pres, p.PresStruct):
        cls = getattr(module, pres.record_name)
        return cls(**{
            field.name: denormalize(module, presc, field.pres,
                                    value[field.name])
            for field in pres.fields
        })
    if isinstance(pres, p.PresUnion):
        disc, payload = value
        arm = pres.arm_for(disc)
        return (disc, denormalize(module, presc, arm.pres, payload))
    if isinstance(pres, p.PresOptPtr):
        if value is None:
            return None
        return denormalize(module, presc, pres.element, value)
    if isinstance(pres, (p.PresFixedArray, p.PresCountedArray)):
        return [
            denormalize(module, presc, pres.element, item)
            for item in value
        ]
    return value


def _run_roundtrip(pair, backend_name, flags=None):
    aoi_type, value = pair
    aoi_type = _uniquify(aoi_type, itertools.count())
    root = AoiRoot("<fuzz>")
    operation = AoiOperation(
        "echo",
        (AoiParameter("v", aoi_type, Direction.IN),),
        aoi_type,
        request_code=1,
    )
    interface = AoiInterface("Fuzz", (operation,), code=(0x20009999, 1))
    root.add_interface(interface)
    validate(root)
    presc = make_presentation("corba-c").generate(root, interface)
    stubs = make_backend(backend_name).generate(presc, flags)
    module = stubs.load()
    stub = presc.stub_named("echo")

    class Impl:
        def echo(self, received):
            return received

    client = module.FuzzClient(LoopbackTransport(module.dispatch, Impl()))
    pres = stub.request_pres.fields[0].pres
    presented = denormalize(module, presc, pres, value)
    result = client.echo(presented)
    assert _cmp(normalize(result)) == _cmp(normalize(value))


class TestFuzzPipeline:
    # The back end is drawn as part of the example so every failure is
    # deterministically reproducible under shrinking.
    @settings(max_examples=60, deadline=None)
    @given(pair=type_value_pairs,
           backend=st.sampled_from(("oncrpc-xdr", "iiop", "mach3",
                                    "fluke")))
    def test_echo_roundtrip_unoptimized(self, pair, backend):
        """The fully de-optimized configuration must behave identically."""
        from repro import OptFlags

        _run_roundtrip(pair, backend, OptFlags.all_off())

    @settings(max_examples=120, deadline=None)
    @given(pair=type_value_pairs,
           backend=st.sampled_from(("oncrpc-xdr", "iiop", "mach3",
                                    "fluke")))
    def test_echo_roundtrip(self, pair, backend):
        _run_roundtrip(pair, backend)

    @settings(max_examples=40, deadline=None)
    @given(pair=type_value_pairs)
    def test_echo_roundtrip_iterative_lists_off(self, pair):
        """The recursive-emission configuration behaves identically."""
        from repro import OptFlags

        _run_roundtrip(
            pair, "oncrpc-xdr", OptFlags(iterative_lists=False)
        )


def _cmp(value):
    """Comparison form: float32 isn't in play, but bytes-vs-memoryview
    and tuple-vs-list distinctions need flattening."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, list):
        return [_cmp(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_cmp(item) for item in value)
    if isinstance(value, dict):
        return {key: _cmp(item) for key, item in value.items()}
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    return value
