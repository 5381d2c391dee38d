"""Property tests for the renderer contract and pass pipeline.

Two guarantees, fuzzed over random AOI type trees (shared with
:mod:`tests.test_property_fuzz_types`):

* **Renderer equivalence** — for any type, the codecs the module text
  holds and the codecs rendered one by one from its marshal IR
  (``install_closures``) produce byte-identical wire traffic in both
  directions and decode to identical results.
* **Pass soundness** — every MIR pass is semantics-preserving: the
  round trip still holds with each pass individually disabled, and the
  two renderers still agree on the bytes.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro import OptFlags
from repro.aoi import (
    AoiInterface,
    AoiOperation,
    AoiParameter,
    AoiRoot,
    Direction,
    validate,
)
from repro.backend import make_backend
from repro.mir.render_closures import install_closures
from repro.mir.passes import PASS_NAMES
from repro.pgen import make_presentation
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

from tests.test_mir_renderers import RecordingTransport
from tests.test_property_fuzz_types import (
    _cmp,
    _uniquify,
    denormalize,
    type_value_pairs,
)

BACKENDS = ("oncrpc-xdr", "iiop", "mach3", "fluke")


def _build(aoi_type, backend_name, flags, from_ir):
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
    if from_ir:
        install_closures(module, stubs.mir)
    return presc, module


def _echo(presc, module, value):
    class Impl:
        def echo(self, received):
            return received

    transport = RecordingTransport(
        LoopbackTransport(module.dispatch, Impl())
    )
    client = module.FuzzClient(transport)
    pres = presc.stub_named("echo").request_pres.fields[0].pres
    presented = denormalize(module, presc, pres, value)
    result = client.echo(presented)
    return _cmp(normalize(result)), transport.log


def _assert_renderers_agree(pair, backend_name, flags=None):
    aoi_type, value = pair
    aoi_type = _uniquify(aoi_type, itertools.count())
    presc_py, module_py = _build(aoi_type, backend_name, flags, False)
    presc_clo, module_clo = _build(aoi_type, backend_name, flags, True)
    result_py, log_py = _echo(presc_py, module_py, value)
    result_clo, log_clo = _echo(presc_clo, module_clo, value)
    assert result_py == _cmp(normalize(value))
    assert result_clo == result_py
    assert log_clo == log_py


class TestRendererEquivalenceFuzz:
    @settings(max_examples=50, deadline=None)
    @given(pair=type_value_pairs, backend=st.sampled_from(BACKENDS))
    def test_random_types_byte_identical(self, pair, backend):
        _assert_renderers_agree(pair, backend)


class TestPassSoundnessFuzz:
    @settings(max_examples=50, deadline=None)
    @given(pair=type_value_pairs,
           pass_name=st.sampled_from(sorted(PASS_NAMES)),
           backend=st.sampled_from(BACKENDS))
    def test_each_pass_preserves_semantics(self, pair, pass_name,
                                           backend):
        flags = OptFlags().but(**{pass_name: False})
        _assert_renderers_agree(pair, backend, flags)

    @settings(max_examples=25, deadline=None)
    @given(pair=type_value_pairs, backend=st.sampled_from(BACKENDS))
    def test_all_passes_off_preserves_semantics(self, pair, backend):
        _assert_renderers_agree(pair, backend, OptFlags.all_off())
