"""Flick back ends (paper section 2.3).

A back end reads a PRES_C presentation and produces stub code for one
message format and transport family.  The heavy lifting — chunk-based
marshal code generation, buffer management, inlining, demux construction —
lives in the shared optimizing library (:mod:`repro.backend.base` over
the marshal IR, :mod:`repro.mir`), which every back end inherits; the concrete
back ends supply only the protocol headers and framing, mirroring the
paper's Table 1 where each back end is a few hundred lines over an
8000-line base.
"""

from repro.backend.base import GeneratedStubs, OptimizingBackEnd
from repro.backend.oncxdr import OncXdrBackEnd
from repro.backend.iiop import IiopBackEnd
from repro.backend.mach3 import Mach3BackEnd
from repro.backend.flukeipc import FlukeBackEnd

BACKENDS = {
    "oncrpc-xdr": OncXdrBackEnd,
    "iiop": IiopBackEnd,
    "mach3": Mach3BackEnd,
    "fluke": FlukeBackEnd,
}


def runtime_header_path():
    """Path to flick-runtime.h, the generated C's support header."""
    import os

    return os.path.join(os.path.dirname(__file__), "flick-runtime.h")


def make_backend(name, **kwargs):
    """Instantiate a back end by registry name."""
    try:
        return BACKENDS[name](**kwargs)
    except KeyError:
        raise ValueError(
            "unknown back end %r (have: %s)"
            % (name, ", ".join(sorted(BACKENDS)))
        ) from None


__all__ = [
    "BACKENDS",
    "FlukeBackEnd",
    "GeneratedStubs",
    "IiopBackEnd",
    "Mach3BackEnd",
    "OncXdrBackEnd",
    "OptimizingBackEnd",
    "make_backend",
]
