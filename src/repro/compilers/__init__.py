"""Baseline IDL compilers — the paper's comparators (Table 3).

Each module here reimplements the *code style* of one of the compilers the
paper measures Flick against, so that the benchmark figures compare the
same structural sources of overhead:

=========== =============== ========== ========== =====================
Compiler    Origin          IDL        Encoding   Code style reproduced
=========== =============== ========== ========== =====================
rpcgen      Sun             ONC RPC    XDR        one marshal-function
                                                  call and one buffer
                                                  check per datum
PowerRPC    Netbula         CORBA-like XDR        rpcgen-derived, plus a
                                                  per-datum conversion
                                                  layer
ORBeline    Visigenic       CORBA      IIOP/CDR   compiled stubs that
                                                  stream each primitive
                                                  through a CDR stream
                                                  object plus an ORB
                                                  runtime layer
ILU         Xerox PARC      CORBA      IIOP/CDR   interpretive marshaling
                                                  (walks the type graph
                                                  at run time)
MIG         OSF/CMU         MIG        Mach 3     highly specialized and
                                                  fast, but restricted to
                                                  scalars and arrays of
                                                  scalars
=========== =============== ========== ========== =====================

The baselines share Flick's front half (parsers, AOI, MINT, PRES) and the
module scaffolding (client class shape, transports) so that measurements
isolate marshal/unmarshal code quality; they do NOT use the optimizing
back-end library (:mod:`repro.mir`) — each brings its own
marshal code generator or interpreter, as the real compilers did.
"""

from repro.compilers.rpcgen_style import (
    PowerRpcStyleCompiler,
    RpcgenStyleCompiler,
)
from repro.compilers.orbeline_style import OrbelineStyleCompiler
from repro.compilers.ilu_style import IluStyleCompiler
from repro.compilers.mig_style import MigStyleCompiler

BASELINES = {
    "rpcgen": RpcgenStyleCompiler,
    "powerrpc": PowerRpcStyleCompiler,
    "orbeline": OrbelineStyleCompiler,
    "ilu": IluStyleCompiler,
    "mig": MigStyleCompiler,
}

#: Table 3 of the paper: tested compilers and their attributes.
COMPILER_ATTRIBUTES = [
    ("rpcgen", "Sun", "ONC", "XDR", "ONC/TCP"),
    ("PowerRPC", "Netbula", "CORBA-like", "XDR", "ONC/TCP"),
    ("Flick", "Utah", "ONC", "XDR", "ONC/TCP"),
    ("ORBeline", "Visigenic", "CORBA", "IIOP", "TCP"),
    ("ILU", "Xerox PARC", "CORBA", "IIOP", "TCP"),
    ("Flick", "Utah", "CORBA", "IIOP", "TCP"),
    ("MIG", "CMU", "MIG", "Mach 3", "Mach 3"),
    ("Flick", "Utah", "ONC", "Mach 3", "Mach 3"),
]


def make_baseline(name, **kwargs):
    """Instantiate a baseline compiler by registry name."""
    try:
        return BASELINES[name](**kwargs)
    except KeyError:
        raise ValueError(
            "unknown baseline %r (have: %s)"
            % (name, ", ".join(sorted(BASELINES)))
        ) from None


__all__ = [
    "BASELINES",
    "COMPILER_ATTRIBUTES",
    "IluStyleCompiler",
    "MigStyleCompiler",
    "OrbelineStyleCompiler",
    "PowerRpcStyleCompiler",
    "RpcgenStyleCompiler",
    "make_baseline",
]
