"""Flick: a flexible, optimizing IDL compiler — PLDI 1997 reproduction.

Flick (Eide, Frei, Ford, Lepreau, Lindstrom; University of Utah) treats
interface definition languages as true programming languages: multiple
front ends (CORBA IDL, ONC RPC, MIG, annotated Python dataclasses) lower
to carefully chosen intermediate representations (AOI, MINT, CAST,
PRES/PRES_C), and optimizing back ends (IIOP/CDR, ONC/XDR, Mach 3 typed
messages, Fluke IPC) generate stubs that marshal data several times
faster than traditional IDL compilers.  Front ends self-register with
:mod:`repro.frontends`; :mod:`repro.pyschema` is the dataclass one.

Quick start::

    import repro
    from repro.runtime import LoopbackTransport

    IDL = '''
    interface Mail {
        void send(in string msg);
    };
    '''

    module = repro.compile(IDL, "corba", backend="iiop").module

    class MailImpl(module.MailServant):
        def send(self, msg):
            print("got:", msg)

    client = module.MailClient(
        LoopbackTransport(module.dispatch, MailImpl()))
    client.send("hello, world")

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction
of the paper's tables and figures.
"""

from repro.api import compile, compile_all, detect_lang
from repro.core import CompileResult, OptFlags
from repro.errors import (
    AoiValidationError,
    BackEndError,
    DeadlineError,
    DispatchError,
    FlickError,
    FlickUserException,
    IdlSemanticError,
    IdlSyntaxError,
    MarshalError,
    PresentationError,
    RuntimeFlickError,
    TransportError,
    UnmarshalError,
)

__version__ = "1.0.0"

__all__ = [
    "AoiValidationError",
    "BackEndError",
    "CompileResult",
    "DeadlineError",
    "compile",
    "compile_all",
    "detect_lang",
    "DispatchError",
    "FlickError",
    "FlickUserException",
    "IdlSemanticError",
    "IdlSyntaxError",
    "MarshalError",
    "OptFlags",
    "PresentationError",
    "RuntimeFlickError",
    "TransportError",
    "UnmarshalError",
    "__version__",
]
