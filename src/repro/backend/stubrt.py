"""What every generated stub module imports, in the one statement its
preamble prints (:data:`NAMES`).

The names a module's codecs, proxy, handlers and dispatch use but no
schema changes: the ``struct`` entry points, the buffer, the error
classes, the tuples of exceptions a stub converts at its boundary,
the trailing-bytes check, and the record and exception class factory
of :mod:`repro.pres.values`.  A module binds them by import, so a load
compiles only what its schema prints.
"""

from struct import error as _struct_error
from struct import pack_into as _pack_into
from struct import unpack_from as _unpack_from

from repro.encoding.buffer import MarshalBuffer
from repro.errors import (DispatchError, FlickUserException, MarshalError,
                          OverloadError, RemoteCallError, TransportError,
                          UnmarshalError, WireFormatError)
from repro.pres.values import exception_class as _exception
from repro.pres.values import record_class as _record

_Z = b"\x00" * 8

# Exceptions a hostile byte stream can force out of the decode helpers;
# the stubs convert them to WireFormatError so no raw Python error
# crosses the stub boundary.
_DEC_ERRORS = (_struct_error, IndexError, ValueError,
               OverflowError, MemoryError, RecursionError)
# Exceptions a mistyped value can force out of the marshal helpers
# (servant returned the wrong shape).
_ENC_ERRORS = (_struct_error, TypeError, AttributeError,
               ValueError, OverflowError, RecursionError)
# What the header re-parse of encode_error_reply gives up on.
_HDR_ERRORS = _DEC_ERRORS + (DispatchError, WireFormatError)


def _chk_end(d, o):
    if o != len(d):
        raise WireFormatError("reply carries %d trailing bytes"
                              % (len(d) - o), offset=o)


def __getattr__(name):
    """``_u_system_exception_be`` / ``_le``: the GIOP system-exception
    reply decoder of each byte order (:func:`repro.envelopes.
    system_exception`), compiled at the first IIOP load that imports
    it, not at every load."""
    e = {"_u_system_exception_be": ">",
         "_u_system_exception_le": "<"}.get(name)
    if e is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from repro import envelopes

    return envelopes.system_exception(e)


#: The names a stub module imports from here.
NAMES = ("_pack_into", "_unpack_from", "_struct_error", "MarshalBuffer",
         "DispatchError", "FlickUserException", "MarshalError",
         "OverloadError", "RemoteCallError", "TransportError",
         "UnmarshalError", "WireFormatError", "_Z", "_DEC_ERRORS",
         "_ENC_ERRORS", "_HDR_ERRORS", "_chk_end", "_record", "_exception")
