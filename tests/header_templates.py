"""Every per-operation header template and every error reply, as hex.

For each interface of every ``examples/idl/*`` and
``benchmarks/e2e/schemas/*`` file under each back end (IIOP in both byte
orders) the table holds the request and reply ``HeaderSpec`` of every
operation — template bytes, ``_ctx`` patches and size patch — and
:func:`repro.envelopes.write_error`'s bytes for every protocol × byte
order × refusal of :data:`repro.envelopes.REFUSALS`, the ONC denials,
``PROG_MISMATCH`` and the GIOP MessageError frame.

``tests/test_envelopes.py`` compares a fresh table against
``tests/golden/header_templates.json``; regenerate that file after an
intended change to the bytes on the wire with::

    PYTHONPATH=src python -m tests.header_templates golden
"""

from __future__ import annotations

import glob
import json
import os
import sys

from repro import api, envelopes, frontends
from repro.backend import make_backend
from repro.encoding import MarshalBuffer

from tests import conftest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = os.path.join(ROOT, "tests", "golden", "header_templates.json")

#: label -> (back-end name, constructor options).
BACKENDS = {
    "oncrpc-xdr": ("oncrpc-xdr", {}),
    "iiop": ("iiop", {}),
    "iiop-le": ("iiop", {"little_endian": True}),
    "mach3": ("mach3", {}),
    "fluke": ("fluke", {}),
}


def schema_prescs():
    """``{"file | interface": PRES_C}`` under each front end's own
    presentation."""
    found = {}
    for pattern in ("examples/idl/*", "benchmarks/e2e/schemas/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            label = os.path.relpath(path, ROOT)
            with open(path) as handle:
                text = handle.read()
            name = os.path.basename(path)
            fe = frontends.detect(text, name)
            if not fe.has_aoi:
                presc = api.compile(text, fe.name, name=name).presc
                found["%s | %s" % (label, presc.interface_name)] = presc
                continue
            root = fe.compile_frontend(text, name)
            for interface in root.interfaces:
                found["%s | %s" % (label, interface.name)] = \
                    conftest.present(root, interface.name, fe.presentation)
    return found


def _spec(spec):
    return {"template": spec.template.hex(),
            "patches": [list(patch) for patch in spec.patches],
            "size_patch": None if spec.size_patch is None
            else list(spec.size_patch)}


def headers():
    """``{"file | interface | back end | operation": {"request": ...,
    "reply": ...}}``."""
    table = {}
    for label, presc in schema_prescs().items():
        for backend_label, (name, options) in BACKENDS.items():
            backend = make_backend(name, **options)
            for stub in presc.stubs:
                table["%s | %s | %s" % (
                    label, backend_label, stub.operation_name)] = {
                    "request": _spec(backend.request_header(presc, stub)),
                    "reply": _spec(backend.reply_header(presc, stub))}
    return table


#: The id every pinned error reply answers, and its PROG_MISMATCH range.
CTX, VERSIONS = 0x01020304, (2, 5)


def error_replies():
    """``{"<protocol><byte order> <code> <minor> <completed>": hex}``."""
    cases = []
    for protocol, rows in envelopes.REFUSALS.items():
        for e in (">",) if protocol == "oncrpc" else "><":
            cases += [(protocol, e) + tuple(arguments)
                      for _match, arguments in rows]
    cases += [("oncrpc", ">", code) for code in (
        "RPC_MISMATCH", "AUTH_ERROR", "PROG_MISMATCH", "PROG_UNAVAIL",
        "PROC_UNAVAIL", "GARBAGE_ARGS", "SYSTEM_ERR", "NOT_A_CODE")]
    cases += [("giop", e, code, 7, 0) for e in "><"
              for code in ("IDL:omg.org/CORBA/COMM_FAILURE:1.0", "X")]
    table = {}
    for protocol, e, code, *rest in cases:
        minor, completed = rest or (0, 1)
        for ctx in (CTX, None) if protocol == "giop" else (CTX,):
            buffer = MarshalBuffer()
            envelopes.write_error(buffer, protocol, ctx, code, minor,
                                  completed, versions=VERSIONS, e=e)
            table["%s%s %s %s %d %d" % (
                protocol, e, "-" if ctx is None else ctx, code, minor,
                completed)] = buffer.getvalue().hex()
    return table


def table():
    return {"headers": headers(), "write_error": error_replies()}


def main(argv):
    if argv[1:] != ["golden"]:
        raise SystemExit("usage: python -m tests.header_templates golden")
    with open(GOLDEN, "w") as handle:
        json.dump(table(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv)
