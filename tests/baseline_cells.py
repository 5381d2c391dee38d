"""What the comparator compilers print for every schema the repo carries.

A cell is one schema under one presentation through one comparator;
its value is the sha256 of the generated ``py_source`` or the message
the compiler (or the presentation generator) refused it with.
``tests/test_baselines.py`` pins every cell against
``tests/golden/baselines.json``; regenerate that file after an intended
change to the comparators' text with::

    PYTHONPATH=src python -m tests.baseline_cells golden
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

from repro import api, frontends
from repro.compilers import make_baseline
from repro.errors import FlickError

from tests import conftest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = os.path.join(ROOT, "tests", "golden", "baselines.json")

#: ``None`` is the front end's own presentation.
PRESENTATIONS = (None, "corba-c-len", "rpcgen")

#: cell label -> (baseline name, constructor options).
COMPILERS = {
    "rpcgen": ("rpcgen", {}),
    "powerrpc": ("powerrpc", {}),
    "orbeline": ("orbeline", {}),
    "orbeline-le": ("orbeline", {"little_endian": True}),
    "mig": ("mig", {}),
}

#: conftest schema name -> (source, file name the front end is picked by).
_INLINE = {
    "MAIL_IDL": "mail.idl",
    "DB_IDL": "db.x",
    "MIG_IDL": "arith.defs",
    "ATOMS_IDL": "atoms.idl",
    "ATOMS_X": "atoms.x",
}


def schemas():
    """``{label: (text, file name)}`` for every schema of a cell."""
    found = {}
    for pattern in ("examples/idl/*", "benchmarks/e2e/schemas/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            label = os.path.relpath(path, ROOT)
            with open(path) as handle:
                found[label] = (handle.read(), os.path.basename(path))
    for name, file_name in _INLINE.items():
        found["conftest." + name] = (getattr(conftest, name), file_name)
    return found


def prescs(text, file_name, presentation):
    """The client-side PRES_C of every interface *text* defines."""
    fe = frontends.detect(text, file_name)
    if not fe.has_aoi:
        return [api.compile(text, fe.name, name=file_name).presc]
    root = fe.compile_frontend(text, file_name)
    return [conftest.present(root, interface.name,
                             presentation or fe.presentation)
            for interface in root.interfaces]


def _refusal(error):
    return "refused: %s: %s" % (type(error).__name__, error)


def cells():
    """``{"schema | presentation | compiler": sha256 or refusal}``."""
    table = {}
    for label, (text, file_name) in schemas().items():
        for presentation in PRESENTATIONS:
            try:
                presented = prescs(text, file_name, presentation)
                failure = None
            except FlickError as error:
                failure = _refusal(error)
            for compiler, (name, options) in COMPILERS.items():
                key = "%s | %s | %s" % (
                    label, presentation or "default", compiler)
                if failure is not None:
                    table[key] = failure
                    continue
                digest = hashlib.sha256()
                try:
                    for presc in presented:
                        stubs = make_baseline(name, **options).generate(presc)
                        digest.update(stubs.py_source.encode("utf-8"))
                    table[key] = digest.hexdigest()
                except FlickError as error:
                    table[key] = _refusal(error)
    return table


def main(argv):
    if argv[1:] != ["golden"]:
        raise SystemExit("usage: python -m tests.baseline_cells golden")
    with open(GOLDEN, "w") as handle:
        json.dump(cells(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv)
