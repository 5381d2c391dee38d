"""The generated C artifact must actually compile.

These tests run ``gcc -std=c11 -Wall -fsyntax-only`` over the generated
``.c``/``.h`` pairs together with the shipped ``flick-runtime.h``.  They
are skipped when no C compiler is available.
"""

import os
import shutil
import subprocess

import pytest

from repro import Flick
from repro.backend import make_backend, runtime_header_path
from repro.backend.cemit import interface_file_stem

from tests.conftest import DB_IDL, MAIL_IDL, MIG_IDL

GCC = shutil.which("gcc") or shutil.which("cc")

pytestmark = pytest.mark.skipif(GCC is None, reason="no C compiler")


def compile_c(tmp_path, presc_result, backend_name):
    backend = make_backend(backend_name)
    stem = interface_file_stem(presc_result.presc, backend)
    shutil.copy(runtime_header_path(), tmp_path / "flick-runtime.h")
    (tmp_path / ("%s.h" % stem)).write_text(presc_result.stubs.c_header)
    source = tmp_path / ("%s.c" % stem)
    source.write_text(presc_result.stubs.c_source)
    completed = subprocess.run(
        [GCC, "-std=c11", "-Wall", "-Werror=implicit-function-declaration",
         "-fsyntax-only", "-I", str(tmp_path), str(source)],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


@pytest.mark.parametrize("backend", ["iiop", "oncrpc-xdr", "mach3", "fluke"])
def test_corba_interface_compiles(tmp_path, backend):
    result = Flick(frontend="corba", backend=backend).compile(
        MAIL_IDL, interface="Test::Mail"
    )
    compile_c(tmp_path, result, backend)


def test_recursive_onc_interface_compiles(tmp_path):
    result = Flick(frontend="oncrpc").compile(DB_IDL, interface="DB::DBV")
    compile_c(tmp_path, result, "oncrpc-xdr")


def test_rpcgen_presentation_compiles(tmp_path):
    result = Flick(
        frontend="corba", presentation="rpcgen", backend="oncrpc-xdr"
    ).compile(MAIL_IDL, interface="Test::Mail")
    compile_c(tmp_path, result, "oncrpc-xdr")


def test_mig_subsystem_compiles(tmp_path):
    from repro import api
    from repro.backend.base import GeneratedStubs

    presc = api.compile(MIG_IDL, "mig").presc
    backend = make_backend("mach3")
    stubs = backend.generate(presc)

    class _Result:
        pass

    result = _Result()
    result.presc = presc
    result.stubs = stubs
    compile_c(tmp_path, result, "mach3")


def test_length_presentation_compiles(tmp_path):
    result = Flick(
        frontend="corba", presentation="corba-c-len", backend="iiop"
    ).compile("interface Mail { long send(in string msg); };")
    completed = compile_c(tmp_path, result, "iiop")
    assert completed.returncode == 0


def test_cli_ships_runtime_header(tmp_path):
    from repro.tools.cli import main

    source = tmp_path / "mail.idl"
    source.write_text("interface Mail { void send(in string msg); };")
    out = tmp_path / "out"
    assert main(["compile", str(source), "-o", str(out)]) == 0
    assert (out / "flick-runtime.h").exists()
    completed = subprocess.run(
        [GCC, "-std=c11", "-fsyntax-only", "-I", str(out),
         str(out / "mail_iiop.c")],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
