"""Table 2: object code sizes.

The paper's Table 2 compares compiled stub sizes plus required marshal
library code for the directory interface, noting that Flick's aggressive
inlining "actually decreases the sizes of the stubs once they are
compiled" for many interfaces, and that MIG cannot express the interface
at all.

The analog here: Python bytecode size of each compiler's generated stub
module, plus the bytecode of the runtime library it requires (Flick
stubs need no marshal library; rpcgen-style stubs call ``xdr_rt``;
ORBeline-style calls ``cdr_rt``; ILU-style interprets through the whole
PRES interpreter).  Every printing compiler's stubs import the stub
runtime (``repro.backend.stubrt``: the preamble they share) and build
their records and exceptions with the class factory of
``repro.pres.values``; the runtime, the factory and the ``__init__`` it
builds for each class are counted in the library column of every
compiler that uses them, ILU's included.
"""

import os

import pytest

from repro import api
from repro.compilers import make_baseline
from repro.errors import BackEndError
from repro.workloads import BENCH_IDL_CORBA, BENCH_IDL_ONC

from benchmarks.harness import print_table


def bytecode_size(source, name="<generated>"):
    """Total bytes of compiled code objects in *source*."""
    top = compile(source, name, "exec")
    total = 0
    stack = [top]
    while stack:
        code = stack.pop()
        total += len(code.co_code)
        for constant in code.co_consts:
            if hasattr(constant, "co_code"):
                stack.append(constant)
    return total


def code_size(code):
    """Bytes of *code* and of the code objects it holds."""
    return len(code.co_code) + sum(
        code_size(constant) for constant in code.co_consts
        if hasattr(constant, "co_code"))


def stub_runtime_size(module, runtime=True):
    """What *module* needs of the stub runtime: ``repro.backend.stubrt``
    (unless not *runtime*), the class factory, the ``__init__`` the
    factory built for each of the module's record and exception
    classes, and the GIOP system-exception decoder an IIOP module
    imports (compiled once per byte order, not printed in the
    module)."""
    from repro.errors import FlickUserException
    from repro.pres import values

    factory = sum(code_size(function.__code__) for function in (
        values.record_class, values.exception_class, values._make,
        values._template, values._without_columns, values.check_names,
        values.python_name))
    inits = sum(
        code_size(cls.__init__.__code__) for cls in vars(module).values()
        if isinstance(cls, type) and "__init__" in vars(cls)
        and issubclass(cls, (values.Record, FlickUserException)))
    stubrt = module_file_size("repro.backend.stubrt") if runtime else 0
    decoder = vars(module).get("_u_system_exception")
    imported = code_size(decoder.__code__) if decoder else 0
    return stubrt + factory + inits + imported


def module_file_size(module_name):
    import importlib

    module = importlib.import_module(module_name)
    return bytecode_size(open(module.__file__).read(), module.__file__)


def compute_table():
    onc = api.compile(BENCH_IDL_ONC, "oncrpc")
    corba = api.compile(BENCH_IDL_CORBA, "corba", backend="iiop")
    rows = []
    data = {}

    def add(name, stub_source, library):
        stub = bytecode_size(stub_source) if stub_source else 0
        total = stub + library
        data[name] = (stub, library, total)
        rows.append([name, str(stub), str(library), str(total)])

    add("Flick (XDR)", onc.stubs.py_source, stub_runtime_size(onc.module))
    add("Flick (IIOP)", corba.stubs.py_source,
        stub_runtime_size(corba.module))
    for name, presc, library in (("rpcgen", onc.presc, "xdr_rt"),
                                 ("PowerRPC", onc.presc, "xdr_rt"),
                                 ("ORBeline", corba.presc, "cdr_rt")):
        stubs = make_baseline(name.lower()).generate(presc)
        add(name, stubs.py_source,
            module_file_size("repro.compilers." + library)
            + stub_runtime_size(stubs.load()))
    ilu = make_baseline("ilu").generate(corba.presc)
    add(
        "ILU",
        None,  # no generated marshal code at all
        module_file_size("repro.pres.interp")
        + module_file_size("repro.compilers.ilu_style")
        + stub_runtime_size(ilu.load(), runtime=False),
    )
    try:
        make_baseline("mig").generate(onc.presc)
        mig_note = "(unexpectedly supported)"
    except BackEndError:
        mig_note = "cannot express the interface"
    rows.append(["MIG", "-", "-", mig_note])
    return rows, data


class TestTable2:
    def test_code_sizes(self, benchmark):
        rows, data = benchmark.pedantic(
            compute_table, rounds=1, iterations=1
        )
        print_table(
            "Table 2: generated stub + marshal library bytecode sizes"
            " (bytes), directory interface",
            ("compiler", "stubs", "library", "total"),
            rows,
        )
        # MIG cannot express the interface (last row carries the note).
        assert rows[-1][0] == "MIG"
        assert "cannot express" in rows[-1][3]
        # Flick's inlined stubs carry no separate marshal library: what
        # they import is the stub runtime the per-datum compilers' stubs
        # import too.
        assert data["Flick (XDR)"][1] == data["rpcgen"][1] \
            - module_file_size("repro.compilers.xdr_rt")
        # Even with inlining, total code (stubs + library) stays in the
        # same ballpark as the per-datum compilers (the paper's point
        # that inlining does not explode code size).
        assert data["Flick (XDR)"][2] < 3 * data["rpcgen"][2]
