"""Table 1: code reuse within the Flick IDL compiler.

The paper's Table 1 counts substantive source lines in each of Flick's
base libraries versus the lines particular to each specialized component,
showing that presentation generators and back ends are small
specializations of large shared libraries (4-11% unique), while front
ends carry more unique code (parsers).

This bench computes the same table for this reproduction's own sources,
plus phases the paper's table has no row for: the core every compile
goes through, the comparators that print from one per-datum walker, the
serving runtime and the operating tools.  Every file under ``src/repro``
sits in exactly one row (``tests/test_table1_layout.py`` says so), so a
new file must pick its row.
"""

import os

import pytest

from benchmarks.harness import print_table

ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: (phase, component, base?, relative source files).  ``base?`` is True
#: for a base library, False for a specialisation — its share is against
#: the latest base row of its phase — and None for a row that is listed
#: so that every file has one but sits outside the shares.
LAYOUT = [
    ("Front End", "Base Library", True,
     ["idl/source.py", "idl/lexer.py", "aoi/types.py", "aoi/interfaces.py",
      "aoi/validate.py"]),
    ("Front End", "CORBA IDL", False,
     ["corba/ast.py", "corba/parser.py", "corba/to_aoi.py"]),
    ("Front End", "ONC RPC IDL", False,
     ["oncrpc/ast.py", "oncrpc/parser.py", "oncrpc/to_aoi.py"]),
    ("Front End", "MIG", False,
     ["mig/parser.py", "mig/to_presc.py"]),
    ("Pres. Gen.", "Base Library", True,
     ["mint/types.py", "mint/builder.py", "mint/analysis.py",
      "pres/nodes.py", "pres/presc.py", "pres/values.py", "pgen/base.py"]),
    ("Pres. Gen.", "CORBA Pres.", False, ["pgen/corba_c.py"]),
    ("Pres. Gen.", "Fluke Pres.", False, ["pgen/fluke.py"]),
    ("Pres. Gen.", "ONC RPC rpcgen Pres.", False, ["pgen/rpcgen.py"]),
    ("Back End", "Base Library", True,
     ["backend/base.py", "backend/pywriter.py", "backend/stubrt.py",
      "encoding/base.py",
      "encoding/buffer.py", "cast/nodes.py", "cast/emit.py",
      # The marshal IR every back end lowers through and prints from.
      "mir/ops.py", "mir/build.py", "mir/lower.py", "mir/passes.py",
      "mir/shape.py", "mir/dump.py", "mir/render_py.py",
      "mir/render_closures.py", "mir/render_c.py"]),
    ("Back End", "CORBA IIOP", False,
     ["backend/iiop.py", "encoding/cdr.py"]),
    ("Back End", "ONC RPC XDR", False,
     ["backend/oncxdr.py", "encoding/xdr.py"]),
    ("Back End", "Mach 3 IPC", False,
     ["backend/mach3.py", "encoding/mach.py"]),
    ("Back End", "Fluke IPC", False,
     ["backend/flukeipc.py", "encoding/fluke.py"]),
    # The rival code styles print from one per-datum walker; each adds
    # only its spellings and header writers (their runtime libraries are
    # the rivals' own and are not counted).
    ("Comparators", "Per-datum walker", True, ["compilers/per_datum.py"]),
    ("Comparators", "rpcgen", False, ["compilers/rpcgen_style.py"]),
    ("Comparators", "ORBeline", False, ["compilers/orbeline_style.py"]),
    # ILU interprets at run time and MIG is a restricted emitter over the
    # optimizing back end: neither prints from the walker.
    ("Comparators", "ILU (interpreter)", None,
     ["compilers/ilu_style.py", "pres/interp.py"]),
    ("Comparators", "MIG", None, ["compilers/mig_style.py"]),
    ("Comparators", "Runtime libraries", None,
     ["compilers/cdr_rt.py", "compilers/xdr_rt.py"]),
    # What every compile goes through whatever its languages: the
    # facade, the registries (comparators' too), loading, options and
    # errors.
    ("Core", "Base Library", True,
     ["__init__.py", "api.py", "errors.py", "compilers/__init__.py",
      "core/__init__.py", "core/codecs.py", "core/compiler.py",
      "core/loader.py", "core/options.py", "frontends/__init__.py",
      "aoi/__init__.py", "idl/__init__.py", "corba/__init__.py",
      "oncrpc/__init__.py", "mig/__init__.py", "mint/__init__.py",
      "pres/__init__.py", "pgen/__init__.py", "backend/__init__.py",
      "encoding/__init__.py", "cast/__init__.py", "mir/__init__.py"]),
    # The request core, framing, the transport interface, the server and
    # service assembly, signals, the envelope walks and the event loop
    # on a thread, under every server and client.
    ("Serving", "Base Library", True,
     ["runtime/__init__.py", "runtime/request.py", "runtime/framing.py",
      "runtime/transport.py", "runtime/server.py", "runtime/service.py",
      "runtime/signals.py", "runtime/aio/__init__.py",
      "runtime/aio/framed.py", "runtime/aio/stats.py", "envelopes.py",
      "loopthread.py"]),
    ("Serving", "Blocking sockets", False, ["runtime/socket_transport.py"]),
    ("Serving", "Asyncio server", False, ["runtime/aio/server.py"]),
    ("Serving", "Asyncio client", False,
     ["runtime/aio/client.py", "runtime/aio/breaker.py",
      "runtime/aio/correlation.py", "runtime/aio/options.py"]),
    ("Serving", "Protocol gateway", False,
     ["gateway/__init__.py", "gateway/check.py", "gateway/envelope.py",
      "gateway/errmap.py", "gateway/fraction.py", "gateway/plan.py",
      "gateway/proxy.py"]),
    ("Serving", "Supervisor", False,
     ["runtime/supervisor/__init__.py", "runtime/supervisor/control.py",
      "runtime/supervisor/supervisor.py", "runtime/supervisor/worker.py"]),
    ("Serving", "IPC and simulated transports", False,
     ["runtime/flukeipc.py", "runtime/machipc.py", "runtime/simnet.py"]),
    # The one reader of outside documents and the one metrics registry.
    ("Operating", "Base Library", True,
     ["documents.py", "obs/__init__.py", "obs/metrics.py"]),
    ("Operating", "Tracing and profiling", False,
     ["obs/trace.py", "obs/profile.py", "obs/propagation.py",
      "obs/http.py"]),
    ("Operating", "Fault injection", False,
     ["faults/__init__.py", "faults/plan.py", "faults/transport.py"]),
    ("Operating", "Command line", False,
     ["tools/__init__.py", "tools/cli.py"]),
    ("Operating", "Python schemas", False,
     ["pyschema/__init__.py", "pyschema/to_aoi.py", "workloads/__init__.py",
      "workloads/definitions.py"]),
    # compat's own base: the one pairwise walk (the gateway reads it too)
    # and the verdicts its findings carry.
    ("Operating", "Pair walk", True,
     ["compat/__init__.py", "compat/pairwalk.py", "compat/verdict.py"]),
    ("Operating", "Diff, lint and report", False,
     ["compat/ifacediff.py", "compat/lint.py", "compat/report.py"]),
]


def substantive_lines(path):
    """Count non-blank lines outside docstrings and comments."""
    count = 0
    in_docstring = False
    delimiter = None
    with open(path) as handle:
        for line in handle:
            stripped = line.strip()
            if in_docstring:
                if delimiter in stripped:
                    in_docstring = False
                continue
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith(('"""', "'''")):
                delimiter = stripped[:3]
                body = stripped[3:]
                if delimiter not in body:
                    in_docstring = True
                continue
            count += 1
    return count


def compute_table():
    rows = []
    data = {}
    base_lines = {}
    for phase, component, is_base, files in LAYOUT:
        lines = sum(
            substantive_lines(os.path.join(ROOT, name)) for name in files
        )
        if is_base:
            base_lines[phase] = lines
            rows.append([phase, component, str(lines), ""])
        elif is_base is None:
            rows.append([phase, component, str(lines), "apart"])
        else:
            base = base_lines[phase]
            share = 100.0 * lines / (lines + base)
            rows.append(
                [phase, component, str(lines), "%.1f%%" % share]
            )
            data[(phase, component)] = share
    return rows, data


class TestTable1:
    def test_code_reuse(self, benchmark):
        rows, data = benchmark.pedantic(
            compute_table, rounds=1, iterations=1
        )
        print_table(
            "Table 1: code reuse within the Flick reproduction"
            " (substantive lines; %% = unique share vs base library)",
            ("phase", "component", "lines", "% unique"),
            rows,
        )
        # The paper's structural claim: presentation generators and back
        # ends are small specializations (its Table 1: 0-11%); front ends
        # carry significantly more unique code (its Table 1: 45-48%).
        for (phase, component), share in data.items():
            if phase == "Pres. Gen.":
                assert share < 25.0, (component, share)
            if phase in ("Back End", "Comparators"):
                assert share < 25.0, (component, share)
        front_end_shares = [
            share for (phase, _c), share in data.items()
            if phase == "Front End"
        ]
        assert max(front_end_shares) > 30.0
