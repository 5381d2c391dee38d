"""Table 1: code reuse within the Flick IDL compiler.

The paper's Table 1 counts substantive source lines in each of Flick's
base libraries versus the lines particular to each specialized component,
showing that presentation generators and back ends are small
specializations of large shared libraries (4-11% unique), while front
ends carry more unique code (parsers).

This bench computes the same table for this reproduction's own sources.
"""

import os

import pytest

from benchmarks.harness import print_table

ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: (phase, component, base?, relative source files)
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
     ["backend/base.py", "backend/pywriter.py",
      "backend/cemit.py", "encoding/base.py", "encoding/buffer.py",
      "cast/nodes.py", "cast/emit.py"]),
    ("Back End", "CORBA IIOP", False,
     ["backend/iiop.py", "encoding/cdr.py"]),
    ("Back End", "ONC RPC XDR", False,
     ["backend/oncxdr.py", "encoding/xdr.py"]),
    ("Back End", "Mach 3 IPC", False,
     ["backend/mach3.py", "encoding/mach.py"]),
    ("Back End", "Fluke IPC", False,
     ["backend/flukeipc.py", "encoding/fluke.py"]),
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
            if phase == "Back End":
                assert share < 25.0, (component, share)
        front_end_shares = [
            share for (phase, _c), share in data.items()
            if phase == "Front End"
        ]
        assert max(front_end_shares) > 30.0
