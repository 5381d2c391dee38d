"""What CPython's ``compile()`` costs a stub module, section by section.

    PYTHONPATH=src python scripts/compile_floor.py [--rounds 9]
    PYTHONPATH=src python scripts/compile_floor.py --check

For every schema under ``benchmarks/e2e/schemas`` x back end (the cells
of the benchmark's ``compile_cold``) the generated text is cut along its
section table (``stubs.sections``) the way ``repro.core.loader`` cuts it
— other lines blanked, so each piece compiles at its own line numbers —
and ``compile()`` of each piece is timed on one pinned CPU, rounds in
alternation, the lowest printed, in milliseconds:

* ``whole``: the text in one piece — what loading a module cost before
  PR 24, and what a module written to disk and imported still costs;
* ``shared`` ``codecs`` ``client`` ``server`` ``errors``: each section
  alone (their sum exceeds ``whole`` by the per-``compile()`` overhead);
* ``py at load``: what ``stubs.load()`` compiles under ``renderer="py"``
  — ``whole`` before, ``shared`` + ``codecs`` after; the rest compiles
  at the first ``module.<name>`` of the role that needs it;
* ``closures at load``: the same under ``renderer="closures"`` —
  everything but ``codecs`` before, ``shared`` alone after.

``--check`` times nothing.  For every cell x renderer it runs the cell's
reference call from a proxy of one module object to the ``dispatch`` of
another and exits non-zero if the serving module compiled its client
section, the calling module its server section, or the answer is wrong.
Which sections a role loads does not depend on the host.
"""

import argparse
import os
import pathlib
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.workloads import Cell, _Capture  # noqa: E402
from repro import api  # noqa: E402
from repro.core.loader import excerpt, pending_sections  # noqa: E402
from repro.runtime import LoopbackTransport  # noqa: E402

SECTIONS = ("shared", "codecs", "client", "server", "errors")
#: column -> the sections compiled in one piece.
LOADS = (
    ("py before", SECTIONS), ("py after", ("shared", "codecs")),
    ("clo before", ("shared", "client", "server", "errors")),
    ("clo after", ("shared",)),
)


def cells(renderers=("py",)):
    return [Cell(schema, backend, renderer, 1)
            for schema in Cell.SCHEMAS for backend in Cell.BACKENDS
            for renderer in renderers]


def compile_cell(cell):
    return api.compile(cell.text, name=cell.schema, backend=cell.backend,
                       renderer=cell.renderer)


def pieces(stubs):
    """column -> the text ``compile()`` is handed for it."""
    lines = stubs.py_source.split("\n")
    table = {section.name: section for section in stubs.sections}
    assert tuple(table) == SECTIONS, tuple(table)
    texts = {"whole": stubs.py_source}
    for name in SECTIONS:
        texts[name] = excerpt(lines, (table[name],))
    for column, names in LOADS:
        texts[column] = excerpt(lines, [table[name] for name in names])
    return texts


def measure(rounds):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    subjects = {}
    for cell in cells():
        stubs = compile_cell(cell).stubs
        texts = pieces(stubs)
        subjects[cell.schema, cell.backend] = (stubs, texts)
    columns = ("whole",) + SECTIONS + tuple(column for column, _ in LOADS)
    best = {(key, column): float("inf")
            for key in subjects for column in columns}
    for _ in range(rounds):
        for key, (_stubs, texts) in subjects.items():
            for column in columns:
                started = perf_counter()
                compile(texts[column], "<floor>", "exec")
                elapsed = (perf_counter() - started) * 1e3
                best[key, column] = min(best[key, column], elapsed)
    print("%-24s%7s%6s" % ("compile() ms", "bytes", "lines")
          + "".join("%11s" % column for column in columns))
    totals = dict.fromkeys(columns, 0.0)
    for key, (stubs, _texts) in subjects.items():
        row = [best[key, column] for column in columns]
        for column, value in zip(columns, row):
            totals[column] += value
        print("%-24s%7d%6d" % ("%s %s" % key, len(stubs.py_source),
                               stubs.py_source.count("\n"))
              + "".join("%11.2f" % value for value in row))
    print("%-24s%13s" % ("mean of %d" % len(subjects), "")
          + "".join("%11.2f" % (totals[column] / len(subjects))
                    for column in columns))


def check():
    failures = 0
    for cell in cells(("py", "closures")):
        serving = compile_cell(cell).module
        calling = compile_cell(cell).module
        servant = _Capture()
        proxy = next(name for name in dir(calling)
                     if name.endswith("Client"))
        client = getattr(calling, proxy)(
            LoopbackTransport(serving.dispatch, servant))
        getattr(client, cell.method)(*cell.present(calling))
        problems = []
        if servant.got != cell.present(serving):
            problems.append("servant got %r" % (servant.got,))
        if "client" not in pending_sections(serving):
            problems.append("the serving module compiled its client half")
        if "server" not in pending_sections(calling):
            problems.append("the calling module compiled its server half")
        failures += bool(problems)
        print("%-36s serving left %-18s calling left %-18s %s" % (
            cell.name, ",".join(pending_sections(serving)),
            ",".join(pending_sections(calling)),
            "; ".join(problems) or "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--check", action="store_true",
                        help="only verify that a role compiles its own"
                             " half; exit 1 otherwise")
    args = parser.parse_args()
    if args.check:
        return check()
    measure(args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
