"""What CPython's ``compile()`` costs a stub module, section by section.

    PYTHONPATH=src python scripts/compile_floor.py [--rounds 9]
    PYTHONPATH=src python scripts/compile_floor.py --check

For every schema under ``benchmarks/e2e/schemas`` x back end (the cells
of the benchmark's ``compile_cold``) the module text is cut the way a
load cuts it: the scaffold (``stubs.scaffold``, the text without its
codec functions) along its section table (``stubs.sections``), other
lines blanked as ``repro.core.loader`` blanks them, so each piece
compiles at its own line numbers; and the codec functions
(``render_py.render_program`` of ``stubs.mir``) in one piece.
``compile()`` of each piece is timed on one pinned CPU, rounds in
alternation, the lowest printed, in milliseconds:

* ``whole``: ``py_source`` in one piece — what a module written to disk
  and imported costs;
* ``shared`` ``codecs`` ``client`` ``server`` ``errors``: each piece
  alone, ``server`` as its load compiles it — without the ``_h_*``
  handlers, which compile one at a time at their first call;
* ``handlers``: the ``_h_*`` defs in one piece — what the ``server``
  section compiled with it before they were deferred (the columns' sum
  exceeds ``whole`` by the per-``compile()`` overhead);
* ``eager``: ``shared`` + ``codecs`` in one piece — what ``stubs.load()``
  compiled while a module's codecs compiled with it;
* ``at load``: what ``stubs.load()`` compiles under either renderer
  name — ``shared`` alone.  Each codec function compiles at its first
  call, and the rest at the first ``module.<name>`` of the role that
  needs it.

``--check`` times nothing.  For every cell under both renderer names it
runs the cell's reference call from a proxy of one module object to the
``dispatch`` of another, and exits non-zero if the serving module
compiled its client section or the calling module its server section,
if either load compiled a codec function or a handler, if the server
section's own load compiled a handler, if the call compiled a codec
function or handler it did not run or ran one it did not compile, or if
the answer is wrong; a load that compiles an IIOP module's
``_u_system_exception`` (imported from ``repro.backend.stubrt``, one
per byte order and process) fails the same way.  It counts lowerings too (calls of
``repro.mir.build.build_operation``, one per operation lowered), and
exits non-zero if a compile or a load lowered an operation, if the
call lowered anything but its own operation once in each module, if
eight threads making the first calls of the operation's ``_m_req`` and
``_u_rep`` entries on a fresh module lowered it other than once, or if
``py_source`` and ``mir`` read after the first calls differ from a
fresh compile's.  It reads what a load's one ``compile()`` made, and
exits non-zero if it holds a class body or an ``__init__`` (records and
exceptions come from the class factory of ``repro.pres.values``, the
preamble's names from ``repro.backend.stubrt``), or if the second load
of a cell — same arities — compiled a factory template.  What a
process compiles and lowers does not depend on the host.
"""

import argparse
import inspect
import os
import pathlib
import sys
import threading
import types
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.workloads import Cell, _Capture  # noqa: E402
from repro import api  # noqa: E402
from repro.backend.base import Section  # noqa: E402
from repro.backend.pywriter import PyWriter  # noqa: E402
from repro.core import loader  # noqa: E402
from repro.core.loader import excerpt, pending_sections  # noqa: E402
from repro.mir import build, render_closures, render_py  # noqa: E402
from repro.mir.dump import dump_program  # noqa: E402
from repro.pres import values  # noqa: E402
from repro.runtime import LoopbackTransport  # noqa: E402

ROLES = ("client", "server", "errors")
SECTIONS = ("shared", "codecs") + ROLES
#: column -> the sections compiled in one piece.
LOADS = (("eager", ("shared", "codecs")), ("at load", ("shared",)))


def cells(renderers=("py",)):
    return [Cell(schema, backend, renderer, 1)
            for schema in Cell.SCHEMAS for backend in Cell.BACKENDS
            for renderer in renderers]


def compile_cell(cell):
    return api.compile(cell.text, name=cell.schema, backend=cell.backend,
                       renderer=cell.renderer)


def pieces(stubs):
    """column -> the text ``compile()`` is handed for it."""
    lines = stubs.scaffold.split("\n")
    table = {section.name: section for section in stubs.sections}
    assert tuple(table) == ("shared",) + ROLES, tuple(table)
    w = PyWriter()
    render_py.render_program(w, stubs.mir)
    texts = {"whole": stubs.py_source, "codecs": w.getvalue()}
    for name in table:
        texts[name] = excerpt(lines, (table[name],), False)
    texts["handlers"] = excerpt(lines, [Section("handlers", tuple(
        (first, first + text.count("\n") + 1)
        for _name, first, text in table["server"].functions))])
    for column, names in LOADS:
        texts[column] = "".join(texts[name] for name in names)
    return texts


def measure(rounds):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    subjects = {}
    for cell in cells():
        stubs = compile_cell(cell).stubs
        texts = pieces(stubs)
        subjects[cell.schema, cell.backend] = (stubs, texts)
    columns = ("whole",) + SECTIONS + ("handlers",) + tuple(
        column for column, _ in LOADS)
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


class Compiles:
    """Every ``compile()`` of stub text — the loader's pieces and the
    first calls of codec functions and handlers — as ``(file name,
    functions)``."""

    def __init__(self):
        self.seen = []
        #: ``(file name, [class bodies and __init__s])`` of every compile.
        self.bodies = []
        #: The class factory's template compiles, by text.
        self.templates = []
        for module in (loader, render_closures):
            module.compile = self.spy
        values.compile = self.spy_template

    def spy(self, source, filename, mode):
        code = compile(source, filename, mode)
        self.seen.append((filename, {
            const.co_name for const in code.co_consts
            if isinstance(const, types.CodeType)}))
        self.bodies.append((filename, class_code(code)))
        return code

    def spy_template(self, source, filename, mode, **options):
        self.templates.append(source)
        return compile(source, filename, mode, **options)

    def loaded(self, modules):
        """The class bodies and ``__init__``s the loads of *modules*
        compiled: what the one ``compile()`` of each module's own file
        holds."""
        files = {module.__file__ for module in modules}
        return sorted(name for filename, names in self.bodies
                      if filename in files for name in names)

    def functions(self, modules, names):
        """``{(module, function)}`` among *names* compiled for one of
        *modules*."""
        return {(owner, name) for filename, defined in self.seen
                for owner in [owner_of(filename, modules)] if owner
                for name in defined & names}


def class_code(code):
    """The names of the class bodies and ``__init__`` functions among
    *code*'s constants, at any depth (a class body is the one nested
    code object that is not a function's)."""
    found = []
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_name == "__init__" \
                    or not const.co_flags & inspect.CO_OPTIMIZED:
                found.append(const.co_qualname)
            found += class_code(const)
    return found


def owner_of(filename, modules):
    """The name of the module of *modules* that code compiled under
    *filename* belongs to: its own text, or a text registered for it
    (``<module.function_N>``); else None."""
    for module in modules:
        if filename == module.__file__ \
                or filename.startswith("<%s." % module.__name__):
            return module.__name__
    return None


def ran(modules, names, call):
    """``{(module, function)}`` among *names* that ``call()`` entered."""
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in names:
            owner = owner_of(code.co_filename, modules)
            if owner:
                entered.add((owner, code.co_name))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return entered


class Lowerings:
    """Every operation lowered to marshal IR, by name, in order: a spy
    on the one per-operation lowering."""

    def __init__(self):
        self.seen = []
        real = build.build_operation

        def spy(backend, presc, stub, *rest):
            self.seen.append(stub.operation_name)
            return real(backend, presc, stub, *rest)

        build.build_operation = spy


def race(module, names, threads=8):
    """*threads* threads make the first call of *names* at once, each
    without arguments (a call fails in the function's own prologue,
    after its entry has lowered and compiled it)."""
    barrier = threading.Barrier(threads)

    def first_call(name):
        barrier.wait(timeout=30)
        try:
            vars(module)[name]()
        except TypeError:
            pass

    workers = [threading.Thread(target=first_call,
                                args=(names[index % len(names)],))
               for index in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def check():
    compiles = Compiles()
    lowerings = Lowerings()
    failures = 0
    for cell in cells(("py", "closures")):
        fresh = compile_cell(cell)
        codecs = {fn.name for fn in fresh.mir.functions}
        del compiles.seen[:], compiles.bodies[:], lowerings.seen[:]
        result = compile_cell(cell)
        serving = result.module
        mark = len(compiles.templates)
        calling = compile_cell(cell).module
        again = compiles.templates[mark:]
        at_compile = list(lowerings.seen)
        modules = (serving, calling)
        bodies = compiles.loaded(modules)
        (server,) = [section for section in result.stubs.sections
                     if section.name == "server"]
        # Read off the names the section binds, not its ``functions``:
        # a tree whose handlers compile with the section lists none.
        handlers = {name for name in server.names if name.startswith("_h_")}
        # The GIOP system-exception decoder is imported, compiled once
        # per process: a load that compiles it fails like one that
        # compiles a codec.
        names = codecs | handlers | {"_u_system_exception"}
        at_load = compiles.functions(modules, names)
        del compiles.seen[:]
        dispatch = serving.dispatch  # loads the server section
        with_section = compiles.functions(modules, handlers)
        servant = _Capture()
        proxy = next(name for name in dir(calling)
                     if name.endswith("Client"))
        client = getattr(calling, proxy)(LoopbackTransport(dispatch, servant))
        del compiles.seen[:], lowerings.seen[:]
        reached = ran(modules, names, lambda: getattr(client, cell.method)(
            *cell.present(calling)))
        by_call = compiles.functions(modules, names)
        on_call = list(lowerings.seen)
        del lowerings.seen[:]
        race(compile_cell(cell).module, ["_m_req_" + cell.method,
                                         "_u_rep_" + cell.method])
        raced = list(lowerings.seen)
        problems = []
        if servant.got != cell.present(serving):
            problems.append("servant got %r" % (servant.got,))
        if "client" not in pending_sections(serving):
            problems.append("the serving module compiled its client half")
        if "server" not in pending_sections(calling):
            problems.append("the calling module compiled its server half")
        if at_load:
            problems.append("the loads compiled %s" % sorted(
                name for _file, name in at_load))
        if bodies:
            problems.append("the loads compiled class code %s" % bodies)
        if again:
            problems.append("the second load compiled %d templates"
                            % len(again))
        if with_section:
            problems.append("the server section compiled %s" % sorted(
                name for _file, name in with_section))
        if by_call != reached:
            problems.append("the call compiled %s and ran %s" % (
                sorted(name for _file, name in by_call),
                sorted(name for _file, name in reached)))
        if at_compile:
            problems.append("the compiles and loads lowered %s" % at_compile)
        if on_call != [cell.method] * 2:
            problems.append("the call lowered %s" % on_call)
        if raced != [cell.method]:
            problems.append("the racing first calls lowered %s" % raced)
        if (result.stubs.py_source != fresh.stubs.py_source
                or dump_program(result.mir) != dump_program(fresh.mir)):
            problems.append("py_source or mir differ from a fresh compile's")
        failures += bool(problems)
        print("%-36s serving left %-13s calling left %-13s compiled at load"
              " %d (class code %d, templates again %d), with the server"
              " section %d, by the call %d of %d;"
              " lowered by the call %d of %d, by the race %d  %s" % (
                  cell.name, ",".join(pending_sections(serving)),
                  ",".join(pending_sections(calling)), len(at_load),
                  len(bodies), len(again),
                  len(with_section), len(by_call),
                  2 * len(codecs) + len(handlers), len(on_call),
                  2 * len(fresh.stubs.metadata["operations"]),
                  len(raced), "; ".join(problems) or "ok"))
    templates = compiles.templates
    print("class factory templates compiled over the run: %d, %d distinct"
          % (len(templates), len(set(templates))))
    if len(set(templates)) < len(templates):
        failures += 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--check", action="store_true",
                        help="only verify that a role compiles its own"
                             " half, a call the codecs and the handler it"
                             " runs and a load no operation's IR and no"
                             " class code; exit 1 otherwise")
    args = parser.parse_args()
    if args.check:
        return check()
    measure(args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
