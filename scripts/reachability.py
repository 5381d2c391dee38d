"""Which functions under src/repro run, and who calls them.

    PYTHONPATH=src python scripts/reachability.py

Records every (caller, callee) edge into src/repro with ``sys.setprofile``
/ ``threading.setprofile`` while tier-1, the examples, the scripts,
``python -m benchmarks.e2e --smoke`` and the CLI lines CI runs execute,
subprocesses included (a temporary ``sitecustomize`` on ``PYTHONPATH``
arms the recorder in every Python process).  Then prints, per file, the
functions that never ran and those whose only direct callers are under
tests/.  "Never ran" is not "dead": a caller on a path no driver takes
keeps a function alive.
"""

import ast
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, TESTS = os.path.join(ROOT, "src", "repro"), os.path.join(ROOT, "tests")

#: Armed in every process; a profile hook that raises, or that hits the
#: recursion limit as it is called, is dropped silently, hence re-arm.
HOOK = '''import atexit, json, os, sys, threading
EDGES = set()
def _hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(%(src)r):
        back = frame.f_back
        EDGES.add((back.f_code.co_filename if back else "",
                   frame.f_code.co_filename, frame.f_code.co_firstlineno))
def arm():
    sys.setprofile(_hook)
    threading.setprofile(_hook)
def _dump():
    with open(os.path.join(%(out)r, "edges.%%d" %% os.getpid()), "w") as f:
        json.dump(sorted(EDGES), f)
arm()
atexit.register(_dump)
'''
PLUGIN = ("import sitecustomize\n"
          "def pytest_runtest_setup(item):\n    sitecustomize.arm()\n")
#: The CLI lines ci.yml runs besides the lint / identity-diff loops.
CLI_LINES = """diff examples/idl/mail.idl examples/idl/mail_v2.idl
diff examples/idl/mail.idl examples/pyschema_mail.py
compile examples/pyschema_mail.py -o {out}/stubs
bridge examples/idl/sensor.idl
bridge examples/idl/sensor_v2.idl examples/idl/sensor.idl
gateway examples/idl/sensor_v2.idl --upstream-idl examples/idl/sensor.idl \
--listen iiop:127.0.0.1:0 --upstream onc:127.0.0.1:9999 --check
ir examples/idl/ledger.idl --op put_rects
ir examples/idl/mail.idl --op send --disable-pass inline_marshal
serve examples/idl/mail.idl --impl mail_servant:MailServant \
--metrics-port 0 --duration 3"""


def drivers(out):
    py, cli = sys.executable, [sys.executable, "-m", "repro.tools.cli"]
    runs = [[py, "-m", "pytest", "-x", "-q", "-p", "reachability_plugin"]]
    runs += [[py, path] for path in sorted(glob.glob("examples/*.py"))]
    for path in sorted(glob.glob("scripts/*.py")):
        if path == "scripts/reachability.py":
            continue
        with open(path) as handle:
            text = handle.read()
        runs.append([py, path] + (["--rounds", "1"] if "--rounds" in text
                                  else []))
        if "--check" in text:
            runs.append([py, path, "--check"])
    runs += [[py, "-m", "benchmarks.e2e", "--smoke"],
             [py, "tests/gateway_smoke.py"]]
    for path in sorted(glob.glob("examples/idl/*")):
        runs += [cli + ["lint", path], cli + ["diff", path, path]]
    runs += [cli + line.format(out=out).split()
             for line in CLI_LINES.splitlines()]
    return runs


def functions(node, prefix=""):
    """``(qualified name, first line, last line)`` of every def."""
    for child in ast.iter_child_nodes(node):
        scope = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            yield prefix + child.name, first, child.end_lineno
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            scope = prefix + child.name + "."
        yield from functions(child, scope)


def record(out):
    """Run every driver under the recorder; ``{(file, line): callers}``."""
    with open(os.path.join(out, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK % {"src": SRC + os.sep, "out": out})
    with open(os.path.join(out, "reachability_plugin.py"), "w") as handle:
        handle.write(PLUGIN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [out, os.path.join(ROOT, "src"), os.path.join(ROOT, "examples")]))
    for argv in drivers(out):
        code = subprocess.call(argv, cwd=ROOT, env=env,
                               stdout=subprocess.DEVNULL)
        print("ran (exit %d): %s" % (code, " ".join(argv[1:])),
              file=sys.stderr)
    callers = {}
    for path in glob.glob(os.path.join(out, "edges.*")):
        with open(path) as handle:
            for caller, callee, line in json.load(handle):
                callers.setdefault((callee, line), set()).add(caller)
    return callers


def main():
    os.chdir(ROOT)  # the drivers name their files from the root
    with tempfile.TemporaryDirectory(prefix="flick-reachability-") as out:
        callers = record(out)
    totals = {"never ran": [0, 0], "tests only": [0, 0]}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        found = {"never ran": [], "tests only": []}
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for name, first, last in functions(tree):
            seen = callers.get((path, first))
            kind = "never ran" if not seen else "tests only" if all(
                caller.startswith(TESTS + os.sep) for caller in seen) \
                else None
            if kind:
                found[kind].append("%s:%d" % (name, first))
                totals[kind][0] += 1
                totals[kind][1] += last - first + 1
        for kind, names in found.items():
            if names:
                print("%s  %s: %s" % (os.path.relpath(path, ROOT), kind,
                                      ", ".join(names)))
    for kind, (count, lines) in totals.items():
        print("%s: %d functions, %d lines" % (kind, count, lines))


if __name__ == "__main__":
    main()
