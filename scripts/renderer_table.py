"""What deferring every codec to its first call costs and saves.

    PYTHONPATH=src python scripts/renderer_table.py [--rounds 5]

A compile lowers no codec and ``stubs.load()`` compiles none: the first
call of a codec lowers its operation and compiles that function, under
either renderer name (INTERNALS section 10).  This script sets that
against the eager path it replaced — every codec lowered and printed
with the module text (``stubs.py_source``) and compiled with the module,
rebuilt here with ``repro.core.loader.load_stub_module`` over that text
and the scaffold's section table shifted past the codec lines, which
then also compiles the ``_h_*`` handlers with the server section — on
``examples/idl/ledger.idl`` over IIOP (28 codec functions), pinned to
one CPU like the e2e benchmark, lowest of ``--rounds``, in ms:

* ``load``: a compile and the module load;
* ``first call``: ``load`` plus the first call of one codec;
* ``all first calls``: ``load`` plus one call of every codec function —
  what a process that goes on to use the whole interface pays;

then the break-even: how many of the 28 functions a process must call
before the per-function lowerings and compiles cost what the eager path
did.  Last,
the steady state after the first call, in microseconds per call, to show
both loads end up running the same code: ``encode`` is ``_m_req_<op>``
into a reused buffer, ``dispatch`` the generated ``dispatch`` on that
request (decode, a servant that does nothing, reply encode), for
``ping`` and the three 64 KiB Fig. 3 shapes.
"""

import argparse
import gc
import os
import pathlib
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import values  # noqa: E402
from repro import api  # noqa: E402
from repro.backend.base import Section  # noqa: E402
from repro.core.loader import load_stub_module  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402

SCHEMA = (ROOT / "examples" / "idl" / "ledger.idl").read_text()
PAYLOAD = 64 * 1024
SHAPES = ("ints", "rects", "dirents")
#: The codec a ``first call`` calls.
FIRST = "_m_req_put_rects"


class Servant:
    def ping(self, x):
        return x

    def put_ints(self, a):
        pass

    put_rects = put_dirents = put_ints


def compiled():
    return api.compile(SCHEMA, "corba", backend="iiop")


def eager(result):
    """The module as loaded while its codecs were lowered and printed at
    compile and compiled with it: the whole text, the scaffold's section
    table moved past the codec lines, which load with the module."""
    stubs = result.stubs
    text, at = stubs.py_source, stubs.codec_at
    added = text.count("\n") - stubs.scaffold.count("\n")
    sections = [Section(section.name, tuple(
        (start + added, end + added) if start >= at else (start, end)
        for start, end in section.spans), section.names)
        for section in stubs.sections]
    sections.append(Section("codecs", ((at, at + added),)))
    return load_stub_module(text, stubs.module_name, sections)


def deferred(result):
    return result.stubs.load()


LOADS = {"eager": eager, "deferred": deferred}


def lowest(rounds, measure):
    return min(measure() for _ in range(rounds))


def timed(call, *args):
    started = perf_counter()
    call(*args)
    return perf_counter() - started


def call_codecs(load, result, names):
    """Load, then call each of *names* once.  No arguments: the call
    fails in the function's own prologue, after whatever a first call
    does has been done."""
    module = load(result)
    for name in names:
        try:
            vars(module)[name]()
        except TypeError:
            pass


def start_up(load, rounds):
    every = [fn.name for fn in compiled().mir.functions
             if not fn.kind.endswith("_helper")]
    return {
        "load": lowest(rounds, lambda: timed(
            lambda: load(compiled()))),
        "first call": lowest(rounds, lambda: timed(
            lambda: call_codecs(load, compiled(), [FIRST]))),
        "all first calls": lowest(rounds, lambda: timed(
            lambda: call_codecs(load, compiled(), every))),
    }, len(every)


def per_call(call, *args):
    """Microseconds per call over a batch sized to about 50 ms, with the
    cyclic collector off as ``timeit`` has it (a full collection landing
    in one batch and not the other is most of a ``put_rects`` row)."""
    calls = max(1, int(0.05 / max(timed(call, *args), 1e-7)))
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(calls):
            call(*args)
        return (perf_counter() - started) / calls * 1e6
    finally:
        gc.enable()


def steady_state(rounds):
    """``{(op, what): {load: us}}``, the two loads measured in
    alternation so that drift of the host lands on both."""
    modules = {name: load(compiled()) for name, load in LOADS.items()}
    rng = values.seeded(1, "renderer_table")
    cases = [("ping", lambda module: 7)]
    for shape in SHAPES:
        plain = values.plain(shape, PAYLOAD, rng)
        cases.append(("put_" + shape, lambda module, shape=shape,
                      plain=plain: values.present(
                          shape, plain, module, "Ledger_")))
    rows = {}
    servant, request, reply = Servant(), MarshalBuffer(), MarshalBuffer()
    for op, present in cases:
        for _ in range(rounds):
            for name, module in modules.items():
                bound, arg = vars(module), present(module)

                def encode_once():
                    # Looked up per call, as the generated client does.
                    request.reset()
                    bound["_m_req_" + op](request, 1, arg)

                def dispatch_once(frame):
                    reply.reset()
                    module.dispatch(frame, servant, reply)

                encode_once()  # a first call is start-up, not steady state
                frame = request.getvalue()
                dispatch_once(frame)
                for what, us in (("encode", per_call(encode_once)),
                                 ("dispatch", per_call(dispatch_once, frame))):
                    row = rows.setdefault((op, what), {})
                    row[name] = min(us, row.get(name, us))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    rounds = parser.parse_args().rounds
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = {}
    for name, load in LOADS.items():
        start[name], functions = start_up(load, rounds)
    columns = ("load", "first call", "all first calls")
    print("%-10s" % "ms" + "".join("%17s" % key for key in columns))
    for name, row in start.items():
        print("%-10s" % name
              + "".join("%17.2f" % (row[key] * 1e3) for key in columns))
    saved = start["eager"]["load"] - start["deferred"]["load"]
    each = (start["deferred"]["all first calls"]
            - start["deferred"]["load"]) / functions
    print("break-even: %.0f of %d codec functions first-called"
          % (saved / each, functions))
    steady = steady_state(rounds)
    print("%-24s %10s %10s %8s" % ("us per call", "eager", "deferred",
                                   "ratio"))
    for key, row in steady.items():
        print("%-24s %10.2f %10.2f %8.2f" % (
            "%s %s" % key, row["eager"], row["deferred"],
            row["deferred"] / row["eager"]))


if __name__ == "__main__":
    main()
