"""The two renderer names side by side: start-up cost and steady state.

    PYTHONPATH=src python scripts/renderer_table.py [--rounds 5]

``py`` and ``closures`` run the same rendered text and differ in when a
codec function is compiled (INTERNALS section 10).  On
``examples/idl/ledger.idl`` over IIOP, pinned to one CPU like the e2e
benchmark, lowest of ``--rounds``, this prints per renderer:

* ``load``: ``stubs.load()`` of a fresh compile, in ms;
* ``install``: ``install_closures`` over the loaded module (the e2e
  row ``mir.closures_install_us``), in ms;
* ``all first calls``: ``load`` plus one call of every codec function —
  what a process that goes on to use the whole interface pays, in ms;
* steady state, after the first call, in microseconds per call:
  ``encode`` is ``_m_req_<op>`` into a reused buffer, ``dispatch`` is
  the generated ``dispatch`` on that request (decode, a servant that
  does nothing, reply encode), for ``ping`` and the three 64 KiB Fig. 3
  shapes.

EXPERIMENTS.md records the table for the commit that made ``closures``
first-call compilation and for its parent (the script runs on both).
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
from repro.encoding import MarshalBuffer  # noqa: E402
from repro.mir.render_closures import install_closures  # noqa: E402

SCHEMA = (ROOT / "examples" / "idl" / "ledger.idl").read_text()
PAYLOAD = 64 * 1024
SHAPES = ("ints", "rects", "dirents")


class Servant:
    def ping(self, x):
        return x

    def put_ints(self, a):
        pass

    put_rects = put_dirents = put_ints


def compiled(renderer):
    return api.compile(SCHEMA, "corba", backend="iiop", renderer=renderer)


def lowest(rounds, measure):
    return min(measure() for _ in range(rounds))


def timed(call, *args):
    started = perf_counter()
    call(*args)
    return perf_counter() - started


def call_every_codec(result):
    """Load, then call each codec function once.  No arguments: the
    call fails in the function's own prologue, after whatever the
    renderer does at a first call has been done."""
    module = result.module
    for fn in result.mir.functions:
        try:
            vars(module)[fn.name]()
        except TypeError:
            pass


def start_up(renderer, rounds):
    row = {"load": lowest(
        rounds, lambda: timed(compiled(renderer).stubs.load))}
    result = compiled(renderer)
    row["install"] = lowest(rounds, lambda: timed(
        install_closures, result.module, result.mir))
    row["all first calls"] = lowest(
        rounds, lambda: timed(call_every_codec, compiled(renderer)))
    return row


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
    """``{(op, what): {renderer: us}}``, the renderers measured in
    alternation so that drift of the host lands on both."""
    modules = {name: compiled(name).module for name in ("py", "closures")}
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
    start = {name: start_up(name, rounds) for name in ("py", "closures")}
    steady = steady_state(rounds)
    print("%-24s %10s %10s %8s" % ("", "py", "closures", "clo/py"))
    for key in ("load", "install", "all first calls"):
        py, clo = start["py"][key] * 1e3, start["closures"][key] * 1e3
        print("%-24s %8.2fms %8.2fms %8.2f" % (key, py, clo, clo / py))
    for key, row in steady.items():
        py, clo = row["py"], row["closures"]
        print("%-24s %8.2fus %8.2fus %8.2f"
              % ("%s %s" % key, py, clo, clo / py))


if __name__ == "__main__":
    main()
