"""What decoding an array of records costs, by how each record is built.

    PYTHONPATH=src python scripts/presentation_floor.py [--rounds 30]
    PYTHONPATH=src python scripts/presentation_floor.py --check

The same 4 096 ``Rect``s (two ``Coord``s of two longs each), packed as
the ``put_rects`` request body of ``examples/idl/ledger.idl``, decoded
from one ``struct.iter_unpack`` into:

* ``factory call``: records built by calling their classes,
  ``Rect(Coord(t[0], t[1]), Coord(t[2], t[3]))`` — each ``__init__`` a
  Python frame (what decoders printed before they built records
  themselves);
* ``built inline``: the same records built in the decoder's frame,
  ``_new(Cls)`` and one multi-target store per unpack tuple;
* ``generated``: the ONC decoder ``_u_req_put_rects`` as the compiler
  prints it today (the ``built inline`` shape, with its header read and
  its bounds check);
* ``namedtuple``: ``Coord``/``Rect`` namedtuples built with
  ``tuple.__new__``;
* ``tuples``: nested plain tuples;
* ``flat``: the unpack tuples themselves, ``list(iter_unpack(...))``.

Each row is timed (microseconds, the median of ``--rounds`` interleaved
rounds, on one pinned CPU, each run after a full collection, the
collector on) and counted in executed bytecodes: the
``opcode`` events of a ``sys.settrace`` hook with ``f_trace_opcodes``
over one decode.  Every variant's result is checked equal to the
``factory call`` one first.  The counts depend only on the interpreter
(CPython 3.11.7 here) and this repository's code, not on the host;
``--check`` times nothing, recounts, and exits 1 when a count differs
from :data:`BYTECODES` (2 on another interpreter).
"""

import argparse
import collections
import gc
import os
import pathlib
import statistics
import struct
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from repro import api  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402
from repro.pres.values import record_class  # noqa: E402

COUNT = 4096
PYTHON = (3, 11, 7)

#: Executed bytecodes of one decode of COUNT Rects, per row.
BYTECODES = {
    "factory call": 200724,
    "built inline": 163856,
    "generated": 163902,
    "namedtuple": 126996,
    "tuples": 77844,
    "flat": 14,
}

Coord = record_class("Coord", ("x", "y"))
Rect = record_class("Rect", ("ul", "lr"))
CoordTuple = collections.namedtuple("CoordTuple", "x y")
RectTuple = collections.namedtuple("RectTuple", "ul lr")
_new = object.__new__
_tuple = tuple.__new__
_iter_unpack = struct.iter_unpack


def factory_call(body):
    return [Rect(Coord(t[0], t[1]), Coord(t[2], t[3]))
            for t in _iter_unpack(">iiii", body)]


def built_inline(body):
    rects = []
    for t in _iter_unpack(">iiii", body):
        r1 = _new(Coord)
        r2 = _new(Coord)
        r3 = _new(Rect)
        r1.x, r1.y, r2.x, r2.y = t
        r3.ul = r1
        r3.lr = r2
        rects.append(r3)
    return rects


def namedtuples(body):
    return [_tuple(RectTuple, (_tuple(CoordTuple, (t[0], t[1])),
                               _tuple(CoordTuple, (t[2], t[3]))))
            for t in _iter_unpack(">iiii", body)]


def tuples(body):
    return [((t[0], t[1]), (t[2], t[3])) for t in _iter_unpack(">iiii", body)]


def flat(body):
    return list(_iter_unpack(">iiii", body))


def subjects():
    """``{row: decode()}`` over one message, each checked against the
    ``factory call`` row."""
    with open(ROOT / "examples" / "idl" / "ledger.idl") as handle:
        module = api.compile(handle.read(), "corba",
                             backend="oncrpc-xdr").module
    rects = [module.Ledger_Rect(module.Ledger_Coord(i, -i),
                                module.Ledger_Coord(i * 3, 7))
             for i in range(COUNT)]
    buffer = MarshalBuffer()
    module._m_req_put_rects(buffer, 1, rects)
    message = bytes(buffer.data[:buffer.length])
    offset = len(module._H_req_put_rects)
    body = memoryview(message)[offset + 4:]
    decode = vars(module)["_u_req_put_rects"]
    decode(message, offset)  # the first call compiles it
    decode = vars(module)["_u_req_put_rects"]
    rows = {
        "factory call": lambda: factory_call(body),
        "built inline": lambda: built_inline(body),
        "generated": lambda: decode(message, offset),
        "namedtuple": lambda: namedtuples(body),
        "tuples": lambda: tuples(body),
        "flat": lambda: flat(body),
    }
    expected = [((r.ul.x, r.ul.y), (r.lr.x, r.lr.y)) for r in rects]
    shapes = {
        "factory call": lambda got: [((r.ul.x, r.ul.y), (r.lr.x, r.lr.y))
                                     for r in got],
        "generated": lambda got: [((r.ul.x, r.ul.y), (r.lr.x, r.lr.y))
                                  for r in got[0][0]],
        "flat": lambda got: [((t[0], t[1]), (t[2], t[3])) for t in got],
    }
    shapes["built inline"] = shapes["factory call"]
    shapes["namedtuple"] = shapes["tuples"] = lambda got: [
        tuple(map(tuple, r)) for r in got]
    for name, run in rows.items():
        assert shapes[name](run()) == expected, name
    return rows


def bytecodes(run):
    """The opcode events of one ``run()``."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def times(rows, rounds):
    """Median microseconds of each row over *rounds* interleaved
    rounds."""
    samples = {name: [] for name in rows}
    for _ in range(rounds):
        for name, run in rows.items():
            gc.collect()  # each run starts from the same collector state
            start = time.perf_counter()
            run()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(values) * 1e6
            for name, values in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--check", action="store_true",
                        help="count bytecodes only and exit 1 when a row"
                             " differs from BYTECODES")
    args = parser.parse_args()
    if args.check and sys.version_info[:3] != PYTHON:
        print("the counts are pinned to CPython %s, not %s"
              % (".".join(map(str, PYTHON)), sys.version.split()[0]))
        return 2
    rows = subjects()
    counts = {name: bytecodes(run) for name, run in rows.items()}
    if args.check:
        failures = 0
        for name, count in counts.items():
            ok = count == BYTECODES[name]
            failures += not ok
            print("%-14s %9d bytecodes  %s" % (
                name, count, "ok" if ok else "expected %d" % BYTECODES[name]))
        return 1 if failures else 0
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    timed = times(rows, args.rounds)
    base_time, base_count = timed["factory call"], counts["factory call"]
    print("%d Rects, median of %d rounds" % (COUNT, args.rounds))
    print("%-14s %10s %8s %11s %8s" % ("row", "us", "x", "bytecodes", "x"))
    for name in rows:
        print("%-14s %10.0f %8.2f %11d %8.2f" % (
            name, timed[name], timed[name] / base_time, counts[name],
            counts[name] / base_count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
