"""Python and C calls per op, per thread role, for every e2e workload kind.

    PYTHONPATH=src python scripts/call_counts.py           # rewrite it
    PYTHONPATH=src python scripts/call_counts.py --check   # compare only

Each workload of ``benchmarks/e2e`` is prepared and connected in this
process by its own ``Workload`` class (the servers, clients and payloads
of ``benchmarks/e2e/contract.py``), every kind is warmed up, and then
each kind runs alone for ``CALLS`` ops, one at a time, while a
``sys.setprofile`` hook counts the ``call`` and ``c_call`` events of
every thread, by the role the thread plays:

* ``client``: the caller's thread (the one a compile runs on, for
  ``compile_cold``);
* ``server``: a blocking server's connection threads, or an aio
  server's worker threads;
* ``loop``: an aio server's event-loop thread;
* ``gateway``: the gateway's event-loop thread;
* ``upstream``: the blocking ONC server behind the gateway.

Each op is counted on its own, from a moment every thread is idle until
each has had ``SETTLE_S`` to finish its part (the caller's count takes
in that one ``time.sleep``), with the collector off.  Each row is one
integer, keyed by workload, kind and role: the count most of the
``CALLS`` ops (``COLD_CALLS`` compiles) made, so an op whose large
message happened to arrive in one more read does not move it.  The
whole pass runs ``RUNS`` times on freshly built servers; a row that
does not come out the same every time, or has no one most common count,
is left out and named on standard error.  Counts do not depend on the host's speed,
so a change that moves one shows it on any host.

Without ``--check`` the rows go to ``BENCH_calls.json`` at the root of
the repository.  ``--check`` regenerates them and exits 1 on any row
that differs from the committed file (a row missing from either side
included), so a change that moves a count commits the new file.
"""

import argparse
import gc
import json
import pathlib
import sys
import threading
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import workloads  # noqa: E402
from repro.encoding import MarshalBuffer  # noqa: E402

OUT = ROOT / "BENCH_calls.json"
CALLS = 15
#: A cold compile's count is the same every time, and a cell's compile
#: takes longer than a bulk call.
COLD_CALLS = 3
RUNS = 3
WARMUP = 3
SEED = 1
#: How long the threads get to reach their blocking read before and
#: after each counted op.
SETTLE_S = 0.01


class Hook:
    """Counts ``call`` and ``c_call`` events per thread while on."""

    def __init__(self):
        self.on = False
        self.counts = Counter()

    def __call__(self, _frame, event, _arg):
        if self.on and (event == "call" or event == "c_call"):
            self.counts[threading.get_ident()] += 1

    def window(self, run):
        """Per-thread events of one ``run()``, counted until every
        thread has had ``SETTLE_S`` to finish its part of it."""
        time.sleep(SETTLE_S)
        self.counts.clear()
        self.on = True
        run()
        time.sleep(SETTLE_S)
        self.on = False
        return dict(self.counts)


def role_of(workload, thread):
    if thread is threading.main_thread():
        return "client"
    if workload.name == "gateway_bridge":
        return "gateway" if thread is workload.gateway._thread \
            else "upstream"
    return "loop" if thread.name == "flick-aio-server" else "server"


def runner(workload, index):
    """One op of kind *index*, as the workload's driver makes it."""
    call, kind = workload.calls[index], workload.kinds[index]
    if workload.name == "rpc_pipelined":
        buffer = MarshalBuffer()
        return lambda: workload.loop.run_until_complete(
            call(kind.arg, buffer, 1))
    return lambda: call(kind.arg)


def mode(values):
    """The most common of *values*; None when two tie for it."""
    (value, top), *rest = Counter(values).most_common(2) + [(None, 0)]
    return None if rest[0][1] == top else value


def count_workload(name, hook):
    """``{kind: {role: calls per op}}`` for workload *name*."""
    workload = workloads.WORKLOADS[name]()
    workload.prepare(SEED)
    threading.setprofile(hook)
    workload.connect()
    calls = COLD_CALLS if name == "compile_cold" else CALLS
    rows = {}
    try:
        for index, kind in enumerate(workload.kinds):
            run = runner(workload, index)
            for _ in range(WARMUP):
                run()
            per_op = []  # one Counter of role -> events per op
            gc.collect()
            gc.disable()
            for _ in range(calls):
                counts = hook.window(run)
                threads = {thread.ident: thread
                           for thread in threading.enumerate()}
                roles = Counter()
                for ident, events in counts.items():
                    roles[role_of(workload, threads[ident])] += events
                per_op.append(roles)
            gc.enable()
            rows[kind.name] = {
                role: mode([roles[role] for roles in per_op])
                for role in sorted(set().union(*per_op))}
            for servant in (getattr(workload, "servant", None),
                            *getattr(workload, "servants", {}).values()):
                if servant is not None:
                    servant.received.clear()
    finally:
        threading.setprofile(None)
        workload.disconnect()
        workload.close()
    return rows


def measure():
    """The rows that repeat over ``RUNS`` passes, and the dropped keys."""
    hook = Hook()
    sys.setprofile(hook)
    try:
        passes = [{name: count_workload(name, hook)
                   for name in workloads.WORKLOADS} for _ in range(RUNS)]
    finally:
        sys.setprofile(None)
    rows, dropped = {}, []
    for name, kinds in passes[0].items():
        for kind, roles in kinds.items():
            for role, count in roles.items():
                if count is not None and all(
                        other[name].get(kind, {}).get(role) == count
                        for other in passes[1:]):
                    rows.setdefault(name, {}).setdefault(kind, {})[role] = \
                        count
                else:
                    dropped.append("%s %s %s: %s" % (
                        name, kind, role,
                        [other[name].get(kind, {}).get(role)
                         for other in passes]))
    return rows, dropped


def flatten(rows):
    return {(name, kind, role): count
            for name, kinds in rows.items()
            for kind, roles in kinds.items()
            for role, count in roles.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file, write "
                        "nothing; exit 1 on any difference")
    options = parser.parse_args()
    rows, dropped = measure()
    for key in dropped:
        print("dropped (not the same over %d runs): %s" % (RUNS, key),
              file=sys.stderr)
    if not options.check:
        OUT.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print("wrote %d rows to %s" % (len(flatten(rows)), OUT.name))
        return 0
    fresh, committed = flatten(rows), flatten(json.loads(OUT.read_text()))
    moved = sorted(key for key in fresh.keys() | committed.keys()
                   if fresh.get(key) != committed.get(key))
    for key in moved:
        print("%s: committed %s, now %s" % (
            " ".join(key), committed.get(key), fresh.get(key)))
    print("%d rows, %d differ from %s" % (len(fresh), len(moved), OUT.name))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
