"""What one e2e set-up leaves for the cyclic collector.

    PYTHONPATH=src python scripts/setup_garbage.py [--workload rpc_bulk_get]

Runs one set-up of the workload (prepare, connect, the fully verified
warm-up) and its tear-down to warm the process, then a second one with
the collector off, and prints what ``gc.collect()`` then finds
unreachable: the object count, the bytes ``tracemalloc`` sees freed,
the commonest types, and the source lines that allocated the most of it.
With the collector off in between, the counts do not depend on the host
or on when a collection would have run.

Garbage is what a set-up's modules, servers and payloads leave in
reference cycles instead of freeing when dropped.  ``peak_rss_mb`` reads
the high-water mark over five set-ups and a run, so what the collector
has not reclaimed yet when the next set-up allocates is what moves it.
"""

import argparse
import collections
import gc
import pathlib
import sys
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import workloads  # noqa: E402


def set_up_and_tear_down(cls):
    workload = cls()
    workload.prepare(1)
    workload.connect()
    workload.drive(workload.warmup_sequence(1), 100, full_every=1,
                   yardstick=False)
    workload.disconnect()
    workload.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="rpc_bulk_get",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--lines", type=int, default=8)
    args = parser.parse_args()
    cls = workloads.WORKLOADS[args.workload]
    set_up_and_tear_down(cls)
    gc.collect()
    tracemalloc.start(1)
    gc.disable()
    try:
        set_up_and_tear_down(cls)
        before = tracemalloc.take_snapshot()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        gc.set_debug(0)
        kinds = collections.Counter(type(o).__name__ for o in gc.garbage)
        gc.garbage.clear()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        gc.enable()
    # The snapshots' own bookkeeping is not the program's.
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    freed = before.filter_traces(own).compare_to(after.filter_traces(own),
                                                 "lineno")
    print("%s: one set-up left %d unreachable objects, %d KiB freed by"
          " collecting them" % (args.workload, found,
                                sum(stat.size_diff for stat in freed)
                                // 1024))
    print("commonest types:", ", ".join(
        "%s %d" % pair for pair in kinds.most_common(8)))
    for stat in freed[:args.lines]:
        frame = stat.traceback[0]
        print("%8.1f KiB %6d objects  %s:%d" % (
            stat.size_diff / 1024, stat.count_diff,
            pathlib.Path(frame.filename).name, frame.lineno))


if __name__ == "__main__":
    main()
