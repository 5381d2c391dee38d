"""Run one workload in this process and print its metrics.

    python3 benchmarks/e2e/run.py --workload rpc_small --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` runs a shorter untraced reference and then the traced pass
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
One process is one workload, so ``peak_rss_mb`` and ``sys.modules`` are
the workload's own; :mod:`benchmarks.e2e.__main__` runs all six.
"""

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    import repro  # noqa: F401  (the system under test, built from source)
except ImportError as error:
    sys.exit("benchmarks/e2e needs the repro package under %s: %s"
             % (ROOT / "src", error))

from repro.encoding.buffer import buffer_counters  # noqa: E402

from benchmarks.e2e import tracing, workloads  # noqa: E402
from benchmarks.e2e.spec import load_spec, spread  # noqa: E402
from benchmarks.e2e.twin import CompileTwin  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Compile-twin ops run before and after each set-up (its yardstick).
SETUP_TWIN_OPS = 3

#: Ops past this multiple of ``--seconds`` count as failed.
TIMEOUT_FACTOR = 4

#: Share of the measured sequence the traced run's untraced reference
#: executes.
REFERENCE_SHARE = 0.4

#: A workload whose segment rates spread wider than this is flagged.
NOISY_SPREAD = 0.10


def pin_to_one_cpu():
    """Run every thread of this process on one CPU.

    On a small shared VM the scheduler moves the caller and the server
    thread between sharing a core and sitting on two; a cross-vCPU
    wake-up there costs several times the call itself, so an unpinned
    run measures where the scheduler put the threads (observed: 35 k
    ops/s collapsing to 8 k ops/s mid-run on ``rpc_small``).  The code
    under test is GIL-bound, so one CPU loses it nothing.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb():
    """This process's peak resident set, MB.

    Read from ``VmHWM``, which starts afresh at ``exec``; ``ru_maxrss``
    does not (a child reports at least its parent's size at ``fork``, so
    the launcher's memory would be measured instead of the workload's).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(ordered, fraction):
    """The value *fraction* of the way through *ordered* (nearest rank)."""
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(fraction * len(ordered)) - 1))]


def host_factor(twin_ns, twin_ops, reference_us):
    """How slow the host was: the twin's mean op time over its frozen
    reference (1.0 on the seed host when it was quiet)."""
    return twin_ns / 1e3 / twin_ops / reference_us


def segment_rows(measured, reference_us):
    """Per segment: ops, the host factor, and wall seconds, CPU seconds
    and the per-op wall median with the factor divided out (raw values
    alongside)."""
    rows, begin = [], 0
    for end, wall_s, cpu_s, twin_ns, twin_ops in measured.segments:
        ordered = sorted(measured.wall_ns[begin:end])
        begin = end
        if not ordered or wall_s <= 0 or not twin_ops:
            continue
        factor = host_factor(twin_ns, twin_ops, reference_us)
        p50_us = percentile(ordered, 0.50) / 1e3
        rows.append({
            "ops": len(ordered),
            "host_factor": factor,
            "wall_s": wall_s / factor,
            "cpu_s": cpu_s / factor,
            "op_p50_us": p50_us / factor,
            "raw": {"wall_s": wall_s, "cpu_s": cpu_s, "op_p50_us": p50_us},
        })
    return rows


def median_of(rows, name):
    return statistics.median(row[name] for row in rows) if rows else 0.0


def total_of(rows, name):
    return sum(row[name] for row in rows)


def set_up(cls, seed, budget_s, yardstick):
    """prepare + connect + fully verified warm-up.

    Returns the workload, the warm-up's outcome, the seconds it took and
    the host factor from *yardstick* run just before and just after.
    """
    twin_ns = yardstick.run(SETUP_TWIN_OPS)
    started = perf_counter()
    workload = cls()
    workload.prepare(seed)
    workload.connect()
    warm = workload.drive(workload.warmup_sequence(seed), budget_s,
                          full_every=1, yardstick=False)
    took = perf_counter() - started
    twin_ns += yardstick.run(SETUP_TWIN_OPS)
    factor = host_factor(twin_ns, 2 * SETUP_TWIN_OPS,
                         workloads.CompileCold.twin_reference_us)
    return workload, warm, took, factor


def tear_down(workload):
    workload.disconnect()
    workload.close()


def run_measured(cls, seed, seconds):
    """The end-to-end metrics, tracing off."""
    budget_s = TIMEOUT_FACTOR * seconds
    yardstick = CompileTwin()
    setups, attempted, failed = [], 0, 0
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            tear_down(workload)
        workload, warm, took, factor = set_up(cls, seed, budget_s,
                                              yardstick)
        setups.append({"setup_s": took / factor, "host_factor": factor,
                       "raw": took})
        attempted += warm.attempted
        failed += warm.failed
    sequence = workload.sequence(
        seed, cls.ops_per_second * seconds, "measured")
    gc.collect()
    measured = workload.drive(sequence, budget_s)
    tear_down(workload)
    attempted += measured.attempted
    failed += measured.failed
    rows = segment_rows(measured, cls.twin_reference_us)
    ops = max(1, total_of(rows, "ops"))
    metrics = {
        "setup_s": median_of(setups, "setup_s"),
        # Rate and CPU are totals over the segments, so costs that fall
        # on some segments only (a full garbage collection) all count;
        # the per-op median is the median segment's.
        "ops_per_s": ops / total_of(rows, "wall_s") if rows else 0.0,
        "op_p50_us": median_of(rows, "op_p50_us"),
        "cpu_us_per_op": total_of(rows, "cpu_s") * 1e6 / ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    rates = [row["ops"] / row["wall_s"] for row in rows]
    detail = {
        "samples": len(measured.wall_ns),
        "measured_s": measured.wall_s(),
        "host_factor": median_of(rows, "host_factor"),
        "segment_spread": spread(rates),
        "noisy": spread(rates) > NOISY_SPREAD,
        "setups": setups,
        "segments": rows,
    }
    return metrics, attempted, failed, detail


#: Compile-path layers that, on a call-path workload, describe what
#: set-up compiled (and so take set-up's host factor).
SETUP_LAYERS = ("frontends.parse", "frontends.aoi", "pgen.present",
                "backend.emit", "core.load")


def run_traced(cls, seed, seconds):
    """The per-layer metrics: untraced reference, then the traced pass."""
    budget_s = TIMEOUT_FACTOR * seconds
    workload, warm, _took, setup_factor = set_up(
        cls, seed, budget_s, CompileTwin())
    attempted, failed = warm.attempted, warm.failed

    reference_sequence = workload.sequence(
        seed, cls.ops_per_second * seconds * REFERENCE_SHARE, "reference")
    gc.collect()
    buffers_before = buffer_counters()
    reference = workload.drive_reference(reference_sequence, budget_s)
    buffers_after = buffer_counters()
    workload.disconnect()
    attempted += reference.attempted
    failed += reference.failed
    reference_factor = reference.twin_us() / cls.twin_reference_us

    tracer = tracing.Tracer()
    workload.connect(tracer)
    traced_sequence = workload.sequence(
        seed, cls.traced_ops_per_second * seconds, "traced")
    traced = workload.drive_traced(tracer, traced_sequence)
    tracer.restore()
    attempted += traced.attempted
    failed += traced.failed
    traced_factor = traced.twin_us() / cls.twin_reference_us
    extra = workload.extra_metrics()
    for key, result in workload.results.items():
        # What set-up compiled, as one more traced "op" per schema.
        tracer.op_id += 1
        workloads.phase_spans(tracer, result, 0)
        tracer.add("core.load", 0, workload.load_ns[key])
        workloads.compile_replica(tracer, result)
    counts = workload.compile_counts()
    from_setup = SETUP_LAYERS if workload.results else ()
    tear_down(workload)

    ops = tracer.per_op()
    layers = {}
    for per_op in ops.values():
        for name, self_ns in per_op.items():
            layers.setdefault(name, []).append(self_ns)
    metrics = {
        name + "_us": statistics.median(samples) / 1e3 / (
            setup_factor if name in from_setup else traced_factor)
        for name, samples in layers.items()
    }
    hops = [
        per_op["gateway.call"] - per_op["gateway.upstream_call"]
        - per_op["gateway.envelope"] - per_op["gateway.transcode_request"]
        - per_op["gateway.translate_reply"]
        for per_op in ops.values() if "gateway.upstream_call" in per_op
    ]
    if hops:
        metrics["gateway.hop_overhead_us"] = (
            statistics.median(hops) / 1e3 / traced_factor)

    completed = max(1, len(reference.wall_ns))
    metrics["encoding.buffer_allocs"] = (
        buffers_after["allocations"] - buffers_before["allocations"]
    ) / completed
    metrics["encoding.buffer_grows"] = (
        buffers_after["grows"] - buffers_before["grows"]) / completed
    traced_ops = max(1, len(traced.sequence) - traced.failed)
    metrics["wire.request_bytes"] = workload.wire_bytes[0] / traced_ops
    metrics["wire.reply_bytes"] = workload.wire_bytes[1] / traced_ops
    for shape, samples in reference.by_shape().items():
        metrics["shape.%s_p50_us" % shape] = (
            statistics.median(samples) / 1e3 / reference_factor)

    # Ledger health.  Unattributed: the share of a traced call's wall
    # that no named layer claims (the root span's self time), within the
    # traced pass, so the host's noise cancels.  Overhead: what watching
    # cost, each pass with its own host factor divided out.
    traced_ops = [per_op for per_op in ops.values() if "total" in per_op]
    if traced_ops:
        metrics["trace.unattributed_share"] = statistics.median(
            per_op[tracing.OP] / per_op["total"] for per_op in traced_ops)
    ordered = sorted(reference.wall_ns)
    if ordered and traced_ops:
        traced_mean = statistics.fmean(
            per_op["total"] for per_op in traced_ops)
        metrics["trace.overhead_share"] = 1.0 - (
            statistics.fmean(ordered) / reference_factor
        ) / (traced_mean / traced_factor)
        metrics["e2e.op_p50_us"] = (
            percentile(ordered, 0.50) / 1e3 / reference_factor)
        metrics["e2e.op_p95_us"] = (
            percentile(ordered, 0.95) / 1e3 / reference_factor)
    metrics["e2e.samples"] = len(ordered)
    metrics["e2e.failed_share"] = failed / max(1, attempted)
    metrics["host.factor"] = traced_factor
    metrics.update(counts)
    metrics.update(extra)
    return metrics, attempted, failed, tracer


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with its"
                        " per-segment detail, to this JSON file")
    parser.add_argument("--spans", help="write the traced pass's spans"
                        " to this JSON file")
    args = parser.parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]
    pin_to_one_cpu()

    detail, spans = {}, []
    if args.trace:
        measured, attempted, failed, tracer = run_traced(
            cls, args.seed, args.seconds)
        declared = spec["per_layer"]
        spans = tracer.rows()
    else:
        measured, attempted, failed, detail = run_measured(
            cls, args.seed, args.seconds)
        declared = spec["end_to_end"]
    # Every declared metric is reported; a layer the workload never
    # enters did no work there.
    metrics = {
        metric["name"]: {"value": measured.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in declared
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(dict(result, workload=args.workload, seed=args.seed,
                           seconds=args.seconds, trace=args.trace,
                           detail=detail), handle)
    if args.spans:
        with open(args.spans, "w") as handle:
            json.dump(spans, handle)
    if detail:
        print("# samples=%(samples)d measured_s=%(measured_s).2f"
              " host_factor=%(host_factor).3f"
              " segment_spread=%(segment_spread).3f noisy=%(noisy)s"
              % detail, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
