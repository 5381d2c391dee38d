"""Shared machinery for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper.
This module owns the common pieces: compiling every compiler's stubs for
the benchmark interface (cached), timing marshal throughput, and combining
measured stub CPU time with simulated wire time for the end-to-end
figures, exactly as DESIGN.md section 2 describes.
"""

from __future__ import annotations

import time

from repro import api
from repro.compilers import make_baseline
from repro.encoding import MarshalBuffer
from repro.runtime import SimulatedNetworkTransport
from repro.workloads import (
    BENCH_IDL_CORBA,
    BENCH_IDL_ONC,
    MIG_BENCH_IDL,
    make_dir_entries,
    make_int_array,
    make_rect_array,
)

#: Compilers of Figures 3-6 (name -> how to build its stub module).
XDR_COMPILERS = ("flick-xdr", "rpcgen", "powerrpc")
IIOP_COMPILERS = ("flick-iiop", "orbeline", "ilu")
ALL_COMPILERS = XDR_COMPILERS + IIOP_COMPILERS

#: Default measurement budget per data point, seconds of CPU time.
BUDGET = 0.04

#: The paper's Flick stubs marshal large integer arrays at roughly the
#: SPARC test machines' memory-copy bandwidth (~30-35 MB/s; section 4
#: attributes Flick's ceiling to memory bandwidth).  The ratio of our
#: measured rate to this anchors the CPU-speed scale used to place the
#: 1997 link models in today's terms.
PAPER_FLICK_INT_MARSHAL_MBPS = 30.0

_cache = {}
_cpu_scale = None


def cpu_scale():
    """How much faster this host marshals than the paper's testbed.

    End-to-end figures scale the 1997 link models by this factor (and
    divide the results back), so the *relative* marshal-versus-wire
    structure — which is what decides every crossover in Figures 4-7 —
    matches the paper's, while all reported numbers stay directly
    comparable to the paper's axes.
    """
    global _cpu_scale
    if _cpu_scale is None:
        _result, module = compiled("flick-xdr")
        rate, _size = measure_marshal(
            module, "ints", (make_int_array(1 << 20),), budget=0.2
        )
        _cpu_scale = max(rate / PAPER_FLICK_INT_MARSHAL_MBPS, 0.1)
    return _cpu_scale


def scaled_link(link):
    """A copy of *link* sped up by :func:`cpu_scale`."""
    scale = cpu_scale()
    return type(link)(
        name="%s (CPU-scaled x%.1f)" % (link.name, scale),
        raw_bandwidth_bps=link.raw_bandwidth_bps * scale,
        effective_bandwidth_bps=link.effective_bandwidth_bps * scale,
        per_message_overhead_s=link.per_message_overhead_s / scale,
    )


def compiled(name):
    """The (result-like, module) pair for one benchmark compiler."""
    if name in _cache:
        return _cache[name]
    if name == "flick-xdr":
        result = api.compile(BENCH_IDL_ONC, "oncrpc")
        module = result.module
    elif name == "flick-iiop":
        result = api.compile(BENCH_IDL_CORBA, "corba", backend="iiop")
        module = result.module
    elif name == "flick-mach":
        result = api.compile(BENCH_IDL_ONC, "oncrpc", backend="mach3")
        module = result.module
    elif name in ("rpcgen", "powerrpc"):
        base = api.compile(BENCH_IDL_ONC, "oncrpc")
        stubs = make_baseline(name).generate(base.presc)
        result, module = base, stubs.load()
    elif name in ("orbeline", "ilu"):
        base = api.compile(BENCH_IDL_CORBA, "corba", backend="iiop")
        stubs = make_baseline(name).generate(base.presc)
        result, module = base, stubs.load()
    elif name == "mig":
        base = api.compile(MIG_BENCH_IDL, "mig")
        stubs = make_baseline("mig").generate(base.presc)
        result, module = base, stubs.load()
    else:
        raise KeyError(name)
    _cache[name] = (result, module)
    return _cache[name]


def record_prefix(name):
    """Record-class naming prefix for a compiler's module."""
    if name in ("flick-iiop", "orbeline", "ilu"):
        return "Bench_"
    return ""


def workload_args(module, workload, payload_bytes, prefix):
    if workload == "ints":
        return (make_int_array(payload_bytes),)
    if workload == "rects":
        return (make_rect_array(module, payload_bytes, prefix),)
    if workload == "dirents":
        return (make_dir_entries(module, payload_bytes, prefix),)
    raise KeyError(workload)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------

def measure_marshal(module, operation, args, budget=BUDGET):
    """Marshal throughput in MB/s of payload-independent message bytes.

    This is the paper's "marshal throughput": stub encode speed with no
    transport involved.
    """
    marshal = getattr(module, "_m_req_%s" % operation)
    buffer = MarshalBuffer()
    marshal(buffer, 1, *args)
    message_size = buffer.length
    # Warm once more to stabilize caches/allocations.
    buffer.reset()
    marshal(buffer, 1, *args)
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        buffer.reset()
        marshal(buffer, 1, *args)
        iterations += 1
        if clock() - start >= budget:
            break
    elapsed = clock() - start
    return message_size * iterations / elapsed / 1e6, message_size


def measure_unmarshal(module, operation, args, body_offset, budget=BUDGET,
                      as_view=False):
    """Unmarshal throughput in MB/s (server-side request decode).

    ``as_view=True`` hands the decoder a memoryview of the received
    bytes, as a zero-copy dispatch does.
    """
    marshal = getattr(module, "_m_req_%s" % operation)
    unmarshal = getattr(module, "_u_req_%s" % operation)
    buffer = MarshalBuffer()
    marshal(buffer, 1, *args)
    data = buffer.getvalue()
    if as_view:
        data = memoryview(data)
    unmarshal(data, body_offset)
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        unmarshal(data, body_offset)
        iterations += 1
        if clock() - start >= budget:
            break
    elapsed = clock() - start
    return len(data) * iterations / elapsed / 1e6, len(data)


def measure_end_to_end(module, client_class_name, operation, args,
                       link, payload_bytes, budget=BUDGET):
    """Paper-equivalent end-to-end throughput in Mbit/s over *link*.

    Total time per the paper's own cost accounting = measured stub and
    dispatch CPU time + simulated wire time; the link is CPU-scaled and
    the result scaled back, so the number is directly comparable to the
    paper's figures (e.g. ~6-7.5 Mbps for everyone on 10 Mbps Ethernet).
    """
    class _Impl:
        def __getattr__(self, _name):
            return lambda *call_args: None

    scale = cpu_scale()
    transport = SimulatedNetworkTransport(
        module.dispatch, _Impl(), scaled_link(link)
    )
    client = getattr(module, client_class_name)(transport)
    method = getattr(client, operation)
    method(*args)  # warm-up
    transport.reset_clock()
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        method(*args)
        iterations += 1
        if clock() - start >= budget:
            break
    cpu_elapsed = clock() - start
    total = cpu_elapsed + transport.simulated_seconds
    return payload_bytes * 8 * iterations / total / 1e6 / scale


def client_class_name(name):
    if name in ("flick-iiop", "orbeline", "ilu"):
        return "Bench_BenchClient"
    if name == "mig":
        return "benchClient"
    return "BENCH_BENCHVClient"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

RESULTS_DIR = None  # set to a directory path to also save tables there


def print_table(title, columns, rows, out=print, save_as=None):
    lines = ["", "=" * 72, title, "=" * 72]
    header = "  ".join("%12s" % column for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join("%12s" % cell for cell in row))
    lines.append("=" * 72)
    for line in lines:
        out(line)
    target_dir = RESULTS_DIR
    if target_dir is None:
        import os

        target_dir = os.path.join(os.path.dirname(__file__), "results")
    try:
        import os
        import re

        os.makedirs(target_dir, exist_ok=True)
        stem = save_as or re.sub(
            r"[^a-z0-9]+", "_", title.lower()
        ).strip("_")[:60]
        with open(os.path.join(target_dir, stem + ".txt"), "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError:
        pass  # results files are a convenience, never a failure


def fmt(value):
    if isinstance(value, float):
        if value >= 100:
            return "%.0f" % value
        if value >= 10:
            return "%.1f" % value
        return "%.2f" % value
    return str(value)


def save_json(stem, payload):
    """Write *payload* to ``results/BENCH_<stem>.json`` (machine-readable
    companion to :func:`print_table`; CI uploads these as artifacts).

    Returns the path written, or None when the directory is unwritable
    (results files are a convenience, never a failure).
    """
    import json
    import os

    target_dir = RESULTS_DIR
    if target_dir is None:
        target_dir = os.path.join(os.path.dirname(__file__), "results")
    path = os.path.join(target_dir, "BENCH_%s.json" % stem)
    try:
        os.makedirs(target_dir, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        return None
    return path
