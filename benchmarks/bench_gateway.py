"""Gateway transcode throughput: fused copy plans vs decode/re-encode.

The gateway's central performance claim mirrors the paper's marshaling
claim: where the two wire formats agree byte-for-byte (XDR and
big-endian CDR on 32-bit words), a bridged message should cross the
gateway as a bounds-checked bulk copy, never materializing presentation
values.  This benchmark measures `transcode_request` over the Figure 3
payload shapes, with the fused plan against the same plan compiled with
fusion disabled (pure decode-to-presentation / re-encode), and records
``results/BENCH_gateway.json`` for CI.

Expected shape: every shape fuses.  Integer and rectangle arrays
(fixed-size elements, one bulk copy) transcode many times faster fused
than re-encoded, with the gap growing with message size; directory
entries (a string in each) are copied element by element and win by a
smaller factor.
"""

import time

import pytest

from repro import api
from repro.encoding import MarshalBuffer
from repro.gateway import build_plan
from repro.gateway.envelope import parse_request
from repro.gateway.proxy import transcode_request
from repro.workloads import BENCH_IDL_CORBA

from benchmarks.harness import fmt, print_table, save_json, workload_args

INT_SIZES = (64, 1024, 16384, 262144, 1048576)
RECT_SIZES = (64, 1024, 16384, 262144)
DIR_SIZES = (256, 4096, 65536)

#: Seconds of measurement per data point (matches the Fig. 3 budget).
BUDGET = 0.03

_cache = {}


def _bridge():
    """(ingress result, fused plan, no-fuse plan), cached."""
    if not _cache:
        iiop = api.compile(BENCH_IDL_CORBA, "corba", backend="iiop")
        onc = api.compile(BENCH_IDL_CORBA, "corba",
                          backend="oncrpc-xdr")
        _cache["ingress"] = iiop
        _cache["fused"] = build_plan(iiop, onc)
        _cache["reencode"] = build_plan(iiop, onc, fuse=False)
    return _cache["ingress"], _cache["fused"], _cache["reencode"]


def _ingress_request(module, workload, payload_bytes):
    args = workload_args(module, workload, payload_bytes, "Bench_")
    buffer = MarshalBuffer()
    getattr(module, "_m_req_%s" % workload)(buffer, 7, *args)
    return buffer.getvalue()


def _measure(plan, data, env, budget=BUDGET):
    """Transcode throughput in MB/s of ingress message bytes."""
    op = plan.ops[env.op_key]
    buffer = MarshalBuffer()
    transcode_request(op, data, env, buffer)  # warm up
    count = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < budget:
        buffer.reset()
        transcode_request(op, data, env, buffer)
        count += 1
        elapsed = time.perf_counter() - start
    return len(data) * count / elapsed / 1e6


def _series(workload, sizes, budget=BUDGET):
    ingress, fused_plan, plain_plan = _bridge()
    module = ingress.load_module()
    rows = []
    data = {}
    for size in sizes:
        request = _ingress_request(module, workload, size)
        env = parse_request(request, fused_plan.ingress_spec)
        fused = _measure(fused_plan, request, env, budget)
        plain = _measure(plain_plan, request, env, budget)
        data[size] = {
            "fused_mbps": fused,
            "reencode_mbps": plain,
            "message_bytes": len(request),
            "fused_path": fused_plan.ops[env.op_key].request_segments
            is not None,
        }
        rows.append([str(size), fmt(fused), fmt(plain),
                     fmt(fused / plain)])
    return rows, data


class TestGatewayTranscode:
    @pytest.mark.parametrize("workload,sizes", [
        ("ints", INT_SIZES),
        ("rects", RECT_SIZES),
        ("dirents", DIR_SIZES),
    ])
    def test_series(self, benchmark, workload, sizes):
        def run():
            return _series(workload, sizes)

        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Gateway transcode (%s): ingress MB/s" % workload,
            ("bytes", "fused", "re-encode", "ratio"),
            rows,
        )
        results = _cache.setdefault("results", {})
        results[workload] = data
        if set(results) == {"ints", "rects", "dirents"}:
            save_json("gateway", {
                "bridge": "iiop->oncrpc-xdr",
                "workloads": {
                    name: {str(size): point
                           for size, point in series.items()}
                    for name, series in results.items()
                },
            })
        # Every shape fuses, and wins once the copy amortizes the
        # envelope work: big for the fixed-size elements (one bulk
        # copy), by less for the dirents (a copy per element).
        assert all(point["fused_path"] for point in data.values())
        least, floor = (4096, 1.5) if workload == "dirents" \
            else (16384, 2.0)
        for size in sizes:
            if size >= least:
                point = data[size]
                ratio = point["fused_mbps"] / point["reencode_mbps"]
                assert ratio > floor, (size, ratio)

    def test_fused_wins_most_where_memcpy_applies(self, benchmark):
        """The fused/fallback gap is widest on large integer arrays —
        the gateway analogue of the paper's memcpy-vs-loop gap."""
        def run():
            ingress, fused_plan, plain_plan = _bridge()
            module = ingress.load_module()
            request = _ingress_request(module, "ints", 262144)
            env = parse_request(request, fused_plan.ingress_spec)
            return (_measure(fused_plan, request, env, 0.05),
                    _measure(plain_plan, request, env, 0.05))

        fused, plain = benchmark.pedantic(run, rounds=1, iterations=1)
        assert fused / plain > 4.0, (fused, plain)
