"""Renderer comparison: rendered source versus closure codecs.

Both renderers consume the same optimized marshal IR (byte output is
asserted identical by tests/test_mir_renderers.py); they differ in how
IR becomes callable code.  The ``py`` renderer renders Python source
and round-trips through ``compile``/``exec``; the ``closures`` renderer
builds step closures over precompiled ``struct.Struct`` objects at
install time.  This module records, per renderer:

* **compile time** — the full pipeline down to GeneratedStubs (both
  renderers also carry the rendered source, so this is near-identical
  by construction);
* **first-call latency** — module load (exec, plus the closure install
  for ``closures``) and the first marshal call, the cold-start cost a
  dynamic client pays;
* **Fig. 3 marshal throughput** — the paper's workloads.  The headline
  point (64 KB and 1 MB integer arrays) must be no slower under
  closures.  Structure arrays (rects) are at parity: a fixed-layout
  array is one region op in the marshal IR (one reserve, one array-wide
  pack), which both renderers execute the same way, so neither owns an
  optimization the other lacks.  Dirents (per-element strings) stay on
  the interpreted step path under closures and lag.

Because no renderer wins everywhere, the second half of this module
measures **tiered execution** (``repro.runtime.tiering``): the server
starts every op on one static renderer and the engine recompiles hot
ops to whatever the cost model prefers.  The acceptance claim recorded
in ``results/BENCH_tiering.json``: started on the *losing* renderer
(closures) for the string-heavy ``dirents_65536`` workload, tiered mode
converges to py and recovers >= 90% of the best static renderer's
steady-state serve throughput, while staying at parity with the static
renderers on the struct-array workload, where the choice no longer
matters.

Results land in ``results/BENCH_renderer.json`` and
``results/BENCH_tiering.json`` (CI artifacts).
"""

import time

import pytest

from repro import api
from repro.encoding import MarshalBuffer
from repro.workloads import BENCH_IDL_ONC

from benchmarks.harness import (
    fmt,
    measure_marshal,
    print_table,
    save_json,
    workload_args,
)

RENDERERS = ("py", "closures")

#: Fig. 3 series points measured per renderer: (workload, bytes).
POINTS = (
    ("ints", 1024),
    ("ints", 65536),
    ("ints", 1048576),
    ("rects", 65536),
    ("dirents", 65536),
)

#: The paper's headline marshal point: integer arrays, large messages.
HEADLINE = (("ints", 65536), ("ints", 1048576))

#: Renderers run the same region op on struct arrays; their throughput
#: may differ by this factor either way.  Pinned best-of-five runs
#: measured closures/py at 0.96-1.01; the rest absorbs an unpinned CI
#: host, where runs of one renderer differ by as much.
PARITY = 1.25


def _measure_compile(renderer, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        api.compile(BENCH_IDL_ONC, "oncrpc", renderer=renderer)
        best = min(best, time.perf_counter() - started)
    return best


def _measure_first_call(renderer, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        result = api.compile(BENCH_IDL_ONC, "oncrpc", renderer=renderer)
        args = None
        started = time.perf_counter()
        module = result.load_module()
        buffer = MarshalBuffer()
        args = workload_args(module, "ints", 1024, "")
        module._m_req_ints(buffer, 1, *args)
        best = min(best, time.perf_counter() - started)
    return best


def run(budget=0.05, rounds=3):
    modules = {
        renderer: api.compile(
            BENCH_IDL_ONC, "oncrpc", renderer=renderer
        ).load_module()
        for renderer in RENDERERS
    }
    throughput = {renderer: {} for renderer in RENDERERS}
    # Interleave renderers and keep the best of several rounds so the
    # ratio is robust against scheduling noise.
    for workload, size in POINTS:
        for _ in range(rounds):
            for renderer, module in modules.items():
                args = workload_args(module, workload, size, "")
                mbps, _message = measure_marshal(
                    module, workload, args, budget=budget
                )
                key = "%s_%d" % (workload, size)
                throughput[renderer][key] = max(
                    throughput[renderer].get(key, 0.0), mbps
                )
    data = {
        renderer: {
            "compile_ms": _measure_compile(renderer) * 1e3,
            "first_call_ms": _measure_first_call(renderer) * 1e3,
            "marshal_mbps": throughput[renderer],
        }
        for renderer in RENDERERS
    }
    return data


class TestRendererCompile:
    def test_renderers(self, benchmark):
        data = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = []
        for renderer in RENDERERS:
            entry = data[renderer]
            rows.append([
                renderer,
                "%.1f" % entry["compile_ms"],
                "%.1f" % entry["first_call_ms"],
            ] + [
                fmt(entry["marshal_mbps"]["%s_%d" % point])
                for point in POINTS
            ])
        print_table(
            "Renderers: compile, first call (ms); Fig. 3 marshal MB/s",
            ("renderer", "compile", "first call")
            + tuple("%s %dK" % (w, s // 1024) for w, s in POINTS),
            rows,
        )
        save_json("renderer", {
            "workloads": ["%s_%d" % point for point in POINTS],
            "headline": ["%s_%d" % point for point in HEADLINE],
            "renderers": data,
        })
        py, clo = data["py"], data["closures"]
        # Closure selection happens at load time; compiling must not
        # get measurably more expensive than the source renderer.
        assert clo["compile_ms"] <= py["compile_ms"] * 1.25
        # Headline acceptance: closures are no slower than rendered
        # source on the Fig. 3 marshal throughput workload (64 KB and
        # 1 MB integer arrays); 0.93 absorbs timer noise.
        for workload, size in HEADLINE:
            key = "%s_%d" % (workload, size)
            ratio = clo["marshal_mbps"][key] / py["marshal_mbps"][key]
            assert ratio >= 0.93, (key, ratio)
        # Structure arrays are one region op under either renderer.
        ratio = (clo["marshal_mbps"]["rects_65536"]
                 / py["marshal_mbps"]["rects_65536"])
        assert 1 / PARITY <= ratio <= PARITY, ratio


# ----------------------------------------------------------------------
# Tiered execution: start on the wrong renderer, let the engine fix it
# ----------------------------------------------------------------------

#: The tiering points: the workload where the renderers are at parity
#: (rects) and the one where closures loses badly (dirents) — both
#: served starting from a closures tier-0, so the engine must cost the
#: first nothing and recompile the second.
TIER_POINTS = (("rects", 65536), ("dirents", 65536))


class _NullImpl:
    """The benchmark ops are void; the servant swallows everything."""

    def __getattr__(self, _name):
        return lambda *args: None


def _request_frame(module, workload, size):
    args = workload_args(module, workload, size, "")
    buffer = MarshalBuffer()
    getattr(module, "_m_req_%s" % workload)(buffer, 1, *args)
    return buffer.getvalue()


def _measure_serve(server, frame, budget=0.05):
    """Server-side throughput in MB/s: full dispatch (request decode +
    void reply encode) over one captured request frame."""
    serve = server.serve_bytes
    serve(frame)
    serve(frame)
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        serve(frame)
        iterations += 1
        if clock() - start >= budget:
            break
    return len(frame) * iterations / (clock() - start) / 1e6


def run_tiered(budget=0.05, rounds=3):
    from repro.runtime import StubServer
    from repro.runtime.tiering import TieringEngine, TierPolicy

    data = {}
    for workload, size in TIER_POINTS:
        key = "%s_%d" % (workload, size)
        static = {}
        for renderer in RENDERERS:
            handle = api.compile(BENCH_IDL_ONC, "oncrpc",
                                 renderer=renderer)
            frame = _request_frame(handle.module, workload, size)
            server = StubServer(handle.module, _NullImpl())
            for _ in range(rounds):
                static[renderer] = max(
                    static.get(renderer, 0.0),
                    _measure_serve(server, frame, budget))
        # Tiered: tier-0 is closures (the *losing* choice on dirents).
        # Deterministic single-threaded drive: serve, poll, repeat
        # until the engine converges — through the same shadow-verify
        # and regression-guard path production servers run.
        handle = api.compile(BENCH_IDL_ONC, "oncrpc",
                             renderer="closures")
        engine = TieringEngine(handle, policy=TierPolicy(
            threshold=1, min_timed_samples=4)).attach()
        server = StubServer(handle.module, _NullImpl())
        frame = _request_frame(handle.module, workload, size)
        state = engine.ops[workload]
        for _ in range(80):
            for _ in range(48):
                server.serve_bytes(frame)
            engine.poll_once()
            if state.converged or state.state == "pinned":
                break
        tiered = 0.0
        for _ in range(rounds):
            tiered = max(tiered, _measure_serve(server, frame, budget))
        data[key] = {
            "tier0_renderer": "closures",
            "converged_renderer": state.renderer,
            "tier": state.tier,
            "state": state.state,
            "static_serve_mbps": static,
            "tiered_serve_mbps": tiered,
            "recovery": tiered / max(static.values()),
        }
    return data


class TestTieredExecution:
    def test_tiered_recovers_best_static(self, benchmark):
        data = benchmark.pedantic(run_tiered, rounds=1, iterations=1)
        rows = []
        for key, entry in sorted(data.items()):
            rows.append([
                key,
                fmt(entry["static_serve_mbps"]["py"]),
                fmt(entry["static_serve_mbps"]["closures"]),
                fmt(entry["tiered_serve_mbps"]),
                entry["converged_renderer"],
                "%.0f%%" % (100.0 * entry["recovery"]),
            ])
        print_table(
            "Tiered execution: serve MB/s from a closures tier-0",
            ("workload", "py", "closures", "tiered", "converged",
             "recovery"),
            rows,
        )
        save_json("tiering", {
            "tier0_renderer": "closures",
            "workloads": data,
        })
        dirents = data["dirents_65536"]
        rects = data["rects_65536"]
        # The headline: on the string-heavy workload the engine must
        # abandon the closures tier-0 for py and recover >= 90% of the
        # best static renderer's steady state.
        assert dirents["converged_renderer"] == "py", dirents
        assert dirents["tier"] == 1, dirents
        assert dirents["recovery"] >= 0.90, dirents
        # On struct arrays the renderers are at parity, so whichever
        # the engine settles on, serving under it must keep up with the
        # better static renderer.
        assert rects["recovery"] >= 1 / PARITY, rects
