"""The supervised worker process: ``python -m
repro.runtime.supervisor.worker CONFIG.json``.

A worker compiles its generation's IDL, binds its share of the listen
address (its own ``SO_REUSEPORT`` socket, or the listener inherited
from the parent), and serves it with the asyncio runtime while
answering the parent's control channel (status / metrics / profile /
drain).  ``SIGTERM`` and a ``drain`` command mean the same thing:
refuse new accepts, finish in-flight replies within the drain timeout,
write the profile snapshot (when profiling), exit 0.  EOF on the
control channel means the parent died; the worker drains and exits so
a half-killed fleet never lingers.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys

from repro.errors import FlickError
from repro.runtime.supervisor.config import WorkerConfig


def _compile_one(path, lang, *, interface, pgen, backend):
    """Compile the one interface a worker serves from the file *path*."""
    from repro import api
    from repro.runtime.server import compile_interface

    with open(path) as handle:
        text = handle.read()
    if lang is None:
        lang = api.detect_lang(text, name=path)
    return compile_interface(
        text, lang, name=path, interface=interface, presentation=pgen,
        backend=backend)


def open_listen_socket(config):
    """The worker's share of the listen address.

    Either adopt the parent's listener (``listen_fd``), or bind an own
    ``SO_REUSEPORT`` socket to the already-resolved address — kernels
    then shard incoming connections across the workers' accept queues.
    """
    if config.listen_fd is not None:
        return socket.socket(fileno=config.listen_fd)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((config.host, config.port))
        sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


def _make_tiering(config, handle, stats):
    """The worker's tiering engine for *handle*, or None when off.

    The slot number becomes the ``worker`` metric label, so the
    supervisor's merged /metrics keeps every worker's
    ``flick_tier_current`` series distinct instead of summing them
    into nonsense.
    """
    from repro.runtime.tiering import TieringEngine, resolve_policy

    policy = resolve_policy(getattr(config, "tiering", "off"))
    if policy is None:
        return None
    if getattr(handle.stubs, "backend_instance", None) is None:
        return None
    return TieringEngine(
        handle, policy=policy, registry=stats.registry,
        worker=str(config.slot))


def build_server(config, listen_sock, stats):
    """The configured :class:`AioTcpServer` (serve) or gateway server."""
    from repro import obs

    if config.kind == "gateway":
        from repro.gateway import AioGatewayServer, build_plan

        ingress = _compile_one(
            config.idl_path, config.lang, interface=config.interface,
            pgen=None, backend=config.backend)
        egress = _compile_one(
            config.upstream_idl_path or config.idl_path, config.lang,
            interface=config.interface, pgen=None,
            backend=config.upstream_backend)
        plan = build_plan(ingress, egress, fuse=config.fuse)
        if config.profile_dir:
            obs.profile.configure(
                sample=config.profile_sample, registry=stats.registry)
        engine = _make_tiering(config, ingress, stats)
        return AioGatewayServer(
            plan, config.upstream_host, config.upstream_port,
            pool_size=config.pool_size, host=config.host,
            port=config.port, stats=stats,
            max_concurrency=config.max_concurrency,
            max_pending=config.max_pending,
            drain_timeout=config.drain_timeout,
            listen_sock=listen_sock,
            tiering=engine,
        )
    from repro.runtime import StubServer
    from repro.runtime.server import load_servant

    result = _compile_one(
        config.idl_path, config.lang, interface=config.interface,
        pgen=config.pgen, backend=config.backend)
    stub_module = result.module
    impl = load_servant(config.impl, stub_module)
    if config.profile_dir:
        obs.profile.configure(
            sample=config.profile_sample, registry=stats.registry)
        obs.profile.instrument_stub_module(stub_module)
    engine = _make_tiering(config, result, stats)
    return StubServer(stub_module, impl).aio_server(
        config.host, config.port,
        max_concurrency=config.max_concurrency,
        dispatch_mode=config.dispatch_mode,
        max_pending=config.max_pending,
        drain_timeout=config.drain_timeout,
        stats=stats, listen_sock=listen_sock,
        tiering=engine,
    )


async def _control_loop(reader, writer, server, config, stats, state,
                        stop):
    """Answer parent commands until EOF (parent death) or drain."""
    from repro.obs import profile as obs_profile

    while True:
        try:
            line = await reader.readline()
        except (ConnectionError, OSError):
            line = b""
        if not line:
            stop.set()  # the parent is gone; do not serve headless
            return
        try:
            message = json.loads(line)
        except ValueError:
            continue
        cmd = message.get("cmd")
        if cmd == "status":
            reply = {
                "ok": True,
                "pid": os.getpid(),
                "slot": config.slot,
                "generation": config.generation,
                "accepting": server.accepting,
                "in_flight": server.in_flight,
                "draining": state["draining"],
            }
            if server.tiering:
                tiers = {}
                for engine in server.tiering:
                    tiers.update(engine.tier_summary())
                reply["tiers"] = tiers
        elif cmd == "metrics":
            reply = {"ok": True,
                     "text": stats.registry.render_prometheus()}
        elif cmd == "profile":
            profiler = obs_profile.active()
            reply = {
                "ok": True,
                "snapshot": (profiler.snapshot().to_json()
                             if profiler is not None else None),
            }
        elif cmd == "drain":
            state["draining"] = True
            await server.drain_async()
            reply = {"ok": True, "pid": os.getpid()}
        else:
            reply = {"ok": False, "error": "unknown command %r" % (cmd,)}
        if message.get("seq") is not None:
            reply["seq"] = message["seq"]
        try:
            writer.write(json.dumps(reply).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, OSError):
            stop.set()
            return
        if cmd == "drain":
            stop.set()
            return


async def amain(config):
    from repro.obs import profile as obs_profile
    from repro.runtime import ServerStats

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    stats = ServerStats()
    listen_sock = open_listen_socket(config)
    server = build_server(config, listen_sock, stats)
    state = {"draining": False}
    await server.start_async()
    control_sock = socket.socket(fileno=config.control_fd)
    reader, writer = await asyncio.open_connection(sock=control_sock)
    control_task = loop.create_task(
        _control_loop(reader, writer, server, config, stats, state,
                      stop))
    print("flick worker slot=%d pid=%d gen=%d serving %s:%d"
          % (config.slot, os.getpid(), config.generation,
             config.host, config.port), flush=True)
    await stop.wait()
    state["draining"] = True
    await server.aclose(drain=True)
    if config.profile_dir:
        snapshot = obs_profile.shutdown()
        if snapshot is not None:
            snapshot.save(os.path.join(
                config.profile_dir, "profile.%d.json" % os.getpid()))
    control_task.cancel()
    try:
        writer.close()
    except Exception:
        pass
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runtime.supervisor.worker"
              " CONFIG.json", file=sys.stderr)
        return 2
    config = WorkerConfig.load(argv[0])
    for path in reversed(config.sys_paths):
        if path and path not in sys.path:
            sys.path.insert(0, path)
    try:
        return asyncio.run(amain(config))
    except KeyboardInterrupt:
        return 0
    except FlickError as error:
        print("flick worker: error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
