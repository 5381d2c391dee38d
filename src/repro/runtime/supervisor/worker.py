"""The supervised worker process: ``python -m
repro.runtime.supervisor.worker CONFIG.json``.

A worker is the asyncio driver of one :class:`repro.runtime.service
.Service`: it loads the :class:`~repro.runtime.service.ServiceConfig`
its parent saved, binds its share of the listen address (its own
``SO_REUSEPORT`` socket, or the listener inherited from the parent),
has :func:`~repro.runtime.service.build` assemble the service on it —
the same assembly a single-process ``flick serve`` runs — and serves
while answering the parent's control channel (status / metrics /
profile / drain) out of the service's own ``metrics_text()`` /
``profile_json()``.  ``SIGTERM`` and a ``drain`` command mean the same
thing: refuse new accepts, finish in-flight replies within the drain
timeout, write the profile snapshot (when profiling), exit 0.  EOF on
the control channel means the parent died; the worker drains and exits
so a half-killed fleet never lingers.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys

from repro.errors import FlickError
from repro.runtime.service import ServiceConfig, build


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


async def _control_loop(reader, writer, service, stop):
    """Answer parent commands until EOF (parent death) or drain."""
    config, server = service.config, service.server
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
        if not isinstance(message, dict):
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
                "draining": service.draining,
            }
        elif cmd == "metrics":
            reply = {"ok": True, "text": service.metrics_text()}
        elif cmd == "profile":
            reply = {"ok": True, "snapshot": service.profile_json()}
        elif cmd == "drain":
            service.draining = True
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
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    service = build(config, open_listen_socket(config))
    server = service.server
    await server.start_async()
    control_sock = socket.socket(fileno=config.control_fd)
    reader, writer = await asyncio.open_connection(sock=control_sock)
    control_task = loop.create_task(
        _control_loop(reader, writer, service, stop))
    print("flick worker slot=%d pid=%d gen=%d serving %s:%d"
          % (config.slot, os.getpid(), config.generation,
             config.host, config.port), flush=True)
    await stop.wait()
    service.draining = True
    await server.aclose(drain=True)
    service.close()
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
    try:
        return asyncio.run(amain(ServiceConfig.load(argv[0])))
    except KeyboardInterrupt:
        return 0
    except FlickError as error:
        print("flick worker: error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
