"""The supervised worker process: ``python -m
repro.runtime.supervisor.worker CONFIG.json``.

A worker is the asyncio driver of one :class:`repro.runtime.service
.Service`: it loads the :class:`~repro.runtime.service.ServiceConfig`
its parent saved, binds its share of the listen address (its own
``SO_REUSEPORT`` socket, or the listener inherited from the parent),
has :func:`~repro.runtime.service.build` assemble the service on it —
the same assembly a single-process ``flick serve`` runs — and serves
while answering the parent's control channel (status / metrics /
profile / drain) out of the service's own ``metrics_text()`` and the
process profiler's snapshot; a line that is not a command is answered
with an error.  ``SIGTERM`` and a ``drain`` command mean the same thing:
refuse new accepts, finish in-flight replies within the drain timeout,
write the profile snapshot (when profiling), exit 0.  EOF on the
control channel means the parent died; the worker drains and exits so
a half-killed fleet never lingers.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import sys

from repro import documents
from repro.errors import FlickError
from repro.obs import profile
from repro.runtime.service import ServiceConfig, build
from repro.runtime.supervisor.control import Command, Reply, to_line


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
    """Answer parent commands until EOF (parent death) or drain.  Every
    line gets one reply; one that is not a command gets an error."""
    while True:
        try:
            line = await reader.readline()
        except (ConnectionError, OSError):
            break
        except ValueError as error:  # over the stream limit
            command, reply = None, Reply(False, error=str(error))
        else:
            if not line:
                break  # the parent is gone; do not serve headless
            command, reply = _command(line)
            if command is not None:
                reply = await _answer(command, service)
        try:
            writer.write(to_line(reply))
            await writer.drain()
        except (ConnectionError, OSError):
            break
        if command is not None and command.cmd == "drain":
            break
    stop.set()


def _command(line):
    """``(Command, None)`` for a command *line*, else ``(None, the error
    Reply)``, which carries the line's integer ``seq`` so the parent
    need not wait out its timeout."""
    data = None
    try:
        data = documents.decode(line, "control command")
        return documents.read(Command, data, "control command"), None
    except documents.DocumentError as error:
        seq = data.get("seq") if isinstance(data, dict) else None
        return None, Reply(False, seq=seq if type(seq) is int else None,
                           error=str(error))


async def _answer(command, service):
    """The :class:`Reply` to one well-formed *command*."""
    config, server = service.config, service.server
    if command.cmd == "status":
        reply = Reply(True, pid=os.getpid(), slot=config.slot,
                      generation=config.generation,
                      accepting=server.accepting,
                      in_flight=server.in_flight,
                      draining=service.draining)
    elif command.cmd == "metrics":
        reply = Reply(True, text=service.metrics_text())
    elif command.cmd == "profile":
        profiler = profile.active()
        reply = Reply(True, snapshot=None if profiler is None
                      else profiler.snapshot())
    else:  # drain
        service.draining = True
        await server.drain_async()
        reply = Reply(True, pid=os.getpid())
    reply.seq = command.seq
    return reply


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
        config = documents.load(ServiceConfig, argv[0], "service config")
        return asyncio.run(amain(config))
    except KeyboardInterrupt:
        return 0
    except FlickError as error:
        print("flick worker: error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
