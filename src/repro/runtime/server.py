"""Convenience server wrapper pairing generated stubs with a servant."""

from __future__ import annotations

import importlib

from repro.encoding.buffer import MarshalBuffer
from repro.errors import FlickError
from repro.runtime.request import RequestCore
from repro.runtime.socket_transport import TcpServer, UdpServer


class OperationNames(dict):
    """Demux key -> operation name, and in :attr:`envelope` whose
    request walk (``(protocol, byte order)`` for :mod:`repro.envelopes`)
    finds that key in a raw request — None on stubs that do not say."""

    envelope = None


def operation_names(module):
    """Map a stub module's demux keys to operation names (for stats).

    Stub modules generated with ``hash_demux`` expose ``_HANDLERS``,
    whose values are the per-operation handlers ``_h_<operation>``;
    modules compiled with the if-chain demux simply get raw keys.
    """
    names = OperationNames()
    names.envelope = getattr(module, "_ENVELOPE", None)
    handlers = getattr(module, "_HANDLERS", None) or {}
    for key, handler in handlers.items():
        name = getattr(handler, "__name__", "")
        names[key] = name[3:] if name.startswith("_h_") else str(key)
    return names


def load_servant(spec, stub_module):
    """Instantiate the servant named by a ``module:Class`` spec.

    The class is called with the stub module when it takes an argument
    (servants that build generated records need it), else with none.
    """
    module_name, separator, class_name = spec.partition(":")
    if not separator or not module_name or not class_name:
        raise FlickError(
            "a servant is named module:Class, not %r" % spec)
    try:
        impl_module = importlib.import_module(module_name)
    except ImportError as error:
        raise FlickError(
            "cannot import servant module %r: %s" % (module_name, error))
    try:
        impl_class = getattr(impl_module, class_name)
    except AttributeError:
        raise FlickError(
            "module %r has no class %r" % (module_name, class_name))
    try:
        return impl_class(stub_module)
    except TypeError:
        return impl_class()


class StubServer:
    """Binds a generated stub module's dispatch to an implementation.

    Provides direct (in-process) serving plus helpers to expose the same
    servant over TCP or UDP — blocking or concurrent (asyncio).
    """

    def __init__(self, module, impl):
        self.module = module
        self.impl = impl
        self._buffer = MarshalBuffer()
        self._core = RequestCore(
            module.dispatch, impl, op_names=operation_names(module),
            error_encoder=self.error_encoder)

    @property
    def error_encoder(self):
        """The stub module's ``encode_error_reply`` (None on old stubs)."""
        return getattr(self.module, "encode_error_reply", None)

    def serve_bytes(self, request):
        """Serve one raw request; returns reply bytes or None (oneway).

        The in-process driver of the same :class:`~repro.runtime.request
        .RequestCore` the socket servers drive, so dispatch errors are
        answered exactly as they are on the wire.  Where a socket server
        would close the connection without a reply (no encoder, a
        oneway request, an unparseable header) the dispatch error is
        re-raised instead.
        """
        has_reply, _keep_open, error = self._core.handle(
            request, self._buffer)
        if has_reply:
            return self._buffer.getvalue()
        if error is not None:
            raise error
        return None

    def tcp_server(self, host="127.0.0.1", port=0, **kwargs):
        """A blocking threaded TCP server for this servant.

        Keyword arguments (``stats`` in particular) are forwarded to
        :class:`~repro.runtime.socket_transport.TcpServer`; stats get
        human-readable operation names resolved from the stub module.
        """
        kwargs.setdefault("op_names", operation_names(self.module))
        kwargs.setdefault("error_encoder", self.error_encoder)
        return TcpServer(
            self.module.dispatch, self.impl, host, port, **kwargs
        )

    def udp_server(self, host="127.0.0.1", port=0, **kwargs):
        kwargs.setdefault("op_names", operation_names(self.module))
        kwargs.setdefault("error_encoder", self.error_encoder)
        return UdpServer(
            self.module.dispatch, self.impl, host, port, **kwargs
        )

    def aio_server(self, host="127.0.0.1", port=0, **kwargs):
        """A concurrent asyncio server for this servant.

        Keyword arguments are forwarded to
        :class:`~repro.runtime.aio.server.AioTcpServer`; stats get
        human-readable operation names resolved from the stub module.
        """
        from repro.runtime.aio import AioTcpServer

        kwargs.setdefault("op_names", operation_names(self.module))
        kwargs.setdefault("error_encoder", self.error_encoder)
        return AioTcpServer(
            self.module.dispatch, self.impl, host, port, **kwargs
        )
