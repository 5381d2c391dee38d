"""The ILU-style baseline: interpretive marshaling.

Xerox PARC's ILU "does not attempt to do any optimization but merely
traverses the AST, emitting marshal statements for each datum, which are
typically (expensive) calls to type-specific marshaling functions" (paper
section 5).  The truest reproduction of that architecture is not a code
generator at all: this compiler builds its stub module *at run time* as
closures over the PRES trees, and every message is marshaled by walking
the type graph with :class:`repro.pres.interp.InterpretiveCodec` — one
dispatch and one function call per datum, plus the runtime-layer hops the
paper's footnote describes.

The module object it produces quacks exactly like a Flick-generated
module — ``_m_req_*``, ``_u_req_*``, ``dispatch``, client and servant
classes, record and exception classes — and speaks wire-compatible
GIOP/CDR, so the benchmark harness drives it uniformly.
"""

from __future__ import annotations

import types

from repro import envelopes
from repro.errors import (
    DispatchError,
    FlickUserException,
    TransportError,
    UnmarshalError,
)
from repro.encoding import CDR_BE, CDR_LE
from repro.encoding.buffer import MarshalBuffer, ReadCursor
from repro.backend.base import GeneratedStubs, collect_python_types
from repro.backend.iiop import IiopBackEnd
from repro.pres.interp import InterpretiveCodec
from repro.pres.values import exception_class, record_class


class IluStyleCompiler:
    """Xerox PARC ILU reproduced: runtime type-graph interpretation."""

    name = "ilu"
    origin = "Xerox PARC"

    def __init__(self, little_endian=False):
        self.little_endian = little_endian
        self.wire_format = CDR_LE if little_endian else CDR_BE
        # Header layout is shared with the IIOP back end; headers are
        # protocol, not marshal optimization.
        self._headers = IiopBackEnd(little_endian=little_endian)

    def generate(self, presc, flags=None):
        """Build the runtime-interpreted stub module for *presc*."""
        module = _build_module(self, presc)
        description = (
            '"""ILU-style interpretive stubs for %s.\n\n'
            "This module is constructed at run time (see\n"
            "repro.compilers.ilu_style); there is no generated marshal\n"
            'code to show — that is the point."""\n'
            % presc.interface_name
        )
        stubs = GeneratedStubs(
            interface_name=presc.interface_name,
            backend_name=self.name,
            presentation_style=presc.presentation_style,
            scaffold=description,
            c_source="/* ILU-style stubs are interpreted at run time. */\n",
            c_header="",
            metadata={"style": "interpretive", "demux": "linear"},
            module_name="ilu_%s" % presc.interface_name.replace("::", "_"),
        )
        stubs._module = module
        return stubs


def _build_module(compiler, presc):
    codec = InterpretiveCodec(
        compiler.wire_format, presc.pres_registry, presc.mint_registry
    )
    endian = compiler.wire_format.endian
    module = types.ModuleType(
        "ilu_%s" % presc.interface_name.replace("::", "_")
    )

    # -- presented classes (dynamic equivalents of generated classes) ----
    records, exceptions = collect_python_types(presc)
    record_classes = {}
    for record_name, fields in records.items():
        record_classes[record_name] = record_class(record_name, fields)
        setattr(module, record_name, record_classes[record_name])
    exception_classes = {}
    for exception_name, (class_name, fields) in exceptions.items():
        cls = exception_class(class_name, exception_name, fields)
        exception_classes[exception_name] = cls
        setattr(module, class_name, cls)

    # -- per-operation marshal/unmarshal (interpretive) -------------------
    handlers = []
    for stub in presc.stubs:
        _install_operation(
            module, compiler, presc, stub, codec, endian,
            exception_classes, handlers,
        )

    read_reply = envelopes.reader("giop", "reply", endian)
    locate_reply = envelopes.locator("giop", "reply", endian)
    read_request = envelopes.reader("giop", "request", endian)

    def _check_reply(data, ctx):
        # The id first, as Flick's stubs check it: a reply to another
        # request is refused even when it carries a system exception.
        if locate_reply(data)[0] != ctx:
            raise TransportError("reply request id mismatch")
        return read_reply(data)

    module._check_reply = _check_reply

    def dispatch(data, impl, buffer):
        """Serve one request; linear operation lookup, interpretive
        unmarshal — the ILU way."""
        request_id, operation, offset = read_request(data)[:3]
        # Linear scan: interpretive systems compare operation names one
        # at a time.
        for name, handler in handlers:
            if name == operation:
                return handler(data, offset, impl, buffer, request_id)
        raise DispatchError("no operation %r" % (operation,))

    module.dispatch = dispatch

    client_name = "%sClient" % presc.interface_name.replace("::", "_")
    servant_name = "%sServant" % presc.interface_name.replace("::", "_")
    module_dict = module.__dict__
    client_class = _make_client_class(client_name, presc, module_dict)
    setattr(module, client_name, client_class)
    setattr(
        module, servant_name, _make_servant_class(servant_name, presc)
    )
    module.__source__ = "# runtime-built ILU-style module\n"
    return module


def _ilu_call_layer(value):
    """The per-call runtime layer the paper's footnote describes."""
    return value


def _install_operation(module, compiler, presc, stub, codec, endian,
                       exception_classes, handlers):
    header = compiler._headers.request_header(presc, stub)
    reply_header = compiler._headers.reply_header(presc, stub)
    request_pres = stub.request_pres
    reply_pres = stub.reply_pres
    in_parameters = stub.in_parameters()
    operation_key = stub.wire_name.encode("latin-1")

    def marshal_request(buffer, ctx, *args):
        offset = header.write(buffer, ctx)
        # Interpretive walk, one call per datum.
        for parameter, argument in zip(request_pres.fields, args):
            codec._encode(parameter.pres, _ilu_call_layer(argument), buffer)
        header.finish(buffer, offset)

    def unmarshal_request(data, offset):
        cursor = ReadCursor(data, offset)
        values = tuple(
            codec._decode(parameter.pres, cursor)
            for parameter in request_pres.fields
        )
        return values, cursor.offset

    setattr(module, "_m_req_%s" % stub.operation_name, marshal_request)
    setattr(module, "_u_req_%s" % stub.operation_name, unmarshal_request)

    if stub.oneway:
        def handler(data, offset, impl, buffer, ctx):
            values, _end = unmarshal_request(data, offset)
            getattr(impl, stub.operation_name)(*values)
            return False

        handlers.append((operation_key, handler))
        _install_client_method(module, stub, None, None)
        return

    success_arm = reply_pres.arms[0]
    exception_arms = reply_pres.arms[1:]

    def marshal_reply(buffer, ctx, disc, payload_fields):
        offset = reply_header.write(buffer, ctx)
        codec.format.pack_atom(
            buffer, reply_pres.mint.discriminator, disc
        )
        arm = reply_pres.arm_for(disc)
        codec._encode(arm.pres, payload_fields, buffer)
        reply_header.finish(buffer, offset)

    result_names = [f.name for f in success_arm.pres.fields]

    def handler(data, offset, impl, buffer, ctx):
        values, _end = unmarshal_request(data, offset)
        try:
            result = getattr(impl, stub.operation_name)(*values)
        except FlickUserException as exc:
            # Generated exception classes carry the AOI exception name as
            # their message, so matching works even when the servant was
            # written against another compiler's classes.
            for arm in exception_arms:
                if exc.args and exc.args[0] == arm.pres.exception_name:
                    marshal_reply(buffer, ctx, arm.labels[0], exc)
                    return True
            raise
        if not result_names:
            payload = {}
        elif len(result_names) == 1:
            payload = {result_names[0]: result}
        else:
            payload = dict(zip(result_names, result))
        marshal_reply(buffer, ctx, 0, payload)
        return True

    handlers.append((operation_key, handler))

    def unmarshal_reply(data, offset):
        cursor = ReadCursor(data, offset)
        disc = codec.format.unpack_atom(
            cursor, reply_pres.mint.discriminator
        )
        if disc == 0:
            values = [
                codec._decode(f.pres, cursor)
                for f in success_arm.pres.fields
            ]
            if not values:
                return None
            if len(values) == 1:
                return values[0]
            return tuple(values)
        for arm in exception_arms:
            if disc == arm.labels[0]:
                fields = {
                    f.name: codec._decode(f.pres, cursor)
                    for f in arm.pres.fields
                }
                exc_class = exception_classes[arm.pres.exception_name]
                raise exc_class(**fields)
        raise UnmarshalError("bad reply status %r" % (disc,))

    setattr(module, "_u_rep_%s" % stub.operation_name, unmarshal_reply)
    _install_client_method(module, stub, marshal_request, unmarshal_reply)


def _install_client_method(module, stub, marshal_request, unmarshal_reply):
    # Stored for _make_client_class to pick up.
    pending = module.__dict__.setdefault("_client_methods", {})
    pending[stub.operation_name] = (stub, marshal_request, unmarshal_reply)


def _make_client_class(class_name, presc, module_dict):
    methods = {}
    pending = module_dict.get("_client_methods", {})

    def __init__(self, transport):
        self._transport = transport
        self._buf = MarshalBuffer()
        self._id = 0

    def _next_id(self):
        self._id = (self._id + 1) & 0xFFFFFFFF
        return self._id

    methods["__init__"] = __init__
    methods["_next_id"] = _next_id

    for operation_name, (stub, _marshal, unmarshal) in pending.items():
        marshal = module_dict["_m_req_%s" % operation_name]
        check_reply = module_dict["_check_reply"]
        if stub.oneway:
            def method(self, *args, _marshal=marshal):
                buffer = self._buf
                buffer.reset()
                _marshal(buffer, _ilu_call_layer(self._next_id()), *args)
                self._transport.send(buffer.view())
                return None
        else:
            def method(self, *args, _marshal=marshal,
                       _unmarshal=unmarshal, _check=check_reply):
                buffer = self._buf
                buffer.reset()
                ctx = _ilu_call_layer(self._next_id())
                _marshal(buffer, ctx, *args)
                reply = self._transport.call(buffer.view())
                offset = _check(reply, ctx)
                return _unmarshal(reply, offset)
        method.__name__ = operation_name
        methods[operation_name] = method
    return type(class_name, (object,), methods)


def _make_servant_class(class_name, presc):
    methods = {}
    for stub in presc.stubs:
        def method(self, *args, _name=stub.operation_name):
            raise NotImplementedError(_name)
        method.__name__ = stub.operation_name
        methods[stub.operation_name] = method
    return type(class_name, (object,), methods)
