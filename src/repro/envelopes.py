"""One description of every protocol's message envelope.

A protocol's envelope — what sits in front of the marshaled body — is
stated here once per direction as a *walk*: a tuple of steps that read
words, refuse what must be refused (with the bound and the error code
in the step), and leave the body offset in ``o``.  :func:`render`
prints a walk as the straight-line Python every header parser in this
code base consists of, and that text is used in exactly two ways:

* pasted into the generated stubs as inlined statements — the
  ``dispatch`` prelude (``_key``, ``o``, ``_ctx``), ``_check_reply``,
  ``_u_system_exception`` and the id re-parse at the top of
  ``encode_error_reply`` (:mod:`repro.backend`);
* ``exec``'d once per (protocol, direction, byte order) into the
  functions :func:`reader` and :func:`locator` hand out, which every
  reader outside the stubs calls: :mod:`repro.runtime.aio.correlation`,
  :mod:`repro.gateway.envelope`, :mod:`repro.obs.propagation` and
  :class:`repro.runtime.request.RequestCore`.

So a bound cannot be in one parser and missing from the next.  What
varies between the uses is a parameter of the rendering, not a second
walk: *ident* (program/version, object key, expected reply id — a
literal in generated text, a compared argument for the gateway,
unchecked for a probe), *wants* (the optional outputs and the one
``strict`` consistency check) and *upto* (stop at a mark: a probe
needs the id and the key, an error reply the id alone).

Step kinds, ``(kind, ...)``:

``read at names``   unpack 32-bit words at offset *at* (``-`` skips a
                    word); a fixed-offset read that starts where the
                    previous one ended joins its unpack
``do line...``      statements, verbatim
``refuse c error``  ``if c: raise error``
``bound n max what at field``  refuse ``n > max``, structured
``ident i x error`` refuse *x* that is not identity item *i*
``remote error``    the peer's own error answer (raised, or returned by
                    ``_u_system_exception``)
``if c step...`` / ``loop n step...``  nested walks
``want tag step...`` only for renderings that want *tag*
``mark name``       where an *upto* rendering stops
"""

from __future__ import annotations

import functools
import struct

from repro.errors import (
    DispatchError,
    RemoteCallError,
    TransportError,
    WireFormatError,
)

#: RFC 1831: opaque_auth bodies are at most 400 bytes — which also stops
#: a forged length from buying a long skip.
MAX_AUTH_BYTES = 400

#: Refuse messages advertising absurdly many service contexts (each
#: entry costs a bounds-checked skip; a forged count must not buy a
#: long loop).
MAX_SERVICE_CONTEXTS = 64

#: Reply-status sentinel for system-exception replies.  GIOP proper uses
#: reply_status 2; this compiler's reply_status doubles as the
#: reply-union discriminator where small integers label user exceptions
#: (see repro.backend.iiop), so system exceptions take a value no
#: exception arm can collide with.
SYSTEM_EXCEPTION_STATUS = 0x7FFFFFFF

#: accept_stat names (RFC 1831 section 8).
ACCEPT_STAT_NAMES = {
    0: "SUCCESS",
    1: "PROG_UNAVAIL",
    2: "PROG_MISMATCH",
    3: "PROC_UNAVAIL",
    4: "GARBAGE_ARGS",
    5: "SYSTEM_ERR",
}

#: "FLIC": the GIOP service-context id and the ONC RPC auth flavor that
#: carry a trace context (repro.obs.propagation), and its body size.
TRACE_CONTEXT_ID = 0x464C4943
TRACE_BODY_SIZE = 24

_OVERRUN = (
    "refuse", "o > len(d)",
    "WireFormatError('request header overruns the frame', offset=o,"
    " field='header', limit=len(d), actual=o)")


def _onc_call(e):
    return (
        ("read", 0, "_ctx _mt"),
        ("refuse", "_mt != 0",
         "DispatchError('not an ONC RPC call message', code='not_call')"),
        ("mark", "id"),
        ("read", 8, "_rv _prog _vers _key"),
        ("want", "at", ("do", "_at = 0")),
        ("mark", "key"),
        ("refuse", "_rv != 2",
         "DispatchError('RPC version %d unsupported' % _rv,"
         " code='rpc_mismatch')"),
        ("ident", 0, "_prog",
         "DispatchError('program %d unavailable' % _prog,"
         " code='prog_unavail')"),
        ("ident", 1, "_vers",
         "DispatchError('program version %d unsupported' % _vers,"
         " code='prog_mismatch')"),
        # Skip credential and verifier by their length fields (RFC 1831
        # opaque_auth).  A null credential leaves o = 40; an auth-opaque
        # one (a propagated trace context) shifts the body by a multiple
        # of 4, which XDR's own padding rules already require.
        ("read", 24, "_cf _cl"),
        ("bound", "_cl", MAX_AUTH_BYTES, "credential too long", "28",
         "cred_length"),
        ("want", "trace",
         ("do", "_ex = _cf or _cl",
          "_tr = 32 if _cf == %d and _cl == %d else -1"
          % (TRACE_CONTEXT_ID, TRACE_BODY_SIZE))),
        ("do", "o = 32 + _cl + (-_cl % 4)"),
        ("read", "o + 4", "_vl"),
        ("bound", "_vl", MAX_AUTH_BYTES, "verifier too long", "o + 4",
         "verf_length"),
        ("do", "o += 8 + _vl + (-_vl % 4)"),
        _OVERRUN,
    )


def _onc_reply(e):
    return (
        ("read", 0, "_xid _mt"),
        ("want", "at", ("do", "_cid = _xid", "_at = 0")),
        ("mark", "id"),
        ("ident", 0, "_xid", "TransportError('reply xid mismatch')"),
        ("refuse", "_mt != 1", "TransportError('not an ONC RPC reply')"),
        ("read", 8, "_rs"),
        ("if", "_rs == 1",
         ("read", 12, "_rj"),
         ("if", "_rj == 0",
          ("read", 16, "_lo _hi"),
          ("remote", "RemoteCallError('server denied the call: RPC version"
           " mismatch (server speaks %d..%d)' % (_lo, _hi),"
           " protocol='oncrpc', code='RPC_MISMATCH')")),
         ("remote", "RemoteCallError('server denied the call:"
          " authentication error', protocol='oncrpc',"
          " code='AUTH_ERROR')")),
        ("refuse", "_rs != 0",
         "WireFormatError('bad reply_stat %r' % (_rs,), offset=8,"
         " field='reply_stat')"),
        # MSG_ACCEPTED: skip the verifier by its length (foreign servers
        # may attach one), then check accept_stat.
        ("read", 16, "_vl"),
        ("bound", "_vl", MAX_AUTH_BYTES, "verifier too long", "16",
         "verf_length"),
        ("do", "o = 20 + _vl + (-_vl % 4)"),
        ("read", "o", "_ac"),
        ("do", "o += 4"),
        ("if", "_ac",
         ("do", "_code = %r.get(_ac, 'accept_stat %%d' %% _ac)"
          % ACCEPT_STAT_NAMES, "_why = _code"),
         ("if", "_ac == 2",
          ("read", "o", "_lo _hi"),
          ("do", "_why += ' (server speaks %d..%d)' % (_lo, _hi)")),
         ("remote", "RemoteCallError('server accepted the call but: '"
          " + _why, protocol='oncrpc', code=_code)")),
    )


def _giop_contexts():
    """Skip the service-context list whose count ``_nsc`` was read."""
    return (
        ("bound", "_nsc", MAX_SERVICE_CONTEXTS, "too many service contexts",
         "12", "service_contexts"),
        ("want", "trace", ("do", "_ex = _nsc")),
        ("do", "o = 16"),
        ("loop", "_nsc",
         ("read", "o", "_ci _cl"),
         ("want", "trace",
          ("if", "_tr < 0 and _ci == %d and _cl == %d"
           % (TRACE_CONTEXT_ID, TRACE_BODY_SIZE), ("do", "_tr = o + 8"))),
         ("do", "o += 8 + _cl", "o += -o % 4")),
    )


def _giop_request(e):
    return (
        ("refuse", "bytes(d[0:4]) != b'GIOP'",
         "DispatchError('not a GIOP message', code='bad_magic')"),
        ("refuse", "len(d) < 12",
         "WireFormatError('GIOP header truncated', field='header',"
         " limit=12, actual=len(d))"),
        ("refuse", "d[7] != 0",
         "DispatchError('not a GIOP Request', code='not_request')"),
        ("refuse", "d[6] != %d" % (e == "<"),
         "DispatchError('GIOP byte-order mismatch: this endpoint is"
         " %s-endian', code='byte_order')"
         % ("little" if e == "<" else "big")),
        # Declared-vs-actual frame size: a lying message_size means the
        # framing layer and the GIOP layer disagree about where this
        # message ends — nothing after the header can be trusted.  (An
        # error reply still goes to the id such a request carries.)
        ("want", "strict",
         ("read", 8, "_msz"),
         ("refuse", "_msz != len(d) - 12",
          "WireFormatError('GIOP message size %d disagrees with frame"
          " size %d' % (_msz, len(d) - 12), offset=8,"
          " field='message_size', actual=_msz, limit=len(d) - 12)")),
        ("read", 12, "_nsc"),
    ) + _giop_contexts() + (
        ("read", "o", "_ctx"),
        ("want", "at", ("do", "_at = o")),
        ("want", "two", ("do", "_two = d[o + 4] != 0")),
        ("mark", "id"),
        ("do", "o += 5  # request id + response_expected octet",
         "o += -o % 4"),
        ("read", "o", "_kl"),
        # The object key names the target interface.  ONC RPC servers
        # reject a wrong program number with PROG_UNAVAIL; match that
        # rigor (and give the cross-protocol error map a two-sided
        # pairing) by rejecting a wrong object key with
        # OBJECT_NOT_EXIST instead of dispatching it anyway.
        ("ident", 0, "bytes(d[o + 4:o + 4 + _kl])",
         "DispatchError('unknown object key', code='object_not_exist')"),
        ("do", "o += 4 + _kl", "o += -o % 4"),
        ("read", "o", "_ol"),
        ("do", "_key = bytes(d[o + 4:o + 3 + _ol])"),
        ("mark", "key"),
        ("do", "o += 4 + _ol", "o += -o % 4"),
        ("read", "o", "_pl"),
        ("do", "o += 4 + _pl"),
        _OVERRUN,
    )


def _giop_system_exception(e):
    """The body of a system-exception reply, from offset ``o``."""
    return (
        ("read", "o", "_n"),
        ("refuse", "_n > len(d) - o - 4",
         "WireFormatError('system exception id truncated', offset=o,"
         " field='exc_id_length', actual=_n)"),
        ("do", "_id = bytes(d[o + 4:o + 4 + _n])"
         ".rstrip(b'\\x00').decode('latin-1')",
         "o += 4 + _n + (-_n % 4)"),
        ("read", "o", "_minor _cmp"),
        ("remote", "RemoteCallError('server raised %s (minor %d,"
         " completed %d)' % (_id, _minor, _cmp), protocol='giop',"
         " code=_id, minor=_minor, completed=_cmp)"),
    )


def _giop_reply(e):
    return (
        ("refuse", "bytes(d[0:4]) != b'GIOP' or len(d) < 12",
         "TransportError('not a GIOP Reply')"),
        ("if", "d[7] == 6",
         ("remote", "RemoteCallError('server answered with GIOP"
          " MessageError', protocol='giop', code='GIOP::MessageError')")),
        ("refuse", "d[7] != 1", "TransportError('not a GIOP Reply')"),
        ("read", 12, "_nsc"),
    ) + _giop_contexts() + (
        ("read", "o", "_rid"),
        ("want", "at", ("do", "_cid = _rid", "_at = o")),
        ("mark", "id"),
        ("ident", 0, "_rid",
         "TransportError('reply request id mismatch')"),
        ("do", "o += 4"),
        # The reply_status word that follows is the reply union's
        # discriminator, decoded with the body: _check_reply stops here.
        ("mark", "body"),
        ("read", "o", "_d"),
        ("if", "_d == %d" % SYSTEM_EXCEPTION_STATUS,
         ("do", "o += 4")) + _giop_system_exception(e),
    )


def _mach3_request(e):
    # msgh_size is checked against the frame as the reply walk checks
    # it: Mach messages carry their own length, and a stub that trusts
    # a frame whose header lies about it decodes someone else's bytes.
    return (
        ("read", 4, "_size - - _key"),
        ("do", "_ctx = _key"),
        ("mark", "key"),
        ("refuse", "_size != len(d)",
         "WireFormatError('mach message size %d disagrees with frame size"
         " %d' % (_size, len(d)), offset=4, field='msgh_size',"
         " limit=len(d), actual=_size)"),
        ("do", "o = 20"),
    )


def _mach3_reply(e):
    return (
        ("read", 4, "_size"),
        ("refuse", "_size != len(d)",
         "TransportError('mach message size mismatch')"),
        ("do", "o = 20"),
    )


def _fluke_request(e):
    return (("read", 0, "_key"), ("do", "_ctx = None"), ("mark", "key"),
            ("do", "o = 4"))


def _fluke_reply(e):
    return (("do", "o = 0"),)  # the kernel pairs replies with requests


#: (protocol, direction) -> walk(byte order) -> steps.  Evaluated per
#: rendering, so the bounds above are read when a parser is printed.
WALKS = {
    ("oncrpc", "request"): _onc_call, ("oncrpc", "reply"): _onc_reply,
    ("giop", "request"): _giop_request, ("giop", "reply"): _giop_reply,
    ("giop", "system_exception"): _giop_system_exception,
    ("mach3", "request"): _mach3_request, ("mach3", "reply"): _mach3_reply,
    ("fluke", "request"): _fluke_request, ("fluke", "reply"): _fluke_reply,
}


# ----------------------------------------------------------------------
# The printer
# ----------------------------------------------------------------------

def literal(identity):
    """*ident* for :func:`render`: each item compared as a literal."""
    return tuple("%%s != %r" % (item,) for item in identity)


def render(protocol, direction, e, *, ident=None, wants=(), upto=None,
           remote="raise %s"):
    """The walk of *protocol* × *direction* as a list of source lines.

    *e* is the struct byte-order prefix.  *ident* holds one condition
    template per identity item (``%s`` is the value on the wire), or
    None to leave identity unchecked.
    """
    lines = []
    _emit(lines, WALKS[protocol, direction](e), "", e, ident, set(wants),
          upto, remote)
    return lines


def _wanted(steps, wants):
    for step in steps:
        if step[0] != "want":
            yield step
        elif step[1] in wants:
            yield from _wanted(step[2:], wants)


def _select(steps, wants, upto):
    """The steps one rendering keeps: wanted ones, up to its mark, each
    fixed-offset read joined to the one it continues."""
    kept, last = [], None
    for step in _wanted(steps, wants):
        kind = step[0]
        if kind == "mark":
            if step[1] == upto:
                break
        elif kind == "read" and last is not None and step[1] == \
                kept[last][1] + 4 * len(kept[last][2].split()):
            kept[last] = ("read", kept[last][1],
                          kept[last][2] + " " + step[2])
        else:
            if kind == "read" and isinstance(step[1], int):
                last = len(kept)
            kept.append(step)
    return kept


def _emit(out, steps, pad, e, ident, wants, upto, remote):
    for step in _select(steps, wants, upto):
        kind = step[0]
        if kind == "read":
            names = step[2].split()
            targets = [name for name in names if name != "-"]
            out.append("%s%s = _unpack_from('%s%s', d, %s)%s" % (
                pad,
                targets[0] if len(targets) == 1
                else "(%s)" % ", ".join(targets), e,
                "".join("4x" if name == "-" else "I" for name in names),
                step[1], "[0]" if len(targets) == 1 else ""))
        elif kind == "do":
            out.extend(pad + line for line in step[1:])
        elif kind == "remote":
            out.append(pad + remote % step[1])
        elif kind in ("if", "loop"):
            out.append(pad + ("if %s:" if kind == "if"
                              else "for _ in range(%s):") % step[1])
            _emit(out, step[2:], pad + "    ", e, ident, wants, None,
                  remote)
        elif kind != "ident" or ident is not None:
            if kind == "bound":
                _, name, limit, what, at, field = step
                cond = "%s > %d" % (name, limit)
                error = ("WireFormatError(%r, offset=%s, field=%r,"
                         " limit=%d, actual=%s)"
                         % (what, at, field, limit, name))
            elif kind == "ident":
                cond, error = ident[step[1]] % step[2], step[3]
            else:
                _, cond, error = step
            out.append("%sif %s:" % (pad, cond))
            out.append("%s    raise %s" % (pad, error))


# ----------------------------------------------------------------------
# The module-level readers
# ----------------------------------------------------------------------

#: (direction, which walk) -> (parameters, defaults, result, wants, upto,
#: remote).  A whole request walk compares *ident* when given one; a
#: locator stops at the "key" / "id" mark and checks no more than it
#: passes on the way; the routed reply walk is the whole one with the id
#: kept and the peer's error answer returned beside it, not raised.
_SHAPES = {
    ("request", True): (
        "d, ident=None", "_at = None; _two = True; _tr = -1; _ex = 0",
        "(_ctx, _key, o, _two, _at, _tr, _ex)",
        ("strict", "two", "at", "trace"), None, "raise %s"),
    ("request", False): (
        "d", "_at = None; _two = True", "(_ctx, _at, _key, _two)",
        ("two", "at"), "key", "raise %s"),
    ("reply", True): ("d", "pass", "o", (), None, "raise %s"),
    ("reply", False): (
        "d", "_cid = _at = None", "(_cid, _at)", ("at",), "id", "raise %s"),
    ("reply", "routed"): (
        "d", "_cid = _at = None", "(_cid, _at, None)", ("at",), None,
        "return (_cid, _at, %s)"),
}

_NAMESPACE = {
    "_unpack_from": struct.unpack_from, "_struct_error": struct.error,
    "DispatchError": DispatchError, "RemoteCallError": RemoteCallError,
    "TransportError": TransportError, "WireFormatError": WireFormatError,
}


def _walker(protocol, direction, e, which):
    parameters, defaults, result, wants, upto, remote = \
        _SHAPES[direction, which]
    body = render(
        protocol, direction, e, wants=wants, upto=upto, remote=remote,
        ident=("ident and %s != ident[0]", "ident and %s != ident[1]")
        if (direction, which) == ("request", True) else None)
    source = "\n".join(
        ["def walk(%s):" % parameters, "    " + defaults, "    try:"]
        + ["        " + line for line in body]
        + ["    except (_struct_error, IndexError) as _e:",
           "        raise WireFormatError('truncated %s header: %%s' %% _e,"
           " field='header', limit=len(d), actual=len(d)) from None"
           % direction,
           "    return " + result])
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<%s %s envelope>" % (protocol, direction),
                 "exec"), namespace)
    namespace["walk"].source = source
    return namespace["walk"]


@functools.lru_cache(maxsize=None)
def reader(protocol, direction, e):
    """The whole walk as a function, every check in it.

    ``reader(p, "request", e)(d, ident=None)`` returns ``(ctx, key,
    body offset, expects reply, ctx offset, trace-context offset or -1,
    metadata entries already carried)`` and compares *ident* —
    ``(program, version)`` / ``(object key,)`` — when given one;
    ``reader(p, "reply", e)(d)`` returns the body offset or raises the
    :class:`~repro.errors.RemoteCallError` the reply carries.
    """
    return _walker(protocol, direction, e, True)


@functools.lru_cache(maxsize=None)
def locator(protocol, direction, e):
    """The walk up to where the correlation id (and a request's demux
    key) is known: ``(ctx, ctx offset, key, expects reply)`` for a
    request, ``(id, id offset)`` for a reply."""
    return _walker(protocol, direction, e, False)


@functools.lru_cache(maxsize=None)
def router(protocol, e):
    """The whole reply walk as the one pass a multiplexing client makes
    over a reply: ``(id, id offset, the RemoteCallError the reply
    carries or None)`` — every check of ``reader(p, "reply", e)``, the
    answer of ``locator(p, "reply", e)`` kept on the way."""
    return _walker(protocol, "reply", e, "routed")


_GIOP_DIRECTIONS = {0: "request", 1: "reply", 6: "reply"}  # 6: MessageError
_ONC_DIRECTIONS = {b"\0\0\0\0": "request", b"\0\0\0\1": "reply"}


def sniff(d):
    """``(protocol, direction, byte order)`` of a self-describing frame.

    ONC RPC and GIOP frames say what they are; Mach 3 and Fluke frames
    do not, and take their walk from the stub module that serves them.
    """
    if len(d) < 8:
        raise TransportError(
            "message too short to correlate (%d bytes)" % len(d))
    if d[:4] == b"GIOP":
        direction = _GIOP_DIRECTIONS.get(d[7])
        if direction is None:
            raise TransportError(
                "unsupported GIOP message type %d" % d[7])
        return "giop", direction, "<" if d[6] else ">"
    direction = _ONC_DIRECTIONS.get(bytes(d[4:8]))
    if direction is None:
        raise TransportError("not an ONC RPC message (type %d)"
                             % int.from_bytes(d[4:8], "big"))
    return "oncrpc", direction, ">"
