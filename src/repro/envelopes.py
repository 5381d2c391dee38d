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

The same walk also *writes*: rendered with ``wants=("write", "at")``
each read packs its words instead of unpacking them, and
:func:`header` execs that text once into the writer of the constant
header templates (with their ``_ctx`` and size patches) every back
end's ``request_header`` / ``reply_header`` returns and
:func:`write_error` writes its replies through.

So a bound cannot be in one parser and missing from the next, nor a
field written where no reader looks for it.  What varies between the
uses is a parameter of the rendering, not a second walk: *ident*
(program/version, object key, expected reply id — a literal in
generated text, a compared argument for the gateway, unchecked for a
probe), *wants* (the optional outputs, the one ``strict`` consistency
check, and ``write``) and *upto* (stop at a mark: a probe needs the id
and the key, an error reply the id alone, a reply template the header
before the body).

Step kinds, ``(kind, ...)``:

``read at names``   unpack 32-bit words at offset *at* (``-`` skips a
                    word); a fixed-offset read that starts where the
                    previous one ended joins its unpack
``do line...``      statements, verbatim
``refuse c error``  ``if c: raise error``
``is x v error``    refuse *x* that is not *v*; a writer writes *v* (as
                    a word's default, or into the byte ``d[k]``)
``bound n max what at field``  refuse ``n > max``, structured
``ident i x error`` refuse *x* that is not identity item *i*
``remote error``    the peer's own error answer (raised, or returned by
                    ``_u_system_exception``)
``if c step...`` / ``loop n step...``  nested walks
``want tag step...`` only for renderings that want *tag*; a writer
                    wants ``write`` (what a reader skips: magic, flags,
                    name bytes, the size word) and ``at`` (where the
                    context is patched)
``mark name``       where an *upto* rendering stops
"""

from __future__ import annotations

import functools
import struct

from repro.errors import (
    DispatchError,
    OverloadError,
    RemoteCallError,
    TransportError,
    UnmarshalError,
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
        ("want", "write", ("do", "_prog, _vers = _ident")),
        ("read", 0, "_ctx _mt"),
        ("is", "_mt", 0,
         "DispatchError('not an ONC RPC call message', code='not_call')"),
        ("mark", "id"),
        ("read", 8, "_rv _prog _vers _key"),
        ("want", "at", ("do", "_at = 0")),
        ("mark", "key"),
        ("is", "_rv", 2,
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
        ("want", "weave", ("do", "_put(d, 32, _cb)"), ("mark", "weave")),
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
        ("is", "_mt", 1, "TransportError('not an ONC RPC reply')"),
        ("read", 8, "_rs"),
        ("if", "_rs == 1",
         ("read", 12, "_rj"),
         ("if", "_rj == 0",
          ("read", 16, "_lo _hi"),
          ("remote", "RemoteCallError('server denied the call: RPC version"
           " mismatch (server speaks %d..%d)' % (_lo, _hi),"
           " protocol='oncrpc', code='RPC_MISMATCH')")),
         ("want", "write", ("read", 16, "_auth")),
         ("remote", "RemoteCallError('server denied the call:"
          " authentication error', protocol='oncrpc',"
          " code='AUTH_ERROR')")),
        ("is", "_rs", 0,
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
        ("want", "weave", ("read", 16, "_ci _cl"), ("do", "_put(d, 24, _cb)"),
         ("mark", "weave")),
        ("loop", "_nsc",
         ("read", "o", "_ci _cl"),
         ("want", "trace",
          ("if", "_tr < 0 and _ci == %d and _cl == %d"
           % (TRACE_CONTEXT_ID, TRACE_BODY_SIZE), ("do", "_tr = o + 8"))),
         ("do", "o += 8 + _cl", "o += -o % 4")),
    )


def _giop_magic(e):
    """GIOP 1.0's first 12 bytes as a writer starts them: magic, version,
    byte order, and the message size, patched at 8 once the body is in."""
    return ("want", "write",
            ("do", "_put(d, 0, %r)" % (b"GIOP\1\0" + bytes((e == "<",))
                                       + bytes(5)), "_sp = 8, 12"))


def _giop_request(e):
    return (
        _giop_magic(e),
        ("refuse", "bytes(d[0:4]) != b'GIOP'",
         "DispatchError('not a GIOP message', code='bad_magic')"),
        ("refuse", "len(d) < 12",
         "WireFormatError('GIOP header truncated', field='header',"
         " limit=12, actual=len(d))"),
        ("is", "d[7]", 0,
         "DispatchError('not a GIOP Request', code='not_request')"),
        ("is", "d[6]", e == "<",
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
        ("want", "write", ("do", "_put(d, o + 4, bytes((_two,)))")),
        ("mark", "id"),
        ("do", "o += 5  # request id + response_expected octet",
         "o += -o % 4"),
        ("want", "write",
         ("do", "_kl = len(_ident[0])", "_put(d, o + 4, _ident[0])")),
        ("read", "o", "_kl"),
        # The object key names the target interface.  ONC RPC servers
        # reject a wrong program number with PROG_UNAVAIL; match that
        # rigor (and give the cross-protocol error map a two-sided
        # pairing) by rejecting a wrong object key with
        # OBJECT_NOT_EXIST instead of dispatching it anyway.
        ("ident", 0, "bytes(d[o + 4:o + 4 + _kl])",
         "DispatchError('unknown object key', code='object_not_exist')"),
        ("do", "o += 4 + _kl", "o += -o % 4"),
        ("want", "write",
         ("do", "_ol = len(_key) + 1", "_put(d, o + 4, _key + bytes(1))")),
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
        ("want", "write",
         ("do", "_n = len(_id) + 1",
          "_put(d, o + 4, _id.encode('latin-1') + bytes(1))")),
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
        _giop_magic(e),
        ("refuse", "bytes(d[0:4]) != b'GIOP' or len(d) < 12",
         "TransportError('not a GIOP Reply')"),
        ("if", "d[7] == 6",
         ("remote", "RemoteCallError('server answered with GIOP"
          " MessageError', protocol='giop', code='GIOP::MessageError')")),
        ("is", "d[7]", 1, "TransportError('not a GIOP Reply')"),
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


#: msgh_bits: MACH_MSGH_BITS(MACH_MSG_TYPE_COPY_SEND,
#:                           MACH_MSG_TYPE_MAKE_SEND_ONCE)
MSGH_BITS_REQUEST = 0x00001513
MSGH_BITS_REPLY = 0x00001200
#: A reply's msgh_id is its request's plus this (the Mach convention).
MSGH_ID_REPLY_DELTA = 100


def _mach3_bits(bits, *lines):
    """msgh_bits, which no reader checks, and where msgh_size is."""
    return ("want", "write",
            ("do", "_bits = %#x" % bits, "_sp = 4, 0") + lines,
            ("read", 0, "_bits"))


def _mach3_request(e):
    # msgh_size is checked against the frame as the reply walk checks
    # it: Mach messages carry their own length, and a stub that trusts
    # a frame whose header lies about it decodes someone else's bytes.
    return (
        _mach3_bits(MSGH_BITS_REQUEST),
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
        _mach3_bits(MSGH_BITS_REPLY, "_key += %d" % MSGH_ID_REPLY_DELTA),
        ("read", 4, "_size"),
        ("refuse", "_size != len(d)",
         "TransportError('mach message size mismatch')"),
        ("want", "write", ("read", 16, "_key")),
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
# The error replies the ``remote`` steps read
# ----------------------------------------------------------------------

#: reject_stat AUTH_ERROR carries an auth_stat; AUTH_FAILED is the
#: catch-all RFC 1831 provides for "rejected for unspecified reasons".
AUTH_FAILED = 7

#: The accept_stat of every accepted ONC error reply, by name.
_ERROR_STATS = {name: stat for stat, name in ACCEPT_STAT_NAMES.items()
                if stat}
#: The rejected ONC replies: reject_stat, then RPC_MISMATCH's version
#: range (this end speaks RPC version 2 only) or AUTH_ERROR's auth_stat.
_DENIALS = {"RPC_MISMATCH": {"rs": 1, "rj": 0, "lo": 2, "hi": 2},
            "AUTH_ERROR": {"rs": 1, "rj": 1, "auth": AUTH_FAILED}}


def write_error(buffer, protocol, ctx, code, minor=0, completed=1, *,
                versions=(2, 2), e=">"):
    """Append the error reply that the reply walk of *protocol* reads
    back as ``RemoteCallError(code=code, minor=minor,
    completed=completed)``.

    *ctx* is the id answered (ONC xid, GIOP request id).  ONC RPC: the
    denied ``RPC_MISMATCH`` and ``AUTH_ERROR`` and each accepted error
    ``accept_stat`` by name, *versions* the ``PROG_MISMATCH`` range; a
    code RFC 1831 does not name goes out as ``SYSTEM_ERR``, and *minor*
    and *completed* are not on that wire.  GIOP: a system-exception
    Reply in byte order *e* for any repository id, or a
    ``GIOP::MessageError`` when there is no request id to answer
    (*ctx* None).  The generated ``encode_error_reply`` and the
    gateway's error mapping both write through here.
    """
    if protocol == "oncrpc":
        spec = header("oncrpc", "reply", ">", **_DENIALS.get(code) or dict(
            ac=_ERROR_STATS.get(code, 5), lo=versions[0], hi=versions[1]))
    elif ctx is None:
        # The walk writes a Reply's type byte; a MessageError is the
        # other type its first test reads, and has no more than this.
        message = b"GIOP" + bytes((1, 0, e == "<", 6)) + bytes(4)
        offset = buffer.reserve(len(message))
        buffer.data[offset:offset + len(message)] = message
        return
    else:
        spec = header("giop", "reply", e, d=SYSTEM_EXCEPTION_STATUS,
                      id=code, minor=minor, cmp=completed)
    spec.finish(buffer, spec.write(buffer, ctx))


_CORBA = "IDL:omg.org/CORBA/%s:1.0"

#: How a server answers a request it refused, per protocol: the
#: :func:`write_error` arguments after *ctx* of the first row whose
#: DispatchError code (the walks above raise most of them) is the
#: error's, or whose exception classes the error is an instance of.
REFUSALS = {
    "oncrpc": (
        ("rpc_mismatch", ("RPC_MISMATCH",)),
        ("prog_mismatch", ("PROG_MISMATCH",)),
        ("prog_unavail", ("PROG_UNAVAIL",)),
        ("proc_unavail", ("PROC_UNAVAIL",)),
        ((UnmarshalError, DispatchError), ("GARBAGE_ARGS",)),
        (BaseException, ("SYSTEM_ERR",)),  # overload shedding included
    ),
    "giop": (
        (OverloadError, (_CORBA % "TRANSIENT",)),
        ("bad_operation", (_CORBA % "BAD_OPERATION",)),
        ("object_not_exist", (_CORBA % "OBJECT_NOT_EXIST",)),
        ("no_permission", (_CORBA % "NO_PERMISSION",)),
        ((UnmarshalError, DispatchError), (_CORBA % "MARSHAL",)),
        (BaseException, (_CORBA % "UNKNOWN", 0, 2)),  # COMPLETED_MAYBE
    ),
}


def refusal(error, protocol):
    """The :func:`write_error` arguments after *ctx* that answer a
    request of *protocol* refused with *error* (:data:`REFUSALS`)."""
    code = getattr(error, "code", None)
    for match, arguments in REFUSALS[protocol]:
        if match == code if isinstance(match, str) \
                else isinstance(error, match):
            return arguments


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
            form = e + "".join("4x" if name == "-" else "I" for name in names)
            if "write" in wants:
                out.append("%s_put(d, %s, _pack('%s', %s))" % (
                    pad, step[1], form, ", ".join(targets)))
            else:
                out.append("%s%s = _unpack_from('%s', d, %s)%s" % (
                    pad, targets[0] if len(targets) == 1
                    else "(%s)" % ", ".join(targets), form, step[1],
                    "[0]" if len(targets) == 1 else ""))
        elif kind == "do":
            out.extend(pad + line for line in step[1:])
        elif kind == "remote":
            out.append(pad + remote % step[1])
        elif kind in ("if", "loop"):
            out.append(pad + ("if %s:" if kind == "if"
                              else "for _ in range(%s):") % step[1])
            _emit(out, step[2:], pad + "    ", e, ident, wants, None,
                  remote)
        elif "write" in wants:  # a writer checks nothing
            if kind == "is" and step[1].startswith("d["):
                out.append("%s%s = %d" % (pad, step[1], step[2]))
        elif kind != "ident" or ident is not None:
            if kind == "bound":
                _, name, limit, what, at, field = step
                cond = "%s > %d" % (name, limit)
                error = ("WireFormatError(%r, offset=%s, field=%r,"
                         " limit=%d, actual=%s)"
                         % (what, at, field, limit, name))
            elif kind == "ident":
                cond, error = ident[step[1]] % step[2], step[3]
            elif kind == "is":
                cond, error = "%s != %d" % step[1:3], step[3]
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

#: The writer: its parameters are :data:`_FIELDS` and :func:`_words`;
#: it returns the template, the context's offset and ``(size offset,
#: what the size does not count)`` — the last two None when absent —
#: and stops where a reader would raise the peer's answer.
_SHAPES["request", "write"] = _SHAPES["reply", "write"] = (
    None, "d = bytearray(); o = 0; _at = _sp = None", "d, _at, _sp",
    ("write", "at"), None, "return d, _at, _sp  # %s")

#: The weaver: the writer of a request header up to and with the trace
#: context a traced request carries first, and the size word GIOP's
#: ``strict`` read checks.
_SHAPES["request", "weave"] = _SHAPES["request", "write"][:3] + (
    ("write", "at", "strict", "weave"), "weave", "return d, _at, _sp  # %s")

#: What a writer takes beside the words it packs: the values a reader
#: returns or compares (identity, demux key, two-way, exception id, the
#: body of a woven trace context).
_FIELDS = {"_ident": (), "_key": 0, "_two": True, "_id": "", "_cb": b""}


def _words(steps, wants, words):
    """Add every word a writer packs to *words*: 0, or the value an
    ``is`` step requires of it."""
    for step in _wanted(steps, wants):
        if step[0] == "read":
            for name in step[2].split():
                if name != "-":
                    words.setdefault(name, 0)
        elif step[0] == "is" and not step[1].startswith("d["):
            words[step[1]] = step[2]
        elif step[0] in ("if", "loop"):
            _words(step[2:], wants, words)
    return words


def _put(d, at, data):
    """Write *data* at *at* in the growing template *d*."""
    if at > len(d):
        d.extend(bytes(at - len(d)))
    d[at:at + len(data)] = data


_NAMESPACE = {
    "_unpack_from": struct.unpack_from, "_struct_error": struct.error,
    "_pack": struct.pack, "_put": _put,
    "DispatchError": DispatchError, "RemoteCallError": RemoteCallError,
    "TransportError": TransportError, "WireFormatError": WireFormatError,
}


def _walker(protocol, direction, e, which, upto=None):
    parameters, defaults, result, wants, stop, remote = \
        _SHAPES[direction, which]
    body = render(
        protocol, direction, e, wants=wants, upto=upto or stop,
        remote=remote,
        ident=("ident and %s != ident[0]", "ident and %s != ident[1]")
        if (direction, which) == ("request", True) else None)
    if which in ("write", "weave"):
        parameters = ", ".join("%s=%r" % word for word in _words(
            WALKS[protocol, direction](e), wants, dict(_FIELDS)).items())
    else:
        body = ["try:"] + ["    " + line for line in body] + [
            "except (_struct_error, IndexError) as _e:",
            "    raise WireFormatError('truncated %s header: %%s' %% _e,"
            " field='header', limit=len(d), actual=len(d)) from None"
            % direction]
    source = "\n".join(
        ["def walk(%s):" % parameters, "    " + defaults]
        + ["    " + line for line in body] + ["    return " + result])
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
def _writer(protocol, direction, e, upto):
    return _walker(protocol, direction, e,
                   "weave" if upto == "weave" else "write", upto)


def header(protocol, direction, e, upto=None, **fields):
    """The :class:`~repro.backend.base.HeaderSpec` whose bytes the walk
    of *protocol* × *direction* reads back as *fields*.

    A field sets the walk's name of the same spelling with a leading
    underscore: ``ident`` (what ``reader`` compares), ``key`` (the demux
    key it returns), ``two`` (a GIOP request expects a reply), ``id`` (a
    system exception's repository id), or any word the walk reads.
    Other words are 0 or what the walk's ``is`` steps require.  The id
    word is patched with ``_ctx``, the size word (GIOP, Mach 3) once
    the body is in; *upto* stops at a mark — a GIOP reply header ends
    at ``body``, where the reply union begins.  ``upto="weave"`` writes
    a request header as far as the trace context that goes first
    (``ci``/``cf``, ``cl`` and its body ``cb``), with the GIOP size word
    (``msz``) written as given: what :mod:`repro.obs.propagation`
    splices into a request.
    """
    from repro.backend.base import HeaderSpec

    d, at, size = _writer(protocol, direction, e, upto)(
        **{"_" + name: value for name, value in fields.items()})
    return HeaderSpec(bytes(d), () if at is None else (
        (at, e + "I", "_ctx"),), size and (size[0], e + "I", size[1]))


@functools.lru_cache(maxsize=None)
def system_exception(e):
    """``_u_system_exception(d, o)`` of byte order *e*: the body of a
    GIOP system-exception reply from offset *o*, decoded to the
    :class:`~repro.errors.RemoteCallError` it carries, which it returns
    for the caller to raise.  Compiled once per process; every IIOP
    stub module of that byte order imports it from
    :mod:`repro.backend.stubrt`."""
    source = "\n".join(
        ["def _u_system_exception(d, o):",
         '    """Decode a system-exception reply body; returns the',
         '    RemoteCallError for the caller to raise."""']
        + ["    " + line for line in render(
            "giop", "system_exception", e, remote="return %s")])
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<giop system_exception %s>" % e, "exec"),
         namespace)
    function = namespace["_u_system_exception"]
    function.source = source
    return function


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
