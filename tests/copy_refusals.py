"""What the fused copy plans send or refuse, field by field, frame by
frame.

``tests/test_bridge_differential.py`` holds a fused plan to its
``fuse=False`` twin: the same egress bytes, or the same ingress error
*reply*.  An error reply does not carry a ``WireFormatError``'s offset,
field, limit or actual, so a refusal whose fields moved would pass it
unnoticed.  This module pins them.

The inputs are the fused channels of the differential test's fixed
cases (a string ending the message, the channels that still fall back,
a sequence of variable-size structs), of a sequence of strings and of
the benchmark ledger's ``put_dirents`` request and ``get_dirents``
reply, each on an IIOP-ingress and an ONC-ingress bridge.  Each message is mutated the way
the differential test mutates it (cut at every body byte, each count
word the fused segments read set to its edge values), and every frame
is recorded as the first 16 hex digits of the egress bytes' sha256, or
as the refusal: ``[type, message, offset, field, limit, actual]``.

``tests/test_gateway.py`` pins them against
``tests/golden/copy_refusals.json``; regenerate that file after an
intended change with::

    PYTHONPATH=src python -m tests.copy_refusals golden
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from benchmarks.e2e import contract
from repro import api
from repro.encoding import MarshalBuffer
from repro.errors import WireFormatError
from repro.gateway import build_plan, transcode_request, translate_reply
from repro.gateway.envelope import parse_request

from tests.test_bridge_differential import (
    BRIDGES,
    _bridge,
    _count_words,
    _mutations,
    _op,
)

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden", "copy_refusals.json")
LEDGER = os.path.join(HERE, os.pardir, "benchmarks", "e2e", "schemas",
                      "ledger.idl")

#: The differential test's fixed cases, and a sequence of strings (whose
#: elements realign after each other): (operation, request arguments,
#: reply result); the items argument is built from the ingress module.
FIXED = [
    ("string op(in long n, in string s);", (5, text), text[::-1])
    for text in ("", "a", "abcd", "abcdefg")
] + [
    ("void op(in string s, in octet b);", ("abc", 7), None),
    ("void op(in string s, in Tag t);", ("abc", bytes(16)), None),
    ("U op(in U u);", ((1, "union"),), (0, 5)),
    ("void op(in Items a);", "items", None),
    ("Names op(in Names a);", (["ab", "cde", ""],), ["xyz", "", "q"]),
]


def _digest(buffer):
    return hashlib.sha256(bytes(buffer.getvalue())).hexdigest()[:16]


def outcome(step, *args):
    """What *step* (``transcode_request`` or ``translate_reply``) makes
    of one frame: the egress digest, or the refusal's fields."""
    buffer = MarshalBuffer()
    try:
        step(*args, buffer)
    except WireFormatError as error:
        return ["WireFormatError", str(error), error.offset, error.field,
                error.limit, error.actual]
    except Exception as error:
        return [type(error).__name__, str(error)]
    return _digest(buffer)


def channel_records(plan, near, far, name, args, result):
    """``{channel: [outcome per frame]}`` for each fused channel of the
    operation *name* of *plan*, on the request carrying *args* and the
    reply carrying *result*."""
    op = plan.ops[next(key for key, op in plan.ops.items()
                       if op.name == name)]
    giop_in = plan.ingress_protocol == "giop"
    buffer = MarshalBuffer()
    getattr(near, "_m_req_" + name)(buffer, 77, *args)
    request = bytes(buffer.getvalue())
    envelope = parse_request(request, plan.ingress_spec)
    records = {}
    if op.request_segments is not None:
        start = envelope.body_offset
        words = _count_words(op.request_segments, request, start)
        records["request"] = [
            outcome(transcode_request, op, frame,
                    parse_request(frame, plan.ingress_spec))
            for frame in _mutations(request, start, words, giop_in)]
    if 0 in op.reply_segments:
        buffer = MarshalBuffer()
        getattr(far, "_m_rep_ok_" + name)(
            buffer, 77, *(() if result is None else (result,)))
        reply = bytes(buffer.getvalue())
        body = op.check_reply(reply, 77)
        words = _count_words(op.reply_segments[0], reply, body + 4)
        records["reply"] = [
            outcome(translate_reply, op, frame, envelope.ctx)
            for frame in _mutations(reply, body, words, not giop_in)]
    return records


def _ledger(ingress, egress):
    with open(LEDGER) as handle:
        text = handle.read()
    near, far = (api.compile(text, name="ledger.idl", backend=backend)
                 for backend in (ingress, egress))
    plan = build_plan(near, far)
    families = {"iiop": "cdr", "oncrpc-xdr": "xdr"}
    sides = [(result, families[backend])
             for result, backend in ((near, ingress), (far, egress))]
    servant = contract.Servant()
    put = contract.make_kind("iiop", "put_dirents", 512, 1, *sides,
                             servant)
    get = contract.make_kind("iiop", "get_dirents", 512, 1, *sides,
                             servant)
    near_module, far_module = near.module, far.module
    records = {}
    for name, args, result in (("put_dirents", (put.arg,), None),
                               ("get_dirents", (get.arg,),
                                servant.stored["dirents", get.arg])):
        for channel, frames in channel_records(
                plan, near_module, far_module, name, args,
                result).items():
            records["ledger %s %s" % (name, channel)] = frames
    return records


def document():
    cases = {}
    for ingress, egress in BRIDGES:
        bridge = "%s->%s" % (ingress, egress)
        for operation, args, result in FIXED:
            plan, _plain, near, far = _bridge(operation, ingress, egress)
            key = "%s %s %r" % (bridge, operation, args)
            if args == "items":
                args = ([near.D_Item("ab", 1, bytes(16))],)
            for channel, frames in channel_records(
                    plan, near, far, _op(plan).name, args, result).items():
                cases["%s %s" % (key, channel)] = frames
        for key, frames in _ledger(ingress, egress).items():
            cases["%s %s" % (bridge, key)] = frames
    return cases


def main(argv):
    if argv[1:] == ["golden"]:
        cases = sorted(document().items())
        with open(GOLDEN, "w") as handle:  # one frame a line
            handle.write("{\n%s\n}\n" % ",\n".join(
                "%s: [\n%s]" % (json.dumps(key), ",\n".join(
                    json.dumps(frame) for frame in frames))
                for key, frames in cases))
        return 0
    print("usage: python -m tests.copy_refusals golden", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
