"""The Ledger contract as the call-path workloads use it: compiled
interfaces, servants that do no work, payloads, and per-op verification.
"""

import pathlib
from collections import deque

from benchmarks.e2e import reference, values

SCHEMAS = pathlib.Path(__file__).resolve().parent / "schemas"

#: protocol -> (back end, wire family of the reference encoders).
PROTOCOLS = {"onc": ("oncrpc-xdr", "xdr"), "iiop": ("iiop", "cdr")}

#: Record-class prefix of the CORBA front end for ``module Ledger``.
PREFIX = "Ledger_"

METHODS = ("ping", "put_ints", "put_rects", "put_dirents",
           "get_ints", "get_rects", "get_dirents")


def schema_text(name):
    return (SCHEMAS / name).read_text()


class Servant:
    """Does no work: ``put_*`` keeps a reference to its argument (the
    caller pops and checks it), ``get_*`` hands back a value prebuilt
    in set-up, ``ping`` returns its argument."""

    def __init__(self):
        self.received = deque()
        self.stored = {}

    def ping(self, x):
        return x

    def put_ints(self, a):
        self.received.append(a)

    put_rects = put_dirents = put_ints

    def get_ints(self, n):
        return self.stored["ints", n]

    def get_rects(self, n):
        return self.stored["rects", n]

    def get_dirents(self, n):
        return self.stored["dirents", n]


class Wire:
    """The request and reply bytes of the last call (full checks)."""

    __slots__ = ("request", "reply", "armed")

    def __init__(self, request=b"", reply=b""):
        self.request = request
        self.reply = reply
        self.armed = False


class Kind:
    """One (protocol, method, payload) op kind of a workload.

    ``arg`` is what the caller passes, ``expected`` what must come out
    the far side (the servant's argument for ``put_*``, the caller's
    result otherwise) presented with the far side's record classes.
    """

    def __init__(self, protocol, method, shape, arg, expected, servant,
                 request_body, reply_body):
        self.protocol = protocol
        self.method = method
        self.shape = shape          # None for ping
        self.arg = arg
        self.expected = expected
        self.servant = servant
        self.request_body = request_body
        self.reply_body = reply_body
        self.name = "%s.%s" % (protocol, method)
        self.digest = (None if shape is None
                       else values.digest(shape, expected))

    def verify(self, result, wire=None):
        """True when the op's outcome is right.

        Always the cheap check (length, first and last element); with
        *wire*, also whole-value equality and that the request and reply
        bytes end with the hand-written reference bodies.
        """
        if self.method.startswith("put_"):
            try:
                value = self.servant.received.popleft()
            except IndexError:
                return False
        else:
            value = result
        if self.shape is None:
            ok = value == self.expected
        else:
            ok = (isinstance(value, list) and len(value) > 0
                  and values.digest(self.shape, value) == self.digest)
        if ok and wire is not None:
            ok = (value == self.expected
                  and wire.request.endswith(self.request_body)
                  and wire.reply.endswith(self.reply_body))
        return ok


def make_kind(protocol, method, payload_bytes, seed, near, far, servant):
    """Build one :class:`Kind`.

    *near* is the protocol the caller speaks and *far* the one the
    servant speaks (they differ only through the gateway); each is a
    ``(CompiledInterface, wire family)`` pair.
    """
    near_result, near_family = near
    far_result, far_family = far
    rng = values.seeded(seed, "%s/%s" % (method, payload_bytes))
    if method == "ping":
        x = rng.randrange(1, 2 ** 31)
        body = reference.long_body(x)
        return Kind(protocol, method, None, x, x, servant, body, body)
    direction, shape = method.split("_")
    plain = values.plain(shape, payload_bytes, rng)
    near_value = values.present(shape, plain, near_result.module, PREFIX)
    far_value = values.present(shape, plain, far_result.module, PREFIX)
    body = reference.BODIES[near_family][shape](plain)
    if direction == "put":
        return Kind(protocol, method, shape, near_value, far_value,
                    servant, body, b"")
    servant.stored[shape, len(plain)] = far_value
    return Kind(protocol, method, shape, len(plain), near_value, servant,
                reference.long_body(len(plain)), body)
