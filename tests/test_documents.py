"""Outside documents, generated and fuzzed from their descriptions.

Every JSON document that crosses a trust boundary is a dataclass read
and written by :mod:`repro.documents`.  The same descriptions build the
hypothesis strategies here:

* a valid document round-trips ``write`` -> JSON -> ``read`` to an equal
  value and to identical bytes;
* every field, at every depth, mutated to a wrong type is one
  :class:`DocumentError` naming that field's path — never a
  ``TypeError``, ``KeyError`` or ``AttributeError``;
* a worker's control loop fed arbitrary lines answers each one, or
  stops cleanly at EOF or after a drain.
"""

import asyncio
import dataclasses
import json
import socket
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import documents
from repro.documents import DocumentError
from repro.faults import FaultPlan
from repro.obs.metrics import LatencyHistogram
from repro.obs.profile import ProfileSnapshot
from repro.runtime.service import ServiceConfig
from repro.runtime.supervisor.control import Command, Reply
from repro.runtime.supervisor.worker import _control_loop

#: Every outside document: description -> the label its errors carry.
DOCUMENTS = {
    ServiceConfig: "service config",
    FaultPlan: "fault plan",
    ProfileSnapshot: "profile snapshot",
    Command: "control command",
    Reply: "control reply",
}

_SCALARS = {
    int: st.integers(-2 ** 40, 2 ** 40),
    float: st.floats(-1e9, 1e9),
    str: st.text(max_size=6),
    bool: st.booleans(),
}

_probability = st.floats(0.0, 1.0)
_count = st.integers(0, 1000)

#: The value checks the types cannot say, per ``(description, field)``.
_FIELDS = {
    **{(FaultPlan, name): _probability
       for name in ("drop", "delay", "duplicate", "reorder", "truncate",
                    "corrupt", "reset")},
    (FaultPlan, "delay_s"): st.floats(0.0, 10.0),
    (FaultPlan, "corrupt_bits"): st.integers(1, 64),
    (ServiceConfig, "port"): st.integers(0, 65535),
    (ServiceConfig, "metrics_port"): st.none() | st.integers(0, 65535),
    (ServiceConfig, "upstream_port"): st.none() | st.integers(0, 65535),
    (ServiceConfig, "max_concurrency"): st.integers(1, 1000),
}


@st.composite
def _latency(draw):
    """A LatencyHistogram: ``counts`` holds one count per bucket."""
    bounds = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=1,
                                  max_size=4)))
    return LatencyHistogram(
        bounds, draw(st.lists(_count, min_size=len(bounds) + 1,
                              max_size=len(bounds) + 1)),
        draw(_count), draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 10.0)),
        draw(st.none() | st.floats(0.0, 10.0)))


def values(shape):
    """A strategy for the values a field of type *shape* holds."""
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is typing.Union:
        return st.none() | values(args[0])
    if origin is typing.Literal:
        return st.sampled_from(args)
    if shape is LatencyHistogram:
        return _latency()
    if dataclasses.is_dataclass(shape):
        return records(shape)
    if origin is list:
        return st.lists(values(args[0]), max_size=2)
    if origin is dict:
        keys = _count if args[0] is int else st.text(max_size=4)
        return st.dictionaries(keys, values(args[1]), max_size=2)
    return _SCALARS[shape]


def _described(cls):
    """``(name, annotation)`` of *cls*'s document fields."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)
            if f.init]


def records(cls):
    """``st.builds`` of *cls* over its document fields."""
    return st.builds(cls, **{name: _FIELDS.get((cls, name), values(shape))
                             for name, shape in _described(cls)})


def _bytes(document):
    return json.dumps(document, sort_keys=True).encode()


def _sites(shape, value, path=""):
    """``(path, shape, parent, key)`` of every field, item and entry of
    the JSON *value*, described by *shape*."""
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is typing.Union:
        if value is not None:
            yield from _sites(args[0], value, path)
        return
    if dataclasses.is_dataclass(shape):
        for name, field_shape in _described(shape):
            where = path + "." + name if path else name
            yield where, field_shape, value, name
            yield from _sites(field_shape, value[name], where)
    elif origin is list:
        for index, item in enumerate(value):
            where = "%s[%d]" % (path, index)
            yield where, args[0], value, index
            yield from _sites(args[0], item, where)
    elif origin is dict:
        for key, item in value.items():
            where = "%s[%s]" % (path, key)
            yield where, args[1], value, key
            yield from _sites(args[1], item, where)


def _wrong(shape):
    """A JSON value no field of *shape* accepts."""
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is typing.Union:
        origin = typing.get_origin(args[0])
    return {} if origin is list else []


@pytest.mark.parametrize("cls", DOCUMENTS, ids=lambda cls: cls.__name__)
class TestDescribedDocuments:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_valid_document_round_trips_to_the_same_bytes(
            self, cls, data):
        record = data.draw(records(cls))
        text = _bytes(documents.write(record))
        back = documents.parse(cls, text, DOCUMENTS[cls])
        assert back == record
        assert _bytes(documents.write(back)) == text

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_mistyped_field_is_named(self, cls, data):
        document = documents.write(data.draw(records(cls)))
        for path, shape, parent, key in list(_sites(cls, document)):
            original, parent[key] = parent[key], _wrong(shape)
            try:
                with pytest.raises(DocumentError) as caught:
                    documents.read(cls, document, DOCUMENTS[cls])
            finally:
                parent[key] = original
            assert caught.value.path == path
            assert str(caught.value).startswith(
                "%s: %s must be " % (DOCUMENTS[cls], path))

    def test_a_document_that_is_not_an_object_is_named(self, cls):
        for document in ([], 5, "x", None, True):
            with pytest.raises(DocumentError, match="^%s: the document "
                               "must be an object" % DOCUMENTS[cls]):
                documents.read(cls, document, DOCUMENTS[cls])


# ----------------------------------------------------------------------
# The worker's end of the control channel
# ----------------------------------------------------------------------

async def _no_drain():
    pass


def _service():
    return SimpleNamespace(
        config=SimpleNamespace(slot=0, generation=0),
        server=SimpleNamespace(accepting=True, in_flight=0,
                               drain_async=_no_drain),
        draining=False, metrics_text=lambda: "x_total 1\n")


def _converse(lines):
    """Feed *lines* then EOF to a worker's control loop; its replies."""
    async def main():
        parent_sock, child_sock = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=child_sock)
        stop = asyncio.Event()
        loop_task = asyncio.ensure_future(
            _control_loop(reader, writer, _service(), stop))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, parent_sock.sendall, b"".join(line + b"\n"
                                                for line in lines))
        parent_sock.shutdown(socket.SHUT_WR)
        await asyncio.wait_for(loop_task, 10.0)  # raises what it raised
        assert stop.is_set()
        writer.close()
        with parent_sock, parent_sock.makefile("rb") as replies:
            return [json.loads(reply) for reply in
                    await loop.run_in_executor(None, replies.readlines)]

    return asyncio.run(main())


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)

_commands = st.fixed_dictionaries(
    {"cmd": st.sampled_from(["status", "metrics", "profile", "drain",
                             "halt", ""])},
    optional={"seq": st.none() | st.integers() | st.text(max_size=3),
              "extra": _json})

_lines = st.one_of(
    st.binary(max_size=24).map(lambda raw: raw.replace(b"\n", b"")),
    _json.map(lambda value: json.dumps(value).encode()),
    _commands.map(lambda value: json.dumps(value).encode()))


def _seq_of(line):
    """The integer ``seq`` a reply to *line* must echo, else None."""
    try:
        data = json.loads(line)
    except ValueError:
        return None
    seq = data.get("seq") if isinstance(data, dict) else None
    return seq if type(seq) is int else None


class TestControlLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_lines, max_size=6))
    def test_every_line_is_answered_until_drain_or_eof(self, lines):
        answered = []
        for line in lines:
            answered.append(line)
            try:
                command = documents.parse(Command, line, "command")
            except DocumentError:
                continue
            if command.cmd == "drain":
                break
        replies = _converse(lines)
        assert len(replies) == len(answered)
        for line, reply in zip(answered, replies):
            documents.read(Reply, reply, "control reply")
            assert reply["ok"] is (reply["error"] is None)
            assert reply["seq"] == _seq_of(line)

    def test_a_line_over_the_stream_limit_is_not_fatal(self):
        status = json.dumps({"cmd": "status", "seq": 7}).encode()
        replies = _converse([b"x" * 100_000, status])
        assert [reply["ok"] for reply in replies[:-1]] \
            == [False] * (len(replies) - 1)
        assert replies[-1]["ok"] and replies[-1]["seq"] == 7
