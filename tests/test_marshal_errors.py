"""Client stubs surface bad arguments as MarshalError, not struct.error."""

import struct

import pytest

from repro.encoding import MarshalBuffer
from repro.errors import MarshalError, UnmarshalError
from repro.runtime import LoopbackTransport

from tests.conftest import ALL_BACKENDS, MailImpl, compile_mail, make_client
from tests.test_mir_renderers import (
    SHAPES_IDL,
    RecordingTransport,
    ShapesImpl,
)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestMarshalErrors:
    def test_wrong_scalar_type(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        with pytest.raises(MarshalError):
            client.avg(["not", "numbers"])

    def test_wrong_struct_type(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        with pytest.raises(MarshalError):
            client.send("hi", "not-a-rect", (0, 1))

    def test_float_for_int_rejected(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        with pytest.raises(MarshalError):
            client.ping(1.5)

    def test_out_of_range_int(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        with pytest.raises(MarshalError):
            client.ping(2**40)

    def test_bad_union_payload(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        rect = module.Test_Rect(
            module.Test_Point(0, 0), module.Test_Point(0, 0)
        )
        with pytest.raises(MarshalError):
            client.send("hi", rect, (1, "double expected here"))

    def test_no_union_arm(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        rect = module.Test_Rect(
            module.Test_Point(0, 0), module.Test_Point(0, 0)
        )
        # Color enum has arms 0, 1, and default, so this still works;
        # the send op's *reply* union would reject unknown status codes,
        # but the request union has a default arm.  Use the error message
        # path through a non-pair union value instead.
        with pytest.raises((MarshalError, ValueError, TypeError)):
            client.send("hi", rect, "not-a-pair")

    def test_buffer_left_reusable_after_error(self, backend):
        module = compile_mail(backend).load_module()
        client, _impl = make_client(module)
        with pytest.raises(MarshalError):
            client.avg([None])
        # The next call still works on the same client/buffer.
        assert client.avg([2, 4]) == 3.0


# ----------------------------------------------------------------------
# Array regions: one array-wide pack/unpack keeps the per-field errors
# ----------------------------------------------------------------------


class CountingShapes(ShapesImpl):
    """Echo servant that counts how many calls reached it."""

    def __init__(self, reply=None):
        self.calls = 0
        self.reply = reply

    def rects(self, tag, a, c):
        self.calls += 1
        return a if self.reply is None else self.reply


_SHAPES_CACHE = {}


def _shapes(backend, renderer, impl=None):
    from repro import api

    key = ("shapes", backend, renderer)
    if key not in _SHAPES_CACHE:
        _SHAPES_CACHE[key] = api.compile(SHAPES_IDL, "corba",
                                         backend=backend, renderer=renderer)
    module = _SHAPES_CACHE[key].load_module()
    impl = impl or CountingShapes()
    transport = RecordingTransport(LoopbackTransport(module.dispatch, impl))
    return module, module.ShapesClient(transport), impl, transport


@pytest.mark.parametrize("renderer", ("py", "closures"))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestArrayRegionErrors:
    def _rects(self, module, n=3):
        return [module.Rect(module.Coord(i, i), module.Coord(i, i))
                for i in range(n)]

    def test_wrong_typed_field(self, backend, renderer):
        module, client, impl, _log = _shapes(backend, renderer)
        rects = self._rects(module)
        rects[1].lr.y = "seven"
        with pytest.raises(MarshalError):
            client.rects(1, rects, "x")
        assert impl.calls == 0

    def test_out_of_range_field(self, backend, renderer):
        module, client, impl, _log = _shapes(backend, renderer)
        rects = self._rects(module)
        rects[2].ul.x = 2 ** 40
        with pytest.raises(MarshalError):
            client.rects(1, rects, "x")
        assert impl.calls == 0

    def test_missing_field(self, backend, renderer):
        module, client, impl, _log = _shapes(backend, renderer)
        rects = self._rects(module)
        rects[0] = module.Coord(1, 2)        # has no .ul / .lr
        with pytest.raises(MarshalError):
            client.rects(1, rects, "x")
        rects[0] = None
        with pytest.raises(MarshalError):
            client.rects(1, rects, "x")
        assert impl.calls == 0
        # The buffer is reusable after the failed region.
        assert len(client.rects(1, self._rects(module), "x")) == 3

    def test_servant_returning_a_bad_region(self, backend, renderer):
        module, client, impl, _log = _shapes(
            backend, renderer, CountingShapes(reply=[object()]))
        with pytest.raises(MarshalError):
            client.rects(1, self._rects(module), "x")

    def test_truncated_region(self, backend, renderer):
        """A region cut short — mid-element or exactly between two
        elements — is refused by the one exact size check, before any
        element is built and before the servant runs."""
        module, client, impl, transport = _shapes(backend, renderer)
        client.rects(1, self._rects(module, 4), "x")
        request = transport.log[-1][0]
        before = impl.calls
        # The trailing char, then 5 bytes / one whole 16-byte element.
        for cut in (1 + 5, 1 + 16):
            frame = bytearray(request[:-cut])
            # A hostile peer keeps the declared size consistent.
            if backend == "iiop":
                frame[8:12] = struct.pack(">I", len(frame) - 12)
            elif backend == "mach3":
                frame[4:8] = struct.pack("<I", len(frame))
            with pytest.raises(UnmarshalError) as info:
                module.dispatch(bytes(frame), impl, MarshalBuffer())
            assert "truncated" in str(info.value)
            assert getattr(info.value, "offset", None) is None
        assert impl.calls == before


class TestEmptyCdrString:
    """A CDR string's count includes its NUL (CORBA 2.0 ch. 12), so a
    count of 0 is refused by every renderer, as the interpretive oracle
    refuses it."""

    IDL = "interface Echo { void say(in string s, in long n); };"

    @pytest.mark.parametrize("renderer", ("py", "closures"))
    def test_count_zero_is_refused(self, renderer):
        from repro import api

        module = api.compile(self.IDL, name="echo.idl", backend="iiop",
                             renderer=renderer).load_module()
        body = struct.pack(">II", 0, 7)
        with pytest.raises(UnmarshalError, match="length 0 too short"):
            module._u_req_say(body, 0)
        # A count of 1 is the empty string.
        assert module._u_req_say(struct.pack(">IBxxxI", 1, 0, 7), 0) \
            == (("", 7), 12)

    def test_c_stubs_carry_the_same_check(self):
        from repro import api

        source = api.compile(self.IDL, name="echo.idl",
                             backend="iiop").stubs.c_source
        assert 'flick_error("string length 0 too short")' in source
