"""Protocol-level detail tests: header layouts, xids, foreign messages."""

import struct

import pytest

from repro import api
from repro.errors import TransportError, UnmarshalError
from repro.encoding import MarshalBuffer
from repro.runtime import LoopbackTransport

from tests.conftest import MailImpl, compile_mail, make_client


class TestOncRpcHeaders:
    @pytest.fixture(scope="class")
    def module(self):
        return compile_mail("oncrpc-xdr").module

    def test_call_header_fields(self, module):
        buffer = MarshalBuffer()
        module._m_req_ping(buffer, 0xDEADBEEF, 1)
        fields = struct.unpack_from(">IIIIIIIIII", buffer.getvalue(), 0)
        assert fields[0] == 0xDEADBEEF   # xid
        assert fields[1] == 0            # CALL
        assert fields[2] == 2            # RPC version
        assert fields[3] == 0x20000000   # fallback program for CORBA input
        assert fields[6:10] == (0, 0, 0, 0)  # null cred + verf

    def test_xid_increments_per_call(self, module):
        captured = []

        class Tap:
            def call(self, request):
                captured.append(struct.unpack_from(">I", request, 0)[0])
                # Echo a valid reply for avg.
                reply = MarshalBuffer()
                module._m_rep_ok_avg(reply, captured[-1], 1.0)
                return reply.getvalue()

        client = module.Test_MailClient(Tap())
        client.avg([1])
        client.avg([1])
        assert captured[1] == captured[0] + 1

    def test_reply_xid_mismatch_raises(self, module):
        class Liar:
            def call(self, request):
                reply = MarshalBuffer()
                module._m_rep_ok_avg(reply, 0x12345678, 1.0)
                return reply.getvalue()

        client = module.Test_MailClient(Liar())
        with pytest.raises(TransportError):
            client.avg([1])

    def test_rejected_reply_raises(self, module):
        class Rejector:
            def call(self, request):
                xid = struct.unpack_from(">I", request, 0)[0]
                # MSG_DENIED
                return struct.pack(">IIIIII", xid, 1, 1, 0, 0, 0)

        client = module.Test_MailClient(Rejector())
        with pytest.raises(TransportError):
            client.avg([1])

    def test_wrong_program_rejected_by_dispatch(self, module):
        from repro.errors import DispatchError

        buffer = MarshalBuffer()
        module._m_req_ping(buffer, 1, 5)
        data = bytearray(buffer.getvalue())
        struct.pack_into(">I", data, 12, 0x99999999)  # program
        with pytest.raises(DispatchError):
            module.dispatch(bytes(data), MailImpl(module), MarshalBuffer())


class TestGiopHeaders:
    @pytest.fixture(scope="class")
    def module(self):
        return compile_mail("iiop").module

    def test_request_header_layout(self, module):
        buffer = MarshalBuffer()
        module._m_req_ping(buffer, 42, 5)
        data = buffer.getvalue()
        assert data[:4] == b"GIOP"
        assert data[4:6] == b"\x01\x00"      # GIOP 1.0
        assert data[6] == 0                  # big endian
        assert data[7] == 0                  # Request
        (size,) = struct.unpack_from(">I", data, 8)
        assert size == len(data) - 12
        (request_id,) = struct.unpack_from(">I", data, 16)
        assert request_id == 42
        assert b"Test::Mail" in data         # object key
        assert b"ping\x00" in data           # operation + NUL

    def test_oneway_sets_response_expected_zero(self, module):
        buffer = MarshalBuffer()
        module._m_req_ping(buffer, 1, 5)
        # response_expected is the octet right after the request id.
        assert buffer.getvalue()[20] == 0
        buffer.reset()
        module._m_req_avg(buffer, 1, [1])
        assert buffer.getvalue()[20] == 1

    def test_foreign_request_with_service_context(self, module):
        """A request carrying service contexts (as a foreign ORB might
        send) still dispatches correctly."""
        buffer = MarshalBuffer()
        module._m_req_avg(buffer, 9, [2, 4, 6])
        original = buffer.getvalue()
        # Rebuild with one service context entry before the request id.
        context = struct.pack(">II", 0xF00F, 6) + b"sixby" + b"\0"
        padding = b"\0" * (-len(context) % 4)
        body = original[16:]  # from request id on
        rebuilt = bytearray()
        rebuilt += original[:12]
        rebuilt += struct.pack(">I", 1)      # one service context
        rebuilt += context + padding
        rebuilt += body
        struct.pack_into(">I", rebuilt, 8, len(rebuilt) - 12)
        reply = MarshalBuffer()
        impl = MailImpl(module)
        assert module.dispatch(bytes(rebuilt), impl, reply) is True
        offset = module._check_reply(reply.getvalue(), 9)
        assert module._u_rep_avg(reply.getvalue(), offset) == 4.0

    def test_foreign_reply_with_service_context(self, module):
        """_check_reply skips contexts in replies as well."""
        reply = MarshalBuffer()
        module._m_rep_ok_avg(reply, 7, 5.0)
        original = reply.getvalue()
        # The inserted bytes keep 8-byte alignment: CDR offsets are
        # relative to the message start, so a byte-splicing test (unlike
        # a real ORB, which re-marshals) must not shift the body's
        # alignment.  12 (count word stays) + 16 = 0 mod 8... the count
        # word already exists, so the insertion is exactly these 16 bytes.
        context = struct.pack(">II", 1, 8) + b"ctxtctxt"
        rebuilt = bytearray()
        rebuilt += original[:12]
        rebuilt += struct.pack(">I", 1)
        rebuilt += context
        rebuilt += original[16:]
        struct.pack_into(">I", rebuilt, 8, len(rebuilt) - 12)
        offset = module._check_reply(bytes(rebuilt), 7)
        assert module._u_rep_avg(bytes(rebuilt), offset) == 5.0

    def test_byte_order_mismatch_rejected(self, module):
        from repro.errors import DispatchError
        from tests.conftest import MAIL_IDL

        little = api.compile(
            MAIL_IDL, "corba", backend="iiop", little_endian=True).module
        buffer = MarshalBuffer()
        little._m_req_ping(buffer, 1, 5)
        with pytest.raises(DispatchError) as exc_info:
            module.dispatch(buffer.getvalue(), MailImpl(module),
                            MarshalBuffer())
        assert "byte-order" in str(exc_info.value)

    def test_non_giop_bytes_rejected(self, module):
        from repro.errors import DispatchError

        with pytest.raises(DispatchError):
            module.dispatch(b"HTTP/1.1 200 OK\r\n\r\n", MailImpl(module),
                            MarshalBuffer())


class TestMachHeaders:
    def test_request_and_reply_ids(self):
        module = compile_mail("mach3").module
        from repro.backend.mach3 import MSGH_ID_BASE
        from repro.envelopes import MSGH_ID_REPLY_DELTA

        buffer = MarshalBuffer()
        module._m_req_ping(buffer, None, 5)
        (msgh_id,) = struct.unpack_from("<I", buffer.getvalue(), 16)
        assert msgh_id > MSGH_ID_BASE
        reply = MarshalBuffer()
        module._m_rep_ok_avg(reply, None, 1.0)
        (reply_id,) = struct.unpack_from("<I", reply.getvalue(), 16)
        # Reply ids are request id + 100 for the same op; different ops
        # differ, but every id lives above the base.
        assert reply_id > MSGH_ID_BASE + MSGH_ID_REPLY_DELTA - 100

    def test_msgh_size_patched(self):
        module = compile_mail("mach3").module
        buffer = MarshalBuffer()
        module._m_req_avg(buffer, None, list(range(10)))
        (size,) = struct.unpack_from("<I", buffer.getvalue(), 4)
        assert size == len(buffer.getvalue())

    def test_reply_size_mismatch_rejected(self):
        module = compile_mail("mach3").module

        class Corruptor:
            def call(self, request):
                reply = MarshalBuffer()
                module._m_rep_ok_avg(reply, None, 2.0)
                return reply.getvalue() + b"JUNK"

        client = module.Test_MailClient(Corruptor())
        with pytest.raises(TransportError):
            client.avg([2])


class TestFlukeHeaders:
    def test_opcode_word_only(self):
        module = compile_mail("fluke").module
        buffer = MarshalBuffer()
        module._m_req_ping(buffer, None, 5)
        (opcode,) = struct.unpack_from("<I", buffer.getvalue(), 0)
        assert opcode >= 1
        # Body begins immediately: the long x at offset 4, packed.
        (value,) = struct.unpack_from("<i", buffer.getvalue(), 4)
        assert value == 5

    def test_reply_has_no_header(self):
        module = compile_mail("fluke").module
        reply = MarshalBuffer()
        module._m_rep_ok_avg(reply, None, 1.5)
        # Union discriminator (0) right at offset 0.
        (disc,) = struct.unpack_from("<I", reply.getvalue(), 0)
        assert disc == 0


class TestTruncatedReplies:
    @pytest.mark.parametrize("backend", ["oncrpc-xdr", "iiop"])
    def test_truncated_reply_raises_unmarshal_error(self, backend):
        module = compile_mail(backend).module
        impl = MailImpl(module)
        inner = LoopbackTransport(module.dispatch, impl)

        class Truncator:
            def call(self, request):
                return inner.call(request)[:-6]

        client = module.Test_MailClient(Truncator())
        with pytest.raises((UnmarshalError, TransportError)):
            client.send(
                "hello",
                module.Test_Rect(module.Test_Point(1, 2),
                                 module.Test_Point(3, 4)),
                (0, 1),
            )
