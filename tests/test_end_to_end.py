"""Integration tests: IDL -> stubs -> RPC over loopback, every back end."""

import pytest

from repro import FlickError, OptFlags, api
from repro.errors import DispatchError, UnmarshalError
from repro.runtime import LoopbackTransport
from repro.pres.values import normalize

from tests.conftest import (
    ALL_BACKENDS,
    MailImpl,
    compile_db,
    compile_mail,
    make_client,
)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def mail(backend):
    return compile_mail(backend).module


class TestMailInterface:
    def test_call_with_everything(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(mail.Test_Point(1, 2), mail.Test_Point(3, 4))
        result = client.send("hello", rect, (1, 2.5))
        assert result == (10, (1, 2.5), 2)

    def test_union_default_arm(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(mail.Test_Point(0, 0), mail.Test_Point(0, 9))
        result = client.send("ab", rect, (2, "deflt"))
        assert result == (11, (2, "deflt"), 2)

    def test_exception_propagates(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(mail.Test_Point(0, 0), mail.Test_Point(0, 0))
        with pytest.raises(mail.Test_Bad) as exc_info:
            client.send("fail", rect, (0, 1))
        assert exc_info.value.why == "nope"
        assert exc_info.value.code == -3

    def test_oneway(self, mail):
        client, impl = make_client(mail)
        assert client.ping(123) is None
        assert impl.last_ping == 123

    def test_sequence_of_scalars(self, mail):
        client, _impl = make_client(mail)
        assert client.avg(list(range(101))) == 50.0

    def test_octet_sequences(self, mail):
        client, _impl = make_client(mail)
        assert client.reverse(b"\x01\x02\x03") == b"\x03\x02\x01"

    def test_empty_octet_sequence(self, mail):
        client, _impl = make_client(mail)
        assert client.reverse(b"") == b""

    def test_fixed_array_param(self, mail):
        client, _impl = make_client(mail)
        triangle = [mail.Test_Point(i, i) for i in range(3)]
        assert client.tri(triangle) is None

    def test_fixed_array_wrong_length_rejected(self, mail):
        from repro.errors import MarshalError

        client, _impl = make_client(mail)
        with pytest.raises(MarshalError):
            client.tri([mail.Test_Point(0, 0)])

    def test_attribute_getter(self, mail):
        client, _impl = make_client(mail)
        assert client._get_counter() == 42

    def test_empty_string(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(mail.Test_Point(5, 0), mail.Test_Point(0, 5))
        assert client.send("", rect, (1, 0.0))[0] == 10

    def test_latin1_string_payload(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(mail.Test_Point(0, 0), mail.Test_Point(0, 0))
        result = client.send("caf\xe9", rect, (2, "\xffstr"))
        assert result[1] == (2, "\xffstr")

    def test_many_sequential_calls_reuse_buffers(self, mail):
        client, _impl = make_client(mail)
        for index in range(200):
            assert client.avg([index]) == float(index)

    def test_negative_numbers(self, mail):
        client, _impl = make_client(mail)
        rect = mail.Test_Rect(
            mail.Test_Point(-5, -6), mail.Test_Point(-7, -8)
        )
        result = client.send("xy", rect, (0, -2147483648))
        assert result == (-11, (0, -2147483648), 2)


class TestOncSpecific:
    @pytest.fixture()
    def db(self):
        return compile_db().module

    def make_db_client(self, db):
        class Impl(db.DB_DBVServant):
            def lookup(self, key):
                if key == "missing":
                    return (1, None)
                return (0, db.entry("a", 1, db.entry("b", 2, None)))

            def store(self, chain):
                count = 0
                while chain is not None:
                    count += 1
                    chain = chain.next
                return count

            def echo(self, blob):
                return blob

            def rev(self, xs):
                return xs[::-1]

        return db.DB_DBVClient(LoopbackTransport(db.dispatch, Impl()))

    def test_linked_list_reply(self, db):
        client = self.make_db_client(db)
        status, head = client.lookup("x")
        assert status == 0
        assert head.name == "a" and head.next.name == "b"
        assert head.next.next is None

    def test_union_void_arm(self, db):
        client = self.make_db_client(db)
        assert client.lookup("missing") == (1, None)

    def test_linked_list_request(self, db):
        client = self.make_db_client(db)
        chain = db.entry("x", 1, db.entry("y", 2, db.entry("z", 3, None)))
        assert client.store(chain) == 3

    def test_deep_list(self, db):
        client = self.make_db_client(db)
        chain = None
        for index in range(100):
            chain = db.entry("n%d" % index, index, chain)
        assert client.store(chain) == 100

    def test_bounded_opaque(self, db):
        client = self.make_db_client(db)
        assert client.echo(b"x" * 4096) == b"x" * 4096

    def test_bounded_opaque_over_limit_rejected(self, db):
        from repro.errors import MarshalError

        client = self.make_db_client(db)
        with pytest.raises(MarshalError):
            client.echo(b"x" * 4097)

    def test_string_bound_enforced(self, db):
        from repro.errors import MarshalError

        client = self.make_db_client(db)
        chain = db.entry("n" * 256, 1, None)
        with pytest.raises(MarshalError):
            client.store(chain)

    def test_int_seq_roundtrip(self, db):
        client = self.make_db_client(db)
        assert client.rev([1, 2, 3]) == [3, 2, 1]
        assert client.rev([]) == []


class TestDispatchErrors:
    def test_unknown_operation(self, mail):
        from repro.encoding import MarshalBuffer

        _client, impl = make_client(mail)
        buffer = MarshalBuffer()
        # Build a valid request, then corrupt its operation identifier.
        mail._m_req_ping(buffer, 1, 5)
        data = bytearray(buffer.getvalue())
        position = data.find(b"ping")
        if position >= 0:
            data[position:position + 4] = b"zzzz"
        else:
            # Integer-keyed protocols: trash the id words (opcode for
            # Fluke, msgh_id for Mach, version/proc words for ONC RPC).
            data[0:4] = b"\xff" * 4
            data[16:24] = b"\xff" * 8
        reply = MarshalBuffer()
        with pytest.raises(DispatchError):
            mail.dispatch(bytes(data), impl, reply)

    def test_truncated_request(self, mail):
        from repro.encoding import MarshalBuffer

        _client, impl = make_client(mail)
        buffer = MarshalBuffer()
        mail._m_req_avg(buffer, 1, list(range(50)))
        truncated = buffer.getvalue()[:50]
        reply = MarshalBuffer()
        with pytest.raises((UnmarshalError, DispatchError)):
            mail.dispatch(truncated, impl, reply)


class TestFlags:
    @pytest.mark.parametrize("flag", [
        "inline_marshal", "chunk_atoms", "memcpy_arrays",
        "batch_buffer_checks", "hash_demux", "reuse_buffers",
    ])
    def test_each_flag_off_still_works(self, flag):
        flags = OptFlags().but(**{flag: False})
        module = compile_mail("oncrpc-xdr", flags).module
        client, _impl = make_client(module)
        rect = module.Test_Rect(
            module.Test_Point(1, 2), module.Test_Point(3, 4)
        )
        assert client.send("hey", rect, (1, 1.5)) == (8, (1, 1.5), 2)

    def test_all_off_still_works(self):
        module = compile_mail("iiop", OptFlags.all_off()).module
        client, _impl = make_client(module)
        assert client.avg([2, 4]) == 3.0

    def test_zero_copy_server(self):
        flags = OptFlags(zero_copy_server=True)
        module = compile_mail("oncrpc-xdr", flags).module
        client, _impl = make_client(module)
        assert client.reverse(b"abc") == b"cba"


class TestCompilerFacade:
    def test_requires_interface_choice_when_ambiguous(self):
        with pytest.raises(FlickError):
            api.compile("interface A {}; interface B {};", "corba")

    def test_compile_all(self):
        results = api.compile_all(
            "interface A { void f(); }; interface B { void g(); };", "corba")
        assert set(results) == {"A", "B"}

    def test_no_interfaces_rejected(self):
        with pytest.raises(FlickError):
            api.compile("struct S { long v; };", "corba")

    def test_unknown_frontend_rejected(self):
        with pytest.raises(FlickError):
            api.compile("interface A {};", "pascal")
