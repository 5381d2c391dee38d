"""Tests for iterative list marshaling (the paper's footnote-5 feature).

A struct whose trailing optional field points back to itself marshals and
unmarshals with a loop instead of recursion — wire-identical, but immune
to recursion limits on deep lists.
"""

import pytest

from repro import OptFlags, api
from repro.encoding import MarshalBuffer
from repro.runtime import LoopbackTransport

LIST_IDL = """
struct entry { int v; string tag<16>; entry *next; };
program LISTS { version LV {
    int count(entry) = 1;
    entry echo(entry) = 2;
} = 1; } = 0x20000400;
"""

#: The tail pointer is *not* last, so the loop transformation must not
#: apply (the recursive fallback stays correct).
MIDDLE_IDL = """
struct weird { int v; weird *next; int after; };
program W { version WV { int count(weird) = 1; } = 1; } = 0x20000401;
"""


def build_chain(module, count):
    chain = None
    for index in range(count):
        chain = module.entry(index, "t%d" % index, chain)
    return chain


@pytest.fixture(scope="module")
def iterative():
    return api.compile(LIST_IDL, "oncrpc").module


@pytest.fixture(scope="module")
def recursive():
    return api.compile(
        LIST_IDL, "oncrpc", flags=OptFlags(iterative_lists=False)).module


def make_client(module):
    class Impl(module.LISTS_LVServant):
        def count(self, chain):
            total = 0
            while chain is not None:
                total += 1
                chain = chain.next
            return total

        def echo(self, chain):
            return chain

    return module.LISTS_LVClient(
        LoopbackTransport(module.dispatch, Impl())
    )


def codec_text(flags=None):
    """The codec functions as the module text prints them."""
    return api.compile(LIST_IDL, "oncrpc", flags=flags).stubs.py_source


class TestIterativeLists:
    def test_loop_code_generated(self):
        assert "while 1:" in codec_text()

    def test_recursive_code_without_flag(self):
        assert "_m_entry(b," in codec_text(OptFlags(iterative_lists=False))

    def test_roundtrip_small(self, iterative):
        client = make_client(iterative)
        assert client.count(build_chain(iterative, 3)) == 3
        echoed = client.echo(build_chain(iterative, 2))
        assert echoed.v == 1 and echoed.next.v == 0
        assert echoed.next.next is None

    def test_empty_tail(self, iterative):
        client = make_client(iterative)
        assert client.count(iterative.entry(9, "x", None)) == 1

    def test_deep_list_no_recursion_error(self, iterative):
        client = make_client(iterative)
        assert client.count(build_chain(iterative, 20000)) == 20000

    def test_deep_list_fails_recursively(self, recursive):
        client = make_client(recursive)
        with pytest.raises(RecursionError):
            client.count(build_chain(recursive, 20000))

    def test_wire_identical_to_recursive(self, iterative, recursive):
        iterative_buffer, recursive_buffer = MarshalBuffer(), MarshalBuffer()
        iterative._m_req_count(iterative_buffer, 7, build_chain(iterative, 5))
        recursive._m_req_count(
            recursive_buffer, 7, build_chain(recursive, 5)
        )
        assert iterative_buffer.getvalue() == recursive_buffer.getvalue()

    def test_cross_decode(self, iterative, recursive):
        buffer = MarshalBuffer()
        iterative._m_req_count(buffer, 7, build_chain(iterative, 4))
        (chain,), _o = recursive._u_req_count(buffer.getvalue(), 40)
        count = 0
        while chain is not None:
            count += 1
            chain = chain.next
        assert count == 4

    @pytest.mark.parametrize("backend", ["iiop", "mach3", "fluke"])
    def test_other_backends_too(self, backend):
        module = api.compile(LIST_IDL, "oncrpc", backend=backend).module
        client = make_client(module)
        assert client.count(build_chain(module, 5000)) == 5000


class TestNonTailRecursion:
    def test_middle_pointer_falls_back_to_recursion(self):
        result = api.compile(MIDDLE_IDL, "oncrpc")
        module = result.module
        # The loop transformation must not fire...
        assert "_m_weird(b," in result.stubs.py_source

        class Impl(module.W_WVServant):
            def count(self, chain):
                total = 0
                while chain is not None:
                    total += 1
                    chain = chain.next
                return total

        client = module.W_WVClient(
            LoopbackTransport(module.dispatch, Impl())
        )
        chain = module.weird(1, module.weird(2, None, 20), 10)
        assert client.count(chain) == 2
