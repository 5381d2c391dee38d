"""Property-based end-to-end tests: random values through real dispatch.

Unlike the marshal-level round-trips in ``test_property_roundtrip``, these
drive full client -> transport -> dispatch -> servant -> reply paths,
checking that what the servant receives and what the client gets back are
the values sent, for every back end.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.pres.values import normalize
from repro.runtime import LoopbackTransport

IDL = """
module E {
  struct Item { long id; double weight; string label; };
  typedef sequence<Item> Items;
  typedef sequence<octet> Blob;
  union Outcome switch (long) {
    case 0: string message;
    case 1: long code;
    default: boolean flag;
  };
  exception Rejected { string reason; long at; };
  interface Store {
    long put(in Items batch, in Blob payload) raises (Rejected);
    Outcome classify(in long selector, inout string note);
  };
};
"""

BACKENDS = ("oncrpc-xdr", "iiop", "mach3", "fluke")

_compiled = {}


def client_for(backend):
    if backend not in _compiled:
        module = api.compile(IDL, "corba", backend=backend).module

        class Impl(module.E_StoreServant):
            def put(self, batch, payload):
                if any(item.id < 0 for item in batch):
                    raise module.E_Rejected("negative id", len(batch))
                return len(batch) * 1000 + len(payload)

            def classify(self, selector, note):
                if selector == 0:
                    return (0, "msg:" + note), note + "!"
                if selector == 1:
                    return (1, len(note)), note
                return (selector, bool(note)), ""

        impl = Impl()
        client = module.E_StoreClient(
            LoopbackTransport(module.dispatch, impl)
        )
        _compiled[backend] = (module, client)
    return _compiled[backend]


latin_label = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=255), max_size=24
)

items = st.lists(
    st.tuples(
        st.integers(0, 2**31 - 1),
        st.floats(allow_nan=False, width=64),
        latin_label,
    ),
    max_size=12,
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEndToEndProperties:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batch=items, payload=st.binary(max_size=128))
    def test_put_roundtrip(self, backend, batch, payload):
        module, client = client_for(backend)
        records = [
            module.E_Item(item_id, weight, label)
            for item_id, weight, label in batch
        ]
        assert client.put(records, payload) == (
            len(batch) * 1000 + len(payload)
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batch=items, payload=st.binary(max_size=64))
    def test_exception_path(self, backend, batch, payload):
        module, client = client_for(backend)
        records = [
            module.E_Item(-1 - item_id, weight, label)
            for item_id, weight, label in batch
        ]
        if not records:
            return
        with pytest.raises(module.E_Rejected) as exc_info:
            client.put(records, payload)
        assert exc_info.value.reason == "negative id"
        assert exc_info.value.at == len(records)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(selector=st.integers(0, 40), note=latin_label)
    def test_union_reply_and_inout(self, backend, selector, note):
        module, client = client_for(backend)
        outcome, returned_note = client.classify(selector, note)
        if selector == 0:
            assert outcome == (0, "msg:" + note)
            assert returned_note == note + "!"
        elif selector == 1:
            assert outcome == (1, len(note))
            assert returned_note == note
        else:
            assert outcome == (selector, bool(note))
            assert returned_note == ""
