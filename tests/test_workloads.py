"""Tests for the paper's benchmark workloads."""

import pytest

from repro import Flick
from repro.encoding import MarshalBuffer
from repro.workloads import (
    BENCH_IDL_CORBA,
    BENCH_IDL_ONC,
    DIR_ENTRY_ENCODED_SIZE,
    MIG_BENCH_IDL,
    dir_entry_count,
    int_count,
    make_dir_entries,
    make_int_array,
    make_rect_array,
    rect_count,
)

_cache = {}


def corba_module():
    if "corba" not in _cache:
        _cache["corba"] = Flick(
            frontend="corba", backend="oncrpc-xdr"
        ).compile(BENCH_IDL_CORBA).load_module()
    return _cache["corba"]


def onc_module():
    if "onc" not in _cache:
        _cache["onc"] = Flick(frontend="oncrpc").compile(
            BENCH_IDL_ONC
        ).load_module()
    return _cache["onc"]


class TestCounts:
    def test_int_count(self):
        assert int_count(64) == 16
        assert int_count(1) == 1

    def test_rect_count(self):
        assert rect_count(64) == 4

    def test_dir_entry_count(self):
        assert dir_entry_count(1024) == 4


class TestGenerators:
    def test_int_array_deterministic(self):
        assert make_int_array(64) == make_int_array(64)
        assert len(make_int_array(256)) == 64

    def test_rect_array_corba(self):
        rects = make_rect_array(corba_module(), 64)
        assert len(rects) == 4
        assert rects[0].ul.x == 0

    def test_rect_array_onc(self):
        rects = make_rect_array(onc_module(), 64, record_prefix="")
        assert len(rects) == 4

    def test_dir_entries_encode_to_exactly_256_bytes_each(self):
        module = onc_module()
        entries = make_dir_entries(module, 1024, record_prefix="")
        buffer = MarshalBuffer()
        module._m_req_dirents(buffer, 1, entries)
        body = len(buffer.getvalue()) - 40 - 4  # header, count word
        assert body == 4 * DIR_ENTRY_ENCODED_SIZE

    def test_corba_and_onc_sources_agree_on_the_wire(self):
        corba = corba_module()
        onc = onc_module()
        payload = 512
        buffers = []
        for module, prefix in ((corba, "Bench_"), (onc, "")):
            buffer = MarshalBuffer()
            module._m_req_rects(
                buffer, 1, make_rect_array(module, payload, prefix)
            )
            buffers.append(buffer.getvalue()[40:])
        assert buffers[0] == buffers[1]

    def test_mig_workload_compiles(self):
        from repro import api
        from repro.compilers import make_baseline

        presc = api.compile(MIG_BENCH_IDL, "mig").presc
        stubs = make_baseline("mig").generate(presc)
        module = stubs.load()
        buffer = MarshalBuffer()
        module._m_req_ints(buffer, 1, make_int_array(256))
        assert len(buffer.getvalue()) > 256
