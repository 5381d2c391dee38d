"""Native-Python schemas: compiled codecs versus reflective serializers.

The pyschema front end compiles annotated dataclasses through the same
optimizing back end as every IDL language, so a Python-native schema
pays no "it's just Python" marshal tax.  This module proves the point
on the paper's Figure 3 shapes (integer arrays, rectangle arrays,
directory entries), comparing:

* **flick-pyschema** — codecs compiled from the dataclass schema
  (oncrpc-xdr back end, the Fig. 3 protocol);
* **reflective** — a marshmallow-style serializer that walks
  ``dataclasses.fields()`` per value at serialize time, emitting the
  same XDR wire bytes interpretively;
* **pickle** / **json** — the stdlib escape hatches a Python service
  reaches for when it has no IDL compiler.

Results (MB/s of serialized output, plus compiled-over-rival ratios)
land in ``results/BENCH_pyschema.json``; the CI ``frontend-matrix``
job uploads it as an artifact.
"""

import dataclasses
import json
import pickle
import struct
import time
import types

import pytest

from repro import api
from repro.workloads import BENCH_PYSCHEMA

from benchmarks.harness import fmt, print_table, save_json, workload_args

#: Fig. 3 points: the headline integer arrays plus both struct shapes.
POINTS = (
    ("ints", 65536),
    ("ints", 1048576),
    ("rects", 65536),
    ("dirents", 65536),
)

SERIALIZERS = ("flick-pyschema", "reflective", "pickle", "json")


# ----------------------------------------------------------------------
# The reflective rival: walk dataclasses.fields() per value
# ----------------------------------------------------------------------

_I32 = struct.Struct(">i")
_U32 = struct.Struct(">I")


def reflective_xdr(value, out=None):
    """Serialize *value* to XDR bytes by runtime type inspection.

    This is the classic reflective-serializer architecture (marshmallow,
    attrs-based codecs): no generated code, every field discovered with
    ``dataclasses.fields()`` on every call.
    """
    if out is None:
        out = bytearray()
        reflective_xdr(value, out)
        return bytes(out)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            reflective_xdr(getattr(value, field.name), out)
    elif isinstance(value, bool):
        out += _U32.pack(int(value))
    elif isinstance(value, int):
        out += _I32.pack(value)
    elif isinstance(value, str):
        data = value.encode("ascii")
        out += _U32.pack(len(data))
        out += data
        out += b"\x00" * (-len(data) % 4)
    elif isinstance(value, bytes):
        out += value
        out += b"\x00" * (-len(value) % 4)
    elif isinstance(value, list):
        out += _U32.pack(len(value))
        for item in value:
            reflective_xdr(item, out)
    else:
        raise TypeError(type(value))
    return out


def _jsonable(value):
    """A plain-data copy of *value* for the json rival."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, bytes):
        return list(value)
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def _measure(encode, budget=0.04):
    """(MB/s of serialized output, output size) for zero-arg *encode*."""
    size = len(encode())
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        encode()
        iterations += 1
        if iterations % 8 == 0 and clock() - start >= budget:
            break
    return size * iterations / (clock() - start) / 1e6, size


def _plain_module():
    """The schema's dataclasses, exec'd as an ordinary Python module.

    Registered in ``sys.modules`` so ``pickle`` can serialize instances
    (exactly what a real service importing the schema module gets).
    """
    import sys

    name = "bench_pyschema_plain"
    if name in sys.modules:
        return sys.modules[name]
    module = types.ModuleType(name)
    exec(compile(BENCH_PYSCHEMA, "<bench-pyschema>", "exec"),
         module.__dict__)
    sys.modules[name] = module
    return module


def run(budget=0.04, rounds=3):
    compiled = api.compile(
        BENCH_PYSCHEMA, "pyschema", backend="oncrpc-xdr"
    ).module
    plain = _plain_module()
    from repro.encoding import MarshalBuffer

    data = {name: {} for name in SERIALIZERS}
    sizes = {}
    for workload, size in POINTS:
        key = "%s_%d" % (workload, size)
        compiled_args = workload_args(compiled, workload, size, "")
        plain_args = workload_args(plain, workload, size, "")
        json_value = _jsonable(list(plain_args[0]))
        marshal = getattr(compiled, "_m_req_%s" % workload)
        buffer = MarshalBuffer()

        def compiled_encode():
            buffer.reset()
            marshal(buffer, 1, *compiled_args)
            return buffer.getvalue()

        rivals = {
            "flick-pyschema": compiled_encode,
            "reflective": lambda: reflective_xdr(list(plain_args[0])),
            "pickle": lambda: pickle.dumps(plain_args[0]),
            "json": lambda: json.dumps(json_value).encode(),
        }
        for _ in range(rounds):
            for name, encode in rivals.items():
                mbps, out_size = _measure(encode, budget=budget)
                data[name][key] = max(data[name].get(key, 0.0), mbps)
                if name == "flick-pyschema":
                    sizes[key] = out_size
    ratios = {
        rival: {
            key: data["flick-pyschema"][key] / data[rival][key]
            for key in data[rival]
        }
        for rival in SERIALIZERS[1:]
    }
    return {
        "points": ["%s_%d" % point for point in POINTS],
        "message_bytes": sizes,
        "serialize_mbps": data,
        "compiled_speedup": ratios,
    }


class TestPySchemaBench:
    def test_compiled_vs_reflective(self, benchmark):
        data = benchmark.pedantic(run, rounds=1, iterations=1)
        keys = data["points"]
        rows = [
            [name] + [fmt(data["serialize_mbps"][name][key])
                      for key in keys]
            for name in SERIALIZERS
        ]
        rows.append(
            ["speedup"] + [fmt(data["compiled_speedup"]["reflective"][key])
                           for key in keys]
        )
        print_table(
            "pyschema: compiled vs reflective serializers (MB/s)",
            ("serializer",) + tuple(keys),
            rows,
            save_as="pyschema_compiled_vs_reflective",
        )
        save_json("pyschema", data)
        # The compiled codec must beat the per-call reflective walker on
        # every Fig. 3 shape; the integer-array headline by a wide margin.
        for key in keys:
            assert data["compiled_speedup"]["reflective"][key] > 1.0
        assert data["compiled_speedup"]["reflective"]["ints_1048576"] > 2.0
