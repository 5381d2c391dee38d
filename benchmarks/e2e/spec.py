"""What ``run.py``, ``__main__.py`` and ``compare.py`` all need to know:
where ``BENCHMARK.json`` is, which layer metrics are exact counts, and
how a spread is taken."""

import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Per-layer metrics that are exact counts: equal inputs give equal
#: values, on any host, or the compiler is not deterministic.
EXACT_COUNTS = ("mir.ops_count", "backend.py_source_bytes",
                "backend.c_source_bytes", "backend.request_chunks",
                "wire.request_bytes", "wire.reply_bytes")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spread(samples):
    """Distance between the quartiles as a share of the median (what the
    driver computes over ten runs; here also over a run's segments)."""
    if len(samples) < 4:
        return 0.0
    first, _middle, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)
