"""Table 1 counts every file: each ``src/repro/**/*.py`` sits in exactly
one row of ``benchmarks/bench_table1_code_reuse.LAYOUT``, so a new file
must pick its row and a deleted one must leave it."""

import collections
import glob
import os

from benchmarks.bench_table1_code_reuse import LAYOUT, ROOT


def test_every_source_file_is_in_exactly_one_row():
    listed = collections.Counter(
        name for _phase, _component, _base, files in LAYOUT
        for name in files)
    tree = {os.path.relpath(path, ROOT)
            for path in glob.glob(os.path.join(ROOT, "**", "*.py"),
                                  recursive=True)}
    assert sorted(tree - set(listed)) == [], "in no row"
    assert sorted(set(listed) - tree) == [], "no such file"
    assert sorted(name for name, rows in listed.items() if rows > 1) \
        == [], "in more than one row"
