"""Seeded payload values for the three paper shapes.

Values are generated *plain* (lists and tuples of ints, strings and
bytes) so :mod:`benchmarks.e2e.reference` can encode them without the
compiler, then *presented* with a stub module's record classes for the
generated codecs.  Sizes are fixed per workload; the seed decides the
content only, so wire bytes per op are the same for every seed.
"""

import random
import string

#: Bytes one element contributes to an XDR body (the paper's sizing:
#: a directory entry is a 116-character name, 30 integers and a 16-byte
#: tag, exactly 256 bytes in XDR).
ELEMENT_BYTES = {"ints": 4, "rects": 16, "dirents": 256}
NAME_LENGTH = 116

_NAME_ALPHABET = string.ascii_lowercase + string.digits


def _int32(rng):
    return rng.randrange(-2 ** 31, 2 ** 31)


def plain(shape, payload_bytes, rng):
    """Plain values of *shape* filling *payload_bytes* of XDR body."""
    count = max(1, payload_bytes // ELEMENT_BYTES[shape])
    if shape == "ints":
        return [_int32(rng) for _ in range(count)]
    if shape == "rects":
        return [tuple(_int32(rng) for _ in range(4)) for _ in range(count)]
    if shape == "dirents":
        entries = []
        for index in range(count):
            stem = "entry-%06d-" % index
            name = stem + "".join(
                rng.choice(_NAME_ALPHABET)
                for _ in range(NAME_LENGTH - len(stem)))
            numbers = tuple(_int32(rng) for _ in range(30))
            tag = bytes(rng.randrange(256) for _ in range(16))
            entries.append((name, numbers, tag))
        return entries
    raise KeyError(shape)


def present(shape, values, module, prefix):
    """*values* as the presentation *module*'s codecs expect them.

    *prefix* is the record-class prefix of the schema's front end
    (``"Ledger_"`` for the CORBA source, ``""`` for the ONC and
    dataclass twins).
    """
    if shape == "ints":
        return list(values)
    coord = getattr(module, prefix + "Coord", None)
    if shape == "rects":
        rect = getattr(module, prefix + "Rect")
        return [rect(coord(a, b), coord(c, d)) for a, b, c, d in values]
    if shape == "dirents":
        entry = getattr(module, prefix + "DirEnt")
        stat = getattr(module, prefix + "Stat")
        return [entry(name, stat(*numbers, tag))
                for name, numbers, tag in values]
    raise KeyError(shape)


def digest(shape, presented):
    """Length plus first and last scalar of a presented value: the cheap
    per-op check (the full check compares whole values and wire bytes)."""
    first, last = presented[0], presented[-1]
    if shape == "ints":
        return len(presented), first, last
    if shape == "rects":
        return len(presented), first.ul.x, last.lr.y
    return len(presented), first.name, last.st.tag


def seeded(seed, salt):
    """An independent generator per (seed, purpose)."""
    return random.Random("%d/%s" % (seed, salt))
