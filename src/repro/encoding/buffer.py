"""The marshal-buffer runtime used by all generated stubs.

The paper's buffer-management optimization (section 3.1) hinges on the cost
difference between checking free space once per message *region* versus once
per atomic datum.  :class:`MarshalBuffer` exposes exactly that interface:
``reserve(n)`` performs one bounds check and returns the write offset, after
which generated code may write freely within the reserved span.  Buffers are
dynamically grown and intended to be reused across stub invocations (via
:meth:`reset`), as Flick-generated stubs do.
"""

from __future__ import annotations

import sys
from array import array

from repro.errors import UnmarshalError

#: Default initial capacity; Flick stubs reuse buffers, so this is paid once.
DEFAULT_CAPACITY = 8192

# Process-wide allocation counters.  Buffer reuse is the point of the
# paper's section-3.1 optimization, so make it observable: a healthy
# steady-state server allocates a handful of buffers and then stops.
# Plain ints bumped without a lock — worst case under free-threading a
# racing bump is lost, which diagnostics can tolerate.
_allocations = 0
_grows = 0
_grown_bytes = 0


def buffer_counters():
    """Process-wide ``{"allocations", "grows", "grown_bytes"}`` counts."""
    return {
        "allocations": _allocations,
        "grows": _grows,
        "grown_bytes": _grown_bytes,
    }


def reset_buffer_counters():
    global _allocations, _grows, _grown_bytes
    _allocations = _grows = _grown_bytes = 0


class MarshalBuffer:
    """A growable, reusable byte buffer for message encoding.

    Attributes:
        data: the backing ``bytearray``; generated code writes into it with
            ``struct.pack_into`` and slice assignment.
        length: the number of valid bytes (the high-water mark of
            :meth:`reserve`).
    """

    __slots__ = ("data", "length")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        global _allocations
        _allocations += 1
        self.data = bytearray(capacity)
        self.length = 0

    def reserve(self, size):
        """Ensure *size* more bytes fit; return the offset to write them at.

        This is the single free-space check for a whole message region.
        """
        offset = self.length
        end = offset + size
        if end > len(self.data):
            self._grow(end)
        self.length = end
        return offset

    def _grow(self, needed):
        global _grows, _grown_bytes
        # Double (at least), so repeated reserves are amortized O(1).
        new_capacity = max(needed, 2 * len(self.data))
        _grows += 1
        _grown_bytes += new_capacity - len(self.data)
        self.data.extend(bytearray(new_capacity - len(self.data)))

    def reset(self):
        """Forget the content but keep the capacity (buffer reuse)."""
        self.length = 0

    def getvalue(self):
        """Return the encoded message as immutable bytes."""
        return bytes(self.data[: self.length])

    def view(self):
        """Return a zero-copy ``memoryview`` of the encoded message."""
        return memoryview(self.data)[: self.length]

    def __len__(self):
        return self.length


def _array_codes():
    """struct format character -> the ``array`` type code holding the
    same kind of item in the same number of bytes on this platform."""
    sizes = {"b": 1, "h": 2, "i": 4, "q": 8}
    codes = {"f": "f", "d": "d"}
    for fmt, size in sizes.items():
        for code in "bhilq":
            if array(code).itemsize == size:
                codes[fmt] = code
                codes[fmt.upper()] = code.upper()
                break
    return codes


_ARRAY_CODES = _array_codes()
_HOST_ENDIAN = ">" if sys.byteorder == "big" else "<"


def atom_list(endian, fmt, data, offset, count):
    """Decode *count* wire atoms of struct format *fmt* at *offset* as a
    list, through one typed array rather than a tuple of boxed values.

    The caller has checked that the bytes are there (a short slice
    would otherwise decode as a shorter list).
    """
    values = array(_ARRAY_CODES[fmt])
    values.frombytes(
        memoryview(data)[offset:offset + count * values.itemsize]
    )
    if endian != _HOST_ENDIAN:
        values.byteswap()
    return values.tolist()


class ReadCursor:
    """A read position over received message bytes.

    Generated unmarshal code uses the ``data``/``offset`` pair directly with
    ``struct.unpack_from``; the methods here are the checked interface used
    by interpretive (baseline) unmarshalers and by header parsing.
    """

    __slots__ = ("data", "offset")

    def __init__(self, data, offset=0):
        # Accept bytes, bytearray, or memoryview.
        self.data = data
        self.offset = offset

    def remaining(self):
        return len(self.data) - self.offset

    def need(self, size):
        """Check that *size* bytes remain; raise UnmarshalError if not."""
        if self.offset + size > len(self.data):
            raise UnmarshalError(
                "message truncated: need %d bytes at offset %d of %d"
                % (size, self.offset, len(self.data))
            )

    def advance(self, size):
        """Consume *size* bytes (checked); return the old offset."""
        self.need(size)
        offset = self.offset
        self.offset += size
        return offset

    def align(self, alignment):
        """Advance to the next multiple of *alignment*."""
        remainder = self.offset % alignment
        if remainder:
            self.advance(alignment - remainder)

    def take(self, size):
        """Consume and return *size* raw bytes."""
        offset = self.advance(size)
        return bytes(self.data[offset : offset + size])
