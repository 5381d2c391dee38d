"""Source text handling shared by every front end.

A :class:`SourceFile` owns the IDL text and can translate byte offsets into
line/column positions; a :class:`SourceLocation` is an immutable pointer into
a file that renders as ``name:line:column`` in diagnostics.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass

_NEWLINE = re.compile("\n")


class SourceFile:
    """An IDL source text plus the bookkeeping needed for diagnostics.

    Args:
        text: the complete source text.
        name: display name used in error messages (a path or ``"<string>"``).
    """

    def __init__(self, text, name="<string>"):
        self.text = text
        self.name = name
        # Offsets of the first character of each line, for offset->line
        # translation via binary search.
        self._line_starts = [0] + [
            match.end() for match in _NEWLINE.finditer(text)]

    def location(self, offset):
        """Return the :class:`SourceLocation` for a character *offset*."""
        if offset < 0:
            raise ValueError("offset must be non-negative, got %d" % offset)
        line_index = bisect.bisect_right(self._line_starts, offset) - 1
        column = offset - self._line_starts[line_index] + 1
        return SourceLocation(self.name, line_index + 1, column)

    def __repr__(self):
        return "SourceFile(name=%r, %d chars)" % (self.name, len(self.text))


@dataclass(frozen=True)
class SourceLocation:
    """A position in a source file: ``name:line:column`` (1-based)."""

    name: str
    line: int
    column: int

    def __str__(self):
        return "%s:%d:%d" % (self.name, self.line, self.column)
