"""A small indentation-aware Python source writer used by code generators."""

from __future__ import annotations


class PyWriter:
    """Accumulates Python source lines with managed indentation."""

    def __init__(self, indent="    "):
        self.indent_text = indent
        self.lines = []
        self.depth = 0
        self._temp_counter = 0

    def line(self, text=""):
        if text:
            self.lines.append(self.indent_text * self.depth + text)
        else:
            self.lines.append("")

    def blank(self):
        self.line()

    def paste(self, lines):
        """Write already-printed *lines* at the current depth."""
        for text in lines:
            self.line(text)

    def indent(self):
        self.depth += 1

    def dedent(self):
        if self.depth == 0:
            raise ValueError("cannot dedent below zero")
        self.depth -= 1

    def block(self, header):
        """Write *header* and return a context manager indenting the body."""
        self.line(header)
        return _Indent(self)

    def temp(self, prefix="_t"):
        """Return a fresh temporary variable name."""
        self._temp_counter += 1
        return "%s%d" % (prefix, self._temp_counter)

    def getvalue(self):
        return "\n".join(self.lines) + "\n"


class _Indent:
    def __init__(self, writer):
        self.writer = writer

    def __enter__(self):
        self.writer.indent()
        return self.writer

    def __exit__(self, exc_type, exc_value, traceback):
        self.writer.dedent()
        return False
