"""Load generated Python stub modules.

Generated stubs are plain Python source; this module compiles and executes
them into real module objects so that clients, servants, and dispatch
functions can be used directly.  Each module gets a unique ``__name__``
and its source is registered with :mod:`linecache` under the module's
``<name>`` filename, so tracebacks through generated code show the
generated line.  Nothing is stored in ``sys.modules``: a stub module
lives exactly as long as its users hold it, and its linecache entry goes
with it.
"""

from __future__ import annotations

import itertools
import linecache
import types
import weakref

_counter = itertools.count(1)


def register_source(owner, name, source):
    """Make *source* what tracebacks show for code compiled under the
    returned filename — a fresh ``<name_N>`` — for as long as *owner*
    lives."""
    filename = "<%s_%d>" % (name, next(_counter))
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    return filename


def load_stub_module(source, name="flick_generated", skip_lines=None):
    """Compile and exec generated *source*; return the module object.

    *skip_lines* is a ``(start, end)`` range of line indices to leave
    uncompiled: they are blanked, not cut, so line numbers — and what
    ``__source__`` and tracebacks show — stay those of *source*.
    """
    module = types.ModuleType(name)
    module.__file__ = register_source(module, name, source)
    module.__name__ = module.__file__[1:-1]
    module.__source__ = source
    text = source
    if skip_lines is not None:
        start, end = skip_lines
        lines = source.split("\n")
        lines[start:end] = [""] * (end - start)
        text = "\n".join(lines)
    exec(compile(text, module.__file__, "exec"), module.__dict__)
    return module
