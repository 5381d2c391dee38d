"""The ``closures`` renderer: the rendered text, compiled at first call.

Both renderer names run the same code — what :mod:`repro.mir.render_py`
prints for a :class:`~repro.mir.ops.MirFunction`.  They differ in one
decision: *when* a codec function's text is compiled.  ``py`` compiles
the codec section with the module, which a long-lived server wants.
``closures`` loads the module without its codec section
and binds every codec as a **deferred entry**: a closure over its
``MirFunction`` that renders, compiles and execs that one function the
first time it is called, hands over to the result and forwards the call
— which a process touching 2 of 28 functions wants.  The price is a
process that goes on to call all of them: per-function compiles cost
slightly more in total than one compile of the whole section
(INTERNALS section 10 has the numbers).

:func:`compile_function` is the one place codec text becomes code after
a module is loaded; :func:`install_closures` (``stubs.load()``) binds
the deferred entries that reach it.
"""

from __future__ import annotations

import threading
from struct import iter_unpack

from repro.backend.pywriter import PyWriter
from repro.core import codecs
from repro.core.loader import register_source
from repro.encoding.buffer import atom_list
from repro.errors import BackEndError
from repro.mir import render_py


def install_closures(module, program):
    """Bind *program*'s codecs over *module*, each one deferred."""
    if program is None:
        raise BackEndError(
            "these stubs carry no marshal IR (closure renderer "
            "requires the MIR pipeline)"
        )
    G = module.__dict__
    # What the codec section of the module text binds beside its
    # entries: the bulk-array runtime names, every header const, every
    # out-of-line ``_m_<T>``/``_u_<T>`` helper.
    G["_iter_unpack"] = iter_unpack
    G["_atom_list"] = atom_list
    entries = {}
    for fn in program.functions:
        G.update(fn.consts)
        if fn.kind.endswith("_helper"):
            G[fn.name] = _deferred(fn, G, module)
        else:
            entries[fn.name] = _deferred(fn, G, module)
    for name, entry in entries.items():
        # A module loaded without its codec section has no entry yet:
        # bind it so the slots (built on first use, from the names
        # bound) find it.
        G.setdefault(name, entry)
    codecs.of(module).set_base(entries)
    G["__renderer__"] = "closures"
    return module


def compile_function(fn, G, module):
    """Render *fn*, compile the text and exec it against *G*.

    The text is registered with :mod:`linecache` for as long as *module*
    lives, so a traceback through the function shows its generated line.
    """
    w = PyWriter()
    render_py.render_function(w, fn)
    text = w.getvalue()
    filename = register_source(
        module, "%s.%s" % (module.__name__, fn.name), text)
    # Separate locals: the ``def`` must not store into G, where codec
    # entries are for the module's slots to bind.
    scope = {}
    exec(compile(text, filename, "exec"), G, scope)
    return scope[fn.name]


def _deferred(fn, G, module):
    """*fn* as a codec that its first call compiles.

    The first caller compiles under the entry's lock and hands over —
    a helper becomes what *G* binds, an entry the base of its slot if
    the deferred function still is (live layers stay on top and
    subscribers hear of it); one that races it waits and compiles
    nothing.  Steady-state calls therefore never come here and take no
    lock; a caller that kept the deferred function itself pays one
    forward per call.
    """
    compiled = []
    lock = threading.Lock()

    def entry(*args):
        if not compiled:
            with lock:
                if not compiled:
                    function = compile_function(fn, G, module)
                    entry.__wrapped__ = function
                    if fn.kind.endswith("_helper"):
                        G[fn.name] = function
                    else:
                        codecs.of(module).replace_base(
                            fn.name, entry, function)
                    compiled.append(function)
        return compiled[0](*args)

    entry.__name__ = entry.__qualname__ = fn.name
    return entry
