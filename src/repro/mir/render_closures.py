"""The ``closures`` renderer: the rendered text, compiled at first call.

Both renderer names run the same code — what :mod:`repro.mir.render_py`
prints for a :class:`~repro.mir.ops.MirFunction`.  They differ in one
decision: *when* a codec function's text is compiled.  ``py`` compiles
the codec section with the module, which a long-lived server wants.
``closures`` loads the scaffold only (records, client proxy, dispatch)
and binds every codec as a **deferred entry**: a closure over its
``MirFunction`` that renders, compiles and execs that one function the
first time it is called, hands over to the result and forwards the call
— which a process touching 2 of 28 functions wants.  The price is a
process that goes on to call all of them: per-function compiles cost
slightly more in total than one compile of the whole section
(INTERNALS section 10 has the numbers).

:func:`compile_function` is the one place codec text becomes code after
a module is loaded; :func:`install_closures` (``stubs.load()``) and
:meth:`repro.core.handle.CompiledInterface.recompile` (under either
name) both reach it through :func:`bind_codecs`.
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
    entries = bind_codecs(program, G, module, "closures")
    for name, entry in entries.items():
        # A scaffold-only module has no entry yet: bind it so the slots
        # (built on first use, from the names bound) find it.
        G.setdefault(name, entry)
    codecs.of(module).set_base(entries)
    G["__renderer__"] = "closures"
    return module


def bind_codecs(program, G, module, renderer, names=None):
    """Build *program*'s codecs over the globals *G* under *renderer*.

    Binds in *G* what the codec section of the module text binds beside
    its entries — the bulk-array runtime names, every header const,
    every out-of-line ``_m_<T>``/``_u_<T>`` helper — and returns
    ``{entry name: function}`` for *names* (default: every entry); where
    those go is the caller's business (``CodecSlots.set_base``).  Under
    ``py`` each function is compiled now, under ``closures`` by its
    first call.  *module* is the stub module the codecs serve: its
    lifetime bounds the registered texts, its slots are where a deferred
    entry hands over.
    """
    G["_iter_unpack"] = iter_unpack
    G["_atom_list"] = atom_list
    build = _deferred if renderer == "closures" else compile_function
    entries = {}
    for fn in program.functions:
        G.update(fn.consts)
        if fn.kind.endswith("_helper"):
            G[fn.name] = build(fn, G, module)
        elif names is None or fn.name in names:
            entries[fn.name] = build(fn, G, module)
    return entries


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

    The first caller compiles under the entry's lock; one that races it
    waits and compiles nothing.  From then on a helper is what *G*
    binds and an entry is the base of its slot (live layers stay on top
    and subscribers hear of it), so steady-state calls never come here
    and take no lock; a caller that kept the deferred function itself
    pays one forward per call.
    """
    compiled = []
    lock = threading.Lock()
    helper = fn.kind.endswith("_helper")

    def entry(*args):
        if not compiled:
            with lock:
                if not compiled:
                    function = compile_function(fn, G, module)
                    function.__renderer__ = "closures"
                    entry.__wrapped__ = function
                    if helper:
                        G[fn.name] = function
                    compiled.append(function)
        function = compiled[0]
        if not helper:
            # Not only on the compiling call: an entry built with
            # ``recompile(install=False)`` becomes the base later, after
            # the shadow verifier has already called (and compiled) it.
            codecs.of(module).replace_base(fn.name, entry, function)
        return function(*args)

    entry.__name__ = entry.__qualname__ = fn.name
    entry.__renderer__ = "closures"
    return entry
