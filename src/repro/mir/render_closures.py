"""Deferred codec entries: each codec function compiles at its first call.

A loaded stub module carries no compiled codec.  ``stubs.load()`` leaves
the codec section of the text out (:func:`defer_codecs`) and binds every
codec function as a **deferred entry**: the first time it is called it
compiles that function's own lines of the module text — at their own
line numbers, under the module's file name, so a traceback through it
shows the generated line — execs them against the module's globals,
hands over to the result and forwards the call.  A process therefore
compiles the codecs it calls and no others, under either renderer name
(``py`` and ``closures`` no longer differ in anything a load does).  The
price is paid by a process that goes on to call all of them:
per-function compiles cost more in total than one compile of the whole
section (INTERNALS section 10 has the numbers).

:func:`install_closures` binds the same entries over a loaded module
from a :class:`~repro.mir.ops.MirProgram` — a base swap — and each of
those renders its function's text (:func:`compile_function`) first.
"""

from __future__ import annotations

import threading
from functools import partial
from struct import iter_unpack

from repro.backend.pywriter import PyWriter
from repro.core import codecs
from repro.core.loader import register_source
from repro.encoding.buffer import atom_list
from repro.errors import BackEndError
from repro.mir import render_py


def defer_codecs(module, program, section):
    """Bind *program*'s codecs over *module*, loaded without the codec
    *section* of its text; each compiles its own lines
    (``section.functions``) at its first call."""
    _Pending(module.__dict__, program, {
        name: (first, text) for name, first, text in section.functions})


def install_closures(module, program):
    """Bind *program*'s codecs over *module*, each one deferred: its
    first call renders and compiles it."""
    if program is None:
        raise BackEndError(
            "these stubs carry no marshal IR (closure renderer "
            "requires the MIR pipeline)"
        )
    G = module.__dict__
    pending = _Pending(G, program, {
        fn.name: partial(compile_function, fn, G, module)
        for fn in program.functions})
    codecs.of(module).set_base({
        name: entry for name, entry in pending.entries.items()
        if name not in pending.helpers})
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
    return _define(fn.name, compile(text, filename, "exec"), G)


def _define(name, code, G):
    # Separate locals: the ``def`` must not store into G, where codec
    # entries are for the module's slots to bind.
    scope = {}
    exec(code, G, scope)
    return scope[name]


class _Pending:
    """The codec functions of one load (or one install) that have not
    been called yet, and the deferred entry of each.

    The first caller of an entry compiles under the one lock and hands
    over — a helper becomes what the module binds, a codec entry the
    base of its slot if the deferred function still is (live layers stay
    on top and subscribers hear of it); one that races it waits and
    compiles nothing.  Steady-state calls therefore never come here and
    take no lock; a caller that kept the deferred function itself pays
    one forward per call, and its ``__wrapped__`` names what it
    compiled.  An entry holds only its name and this table; the table
    holds the module's globals, not the module, and drops each entry and
    its source at the hand-over — so a module its users drop leaves
    behind what an eagerly loaded one would.
    """

    def __init__(self, G, program, sources):
        self.G = G
        #: name -> ``(first line, text)`` of the module's own text, or a
        #: thunk compiling a rendered function.
        self.sources = sources
        self.compiled = {}
        # Re-entrant: a slot subscriber may call another entry.
        self.lock = threading.RLock()
        # What the codec section of the text binds beside its functions:
        # the bulk-array runtime names and every header const.
        G["_iter_unpack"] = iter_unpack
        G["_atom_list"] = atom_list
        self.entries = {}
        #: The out-of-line ``_m_<T>``/``_u_<T>`` helpers: not codec
        #: entries, so not in the module's codec slots.
        self.helpers = set()
        for fn in program.functions:
            G.update(fn.consts)
            entry = self.entries[fn.name] = _entry(self, fn.name)
            if fn.kind.endswith("_helper"):
                self.helpers.add(fn.name)
                G[fn.name] = entry
            else:
                # A codec entry already bound keeps its layers:
                # install_closures makes the new one its slot's base.
                G.setdefault(fn.name, entry)

    def call(self, name, args):
        function = self.compiled.get(name)
        if function is None:
            with self.lock:
                function = self.compiled.get(name)
                if function is None:
                    function = self._hand_over(name)
        return function(*args)

    def _hand_over(self, name):
        G, source = self.G, self.sources[name]
        if callable(source):
            function = source()
        else:
            first, text = source
            function = _define(name, compile(
                "\n" * first + text, G["__file__"], "exec"), G)
        del self.sources[name]
        entry = self.entries.pop(name)
        entry.__wrapped__ = function
        if name in self.helpers:
            G[name] = function
        else:
            codecs.replace_base(G, name, entry, function)
        self.compiled[name] = function
        return function


def _entry(pending, name):
    def entry(*args):
        return pending.call(name, args)

    entry.__name__ = entry.__qualname__ = name
    return entry
