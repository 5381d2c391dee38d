"""Deferred entries: each codec function and each handler compiles at
its first call.

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
section (INTERNALS section 10 has the numbers).  The ``server`` section
loads without its ``_h_*`` handlers the same way: :func:`defer_handlers`
binds an entry for each from the same table just before the rest of the
section is exec'd, so a server compiles the handlers it dispatches to.

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
    (``section.functions``) at its first call.  Returns the table, for
    :func:`defer_handlers`."""
    pending, _codec_entries = _defer_program(
        module.__dict__, program, _own_lines(section.functions))
    return pending


def defer_handlers(pending, functions):
    """Bind a deferred entry for each ``_h_*`` handler of *functions* —
    ``(name, first line, text)`` rows of the ``server`` section, which
    loads without those lines — into the globals of *pending*.  A first
    call rebinds the handler's global and its ``_HANDLERS`` value, so
    steady-state dispatch calls the compiled handler directly."""
    G = pending.G

    def bind(name, entry, function):
        G[name] = function
        handlers = G.get("_HANDLERS", {})
        for key, value in handlers.items():
            if value is entry:
                handlers[key] = function
                break

    G.update(pending.defer(_own_lines(functions), bind))


def install_closures(module, program):
    """Bind *program*'s codecs over *module*, each one deferred: its
    first call renders and compiles it."""
    if program is None:
        raise BackEndError(
            "these stubs carry no marshal IR (closure renderer "
            "requires the MIR pipeline)"
        )
    G = module.__dict__
    _pending, codec_entries = _defer_program(G, program, {
        fn.name: partial(compile_function, fn, G, module)
        for fn in program.functions})
    codecs.of(module).set_base(codec_entries)
    return module


def _own_lines(functions):
    return {name: (first, text) for name, first, text in functions}


def _defer_program(G, program, sources):
    """Bind into *G* what the codec section of *program*'s text binds
    beside its functions — the bulk-array runtime names and every header
    const — and a deferred entry per function, compiling *sources*.
    Returns the table and the codec entries (the out-of-line
    ``_m_<T>``/``_u_<T>`` helpers are not codec entries, so not in the
    module's codec slots)."""
    G["_iter_unpack"] = iter_unpack
    G["_atom_list"] = atom_list
    helpers = {fn.name for fn in program.functions
               if fn.kind.endswith("_helper")}

    def bind(name, entry, function):
        if name in helpers:
            G[name] = function
        else:
            codecs.replace_base(G, name, entry, function)

    pending = _Pending(G)
    entries = pending.defer(sources, bind)
    for fn in program.functions:
        G.update(fn.consts)
        if fn.name in helpers:
            G[fn.name] = entries.pop(fn.name)
        else:
            # A codec entry already bound keeps its layers:
            # install_closures makes the new one its slot's base.
            G.setdefault(fn.name, entries[fn.name])
    return pending, entries


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
    """The functions of one load (or one install) that have not been
    called yet, and the deferred entry of each.

    The first caller of an entry compiles under the one lock and hands
    over through the ``bind`` its rows were deferred with — a helper or
    a handler becomes what the module binds, a codec entry the base of
    its slot if the deferred function still is (live layers stay on top
    and subscribers hear of it); one that races it waits and compiles
    nothing.  Steady-state calls therefore never come here and take no
    lock; a caller that kept the deferred function itself pays one
    forward per call, and its ``__wrapped__`` names what it compiled.
    An entry holds only its name and this table; the table holds the
    module's globals, not the module, and drops each entry and its
    source at the hand-over — so a module its users drop leaves behind
    what an eagerly loaded one would.
    """

    def __init__(self, G):
        self.G = G
        #: name -> ``(first line, text)`` of the module's own text, or a
        #: thunk compiling a rendered function.
        self.sources = {}
        #: name -> ``bind(name, entry, function)``, its hand-over.
        self.binds = {}
        self.entries = {}
        self.compiled = {}
        # Re-entrant: a slot subscriber may call another entry.
        self.lock = threading.RLock()

    def defer(self, sources, bind):
        """A deferred entry for each name of *sources*, handed over by
        *bind*; returns ``{name: entry}``."""
        entries = {name: _entry(self, name) for name in sources}
        self.sources.update(sources)
        self.binds.update(dict.fromkeys(sources, bind))
        self.entries.update(entries)
        return entries

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
        self.binds.pop(name)(name, entry, function)
        self.compiled[name] = function
        return function


def _entry(pending, name):
    def entry(*args):
        return pending.call(name, args)

    entry.__name__ = entry.__qualname__ = name
    return entry
