"""Deferred entries: each codec function and each handler compiles at
its first call.

A loaded stub module carries no codec and no marshal IR.
``stubs.load()`` loads the scaffold — the module text without its codec
functions — and :func:`defer_operations` binds every codec function of
every operation as a **deferred entry**.  The first call of any entry
of an operation lowers that operation's functions, once
(:func:`repro.mir.build.build_program` over that one stub), runs the
pass pipeline over them and binds their header consts and out-of-line
helpers (each helper a deferred entry of its own); then the called
function is rendered and compiled alone (:func:`compile_function`),
execs against the module's globals, hands over to the result and
forwards the call.  Its text is registered as a file of its own,
``<module.function_N>``, so a traceback through it shows the generated
line.  A process therefore lowers the operations it calls and compiles
the functions it calls, and no others, under either renderer name.
The price is paid by a process that goes on to call all of them: per
function lowerings and compiles cost more in total than one of the
whole program (INTERNALS section 10 has the numbers).  The ``server``
section loads without its ``_h_*`` handlers the same way:
:func:`defer_handlers` binds an entry for each from the same table just
before the rest of the section is exec'd, so a server compiles the
handlers it dispatches to.

:func:`install_closures` binds the same entries over a loaded module
from a whole :class:`~repro.mir.ops.MirProgram` — a base swap — and
each of those renders its function's text first.
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from struct import iter_unpack

from repro.backend.base import memoized
from repro.backend.pywriter import PyWriter
from repro.core import codecs
from repro.core.loader import register_source
from repro.encoding.buffer import atom_list
from repro.errors import BackEndError
from repro.mir import render_py
from repro.mir.build import build_program, codec_names
from repro.mir.passes import PassManager


def defer_operations(module, stubs):
    """Bind a deferred entry over *module* for every codec function of
    every operation of *stubs*; the first call of any lowers its
    operation.  Returns the table, for :func:`defer_handlers`."""
    G = module.__dict__
    G.update(_iter_unpack=iter_unpack, _atom_list=atom_list,
             _new=object.__new__)
    pending = _Pending(G)
    # The entries hold no module and no stubs (which hold the module):
    # a module its users drop goes at once, its linecache text with it.
    owner = weakref.ref(module)
    build = (stubs.backend_instance, stubs.presc, stubs.flags)
    for stub in stubs.presc.stubs:
        lowered = memoized(partial(_lower, pending, owner, build, stub))
        G.update(pending.defer(
            {name: partial(_compile_codec, lowered, name, owner)
             for name in codec_names(stub)},
            partial(codecs.replace_base, G)))
    return pending


def _lower(pending, owner, build, stub):
    """*stub*'s codec functions by name, optimized, with their header
    consts and helpers bound (a helper an earlier operation bound
    stays: it is the same type's code)."""
    backend, presc, flags = build
    program = PassManager(flags).run(
        build_program(backend, presc, flags, stubs=(stub,)))
    G, functions = pending.G, {}
    for fn in program.functions:
        G.update(fn.consts)
        if not fn.kind.endswith("_helper"):
            functions[fn.name] = fn
        elif fn.name not in G:
            G.update(pending.defer({fn.name: partial(_compile, owner, fn)},
                                   partial(_hand_helper, G)))
    return functions


def _compile_codec(lowered, name, owner):
    return _compile(owner, lowered()[name])


def _compile(owner, fn):
    module = owner()
    return compile_function(fn, vars(module), module)


def _hand_helper(G, name, _entry, function):
    G[name] = function


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

    G.update(pending.defer(
        {name: (first, text) for name, first, text in functions}, bind))


def install_closures(module, program):
    """Bind *program*'s codecs over *module*, each one deferred: its
    first call renders and compiles it.  A codec entry already bound
    keeps its layers: the new entry becomes its slot's base."""
    if program is None:
        raise BackEndError(
            "these stubs carry no marshal IR (closure renderer "
            "requires the MIR pipeline)"
        )
    G = module.__dict__
    G.update(_iter_unpack=iter_unpack, _atom_list=atom_list,
             _new=object.__new__)
    pending, codec_entries = _Pending(G), {}
    for fn in program.functions:
        G.update(fn.consts)
        source = {fn.name: partial(compile_function, fn, G, module)}
        if fn.kind.endswith("_helper"):
            G.update(pending.defer(source, partial(_hand_helper, G)))
        else:
            codec_entries.update(pending.defer(
                source, partial(codecs.replace_base, G)))
            G.setdefault(fn.name, codec_entries[fn.name])
    codecs.of(module).set_base(codec_entries)
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
        module, "%s.%s" % (module.__name__, fn.name), text.split("\n"))
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
