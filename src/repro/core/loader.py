"""Load generated Python stub modules.

Generated stubs are plain Python source; this module compiles and executes
them into real module objects so that clients, servants, and dispatch
functions can be used directly.  Each module gets a unique ``__name__``
and its source is registered with :mod:`linecache` under the module's
``<name>`` filename, so tracebacks through generated code show the
generated line.  Nothing is stored in ``sys.modules``: a stub module
lives exactly as long as its users hold it, and its linecache entry goes
with it.

A module generated with a section table
(:attr:`repro.backend.base.GeneratedStubs.sections`) is compiled a role
at a time: what every role shares with the module, and the ``client``,
``server`` and ``errors`` sections each at the first attribute access
that asks for one of its names (PEP 562 ``__getattr__``), so a process
compiles the half it runs.  Such a module is complete by attribute —
``getattr``, ``hasattr`` and ``dir`` answer as for an eager one — and
lazy by ``vars()``; :func:`on_bound` is for readers of the dict.
"""

from __future__ import annotations

import itertools
import linecache
import threading
import types
import weakref

_counter = itertools.count(1)

#: Module global under which a module carries its sections still to load.
_ATTR = "__flick_deferred__"


def register_source(owner, name, source):
    """Make *source* what tracebacks show for code compiled under the
    returned filename — a fresh ``<name_N>`` — for as long as *owner*
    lives."""
    filename = "<%s_%d>" % (name, next(_counter))
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    return filename


def load_stub_module(source, name="flick_generated", sections=(),
                     without=()):
    """Compile and exec generated *source*; return the module object.

    *sections* is the text's section table, empty for a text that is
    one piece.  A section that lists the names it binds is compiled and
    exec'd into the module at the first attribute access of one of
    them; the sections named in *without* never are (the caller binds
    what they would have).  Lines left out are blanked, not cut, so
    line numbers — and what ``__source__`` and tracebacks show — stay
    those of *source*.
    """
    module = types.ModuleType(name)
    module.__file__ = filename = register_source(module, name, source)
    module.__name__ = filename[1:-1]
    module.__source__ = source
    text = source
    kept = [section for section in sections if section.name not in without]
    eager = [section for section in kept if not section.names]
    if len(eager) < len(sections):
        lines = source.split("\n")
        text = excerpt(lines, eager)
        deferred = [section for section in kept if section.names]
        if deferred:
            _Deferred(module.__dict__, filename, lines, deferred)
    exec(compile(text, filename, "exec"), module.__dict__)
    return module


def excerpt(lines, sections):
    """The text of *sections* at their own line numbers: *lines* with
    every line of another section blank."""
    kept = [""] * len(lines)
    for section in sections:
        for start, end in section.spans:
            kept[start:end] = lines[start:end]
    return "\n".join(kept)


class _Deferred:
    """The sections of one module that no attribute access has asked
    for yet.  It is the module's ``__getattr__`` and ``__dir__`` until
    the last of them loads; then the module is an ordinary one."""

    def __init__(self, G, filename, lines, sections):
        self.G = G
        self.filename = filename
        self.lines = lines
        self.pending = {name: section for section in sections
                        for name in section.names}
        self.callbacks = []
        # Re-entrant: a callback may touch another deferred name.
        self.lock = threading.RLock()
        G[_ATTR] = self
        G["__getattr__"] = self.getattr
        G["__dir__"] = self.dir

    def getattr(self, name):
        """Load the section that binds *name*.  Whoever loses a race
        waits here and finds the name bound: one compile per section."""
        G = self.G
        with self.lock:
            section = self.pending.get(name)
            if section is not None:
                exec(compile(excerpt(self.lines, (section,)),
                             self.filename, "exec"), G)
                for bound in section.names:
                    del self.pending[bound]
                if not self.pending:
                    del G[_ATTR], G["__getattr__"], G["__dir__"]
                for callback in self.callbacks:
                    callback({bound: G[bound] for bound in section.names})
        try:
            return G[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (G["__name__"], name)) from None

    def dir(self):
        return sorted(set(self.G).union(self.pending))

    def subscribe(self, callback):
        with self.lock:
            callback(dict(self.G))
            if self.pending:
                self.callbacks.append(callback)


def pending_sections(module):
    """The names of *module*'s sections that have not been loaded."""
    deferred = vars(module).get(_ATTR)
    if deferred is None:
        return ()
    return tuple(sorted({section.name
                         for section in list(deferred.pending.values())}))


def on_bound(module, callback):
    """Call ``callback(bound)`` with everything *module* binds, as
    ``{name: value}``: at once with what it binds now, and again with
    what each deferred section binds when that section loads.  For
    whoever looks a stub module's classes or functions up by dict —
    looking must not be what loads a section."""
    deferred = vars(module).get(_ATTR)
    if deferred is None:
        callback(dict(vars(module)))
    else:
        deferred.subscribe(callback)
