"""One codec slot per stub module: a base codec under a fixed layer stack.

Generated clients and dispatch handlers resolve ``_m_req_<op>`` and its
siblings through the stub module's globals on every call, so whoever
stores into those globals decides how a call is handled.  This module
is the only writer.  A :class:`CodecSlots` (one per module, via
:func:`of`) keeps, per entry, the *base* function — what a renderer
produced — and, per layer name, the wrapper factories currently active;
each mutation recomposes the affected entries and performs exactly one
module-dict store per entry, so a concurrent caller sees the old stack
or the new one, never half of one.

The layer order is fixed here and is nobody else's business: tracing
innermost (its spans time the codec alone), then the sampled profiler
(so sampled calls see span context).  With no layer active the module
binds the base function itself — disabled observability costs nothing
by identity.

The layers are switched here too: :func:`instrument` registers a module
for one layer and :func:`switch` turns a layer on or off over every
module registered for it.  Registration is per layer (a module traced
is not thereby profiled) and weak (a registered module lives exactly as
long as its users hold it).

This is also the single parse of the entry-name convention
(:func:`codec_form`).
"""

from __future__ import annotations

import re
import threading
import weakref

__all__ = ["LAYER_ORDER", "CodecSlots", "Slot", "codec_form", "instrument",
           "of", "replace_base", "switch"]

#: Layer names, innermost -> outermost.
LAYER_ORDER = ("trace", "profile")

_ENTRY = re.compile(r"_(?:(m_req|u_req|u_rep)|m_rep_(ok|x\d+))_(.+)")

#: Module global under which a stub module carries its slots.
_ATTR = "__flick_codecs__"


def _parse(name):
    """``(form, op, arm)`` for a codec entry name, else three Nones."""
    match = _ENTRY.fullmatch(name) if name.startswith(("_m_", "_u_")) \
        else None
    if match is None:
        return None, None, None
    form, arm, op = match.groups()
    if form is None:
        form = "m_rep_ok" if arm == "ok" else "m_rep_exc"
    return form, op, arm


def codec_form(name):
    """``(form, op)`` for a codec entry name, or ``(None, None)``.

    Forms: ``m_req``, ``u_req``, ``m_rep_ok``, ``m_rep_exc``, ``u_rep``.
    """
    return _parse(name)[:2]


class Slot:
    """One codec entry of *module*: its parsed name and its base
    function.

    ``arm`` is ``"ok"``/``"x<n>"`` for reply encoders, else None.
    """

    __slots__ = ("module", "name", "form", "op", "arm", "base")

    def __init__(self, module, name, form, op, arm, base):
        self.module = module
        self.name = name
        self.form = form
        self.op = op
        self.arm = arm
        self.base = base

    @property
    def kind(self):
        return "encode" if self.form[0] == "m" else "decode"

    @property
    def direction(self):
        return "request" if self.form.endswith("req") else "reply"


class CodecSlots:
    """The codec entries of one loaded stub module (generated,
    baseline-compiler or hand-written: anything following the naming
    convention).  Get one with :func:`of`, never directly."""

    def __init__(self, module):
        self.module = module
        self._lock = threading.RLock()
        self._slots = {}  # fixed once built: mutations change values only
        self._layers = {layer: {} for layer in LAYER_ORDER}
        self._subscribers = []
        for name, value in list(vars(module).items()):
            form, op, arm = _parse(name)
            if form is not None and callable(value):
                self._slots[name] = Slot(module, name, form, op, arm,
                                         value)

    # -- reads ----------------------------------------------------------

    def entries(self, op=None):
        """The module's :class:`Slot` records (one op's when given)."""
        return [slot for slot in self._slots.values()
                if op is None or slot.op == op]

    # -- the mutations --------------------------------------------------

    def set_base(self, functions):
        """Replace base functions: ``{entry name: function}``; a name
        that is not an entry of this module is a :class:`KeyError`."""
        with self._lock:
            for slot in [self._slots[name] for name in functions]:
                slot.base = functions[slot.name]
            self._recompose(functions)

    def replace_base(self, entry, old, new):
        """Make *new* the base of *entry* if *old* still is: how a
        deferred codec hands over to what it compiled without undoing a
        base somebody set in the meantime.  The unlocked test first, so
        a caller that is no longer the base pays no lock."""
        if self._slots[entry].base is old:
            with self._lock:
                if self._slots[entry].base is old:
                    self.set_base({entry: new})

    def set_layer(self, layer, factory):
        """Turn *layer* on (``factory(slot, inner) -> callable``) or off
        (None) over every entry of the module."""
        table = self._layers[layer]
        with self._lock:
            changed = [name for name in self._slots
                       if table.get(name) is not factory]
            for name in changed:
                if factory is None:
                    del table[name]
                else:
                    table[name] = factory
            self._recompose(changed)

    def subscribe(self, callback):
        """Call ``callback(op, names)`` after every mutation, with the
        entries of *op* that were just re-stored (early-bound consumers
        such as the gateway's plans refresh from the module here)."""
        with self._lock:
            self._subscribers.append(callback)

    def _recompose(self, names):
        G = self.module.__dict__
        restored = {}
        for name in names:
            slot = self._slots[name]
            function = slot.base
            for layer in LAYER_ORDER:
                factory = self._layers[layer].get(name)
                if factory is not None:
                    function = factory(slot, function)
            G[name] = function
            restored.setdefault(slot.op, []).append(name)
        for op, op_names in restored.items():
            for callback in self._subscribers:
                try:
                    callback(op, tuple(op_names))
                except Exception:
                    # A mutation may run on a serving thread (a deferred
                    # entry's first-call hand-over); a subscriber's bug
                    # must not fail that call.  The stores above are
                    # already done.
                    pass


#: Held while a module's slots are built, and by a hand-over to a module
#: that has none, so a hand-over lands either before the build reads
#: the module or in the built slots.
_building = threading.Lock()


def of(module):
    """The module's :class:`CodecSlots`, built on first use."""
    G = module.__dict__
    slots = G.get(_ATTR)
    if slots is None:
        with _building:
            slots = G.get(_ATTR)
            if slots is None:
                slots = G[_ATTR] = CodecSlots(module)
    return slots


def replace_base(G, entry, old, new):
    """:meth:`CodecSlots.replace_base` for the stub module whose globals
    are *G*: how a deferred codec hands over to what it compiled.  A
    module nobody has built slots for binds its bases itself, so the
    common case builds none (slots refer to the module, and a module
    that refers to itself outlives its users until the cyclic
    collector runs)."""
    with _building:
        slots = G.get(_ATTR)
        if slots is None:
            if G.get(entry) is old:
                G[entry] = new
            return
    slots.replace_base(entry, old, new)


#: Per layer, every module registered for it; and the factory of each
#: layer that is on.
_instrumented = {layer: weakref.WeakSet() for layer in LAYER_ORDER}
_factories = {}
_switching = threading.Lock()


def instrument(module, layer):
    """Register *module* for *layer*, which it gets at once if the layer
    is on.  False if it was registered already."""
    with _switching:
        if module in _instrumented[layer]:
            return False
        _instrumented[layer].add(module)
        factory = _factories.get(layer)
        if factory is not None:
            of(module).set_layer(layer, factory)
    return True


def switch(layer, factory):
    """Turn *layer* on (``factory(slot, inner) -> callable``) or off
    (None) over every module registered for it."""
    with _switching:
        _factories[layer] = factory
        for module in list(_instrumented[layer]):
            of(module).set_layer(layer, factory)
