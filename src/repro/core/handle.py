"""The first-class compiled-interface handle.

``api.compile`` historically returned a :class:`repro.core.compiler
.CompileResult` whose consumers immediately reached into the
content-hashed stub module (``result.load_module()``) and manipulated
codec functions by name.  The gateway's plans, the supervisor's
generation files, and user code all need to do that *safely* — so the
facade now returns a :class:`CompiledInterface`: the same result object
(it is a subclass, every existing field and method keeps working) plus
a stable surface over the loaded module:

* :attr:`module` — the loaded stub module (cached, same as
  ``load_module()``),
* :attr:`codec_table` — live per-operation codec bindings,
* :attr:`codecs` — the module's :class:`repro.core.codecs.CodecSlots`
  (base codecs under the trace/profile layer stack).
"""

from __future__ import annotations

from repro.core import codecs
from repro.core.codecs import codec_form
from repro.core.compiler import CompileResult


class CompiledInterface(CompileResult):
    """A :class:`CompileResult` with a stable handle surface.

    Everything the old result carried is still here (``aoi``,
    ``presc``, ``stubs``, ``timings``, ``load_module()``); the handle
    adds the module/codec surface that the runtime and operators
    manipulate, so nothing outside this class needs to know the
    generated module's content-hashed name or entry conventions.
    """

    # -- module surface -------------------------------------------------

    @property
    def module(self):
        """The loaded stub module (cached; same object every time)."""
        return self.stubs.load()

    @property
    def renderer(self):
        """The renderer these stubs were generated with."""
        return self.stubs.renderer

    @property
    def mir(self):
        """The optimized marshal IR (None for writer-driven baselines)."""
        return self.stubs.mir

    def operations(self):
        """The interface's operation names, sorted."""
        return sorted(self.stubs.metadata.get("operations", ()))

    @property
    def codec_table(self):
        """Live codec bindings: op -> {entry name: current function}.

        Read from the loaded module's dict on every access, so the table
        reflects base swaps and layer changes the moment they land.
        """
        table = {}
        for name, value in vars(self.module).items():
            form, op = codec_form(name)
            if form is None:
                continue
            table.setdefault(op, {})[name] = value
        return table

    @property
    def codecs(self):
        """The loaded module's :class:`~repro.core.codecs.CodecSlots`."""
        return codecs.of(self.module)
