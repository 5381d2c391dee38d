"""The first-class compiled-interface handle.

``api.compile`` historically returned a :class:`repro.core.compiler
.CompileResult` whose consumers immediately reached into the
content-hashed stub module (``result.load_module()``) and manipulated
codec functions by name.  Runtime tiering, the supervisor's generation
files, and user code all need to do that *safely* — so the facade now
returns a :class:`CompiledInterface`: the same result object (it is a
subclass, every existing field and method keeps working) plus a stable
surface over the loaded module:

* :attr:`module` — the loaded stub module (cached, same as
  ``load_module()``),
* :attr:`codec_table` — live per-operation codec bindings,
* :attr:`codecs` — the module's :class:`repro.core.codecs.CodecSlots`
  (base codecs under the trace/profile/hotness/shadow layer stack),
* :attr:`renderers` — the renderer registry,
* :meth:`recompile` — rebuild one operation's (or the whole
  interface's) codecs under a different renderer or pass configuration
  and optionally install them atomically over the module.
"""

from __future__ import annotations

from repro.errors import FlickError
from repro.core import codecs
from repro.core.codecs import codec_form
from repro.core.compiler import CompileResult
from repro.core.options import OptFlags, RendererPolicy


class CompiledInterface(CompileResult):
    """A :class:`CompileResult` with a stable handle surface.

    Everything the old result carried is still here (``aoi``,
    ``presc``, ``stubs``, ``timings``, ``load_module()``); the handle
    adds the module/codec surface that runtime tiering and operators
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
    def renderers(self):
        """Renderer names :meth:`recompile` accepts."""
        from repro.backend.base import RENDERERS

        return RENDERERS

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

    # -- recompilation --------------------------------------------------

    def recompile(self, op=None, *, renderer=None, flags=None,
                  policy=None, install=True):
        """Rebuild codecs and (optionally) install them over the module.

        Args:
            op: one operation name, or None for the whole interface.
            renderer: target renderer name (``"py"`` or ``"closures"``);
                defaults to the stubs' current renderer.
            flags: base :class:`OptFlags`; defaults to the flags the
                stubs were generated with.
            policy: a :class:`RendererPolicy` — its renderer is used
                unless *renderer* overrides it, and its
                ``disable_passes`` fold into *flags*.
            install: when True (default) the new functions become the
                base codecs of the module's slots (live layers stay on
                top) — safe mid-traffic because every renderer produces
                byte-identical wire output from the same IR.  When
                False the functions are only returned (how the tiering
                engine shadow-verifies before committing).

        Returns ``{entry name: function}`` for the rebuilt codecs.  Only
        the selected entries and the out-of-line helpers they may call
        are built, each through the one per-function source compile
        (:func:`repro.mir.render_closures.compile_function`): now under
        ``py``, by its first call under ``closures``.
        """
        stubs = self.stubs
        backend = getattr(stubs, "backend_instance", None)
        if backend is None or stubs.mir is None:
            raise FlickError(
                "these stubs carry no back end/marshal IR;"
                " recompile needs the MIR pipeline"
            )
        if policy is not None:
            policy = RendererPolicy.coerce(policy)
            if renderer is None:
                renderer = policy.renderer
            flags = policy.resolve_flags(
                flags if flags is not None else stubs.flags)
        renderer = renderer or stubs.renderer
        if renderer == "c":
            raise FlickError(
                "the C artifact is inspect-only; recompile to 'py'"
                " or 'closures'"
            )
        if flags is None:
            flags = stubs.flags or OptFlags()
        from repro.mir.render_closures import bind_codecs

        program = self._build_program(backend, flags)
        # Built over a *copy* of the module globals: the new functions
        # carry their own consts and helpers in their ``__globals__``
        # while still seeing the module's record classes and imports, so
        # a per-op swap under other flags never perturbs sibling ops.
        new = bind_codecs(program, dict(vars(self.module)), self.module,
                          renderer, self._select_entries(program, op))
        if install:
            self.codecs.set_base(new)
        return new

    def _build_program(self, backend, flags):
        from repro.mir.build import build_program
        from repro.mir.passes import PassManager

        program = build_program(backend, self.presc, flags)
        return PassManager(flags).run(program)

    def _select_entries(self, program, op):
        """The names of *op*'s entry functions (None, meaning every
        entry, when *op* is None)."""
        if op is None:
            return None
        selected = {fn.name for fn in program.functions
                    if fn.operation == op}
        if not selected:
            raise FlickError(
                "interface %s has no operation %r (have: %s)"
                % (self.presc.interface_name, op,
                   ", ".join(self.operations()))
            )
        return selected
