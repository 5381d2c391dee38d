"""The Flick pipeline driver.

Ties the three phases together exactly as Figure 1 of the paper draws
them: a front end parses IDL to AOI, a presentation generator maps AOI to
PRES_C, and a back end turns PRES_C into stubs.  Any front end composes
with any presentation generator and any back end.  Front ends come from
the self-registering :mod:`repro.frontends` registry; conjoined front
ends (MIG, whose ``lower`` phase yields PRES_C directly) skip the
presentation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.errors import FlickError
from repro import frontends as frontend_registry
from repro.core.codecs import codec_form
from repro.core.options import OptFlags
from repro.obs import trace

#: Default back end per presentation style.
DEFAULT_BACKEND = {
    "corba-c": "iiop",
    "corba-c-len": "iiop",
    "rpcgen": "oncrpc-xdr",
    "fluke": "fluke",
}


@dataclass
class CompileResult:
    """Everything produced for one interface: IRs and generated stubs."""

    aoi: object
    interface: object
    presc: object
    stubs: object  # GeneratedStubs
    #: Per-phase wall-clock seconds: parse, aoi, present, emit, total.
    timings: Optional[Dict[str, float]] = None
    #: The front end that produced this result ("corba", "oncrpc", "mig",
    #: "pyschema"); None for results built before the unified api facade.
    frontend: Optional[str] = None

    def load_module(self):
        return self.stubs.load()

    @property
    def module(self):
        """The loaded stub module (cached; same object every time)."""
        return self.stubs.load()

    @property
    def mir(self):
        """The optimized marshal IR (None for writer-driven baselines)."""
        return self.stubs.mir

    @property
    def codec_table(self):
        """Live codec bindings: op -> {entry name: current function}.

        Read from the loaded module's dict on every access, so the table
        reflects base swaps and layer changes the moment they land.
        """
        table = {}
        for name, value in vars(self.module).items():
            form, op = codec_form(name)
            if form is not None:
                table.setdefault(op, {})[name] = value
        return table

    def emit_summary(self):
        """Size/shape facts about the generated stubs (for --timing)."""
        stubs = self.stubs
        operations = stubs.metadata.get("operations", {})
        return {
            "operations": len(operations),
            "stub_bytes": len(stubs.py_source),
            "stub_lines": stubs.py_source.count("\n"),
            "request_chunks": sum(
                meta.get("request_chunks", 0)
                for meta in operations.values()
            ),
        }


class Flick:
    """The compiler facade.

    Example::

        flick = Flick(frontend="corba", backend="iiop")
        result = flick.compile(idl_text)
        module = result.load_module()
        client = module.Test_MailClient(transport)
    """

    def __init__(self, frontend="corba", presentation=None, backend=None,
                 flags=None, renderer="py", **backend_options):
        try:
            self.fe = frontend_registry.get(frontend)
        except FlickError:
            raise FlickError(
                "unknown front end %r (have: %s)"
                % (frontend, ", ".join(frontend_registry.names()))
            ) from None
        self.frontend = self.fe.name
        if self.fe.has_aoi:
            self.presentation = presentation or self.fe.presentation
            self.backend = backend or DEFAULT_BACKEND[self.presentation]
        else:
            # Conjoined front ends carry their own presentation.
            self.presentation = presentation
            self.backend = backend or self.fe.backend
        self.flags = flags or OptFlags()
        self.renderer = renderer
        self.backend_options = backend_options

    # ------------------------------------------------------------------

    def parse(self, idl_text, name="<idl>"):
        """Run only the front end; returns the validated AoiRoot."""
        if not self.fe.has_aoi:
            raise FlickError(
                "%s bypasses AOI (conjoined front end); use "
                "api.compile(text, %r) for the full pipeline"
                % (self.frontend, self.frontend)
            )
        return self.fe.compile_frontend(idl_text, name)

    def compile(self, idl_text, interface=None, name="<idl>"):
        """Full pipeline; returns a :class:`CompileResult`.

        The result's ``timings`` dict always carries per-phase wall-clock
        seconds (parse, aoi, present, emit, total) — the cost of a few
        ``perf_counter`` reads; ``flick compile --timing`` prints them.
        """
        from repro.backend import make_backend
        from repro.pgen import make_presentation

        if not self.fe.has_aoi:
            return self._compile_conjoined(idl_text, interface, name)
        timings = {}
        total_started = perf_counter()
        phase_started = total_started
        with trace.span("compile.parse"):
            specification = self.fe.parse(idl_text, name)
        timings["parse_s"] = perf_counter() - phase_started
        phase_started = perf_counter()
        with trace.span("compile.aoi"):
            aoi_root = self.fe.lower(specification, name)
        timings["aoi_s"] = perf_counter() - phase_started
        picked = self._pick_interface(aoi_root, interface)
        phase_started = perf_counter()
        with trace.span("compile.present"):
            generator = make_presentation(self.presentation)
            presc = generator.generate(aoi_root, picked, side="client")
        timings["present_s"] = perf_counter() - phase_started
        phase_started = perf_counter()
        with trace.span("compile.emit"):
            backend = make_backend(self.backend, **self.backend_options)
            stubs = backend.generate(presc, self.flags,
                                     renderer=self.renderer)
        timings["emit_s"] = perf_counter() - phase_started
        timings["total_s"] = perf_counter() - total_started
        return CompileResult(
            aoi=aoi_root, interface=picked, presc=presc, stubs=stubs,
            timings=timings, frontend=self.frontend,
        )

    def _compile_conjoined(self, idl_text, interface, name):
        """Conjoined path: ``lower`` yields PRES_C, no AOI phase."""
        from repro.backend import make_backend

        timings = {}
        total_started = perf_counter()
        phase_started = total_started
        with trace.span("compile.parse"):
            specification = self.fe.parse(idl_text, name)
        timings["parse_s"] = perf_counter() - phase_started
        phase_started = perf_counter()
        with trace.span("compile.present"):
            presc = self.fe.lower(specification, name)
        timings["present_s"] = perf_counter() - phase_started
        if interface is not None and presc.interface_name != interface:
            raise FlickError(
                "%s subsystem defines %r, not %r"
                % (self.frontend.upper(), presc.interface_name, interface)
            )
        phase_started = perf_counter()
        with trace.span("compile.emit"):
            backend = make_backend(self.backend, **self.backend_options)
            stubs = backend.generate(presc, self.flags,
                                     renderer=self.renderer)
        timings["emit_s"] = perf_counter() - phase_started
        timings["total_s"] = perf_counter() - total_started
        return CompileResult(
            aoi=None, interface=None, presc=presc, stubs=stubs,
            timings=timings, frontend=self.frontend,
        )

    def compile_all(self, idl_text, name="<idl>"):
        """Compile every interface; returns {interface name: result}."""
        if not self.fe.has_aoi:
            result = self.compile(idl_text, name=name)
            return {result.presc.interface_name: result}
        aoi_root = self.parse(idl_text, name)
        results = {}
        for interface in aoi_root.interfaces:
            results[interface.name] = self.compile(
                idl_text, interface=interface.name, name=name
            )
        return results

    @staticmethod
    def _pick_interface(aoi_root, interface_name):
        if interface_name is not None:
            return aoi_root.interface_named(interface_name)
        if not aoi_root.interfaces:
            raise FlickError("the IDL input defines no interfaces")
        if len(aoi_root.interfaces) > 1:
            raise FlickError(
                "the IDL input defines %d interfaces; pass interface=..."
                % len(aoi_root.interfaces)
            )
        return aoi_root.interfaces[0]
