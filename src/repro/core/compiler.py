"""What a compile produces: :class:`CompileResult`, one per interface.

The pipeline that builds it is :func:`repro.api.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.codecs import codec_form

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
    timings: Dict[str, float]
    #: The front end that produced this result ("corba", "oncrpc", "mig",
    #: "pyschema").
    frontend: str

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
