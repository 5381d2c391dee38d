"""The Flick compiler core: the compile result and optimization options."""

from repro.core.options import OptFlags
from repro.core.loader import load_stub_module
from repro.core.compiler import CompileResult

__all__ = ["CompileResult", "OptFlags", "load_stub_module"]
