"""The C renderer.

C stubs are rendered from the typed presentation level by
:mod:`repro.backend.cemit`, which runs its own C-specific chunker — C
needs struct declarations, storage classes, and expression syntax that
the Python-oriented op expressions do not carry.  That chunker does not
read the pass configuration: ``emit_c_stubs`` takes *flags* and ignores
them, so disabling a MIR pass changes the Python codecs and leaves the
C as it was (ROADMAP "one lowering" is the item that makes C a consumer
of the marshal IR).  This module is the renderer facade the back end
calls, so all three renderers hang off the same layer; see INTERNALS
section 10 for the contract.
"""

from __future__ import annotations


def render_c(backend, presc, flags):
    """Return ``(c_source, c_header)`` for *presc* under *flags*."""
    from repro.backend.cemit import emit_c_stubs

    return emit_c_stubs(backend, presc, flags)
