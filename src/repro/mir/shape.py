"""Shape probing: walk presented values along their PRES trees.

The payload-shape profiler (:mod:`repro.obs.profile`) wants to know, per
operation and direction, how long the sequences are, how long the
strings are, and which union arms actually fire — without re-deriving
any of that from the wire.  This module walks a *presented* value tuple
in lock step with one of the operation's channels
(:meth:`repro.pres.presc.PresCStub.channels`) and reports what it sees
to a sink.

The sink protocol is two callbacks::

    sink.length(path, kind, n)   # kind in {"seq", "str", "bytes"}
    sink.arm(path, label)        # union arm / optional presence

*path* names the channel position in a dotted grammar: a top-level
parameter is its IDL name, struct fields append ``.field``, array
elements append ``[]`` — so ``entries[].name`` is "the ``name`` field
of the ``entries`` sequence's elements".

Probing is O(message) in the worst case, but counted arrays recurse
into at most :data:`ARRAY_SAMPLE` representative elements (first,
middle, last), so a 65 536-entry array of structs costs three element
visits, not 65 536.  The profiler only probes sampled calls, so this
cost is further divided by the sample rate.
"""

from __future__ import annotations

from repro.errors import PresentationError
from repro.mint.analysis import is_recursive
from repro.pres import nodes as p
from repro.pres.values import union_parts

#: How many elements of a counted/fixed array to recurse into.
ARRAY_SAMPLE = 3


def probe_args(channel, presc, values, sink):
    """Probe *values* (a sequence aligned with *channel*'s items).

    *presc* is the PRES_C the channel came from: its registries chase
    :class:`~repro.pres.nodes.PresRef` nodes (recursive refs are skipped
    — their spine length is workload-defined, not schema-defined, and
    walking them would make probe cost unbounded).

    Void items are filtered before alignment: a void item takes no
    value argument in the generated marshal functions.
    """
    items = [(name, pres) for name, pres in channel
             if not isinstance(pres, p.PresVoid)]
    for (name, pres), value in zip(items, values):
        _probe(pres, presc, value, name, sink)


def _probe(pres, presc, value, path, sink):
    if isinstance(pres, p.PresRef):
        if not is_recursive(pres.mint, presc.mint_registry):
            _probe(presc.pres_registry[pres.name], presc, value, path,
                   sink)
        return
    if isinstance(pres, p.PresString):
        sink.length(path, "str", len(value))
        return
    if isinstance(pres, p.PresBytes):
        sink.length(path, "bytes", len(value))
        return
    if isinstance(pres, p.PresCountedArray):
        sink.length(path, "seq", len(value))
    if isinstance(pres, (p.PresCountedArray, p.PresFixedArray)):
        if not isinstance(pres.element, (p.PresDirect, p.PresEnum)):
            _probe_elements(pres.element, presc, value, path, sink)
        return
    if isinstance(pres, p.PresOptPtr):
        if value is None:
            sink.arm(path, "absent")
        else:
            sink.arm(path, "present")
            _probe(pres.element, presc, value, path, sink)
        return
    if isinstance(pres, p.PresUnion):
        discriminator, payload = union_parts(value)
        sink.arm(path, str(discriminator))
        try:
            arm = pres.arm_for(discriminator)
        except PresentationError:
            return
        _probe(arm.pres, presc, payload, path + ".<arm>", sink)
        return
    if isinstance(pres, (p.PresStruct, p.PresException)):
        for field in pres.fields:
            _probe(field.pres, presc, getattr(value, field.name),
                   "%s.%s" % (path, field.name), sink)
    # Atoms, voids and unknown kinds are skipped, not raised: probing
    # must never break a serving path.


def _probe_elements(element, presc, value, path, sink):
    """Recurse into up to :data:`ARRAY_SAMPLE` representative elements."""
    length = len(value)
    if not length:
        return
    indices = sorted({0, length // 2, length - 1})[:ARRAY_SAMPLE]
    child_path = path + "[]"
    for index in indices:
        _probe(element, presc, value[index], child_path, sink)
