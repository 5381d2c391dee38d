"""Shape probing: walk presented values along the naive type IR.

The payload-shape profiler (:mod:`repro.obs.profile`) wants to know, per
operation and direction, how long the sequences are, how long the
strings are, and which union arms actually fire — without re-deriving
any of that from the wire.  This module walks a *presented* value tuple
in lock step with the operation's naive :class:`~repro.mir.ops.TypeChannel`
(the same IR ``flick ir`` shows) and reports what it sees to a sink.

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

from repro.mir import ops as m
from repro.pres.values import union_parts

#: How many elements of a counted/fixed array to recurse into.
ARRAY_SAMPLE = 3


def probe_args(channel, types, values, sink):
    """Probe *values* (a sequence aligned with *channel*'s items).

    *types* is the naive program's named-type registry, used to chase
    :class:`~repro.mir.ops.TRef` nodes (recursive refs are skipped —
    their spine length is workload-defined, not schema-defined, and
    walking them would make probe cost unbounded).

    Void items are filtered before alignment: a void reply presents as
    ``[("value", TVoid)]`` in the naive channel but the generated
    ``_m_rep_ok_`` marshal takes no value argument for it.
    """
    items = [
        (name, node) for name, node in channel.items
        if not isinstance(node, m.TVoid)
    ]
    for (name, node), value in zip(items, values):
        _probe(node, types, value, name, sink)


def _probe(node, types, value, path, sink):
    if isinstance(node, (m.TAtom, m.TVoid)):
        return
    if isinstance(node, m.TRef):
        if node.recursive:
            return
        resolved = types.get(node.name)
        if resolved is not None:
            _probe(resolved, types, value, path, sink)
        return
    if isinstance(node, m.TString):
        sink.length(path, "str", len(value))
        return
    if isinstance(node, m.TBytes):
        sink.length(path, "bytes", len(value))
        return
    if isinstance(node, m.TCountedArray):
        length = len(value)
        sink.length(path, "seq", length)
        if not isinstance(node.element, m.TAtom):
            _probe_elements(node.element, types, value, path, sink)
        return
    if isinstance(node, m.TFixedArray):
        if not isinstance(node.element, m.TAtom):
            _probe_elements(node.element, types, value, path, sink)
        return
    if isinstance(node, m.TOptional):
        if value is None:
            sink.arm(path, "absent")
        else:
            sink.arm(path, "present")
            _probe(node.element, types, value, path, sink)
        return
    if isinstance(node, m.TUnion):
        discriminator, payload = union_parts(value)
        sink.arm(path, str(discriminator))
        arm = _match_arm(node, discriminator)
        if arm is not None and not isinstance(arm.node, m.TVoid):
            _probe(arm.node, types, payload, path + ".<arm>", sink)
        return
    if isinstance(node, (m.TStruct, m.TException)):
        for field in node.fields:
            _probe(field.node, types, getattr(value, field.name),
                   "%s.%s" % (path, field.name), sink)
        return
    # Unknown node kinds are skipped, not raised: probing must never
    # break a serving path.


def _probe_elements(element, types, value, path, sink):
    """Recurse into up to :data:`ARRAY_SAMPLE` representative elements."""
    length = len(value)
    if not length:
        return
    indices = sorted({0, length // 2, length - 1})[:ARRAY_SAMPLE]
    child_path = path + "[]"
    for index in indices:
        _probe(element, types, value[index], child_path, sink)


def _match_arm(union, discriminator):
    default = None
    for arm in union.arms:
        if arm.is_default:
            default = arm
        elif discriminator in arm.labels:
            return arm
    return default
