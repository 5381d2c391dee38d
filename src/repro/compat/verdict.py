"""The verdict lattice and diff result containers.

A :class:`Verdict` orders compatibility outcomes from best to worst:

``WIRE_IDENTICAL``
    The sender's message layout is byte-identical under the receiver's
    schema: same atoms, same widths and alignments, same bounds, same
    demultiplexing keys.  Proven structurally and cross-checked against
    :func:`repro.mint.analysis.analyze_storage` and the back ends' chunk
    layouts.

``DECODE_COMPATIBLE``
    Not identical, but every message a sender following the *sender*
    schema can produce is accepted by a decoder generated from the
    *receiver* schema — e.g. a widened bounded-sequence limit, a union
    arm added where the receiver keeps a default, or trailing request
    data where the protocol's decoder tolerates it.

``BREAKING``
    Some legal sender message is rejected or misdecoded by the receiver:
    reordered fields, changed atom widths or alignment, removed
    operations, changed demux keys, narrowed bounds.

Verdicts compose by taking the worst element; a diff with no findings is
WIRE_IDENTICAL.  Every non-trivial verdict is justified by at least one
:class:`Finding` carrying the MINT path, the static byte offset (when one
exists), and a human-readable reason.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Verdict(enum.Enum):
    WIRE_IDENTICAL = "WIRE_IDENTICAL"
    DECODE_COMPATIBLE = "DECODE_COMPATIBLE"
    BREAKING = "BREAKING"

    @property
    def rank(self):
        return _RANK[self]

    def __or__(self, other):
        """Lattice join: the worse of the two verdicts."""
        return self if self.rank >= other.rank else other


_RANK = {
    Verdict.WIRE_IDENTICAL: 0,
    Verdict.DECODE_COMPATIBLE: 1,
    Verdict.BREAKING: 2,
}


def worst(verdicts):
    """Join an iterable of verdicts (WIRE_IDENTICAL when empty)."""
    result = Verdict.WIRE_IDENTICAL
    for verdict in verdicts:
        result = result | verdict
    return result


@dataclass(frozen=True)
class Finding:
    """One justified observation inside a diff.

    ``path`` is the MINT/PRES path from the message root (e.g.
    ``request.rect.corner.x``); ``offset`` is the static byte offset from
    the start of the message when the preceding layout is fixed, else
    None.  A WIRE_IDENTICAL finding is informational (a wire-transparent
    rename); it never worsens the enclosing verdict.
    """

    verdict: Verdict
    path: str
    reason: str
    offset: Optional[int] = None

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "path": self.path,
            "offset": self.offset,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ChannelDiff:
    """The directional diff of one message channel of one operation.

    ``channel`` names the message and the sender's schema:
    ``request:old->new`` means bytes encoded by the old schema's client
    decoded by the new schema's server.
    """

    channel: str
    verdict: Verdict
    findings: Tuple[Finding, ...] = ()

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "findings": [finding.to_json() for finding in self.findings],
        }


@dataclass(frozen=True)
class OperationDiff:
    """All channels of one operation plus operation-level findings."""

    operation: str
    verdict: Verdict
    channels: Tuple[ChannelDiff, ...] = ()
    findings: Tuple[Finding, ...] = ()

    def to_json(self):
        return {
            "verdict": self.verdict.value,
            "channels": {
                channel.channel: channel.to_json()
                for channel in self.channels
            },
            "findings": [finding.to_json() for finding in self.findings],
        }


@dataclass(frozen=True)
class InterfaceDiff:
    """The complete diff of two compiled interfaces under one protocol."""

    protocol: str
    old_interface: str
    new_interface: str
    verdict: Verdict
    operations: Tuple[OperationDiff, ...] = ()
    findings: Tuple[Finding, ...] = ()

    def to_json(self):
        return {
            "protocol": self.protocol,
            "old_interface": self.old_interface,
            "new_interface": self.new_interface,
            "verdict": self.verdict.value,
            "operations": {
                operation.operation: operation.to_json()
                for operation in self.operations
            },
            "findings": [finding.to_json() for finding in self.findings],
        }
