"""Interface-level compatibility diff.

Combines three layers per protocol:

* **AOI/structural** — operations added, removed, or changed between the
  two compiled interfaces (a rename is a removal plus an addition, and
  the removal is what deployed peers observe: their requests answer
  PROC_UNAVAIL / BAD_OPERATION).
* **Header/demux** — the back end's precomputed header templates carry
  every per-operation constant (ONC program/version/procedure numbers,
  GIOP object keys and operation names) with dynamic fields zeroed, so
  comparing templates byte-for-byte *is* comparing the protocol
  envelope; the demux key is compared separately because a changed key
  means the receiver dispatches the request to nothing (or to the wrong
  handler) before body decode is even reached.
* **MINT/wire layout** — the directional body walks of
  :func:`repro.compat.pairwalk.pair_message`, one channel per message
  per sender schema.

Every channel judged WIRE_IDENTICAL is additionally *proven* by two
independent oracles: :func:`repro.mint.analysis.analyze_storage` must
report identical storage classes and byte bounds for both schemas, and
(when generated-stub metadata is available) the emitters must have
produced the same number of marshal chunks.  A disagreement downgrades
the verdict — the structural walker is never trusted alone.
"""

from __future__ import annotations

from typing import List

from repro.mint.analysis import analyze_storage
from repro.compat.pairwalk import pair_message, pair_stubs, \
    unknown_op_text
from repro.compat.verdict import (
    ChannelDiff,
    Finding,
    InterfaceDiff,
    OperationDiff,
    Verdict,
    worst,
)

#: The wire protocols ``flick diff`` examines by default: the two the
#: paper's optimizing back ends target and the tests cross-validate.
DEFAULT_PROTOCOLS = ("oncrpc-xdr", "iiop")


def diff_interfaces(old_presc, new_presc, backend, old_metadata=None,
                    new_metadata=None):
    """Diff two PRES_C values under *backend*; returns InterfaceDiff."""
    operations: List[OperationDiff] = []
    for name, old_stub, new_stub in pair_stubs(old_presc, new_presc):
        if new_stub is None:
            operations.append(OperationDiff(
                operation=name,
                verdict=Verdict.BREAKING,
                findings=(Finding(
                    Verdict.BREAKING, name,
                    "operation removed: deployed callers' requests are "
                    "answered %s" % unknown_op_text(backend),
                ),),
            ))
        elif old_stub is None:
            operations.append(OperationDiff(
                operation=name,
                verdict=Verdict.DECODE_COMPATIBLE,
                findings=(Finding(
                    Verdict.DECODE_COMPATIBLE, name,
                    "operation added: new-schema callers cannot reach "
                    "old-schema servers for this operation",
                ),),
            ))
        else:
            operations.append(_diff_operation(
                old_presc, new_presc, old_stub, new_stub, backend,
                old_metadata, new_metadata,
            ))
    operations.sort(key=lambda operation: operation.operation)
    return InterfaceDiff(
        protocol=backend.name,
        old_interface=old_presc.interface_name,
        new_interface=new_presc.interface_name,
        verdict=worst(operation.verdict for operation in operations),
        operations=tuple(operations),
    )


def _diff_operation(old_presc, new_presc, old_stub, new_stub, backend,
                    old_metadata, new_metadata):
    name = old_stub.operation_name
    findings: List[Finding] = []
    channels: List[ChannelDiff] = []
    fmt = backend.wire_format

    old_key = backend.demux_key(old_presc, old_stub)
    new_key = backend.demux_key(new_presc, new_stub)
    if old_key != new_key:
        findings.append(Finding(
            Verdict.BREAKING, name,
            "demux key changed %r -> %r: old-schema requests dispatch %s "
            "on a new-schema server" % (
                old_key, new_key, unknown_op_text(backend),
            ),
        ))

    old_req = backend.request_header(old_presc, old_stub)
    new_req = backend.request_header(new_presc, new_stub)
    if old_req.template != new_req.template:
        at = _first_difference(old_req.template, new_req.template)
        findings.append(Finding(
            Verdict.BREAKING, name,
            "request header template changed at offset %d (%d vs %d "
            "bytes): the protocol envelope no longer matches" % (
                at, len(old_req.template), len(new_req.template),
            ),
            offset=at,
        ))

    if old_stub.oneway != new_stub.oneway:
        findings.append(Finding(
            Verdict.BREAKING, name,
            "oneway changed (%s -> %s): one side sends a reply the other "
            "never reads" % (old_stub.oneway, new_stub.oneway),
        ))

    headers = {"request": (old_req, new_req)}
    if not old_stub.oneway and not new_stub.oneway:
        old_rep = backend.reply_header(old_presc, old_stub)
        new_rep = backend.reply_header(new_presc, new_stub)
        if old_rep.template != new_rep.template:
            at = _first_difference(old_rep.template, new_rep.template)
            findings.append(Finding(
                Verdict.BREAKING, name,
                "reply header template changed at offset %d" % at,
                offset=at,
            ))
        headers["reply"] = (old_rep, new_rep)

    ends = {"old": (old_presc, old_stub), "new": (new_presc, new_stub)}
    for message, (old_header, new_header) in headers.items():
        for sender, receiver, header in (("old", "new", old_header),
                                         ("new", "old", new_header)):
            (s_presc, s_stub), (r_presc, r_stub) = ends[sender], \
                ends[receiver]
            pair = pair_message(
                getattr(s_stub, message + "_pres"),
                getattr(r_stub, message + "_pres"), s_presc, r_presc, fmt,
                path=message, offset=len(header.template),
                tolerate_trailing=message == "request",
            )
            channels.append(ChannelDiff(
                channel="%s:%s->%s" % (message, sender, receiver),
                verdict=pair.verdict, findings=pair.findings))

    channels = [
        _prove_identical(
            channel, old_presc, new_presc, old_stub, new_stub, fmt,
            old_metadata, new_metadata,
        )
        for channel in channels
    ]
    verdict = worst(
        [_deploy_verdict(channel) for channel in channels]
        + [finding.verdict for finding in findings]
    )
    return OperationDiff(
        operation=name,
        verdict=verdict,
        channels=tuple(channels),
        findings=tuple(findings),
    )


def _deploy_verdict(channel):
    """A channel's contribution to the operation verdict.

    The verdict answers the schema-evolution question "do old encoders
    produce bytes new decoders accept?" (the issue's definition of
    DECODE_COMPATIBLE), so the ``old->new`` channels carry their verdict
    through unchanged.  A break in the reverse direction (``new->old``)
    does not make the evolution breaking — it only proves the two
    schemas are not byte-identical and that deploy order matters — so it
    caps at DECODE_COMPATIBLE.  The per-channel verdicts remain in the
    report for operators who must also keep new encoders talking to old
    decoders.
    """
    if channel.channel.endswith("old->new"):
        return channel.verdict
    if channel.verdict is Verdict.WIRE_IDENTICAL:
        return Verdict.WIRE_IDENTICAL
    return Verdict.DECODE_COMPATIBLE


def _prove_identical(channel, old_presc, new_presc, old_stub, new_stub,
                     fmt, old_metadata, new_metadata):
    """Cross-check a WIRE_IDENTICAL claim against the storage analysis
    and the emitted chunk layouts; downgrade on any disagreement."""
    if channel.verdict is not Verdict.WIRE_IDENTICAL:
        return channel
    is_request = channel.channel.startswith("request")
    old_mint = (old_stub.request_pres if is_request
                else old_stub.reply_pres).mint
    new_mint = (new_stub.request_pres if is_request
                else new_stub.reply_pres).mint
    old_info = analyze_storage(old_mint, fmt, old_presc.mint_registry)
    new_info = analyze_storage(new_mint, fmt, new_presc.mint_registry)
    extra: List[Finding] = []
    if old_info != new_info:
        extra.append(Finding(
            Verdict.BREAKING, channel.channel,
            "storage analysis contradicts the structural walk: %s vs %s "
            "— treating as breaking" % (old_info, new_info),
        ))
    if is_request and old_metadata is not None and new_metadata is not None:
        old_chunks = old_metadata["operations"].get(
            old_stub.operation_name, {}).get("request_chunks")
        new_chunks = new_metadata["operations"].get(
            new_stub.operation_name, {}).get("request_chunks")
        if old_chunks != new_chunks:
            extra.append(Finding(
                Verdict.BREAKING, channel.channel,
                "emitted chunk layouts differ (%s vs %s chunks) for a "
                "channel claimed byte-identical — treating as breaking"
                % (old_chunks, new_chunks),
            ))
    if not extra:
        return channel
    findings = channel.findings + tuple(extra)
    return ChannelDiff(
        channel=channel.channel,
        verdict=worst(finding.verdict for finding in findings),
        findings=findings,
    )


def _first_difference(old_bytes, new_bytes):
    for index, (old_byte, new_byte) in enumerate(zip(old_bytes, new_bytes)):
        if old_byte != new_byte:
            return index
    return min(len(old_bytes), len(new_bytes))


# ----------------------------------------------------------------------
# Convenience entry points over compiled results and raw IDL text.
# ----------------------------------------------------------------------


def diff_compiled(old_result, new_result, backend=None):
    """Diff two :class:`repro.core.compiler.CompileResult` values.

    Both must have been compiled for the same back end; *backend* may be
    passed explicitly, otherwise it is reconstructed from the stubs'
    recorded backend name.
    """
    from repro.backend import make_backend

    if backend is None:
        old_name = old_result.stubs.backend_name
        new_name = new_result.stubs.backend_name
        if old_name != new_name:
            raise ValueError(
                "cannot diff across back ends (%s vs %s)"
                % (old_name, new_name)
            )
        backend = make_backend(old_name)
    return diff_interfaces(
        old_result.presc, new_result.presc, backend,
        old_metadata=old_result.stubs.metadata,
        new_metadata=new_result.stubs.metadata,
    )


def diff_texts(old_text, new_text, lang=None, *, interface=None,
               protocols=DEFAULT_PROTOCOLS, flags=None,
               old_name="<old>", new_name="<new>"):
    """Compile both texts per protocol and diff; returns
    ``{protocol: InterfaceDiff}``.

    ``lang`` may be a language name or None for auto-detection (applied
    to each text independently, so a ``.x`` file can be diffed against
    itself regardless of spelling).
    """
    from repro import api

    diffs = {}
    for protocol in protocols:
        old_result = api.compile(
            old_text, lang, interface=interface, flags=flags,
            name=old_name, backend=protocol,
        )
        new_result = api.compile(
            new_text, lang, interface=interface, flags=flags,
            name=new_name, backend=protocol,
        )
        diffs[protocol] = diff_compiled(old_result, new_result)
    return diffs
