"""Static portability lint over a compiled interface.

Reuses the same compile-time layers the diff uses — PRES trees for
structure, :func:`analyze_storage` for byte bounds — to flag hazards a
single schema carries on its own:

* ``union-discriminator-gap`` (error): a union with no default arm whose
  discriminator is not exhaustively covered.  The generated decoder
  raises ``UnmarshalError`` on any unlisted label, so a peer built from
  a schema with one more arm (or a corrupted discriminator) kills the
  call rather than degrading.
* ``unbounded-on-datagram`` (warning): an unbounded request or reply on
  a UDP-capable program.  A datagram caps the message at
  ``MAX_UDP_SIZE`` bytes; nothing in the schema stops a legal value
  from exceeding it.
* ``bounded-over-datagram`` (warning): a bounded message whose
  worst-case size still exceeds the datagram limit.
* ``fixed-array-over-unroll`` (info): a fixed array longer than the
  inline-chunk threshold (``UNROLL_LIMIT``); it is marshaled as one
  batched copy instead of unrolled into the surrounding chunk.

Severities order ``error > warning > info``; the CLI maps them onto
exit codes via ``--fail-on``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mint.analysis import StorageClass, analyze_storage
from repro.pres import nodes as p
from repro.mir.ops import UNROLL_LIMIT

SEVERITIES = ("info", "warning", "error")

#: Protocols whose transports include datagrams (ONC RPC runs over UDP).
DATAGRAM_PROTOCOLS = ("oncrpc-xdr",)


@dataclass(frozen=True)
class LintFinding:
    severity: str
    code: str
    path: str
    reason: str

    def to_json(self):
        return {
            "severity": self.severity,
            "code": self.code,
            "path": self.path,
            "reason": self.reason,
        }


def lint_compiled(result, backend=None):
    """Lint one CompileResult; returns a sorted list of LintFinding."""
    from repro.backend import make_backend

    if backend is None:
        backend = make_backend(result.stubs.backend_name)
    presc = result.presc
    linter = _Linter(presc, backend)
    for stub in presc.stubs:
        root = "%s.request" % stub.operation_name
        linter.check_message(stub.request_pres, root, "request")
        if stub.reply_pres is not None:
            linter.check_message(
                stub.reply_pres, "%s.reply" % stub.operation_name, "reply",
            )
    findings = sorted(
        linter.findings,
        key=lambda finding: (
            -SEVERITIES.index(finding.severity), finding.code, finding.path,
        ),
    )
    return findings


def lint_text(text, lang=None, *, name="<idl>", interface=None,
              backend=None, flags=None):
    """Compile *text* and lint every interface it defines, or the one
    *interface* names.

    Returns ``(findings, protocol_name)``; *backend* defaults to the
    language's natural protocol (ONC -> oncrpc-xdr and so on).
    """
    from repro import api

    options = dict(flags=flags, name=name, backend=backend)
    results = api.compile_all(text, lang, **options) if interface is None \
        else {interface: api.compile(text, lang, interface=interface,
                                     **options)}
    findings: List[LintFinding] = []
    protocol = None
    for _interface_name, result in sorted(results.items()):
        findings.extend(lint_compiled(result))
        protocol = result.stubs.backend_name
    return findings, protocol


class _Linter:
    def __init__(self, presc, backend):
        self.presc = presc
        self.backend = backend
        self.fmt = backend.wire_format
        self.findings: List[LintFinding] = []
        self._seen = set()

    def note(self, severity, code, path, reason):
        key = (code, path)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(LintFinding(severity, code, path, reason))

    def check_message(self, pres, path, kind):
        if self.backend.name in DATAGRAM_PROTOCOLS:
            self._check_datagram(pres, path, kind)
        if kind == "reply" and isinstance(pres, p.PresUnion):
            # The reply root union is synthetic (the protocol's reply
            # status discriminates success from exception arms); only
            # user-declared unions inside the arms are linted.
            for arm in pres.arms:
                self._walk(arm.pres, path, set())
            return
        self._walk(pres, path, set())

    def _check_datagram(self, pres, path, kind):
        from repro.runtime.socket_transport import MAX_UDP_SIZE

        info = analyze_storage(
            pres.mint, self.fmt, self.presc.mint_registry
        )
        if info.storage_class is StorageClass.UNBOUNDED:
            self.note(
                "warning", "unbounded-on-datagram", path,
                "unbounded %s on a UDP-capable program: a datagram caps "
                "the message at %d bytes but the schema imposes no bound"
                % (kind, MAX_UDP_SIZE),
            )
        elif info.max_size is not None and info.max_size > MAX_UDP_SIZE:
            self.note(
                "warning", "bounded-over-datagram", path,
                "worst-case %s size %d exceeds the %d-byte datagram "
                "limit" % (kind, info.max_size, MAX_UDP_SIZE),
            )

    def _walk(self, pres, path, seen_refs):
        if isinstance(pres, p.PresRef):
            if pres.name in seen_refs:
                return
            seen_refs = seen_refs | {pres.name}
            self._walk(self.presc.pres_registry[pres.name], path, seen_refs)
            return
        if isinstance(pres, (p.PresStruct, p.PresException)):
            for struct_field in pres.fields:
                self._walk(
                    struct_field.pres, "%s.%s" % (path, struct_field.name),
                    seen_refs,
                )
        elif isinstance(pres, p.PresUnion):
            self._check_union(pres, path)
            for arm in pres.arms:
                label = "default" if arm.is_default else repr(arm.labels[0])
                self._walk(
                    arm.pres, "%s[case %s]" % (path, label), seen_refs,
                )
        elif isinstance(pres, p.PresFixedArray):
            if pres.length > UNROLL_LIMIT:
                self.note(
                    "info", "fixed-array-over-unroll", path,
                    "fixed array of %d elements exceeds the inline-chunk "
                    "threshold (%d); it is marshaled as a batched copy "
                    "rather than unrolled" % (pres.length, UNROLL_LIMIT),
                )
            self._walk(pres.element, path + "[*]", seen_refs)
        elif isinstance(pres, (p.PresCountedArray, p.PresOptPtr)):
            self._walk(pres.element, path + "[*]", seen_refs)

    def _check_union(self, pres, path):
        if any(arm.is_default for arm in pres.arms):
            return
        if self._discriminator_covered(pres):
            return
        labels = sorted(
            (label for arm in pres.arms for label in arm.labels), key=repr,
        )
        self.note(
            "error", "union-discriminator-gap", path,
            "union %s has no default arm and its arms %s do not cover "
            "the discriminator: the generated decoder raises "
            "UnmarshalError on any other label a peer sends"
            % (pres.union_name, labels),
        )

    def _discriminator_covered(self, pres):
        labels = {label for arm in pres.arms for label in arm.labels}
        discriminator = self.presc.pres_registry.resolve(pres.discriminator)
        if isinstance(discriminator, p.PresEnum):
            members = {value for _, value in discriminator.members}
            return members <= labels
        mint = getattr(discriminator, "mint", None)
        from repro.mint.types import MintBoolean

        if isinstance(mint, MintBoolean):
            truth = {bool(label) for label in labels}
            return truth == {True, False}
        return False
