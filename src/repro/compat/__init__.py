"""Wire-compatibility static analysis (``flick diff`` / ``flick lint``).

Flick's premise is that AOI is the network contract and MINT (refined by
the presentation's PRES trees) is the exact on-the-wire message structure.
This package exploits that: given two compiled versions of an interface it
*statically* classifies every operation into the verdict lattice

    WIRE_IDENTICAL < DECODE_COMPATIBLE < BREAKING

per protocol and per direction (old encoder -> new decoder and the
reverse), with each finding carrying the MINT path, the static byte
offset, and a human-readable reason.  One walk over a node pair,
:mod:`repro.compat.pairwalk`, gives those findings and, for a protocol
bridge, the gateway's copy segments or the reason a channel has none.
``lint`` flags portability hazards visible at compile time.

The verdicts are cross-validated dynamically in ``tests/test_compat.py``:
for a curated IDL-edit matrix the old stubs encode and the new stubs
decode (and vice versa) over both ONC/XDR and IIOP/CDR, and the observed
behavior must match the static verdict.
"""

from repro.compat.verdict import (
    Verdict,
    Finding,
    ChannelDiff,
    OperationDiff,
    InterfaceDiff,
)
from repro.compat.pairwalk import pair_bridge, pair_message
from repro.compat.ifacediff import (
    DEFAULT_PROTOCOLS,
    diff_compiled,
    diff_interfaces,
    diff_texts,
)
from repro.compat.lint import LintFinding, lint_compiled, lint_text
from repro.compat.report import (
    diff_exit_code,
    diff_report_json,
    diff_report_text,
    lint_exit_code,
    lint_report_json,
    lint_report_text,
)

__all__ = [
    "Verdict",
    "Finding",
    "ChannelDiff",
    "OperationDiff",
    "InterfaceDiff",
    "DEFAULT_PROTOCOLS",
    "pair_bridge",
    "pair_message",
    "diff_interfaces",
    "diff_compiled",
    "diff_texts",
    "LintFinding",
    "lint_compiled",
    "lint_text",
    "diff_exit_code",
    "diff_report_json",
    "diff_report_text",
    "lint_exit_code",
    "lint_report_json",
    "lint_report_text",
]
