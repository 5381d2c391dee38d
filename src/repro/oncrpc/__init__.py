"""The ONC RPC front end.

Parses the XDR data-description language of RFC 1831/1832 plus rpcgen's
``program``/``version`` RPC extension, and lowers the result to AOI.  This is
the language the paper's Mail example uses:

.. code-block:: c

    program Mail {
        version MailVers {
            void send(string) = 1;
        } = 1;
    } = 0x20000001;
"""

import re

from repro import frontends
from repro.oncrpc.parser import parse_oncrpc_idl
from repro.oncrpc.to_aoi import oncrpc_to_aoi


def _lower(specification, name):
    from repro.aoi import validate

    return validate(oncrpc_to_aoi(specification, name=name))


frontends.register(frontends.FrontEnd(
    name="oncrpc",
    description="ONC RPC / XDR (RFC 1831/1832 + rpcgen programs)",
    suffixes=(".x",),
    patterns=(
        ("program/version block",
         re.compile(r"\b(?:program|version)\s+\w+\s*\{")),
    ),
    parse=parse_oncrpc_idl,
    lower=_lower,
    priority=20,
    presentation="rpcgen",
    sample=("program Probe { version ProbeV { int poke(int) = 1; }"
            " = 1; } = 0x20009999;\n"),
))

__all__ = ["parse_oncrpc_idl", "oncrpc_to_aoi"]
