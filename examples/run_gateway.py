#!/usr/bin/env python
"""Protocol gateway demo: bridge IIOP clients onto an ONC RPC servant.

The gateway (`repro.gateway`, `flick gateway`) accepts frames on one
protocol and forwards them on another for the same interface —
*without* decoding to presentation values where the two wire formats
agree byte-for-byte.  This walkthrough:

1. compiles ``examples/idl/sensor.idl`` for both IIOP and ONC RPC/XDR
   and statically proves the bridge lossless (`flick bridge`);
2. builds the bridge plan and shows which operations fused into bulk
   copy plans and which fall back to decode/re-encode;
3. starts an unmodified blocking ONC RPC servant, a gateway in front
   of it, and calls through with an unmodified IIOP client — then
   flips the bridge around (ONC client -> IIOP servant);
4. shows verdict gating: the narrowed ``sensor_v2.idl`` as ingress
   against the wide v1 egress is refused as BREAKING.

Run with: PYTHONPATH=src python examples/run_gateway.py
"""

import os

from repro import api
from repro.compat import pair_bridge
from repro.gateway import (
    AioGatewayServer,
    bridge_exit_code,
    bridge_report_text,
    build_plan,
    check_bridge,
)
from repro.runtime import StubServer, TcpClientTransport

HERE = os.path.dirname(os.path.abspath(__file__))


def read_schema(name):
    with open(os.path.join(HERE, "idl", name)) as handle:
        return handle.read()


class SensorImpl:
    """An ordinary servant — it never learns a gateway is in front."""

    def __init__(self):
        self.published = 0
        self.calibrated = None

    def publish(self, batch):
        self.published += len(batch)
        return self.published

    def calibrate(self, frame):
        self.calibrated = frame

    def describe(self, channel):
        return "channel %d: %d samples" % (channel, self.published)


def compile_sides(text):
    iiop = api.compile(text, "corba", interface="Demo::Sensor",
                       backend="iiop")
    onc = api.compile(text, "corba", interface="Demo::Sensor",
                      backend="oncrpc-xdr")
    return iiop, onc


def drive(client, module):
    """The same calls any same-protocol client would make."""
    total = client.publish(list(range(1000)))
    cell = module.Demo_Cell
    client.calibrate([cell(i, i + 10, i + 5) for i in range(16)])
    return total, client.describe(7)


def bridge_demo(ingress, egress, label):
    egress_module = egress.module
    upstream = StubServer(egress_module, SensorImpl()).tcp_server()
    with upstream:
        plan = build_plan(ingress, egress)
        gateway = AioGatewayServer(plan, upstream.address[0],
                                   upstream.address[1])
        with gateway:
            ingress_module = ingress.module
            transport = TcpClientTransport(*gateway.address)
            try:
                client = ingress_module.Demo_SensorClient(transport)
                total, description = drive(client, ingress_module)
            finally:
                transport.close()
    assert total == 1000 and description == "channel 7: 1000 samples"
    print("  %-22s publish->%d  describe->%r" % (label, total, description))


def main():
    v1 = read_schema("sensor.idl")
    iiop, onc = compile_sides(v1)

    print("Static verification (flick bridge): both directions")
    report = check_bridge(pair_bridge(iiop, onc))
    print("  iiop<->oncrpc-xdr verdict: %s (exit %d)"
          % (report.verdict.name, bridge_exit_code(report)))
    assert bridge_exit_code(report) == 0

    print("\nBridge plan: word-shaped channels splice wire to wire")
    for line in build_plan(iiop, onc).summary().splitlines():
        print("  " + line)

    print("\nUnmodified client -> gateway -> unmodified servant:")
    bridge_demo(iiop, onc, "IIOP -> ONC RPC")
    bridge_demo(onc, iiop, "ONC RPC -> IIOP")

    print("\nVerdict gating: narrowed ingress against wide egress")
    narrow_iiop, _ = compile_sides(read_schema("sensor_v2.idl"))
    breaking = check_bridge(pair_bridge(narrow_iiop, onc))
    print("  sensor_v2 -> sensor verdict: %s (exit %d)"
          % (breaking.verdict.name, bridge_exit_code(breaking)))
    assert bridge_exit_code(breaking) == 2
    report_text = bridge_report_text(breaking, "sensor_v2.idl",
                                     "sensor.idl")
    for line in report_text.splitlines():
        if "narrowed" in line:
            print("  finding: " + line.strip())
    print("  flick gateway --check refuses to serve this pair.")
    print("\nOK")


if __name__ == "__main__":
    main()
