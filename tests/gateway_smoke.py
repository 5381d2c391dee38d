#!/usr/bin/env python
"""CI smoke for the protocol gateway (not collected by pytest).

Brings up a *live* aio gateway between a blocking upstream servant on
one protocol and an asyncio client on the other, in both directions:

* blocking ONC RPC servant  <- gateway <- aio IIOP client
* blocking IIOP servant     <- gateway <- aio ONC RPC client

and asserts the bridged replies are byte-identical to a same-protocol
call against the servant directly.  Run from the repo root:

    PYTHONPATH=src python tests/gateway_smoke.py
"""

import asyncio
import os
import sys

from repro import api
from repro.compat import pair_bridge
from repro.encoding import MarshalBuffer
from repro.gateway import AioGatewayServer, build_plan, check_bridge, \
    bridge_exit_code
from repro.runtime import StubServer
from repro.runtime.aio import AioConnection

HERE = os.path.dirname(os.path.abspath(__file__))
SENSOR_IDL = os.path.join(HERE, os.pardir, "examples", "idl", "sensor.idl")


class SensorImpl:
    def publish(self, batch):
        return sum(batch)

    def calibrate(self, frame):
        pass

    def describe(self, channel):
        return "ch%d" % channel


def request_bytes(module, op, ctx, *args):
    buffer = MarshalBuffer()
    getattr(module, "_m_req_" + op)(buffer, ctx, *args)
    return buffer.getvalue()


async def aio_call(address, payload):
    connection = await AioConnection.open(*address)
    try:
        return await connection.acall(payload)
    finally:
        await connection.aclose()


def smoke_direction(ingress, egress, label):
    ingress_module = ingress.module
    egress_module = egress.module
    plan = build_plan(ingress, egress)

    batch = list(range(500))
    request = request_bytes(ingress_module, "publish", 11, batch)

    upstream = StubServer(egress_module, SensorImpl()).tcp_server()
    with upstream:
        gateway = AioGatewayServer(plan, *upstream.address)
        with gateway:
            bridged = asyncio.run(aio_call(gateway.address, request))
        # Same-protocol control: the identical client frame against a
        # servant that natively speaks the ingress protocol.
        control_server = StubServer(ingress_module, SensorImpl()).tcp_server()
        with control_server:
            control = asyncio.run(aio_call(control_server.address, request))

    offset = ingress_module._check_reply(bridged, 11)
    total = ingress_module._u_rep_publish(bridged, offset)
    assert total == sum(batch), (label, total)
    assert bridged == control, (label, bridged.hex(), control.hex())
    fused = "publish" in plan.fused_request_ops
    print("  %-24s publish(%d ints) -> %d  [request %s, reply "
          "byte-identical to same-protocol call]"
          % (label, len(batch), total, "fused" if fused else "re-encoded"))
    assert fused, label


def main():
    with open(SENSOR_IDL) as handle:
        text = handle.read()
    iiop = api.compile(text, "corba", interface="Demo::Sensor",
                       backend="iiop")
    onc = api.compile(text, "corba", interface="Demo::Sensor",
                      backend="oncrpc-xdr")

    report = check_bridge(pair_bridge(iiop, onc))
    code = bridge_exit_code(report)
    print("bridge check: %s (exit %d)" % (report.verdict.name, code))
    assert code == 0, report.verdict

    print("live gateway, aio client on the ingress protocol:")
    smoke_direction(iiop, onc, "aio IIOP -> blocking ONC")
    smoke_direction(onc, iiop, "aio ONC -> blocking IIOP")
    print("gateway smoke: OK")


if __name__ == "__main__":
    sys.exit(main())
