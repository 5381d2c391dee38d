"""What the gateway planner, ``flick bridge`` and the payload-shape
profiler make of the example schemas, as plain JSON values.

For every pair of example schemas :func:`repro.gateway.build_plan`
bridges — each schema IIOP→ONC and ONC→IIOP, and the evolved pairs
``sensor_v2``→``sensor`` and ``mail``→``mail_v2`` both ways, plus the
inline :data:`SHAPES_IDL` pairs for the pairing rules the examples do
not reach — it records the plan's summary, the ``repr`` of every
operation's request segments and of its reply segments per
discriminator, every :func:`repro.gateway.predict_fused` channel and
:func:`repro.gateway.check_bridge`'s full report.
For ``ledger.idl``, ``mail.idl`` and the inline schemas, profiled at
``sample=1`` through a loopback client, it records the channel paths
and arm counts per ``(op, direction)``.

``tests/test_gateway.py`` pins both against
``tests/golden/bridge_plans.json``; regenerate that file after an
intended change with::

    PYTHONPATH=src python -m tests.bridge_plans golden

:func:`diff_report` is ``flick diff --json`` over the same schemas;
``tests/test_compat.py`` pins the pairs ``tests/golden/compat/`` names
(regenerate: ``PYTHONPATH=src python -m tests.bridge_plans diffs``).
"""

from __future__ import annotations

import json
import os
import sys

from repro import api
from repro.compat import diff_report_json, diff_texts
from repro.gateway import build_plan, check_bridge, predict_fused
from repro.mint import types as mt
from repro.obs import profile
from repro.pres import nodes as p
from repro.runtime import LoopbackTransport

HERE = os.path.dirname(__file__)
EXAMPLES = os.path.join(HERE, os.pardir, "examples", "idl")
GOLDEN = os.path.join(HERE, "golden", "bridge_plans.json")

PROTOCOLS = {"iiop": "oncrpc-xdr", "oncrpc-xdr": "iiop"}

#: Evolved schema pairs bridged ingress -> egress.
EVOLVED = [("sensor_v2.idl", "sensor.idl"), ("mail.idl", "mail_v2.idl")]

#: The pairing rules the examples do not reach: enums against longs
#: (one atom kind), a named type against an inline one (never fused),
#: arrays of enums and of typedef'd words, unions, exceptions.
SHAPES_IDL = """
module S {
  enum Color { RED, GREEN };
  typedef long Word;
  struct P { Color c; Word w; };
  typedef P Ps[3];
  typedef sequence<Color, 4> Colors;
  typedef sequence<Word> Words;
  exception Bad { long code; };
  union U switch (long) { case 0: long a; default: string<8> b; };
  interface Shapes {
    Color paint(in Color c, in Ps ps) raises (Bad);
    Words words(in Words w, in Colors cs);
    U pick(in U u);
    void mixed(in Color c, in string<8> s);
  };
};
"""

#: SHAPES_IDL with its enum spelled as a long and ``paint``'s first
#: argument inline.
SHAPES_IDL_LONG = SHAPES_IDL.replace(
    "enum Color { RED, GREEN };", "typedef long Color;").replace(
    "paint(in Color c", "paint(in long c")

#: Shapes the example schemas lack: a union, optionals (one recursive),
#: fixed arrays of structs and of bytes, strings inside array elements.
SHAPES_X = """
struct pt { int x; int y; };
struct cell { string name<16>; pt at[2]; opaque tag[4]; pt *maybe; };
typedef cell cells<8>;
struct node { int v; node *next; };
typedef node *list;
union pick switch (int k) {
  case 0: int n;
  case 1: string s<8>;
  default: void;
};
program SHAPES {
  version V1 {
    int take(cells) = 1;
    pick choose(pick) = 2;
    list walk(list) = 3;
  } = 1;
} = 0x20000099;
"""


#: Schemas given inline rather than under examples/idl/.
INLINE = {"shapes.idl": SHAPES_IDL, "shapes_long.idl": SHAPES_IDL_LONG,
          "shapes.x": SHAPES_X}


def source(name):
    """The text of an example schema or of an inline one."""
    text = INLINE.get(name)
    if text is None:
        with open(os.path.join(EXAMPLES, name)) as handle:
            text = handle.read()
    return text


def _compile(name, backend):
    return api.compile(source(name), name=name, backend=backend)


def _pairs():
    names = sorted(os.listdir(EXAMPLES)) + ["shapes.idl"]
    for name in names:
        for backend, other in sorted(PROTOCOLS.items()):
            yield name, backend, name, other
    for ingress, egress in EVOLVED + [("shapes.idl", "shapes_long.idl")]:
        for backend, other in sorted(PROTOCOLS.items()):
            yield ingress, backend, egress, other


def plan_record(ingress_result, egress_result):
    """The plan, its segments, its prediction and ``check_bridge``'s
    report as JSON values."""
    plan = build_plan(ingress_result, egress_result)
    predictions = predict_fused(plan)
    ops = {}
    for op in plan.ops.values():
        ops[op.name] = {
            "request": repr(op.request_segments),
            "reply": {str(disc): repr(segments) for disc, segments
                      in sorted(op.reply_segments.items())},
            "predicted": {direction: prediction.to_json()
                          for direction, prediction
                          in sorted(predictions[op.name].items())},
        }
    return {"summary": plan.summary(), "ops": ops,
            "check": check_bridge(plan.pairing).to_json()}


def plans():
    records = {}
    for ingress, in_backend, egress, eg_backend in _pairs():
        key = "%s:%s -> %s:%s" % (ingress, in_backend, egress, eg_backend)
        records[key] = plan_record(_compile(ingress, in_backend),
                                   _compile(egress, eg_backend))
    return records


# ----------------------------------------------------------------------
# Profiled channel paths
# ----------------------------------------------------------------------


def sample_value(pres, presc, module, depth=0):
    """One presented value of *pres*; recursion stops after two links."""
    if isinstance(pres, p.PresRef):
        return sample_value(presc.pres_registry[pres.name], presc, module,
                            depth + 1)
    if isinstance(pres, p.PresVoid):
        return None
    if isinstance(pres, p.PresEnum):
        return pres.members[-1][1]
    if isinstance(pres, p.PresDirect):
        mint = pres.mint
        if isinstance(mint, mt.MintFloat):
            return 1.5
        if isinstance(mint, mt.MintChar):
            return "c"
        if isinstance(mint, mt.MintBoolean):
            return True
        return 3
    if isinstance(pres, p.PresString):
        return "name"
    if isinstance(pres, p.PresBytes):
        return bytes(range(pres.fixed_length or 5))
    if isinstance(pres, p.PresFixedArray):
        return [sample_value(pres.element, presc, module, depth)
                for _ in range(pres.length)]
    if isinstance(pres, p.PresCountedArray):
        return [sample_value(pres.element, presc, module, depth)
                for _ in range(4)]
    if isinstance(pres, p.PresOptPtr):
        if depth > 2:
            return None
        return sample_value(pres.element, presc, module, depth)
    if isinstance(pres, p.PresUnion):
        arm = pres.arms[-1] if pres.arms[-1].labels else pres.arms[-2]
        return (arm.labels[0],
                sample_value(arm.pres, presc, module, depth))
    if isinstance(pres, p.PresStruct):
        record = getattr(module, pres.record_name.replace("::", "_"))
        return record(*[sample_value(f.pres, presc, module, depth)
                        for f in pres.fields])
    raise TypeError("no sample for %r" % (pres,))


class _Servant:
    """Answers every operation with a sample of its success arm."""

    def __init__(self, result, module):
        self._result = result
        self._module = module

    def __getattr__(self, name):
        presc = self._result.presc
        stub = presc.stub_named(name)
        fields = stub.reply_pres.arms[0].pres.fields if stub.reply_pres \
            else ()
        value = (sample_value(fields[0].pres, presc, self._module)
                 if fields else None)
        return lambda *args: value


def profile_record(result):
    """Channel paths and arm counts per ``op direction``, one sampled
    call of every operation through a loopback client."""
    module = result.module
    presc = result.presc
    profile.instrument_stub_module(module)
    profile.configure(sample=1)
    try:
        client = getattr(module, "%sClient" % presc.interface_name.replace(
            "::", "_"))(LoopbackTransport(module.dispatch,
                                          _Servant(result, module)))
        for stub in presc.stubs:
            getattr(client, stub.operation_name)(*[
                sample_value(parameter.pres, presc, module)
                for parameter in stub.in_parameters()])
        snapshot = profile.shutdown()
    finally:
        profile.shutdown()
    names = {stub.operation_name for stub in presc.stubs}
    return {
        "%s %s" % (op.op, op.direction): {
            "channels": {path: hist.kind
                         for path, hist in sorted(op.channels.items())},
            "arms": {path: dict(sorted(counts.items()))
                     for path, counts in sorted(op.arms.items())},
        }
        for op in snapshot.ops if op.op in names
    }


def profiles():
    return {name: profile_record(_compile(name, backend))
            for name, backend in (("ledger.idl", "iiop"),
                                  ("mail.idl", "iiop"),
                                  ("shapes.idl", "iiop"),
                                  ("shapes.x", "oncrpc-xdr"))}


def document():
    return {"plans": plans(), "profiles": profiles()}


def diff_report(old, new):
    """``flick diff --json``'s document for two example or inline
    schemas, on both protocols."""
    return diff_report_json(diff_texts(source(old), source(new), "corba"),
                            old, new, lang="corba")


def main(argv):
    if argv[1:] == ["golden"]:
        with open(GOLDEN, "w") as handle:
            json.dump(document(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    if argv[1:] == ["diffs"]:
        from tests.test_compat import TestGoldenReports

        for name, (old, new) in TestGoldenReports.PAIRS.items():
            with open(os.path.join(HERE, "golden", "compat", name),
                      "w") as handle:
                json.dump(diff_report(old, new), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
        return 0
    print("usage: python -m tests.bridge_plans golden|diffs", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
