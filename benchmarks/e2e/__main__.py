"""Run every workload, each in a fresh subprocess, and print the ledger.

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--runs K]
        [--workload NAME] [--seconds S] [--out FILE] [--spans DIR]
    PYTHONPATH=src python -m benchmarks.e2e --smoke

Per workload and seed, ``run.py`` is started twice: once with tracing
off (the end-to-end metrics) and once for the traced pass (the per-layer
metrics and spans).  ``--out`` collects every run with a host
fingerprint, in the form ``compare.py`` reads.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

from benchmarks.e2e.spec import EXACT_COUNTS, ROOT, load_spec

HERE = pathlib.Path(__file__).resolve().parent

#: ``--smoke`` runs every sequence at about this share of its length.
SMOKE_SHARE = 1 / 30

#: Workloads whose traced pass must attribute nine tenths of the call.
LEDGER_WORKLOADS = ("rpc_small", "rpc_bulk_put", "compile_cold")
MAX_UNATTRIBUTED = 0.10


def host_fingerprint():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_once(workload, seed, seconds, trace, scratch, spans=None):
    """One ``run.py`` subprocess; returns what it wrote to ``--out``."""
    out = os.path.join(scratch, "%s.%d.%d.json" % (workload, seed, trace))
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--out", out]
    if spans:
        command += ["--spans", spans]
    finished = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=900)
    if finished.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            " ".join(command), finished.returncode, finished.stderr))
    with open(out) as handle:
        return json.load(handle)


def run_workload(workload, seed, seconds, scratch, traced_twice=False,
                 spans=None):
    """Both passes of one workload, merged into one record.

    With *traced_twice* the traced pass runs a second time, in another
    process with the same seed, and its metrics are kept under
    ``per_layer_again`` (the smoke run's determinism check).  *spans*
    names the file the (first) traced pass writes its spans to.
    """
    plain = run_once(workload, seed, seconds, 0, scratch)
    passes = [plain, run_once(workload, seed, seconds, 1, scratch, spans)]
    if traced_twice:
        passes.append(run_once(workload, seed, seconds, 1, scratch))
    attempted = sum(one["attempted"] for one in passes)
    failed = sum(one["failed"] for one in passes)
    detail = plain["detail"]
    record = {
        "end_to_end": plain["metrics"],
        "per_layer": passes[1]["metrics"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "samples": detail["samples"],
        "host_factor": detail["host_factor"],
        "segment_spread": detail["segment_spread"],
        "noisy": detail["noisy"],
    }
    if traced_twice:
        record["per_layer_again"] = passes[2]["metrics"]
    return record


def print_ledger(seed, workloads, spec):
    names = [metric["name"] for metric in spec["end_to_end"]]
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    print("seed %d" % seed)
    header = "%-15s" % "workload" + "".join(
        "%16s" % ("%s [%s]" % (name, units[name])) for name in names)
    print(header + "%10s  %s" % ("failed", "flags"))
    for workload, record in workloads.items():
        cells = "".join("%16.4g" % record["end_to_end"][name]["value"]
                        for name in names)
        print("%-15s%s%10.3g  host x%.2f%s" % (
            workload, cells, record["failed_share"],
            record["host_factor"],
            " noisy(%.2f)" % record["segment_spread"]
            if record["noisy"] else ""))
    print()
    for workload, record in workloads.items():
        print("%s per layer:" % workload)
        for name, metric in record["per_layer"].items():
            if metric["value"]:
                print("  %-30s %14.6g %s" % (name, metric["value"],
                                             metric["unit"]))
    print()


def smoke_problems(workloads, spec):
    """Why the smoke run fails (empty when it passes)."""
    problems = []
    for workload, record in workloads.items():
        for group, declared in (("end_to_end", spec["end_to_end"]),
                                ("per_layer", spec["per_layer"])):
            for metric in declared:
                value = record[group].get(metric["name"], {}).get("value")
                if value is None or not math.isfinite(value):
                    problems.append("%s: %s is missing or not finite"
                                    % (workload, metric["name"]))
        if record["failed"]:
            problems.append("%s: %d of %d ops failed" % (
                workload, record["failed"], record["attempted"]))
        share = record["per_layer"]["trace.unattributed_share"]["value"]
        if workload in LEDGER_WORKLOADS and share > MAX_UNATTRIBUTED:
            problems.append(
                "%s: trace.unattributed_share %.3f exceeds %.2f"
                % (workload, share, MAX_UNATTRIBUTED))
        for name in EXACT_COUNTS:
            first = record["per_layer"][name]["value"]
            again = record["per_layer_again"][name]["value"]
            if first != again:
                problems.append("%s: %s differs between passes: %r, %r"
                                % (workload, name, first, again))
    return problems


def main(argv=None):
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Run the benchmark's workloads and print the ledger.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds SEED..SEED+RUNS-1, one run each")
    parser.add_argument("--workload", action="append", choices=names,
                        help="only this workload (repeatable)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--spans", help="write the first run's spans to"
                        " files named DIR/WORKLOAD.json", metavar="DIR")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/30 length, the traced"
                        " pass twice; exit 1 on a missing metric, a failed"
                        " op, a count that differs between the two passes"
                        " or a ledger that does not add up")
    args = parser.parse_args(argv)
    selected = args.workload or names
    if args.smoke:
        args.seconds = spec["run_seconds"] * SMOKE_SHARE
        args.runs = 1
    seeds = [args.seed + index for index in range(args.runs)]

    result = {"schema": 1, "host": host_fingerprint(),
              "seconds": args.seconds, "runs": []}
    started = time.time()
    if args.spans:
        os.makedirs(args.spans, exist_ok=True)
    anchor = os.path.dirname(os.path.abspath(args.out)) if args.out \
        else os.getcwd()
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=anchor) as scratch:
        for seed in seeds:
            load = os.getloadavg()[0]
            workloads = {}
            for workload in selected:
                spans = (os.path.join(args.spans, workload + ".json")
                         if args.spans and seed == seeds[0] else None)
                workloads[workload] = run_workload(
                    workload, seed, args.seconds, scratch, args.smoke,
                    spans)
            result["runs"].append(
                {"seed": seed, "loadavg_1m": load, "workloads": workloads})
            print_ledger(seed, workloads, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    if args.smoke:
        problems = smoke_problems(result["runs"][0]["workloads"], spec)
        for problem in problems:
            print("SMOKE FAIL %s" % problem)
        print("smoke %s in %.1f s" % ("failed" if problems else "passed",
                                      time.time() - started))
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
