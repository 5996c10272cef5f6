#!/usr/bin/env python3
"""Checks the fleet reports that `bin/stream` and `bin/fleet` write.

Every report found in the given JSON files (a list of reports, or an
object holding them, like `fleet.json`) must satisfy the accounting
identities:

* per stream: completed + degraded + dropped_backpressure
  + dropped_deadline + failed + faulted == admitted, and
  quarantined <= faulted;
* the same identity on the aggregate, and delivered == completed + degraded;
* every aggregate counter equals the sum of its per-stream column.

Flags add the assertions particular to a CI job. "Any" flags hold when
some report in a file satisfies them; the others must hold for every
report.

Usage: check_reports.py FILE [FILE ...] [flags]
"""

import argparse
import json
import sys

TERMINAL = (
    "completed",
    "degraded",
    "dropped_backpressure",
    "dropped_deadline",
    "failed",
    "faulted",
)
SUMMED = ("admitted", "quarantined") + TERMINAL


def reports_in(doc):
    """Every fleet report in a document, in order."""
    if isinstance(doc, list):
        return [r for item in doc for r in reports_in(item)]
    if isinstance(doc, dict):
        if "per_stream" in doc:
            return [doc]
        return [r for value in doc.values() for r in reports_in(value)]
    return []


def check_identities(r, label):
    for s in r["per_stream"]:
        where = f"{label}/stream {s['id']}"
        accounted = sum(s[k] for k in TERMINAL)
        assert accounted == s["admitted"], f"{where}: {accounted} != {s['admitted']}"
        assert s["quarantined"] <= s["faulted"], f"{where}: quarantined not a subset"
    accounted = sum(r[k] for k in TERMINAL)
    assert accounted == r["admitted"], f"{label}: aggregate {accounted} != {r['admitted']}"
    assert r["quarantined"] <= r["faulted"], f"{label}: quarantined not a subset"
    assert r["delivered"] == r["completed"] + r["degraded"], f"{label}: delivered"
    for k in SUMMED:
        total = sum(s[k] for s in r["per_stream"])
        assert total == r[k], f"{label}: {k} {total} != per-stream sum {r[k]}"


def check_job(r, label, args):
    if args.streams is not None:
        assert len(r["per_stream"]) == args.streams, f"{label}: {len(r['per_stream'])} streams"
    if args.detector:
        assert r["detector"] == args.detector, f"{label}: detector {r['detector']}"
    if args.scenario:
        assert r["scenario"] == args.scenario, f"{label}: scenario {r['scenario']}"
    if args.policy:
        assert r["policy"] == args.policy, f"{label}: policy {r['policy']}"
    if args.max_batch is not None:
        assert r["max_batch"] == args.max_batch, f"{label}: max_batch {r['max_batch']}"
    if args.histogram:
        hist = r["batch_histogram"]
        assert hist, f"{label}: empty batch histogram"
        for bucket in hist:
            assert bucket["size"] >= 1 and bucket["batches"] >= 1, f"{label}: {bucket}"
    if args.vru_floor == "fired":
        assert r["overrides"]["vru_floor"] > 0, f"{label}: VRU floor never fired"
    if args.vru_floor == "silent":
        assert r["overrides"]["vru_floor"] == 0, f"{label}: spurious VRU floor"
    if args.energy_saved:
        saved = r["energy_saved_vs_base_frac"]
        assert saved > 0, f"{label}: no energy saved ({saved})"
    if args.poisoned_stream is not None:
        for s in r["per_stream"]:
            if s["id"] == args.poisoned_stream:
                assert s["faulted"] > 0, f"{label}: poisoned stream was never charged"
            else:
                assert s["faulted"] == 0, f"{label}: stream {s['id']} caught collateral faults"


def check_compare(doc, label):
    fleet = doc["fleet"]
    assert fleet["cross_stream_batches"] > 0, f"{label}: no cross-stream batches formed"
    assert fleet["delivered"] == fleet["admitted"], f"{label}: saturate mode lost frames"
    independent = doc["independent"]
    assert independent["delivered"] == fleet["admitted"], f"{label}: independent arm lost frames"
    print(
        f"{label}: consolidation fleet {fleet['delivered_fps']:.1f} fps vs "
        f"independent {independent['fps']:.1f} fps ({doc['speedup']:.2f}x)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--streams", type=int, help="every report serves N streams")
    parser.add_argument("--detector", help="every report's detector")
    parser.add_argument("--scenario", help="every report's scenario label")
    parser.add_argument("--policy", help="every report's admission policy")
    parser.add_argument("--max-batch", type=int, help="every report's max batch")
    parser.add_argument("--histogram", action="store_true", help="non-empty batch histograms")
    parser.add_argument("--vru-floor", choices=("fired", "silent"))
    parser.add_argument("--energy-saved", action="store_true", help="energy saved vs base > 0")
    parser.add_argument("--poisoned-stream", type=int, help="only this stream is faulted")
    parser.add_argument("--faulted", action="store_true", help="any report faulted a frame")
    parser.add_argument(
        "--executed-faults",
        action="store_true",
        help="any report faulted a frame after admission (faulted > quarantined)",
    )
    parser.add_argument(
        "--compare", action="store_true", help="fleet.json of --mode compare: lossless arms"
    )
    args = parser.parse_args()

    for path in args.files:
        with open(path) as f:
            doc = json.load(f)
        reports = reports_in(doc)
        assert reports, f"{path}: no fleet report found"
        for i, r in enumerate(reports):
            label = f"{path}[{i}] {r['detector']}/{r['scenario']}/{r['mode']}"
            check_identities(r, label)
            check_job(r, label, args)
            print(
                f"{label}: {r['admitted']} frames accounted over "
                f"{len(r['per_stream'])} stream(s); delivered {r['delivered']}, "
                f"faulted {r['faulted']} (quarantined {r['quarantined']}), "
                f"mean batch {r['mean_batch_size']:.2f}, Jain {r['fairness_jain']:.3f}"
            )
        if args.faulted:
            assert any(r["faulted"] > 0 for r in reports), f"{path}: plan injected nothing"
        if args.executed_faults:
            assert any(r["faulted"] > r["quarantined"] for r in reports), (
                f"{path}: no fault was isolated after admission"
            )
        if args.compare:
            check_compare(doc, path)


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"report check failed: {e}", file=sys.stderr)
        sys.exit(1)
