#!/usr/bin/env python3
"""Field-by-field diff of two obd_atpg campaign JSON reports.

Nested objects are flattened to dotted paths (faults.detected,
sim.matrix_hash, metrics.atpg.podem_backtracks); arrays compare as whole
values. The wall-clock "timing" object is never compared. --only keeps the
fields under the given dotted prefixes, --ignore drops them; a prefix
matches the path itself and everything below it. Every differing field is
printed as "path: A -> B", followed by " (B/A x)" when both values are
numbers and A is not 0, and the exit status is 1 when any differs.

After the field diff, every timing.* phase of either report is printed to
stderr as "timing.PHASE: A -> B (B/A x)", so a run shows which phase moved.
Timing never affects the exit status.

Usage:
  report_diff.py A.json B.json [--only PREFIX]... [--ignore PREFIX]...
"""

import argparse
import json
import sys

ABSENT = object()  # a field only one report has


def show(value):
    return "<absent>" if value is ABSENT else json.dumps(value)


def ratio(va, vb):
    """The ' (B/A x)' suffix when both values are numbers and A is not 0."""
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (va, vb))
    return f" ({vb / va:.3g}x)" if numeric and va else ""


def flatten(node, path, out):
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out)
    else:
        out[path] = node


def under(path, prefixes):
    return any(path == p or path.startswith(p + ".") for p in prefixes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--only", action="append", default=[],
                    help="compare only fields under this dotted prefix")
    ap.add_argument("--ignore", action="append", default=[],
                    help="skip fields under this dotted prefix")
    args = ap.parse_args()

    flat = []
    for name in (args.a, args.b):
        with open(name) as f:
            fields = {}
            flatten(json.load(f), "", fields)
            flat.append(fields)
    a, b = flat

    diffs = 0
    for path in sorted(a.keys() | b.keys()):
        if under(path, ["timing"] + args.ignore):
            continue
        if args.only and not under(path, args.only):
            continue
        va, vb = a.get(path, ABSENT), b.get(path, ABSENT)
        if va != vb:
            print(f"{path}: {show(va)} -> {show(vb)}{ratio(va, vb)}")
            diffs += 1
    if diffs:
        print(f"report_diff: {diffs} field(s) differ", file=sys.stderr)

    for path in sorted(p for p in a.keys() | b.keys() if under(p, ["timing"])):
        va, vb = a.get(path, ABSENT), b.get(path, ABSENT)
        print(f"{path}: {show(va)} -> {show(vb)}{ratio(va, vb)}",
              file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
