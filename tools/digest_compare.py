"""Compare two outputs of `tools/solve_digest.py`, line by line.

    python3 tools/solve_digest.py --seed 1 > a.txt     # on one tree
    python3 tools/solve_digest.py --seed 1 > b.txt     # on the other
    python3 tools/digest_compare.py a.txt b.txt

Lines are matched by workload, label and bound.  For each workload and
bound, in the order they first appear in A, one summary line, tab-separated:
workload, bound, `identical` and the count of byte-identical lines over
the count of lines, `status_changes` and their count, `iterations` and the
two iteration totals, and `max_move` and the largest value move of the
group.  A value move is |b - a| / (1 + |a|), taken over every value field
of a line: both objectives of a solve, the value of an SLD bound.  Then one
line per status change (`status`, workload, label, bound, both statuses; a
line missing on one side has status `absent`, and a program file's text
line has `same` or `differs` as its status) and one per value above 1e-9
relative, |b - a| / |a| (`move`, workload, label, bound, the field's
position, the relative and the scaled move, both values).

Exits 1 when any status changes or any value moves by more than
1e-9 * (1 + |a|); 0 otherwise.
"""
from __future__ import annotations

import argparse
import math
import sys

MOVE_TOL = 1e-9


def read_digest(path):
    """{(workload, label, bound): (line, (status, iterations, values))} of
    a digest file, in the order of its lines."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            workload, label, bound, *rest = line.rstrip("\n").split("\t")
            if bound == "text":  # sha256, round trip
                entry = (rest[1], 0, ())
            else:  # status, iterations, sha, then the values
                entry = (rest[0], int(rest[1]), tuple(float(v) for v in rest[3:]))
            out[workload, label, bound] = (line, entry)
    return out


def moves(va, vb):
    """(position, relative move, move over 1 + |a|, a, b) of each value
    that moved; a value that turns NaN, or stops being NaN, moves by inf."""
    for k, (a, b) in enumerate(zip(va, vb)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        step = abs(b - a)
        if math.isnan(step):
            step = math.inf
        yield k, step / abs(a) if a else math.inf, step / (1.0 + abs(a)), a, b


def compare(a, b, out) -> int:
    groups = {}  # (workload, bound): [identical, lines, changes, it_a, it_b, max move]
    details = []
    failed = False
    for key in list(a) + [k for k in b if k not in a]:
        workload, label, bound = key
        g = groups.setdefault((workload, bound), [0, 0, 0, 0, 0, 0.0])
        line_a, (st_a, it_a, va) = a.get(key, (None, ("absent", 0, ())))
        line_b, (st_b, it_b, vb) = b.get(key, (None, ("absent", 0, ())))
        g[0] += line_a == line_b
        g[1] += 1
        g[3] += it_a
        g[4] += it_b
        if st_a != st_b:
            g[2] += 1
            failed = True
            details.append(f"status\t{workload}\t{label}\t{bound}\t{st_a}\t{st_b}")
        for k, rel, scaled, x, y in moves(va, vb):
            g[5] = max(g[5], scaled)
            failed |= scaled > MOVE_TOL
            if rel > MOVE_TOL:
                details.append(f"move\t{workload}\t{label}\t{bound}\t{k}\t{rel:.3g}\t{scaled:.3g}\t{x!r}\t{y!r}")
    for (workload, bound), (same, lines, changes, it_a, it_b, top) in groups.items():
        print(f"{workload}\t{bound}\tidentical\t{same}/{lines}\tstatus_changes\t{changes}"
              f"\titerations\t{it_a}\t{it_b}\tmax_move\t{top:.3g}", file=out)
    for line in details:
        print(line, file=out)
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="the digest of the reference tree")
    p.add_argument("b", help="the digest of the tree to compare")
    args = p.parse_args(argv)
    return compare(read_digest(args.a), read_digest(args.b), sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
