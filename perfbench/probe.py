"""Library side of the seeded spot checks, run in its own process.

    PYTHONPATH=src python perfbench/probe.py REQUEST.json

REQUEST.json holds {"mult_totals": [[k, a, d, s, flavor, [n, ...]], ...],
"x_one": [[k, a, d, s, flavor, x_order, trunc_order], ...]}.  Prints one JSON
object: count_mult_total at each n, and for each x_one entry the q_offset and
rows of constructed_gf (the caller sums the rows itself).
"""

from __future__ import annotations

import json
import sys

from qgordon import CountParams, constructed_gf, count_mult_total


def main(path: str) -> None:
    with open(path) as fh:
        request = json.load(fh)
    totals = []
    for k, a, d, s, flavor, ns in request.get("mult_totals", []):
        cp = CountParams(k, a, d, s, flavor)
        # largest n first, so the other values come from the same table
        got = {n: count_mult_total(cp, n) for n in sorted(ns, reverse=True)}
        totals.append([got[n] for n in ns])
    x_one = []
    for k, a, d, s, flavor, x_order, trunc_order in request.get("x_one", []):
        g = constructed_gf(k, a, d, s, flavor, x_order, trunc_order, require_ordinary=False)
        x_one.append({"q_offset": g.q_offset, "rows": [list(r) for r in g.rows]})
    print(json.dumps({"mult_totals": totals, "x_one": x_one}))


if __name__ == "__main__":
    main(sys.argv[1])
