"""One traced, in-process run of the qgordon-verify command.

    PYTHONPATH=src python perfbench/traced.py LAYERS.json SPANS.tsv -- [CLI ARGS...]

Wraps the public functions of `_packing`, `series`, `counting`, `gseries` and
`harness` wherever a qgordon module binds them (``from .series import
poch_inf`` makes a second binding that patching the defining module alone
would miss), runs ``qgordon.cli.main`` on the given arguments, and then:

* writes every span (name, start, end, parent) to SPANS.tsv;
* writes the per-layer metrics derived from the spans, and the probes that
  could not attach, to LAYERS.json;
* prints TRACE_DONE_MARKER on stdout right after ``main`` returns, so the
  caller can time the traced run without the write-out.

Spans are kept in memory until ``main`` returns.  A span's self time is its
duration minus the time its direct child spans cover; untraced helpers count
towards the nearest traced caller.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TRACE_DONE_MARKER = "-- traced run finished --"

# metric group -> (module, attribute) of every function timed under that group.
# Nested spans of one group (poch_inf calling poch_finite) count once.
TRACED = {
    "packing.multiply_tables": [("_packing", "multiply_tables")],
    "packing.slot_bits_for": [("_packing", "slot_bits_for")],
    "packing.pack": [("_packing", "pack")],
    "packing.unpack": [("_packing", "unpack")],
    "series.bimul": [("series", "BiSeries.__mul__")],
    "series.invert_unit": [
        ("series", "BiSeries.invert_unit"),
        ("series", "PowerSeries.invert_unit"),
    ],
    "series.poch": [
        ("series", "poch_inf"),
        ("series", "poch_finite"),
        ("series", "q_poch_inf"),
        ("series", "q_poch_finite"),
    ],
    "series.triple_product": [("series", "triple_product")],
    "counting.count_table": [("counting", "count_table")],
    "counting.dp": [("counting", "_compute_table")],
    "counting.congruence_series": [("counting", "congruence_series")],
    "gseries.summand_series": [("gseries", "summand_series")],
    "gseries.constructed_gf": [("gseries", "constructed_gf")],
    "gseries.enumerated_gf": [("gseries", "enumerated_gf")],
    "gseries.recurrence_gf": [("gseries", "recurrence_gf")],
    "gseries.product_forms": [("gseries", "x_one_product_forms")],
    "harness.run_suite": [("harness", "run_suite")],
}

LAYERS = ("packing", "series", "counting", "gseries", "harness")


class Tracer:
    """In-memory span recorder with the counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # (group, start, end, parent index, outermost)
        self._stack: list[int] = []
        self._open: dict[str, int] = {}  # group -> number of open spans
        self.memo_misses: dict[str, int] = {}
        self.packed_bits = 0
        self.slot_bits_max = 0

    def wrap(self, group: str, fn, observe=None, memo: dict | None = None):
        """Span-recording wrapper.  observe(args, result) runs after each call;
        a call that grows `memo` counts as a miss of that memo."""
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            depth = open_.get(group, 0)
            open_[group] = depth + 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            memo_before = len(memo) if memo is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_[group] = depth
                spans[index] = (group, start, end, parent, depth == 0)
            if memo is not None and len(memo) > memo_before:
                self.memo_misses[group] = self.memo_misses.get(group, 0) + 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def observe_slot_bits(self, args, slot_bits: int) -> None:
        self.slot_bits_max = max(self.slot_bits_max, slot_bits)

    def observe_pack(self, args, packed: int) -> None:
        # pack(rows, stride, slot_bits): rows x stride slots of slot_bits each
        rows, stride, slot_bits = args[:3]
        self.packed_bits += len(rows) * stride * slot_bits


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def install(tracer: Tracer, modules: dict) -> tuple[dict, set]:
    """Wrap every traced function.

    Returns ({probe: reason} for each probe that could not attach, the set of
    groups with nothing attached, whose metrics are then left out).
    """
    absent: dict[str, str] = {}
    dead: set[str] = set()
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "qgordon"]
    summand_memo = getattr(modules["gseries"], "_summand_cache", None)
    if not isinstance(summand_memo, dict):
        summand_memo = None
        absent["gseries.summand_series.misses"] = "qgordon.gseries._summand_cache not found"
    for group, targets in TRACED.items():
        attached = 0
        for mod_name, dotted in targets:
            owner, fn = _resolve(modules[mod_name], dotted)
            if fn is None:
                absent[group if len(targets) == 1 else f"{group}/{dotted}"] = (
                    f"qgordon.{mod_name}.{dotted} not found"
                )
                continue
            observe = {
                "packing.slot_bits_for": tracer.observe_slot_bits,
                "packing.pack": tracer.observe_pack,
            }.get(group)
            memo = summand_memo if group == "gseries.summand_series" else None
            wrapped = tracer.wrap(group, fn, observe, memo)
            if owner is modules[mod_name]:
                # rebind in every module that imported the function by name
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
            else:
                setattr(owner, dotted.split(".")[-1], wrapped)
            attached += 1
        if not attached:
            dead.add(group)
    return absent, dead


def aggregate(tracer: Tracer, modules: dict, absent: dict, dead: set) -> dict:
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for group, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (group, start, end, parent, outermost) in enumerate(spans):
        self_time = end - start - child_time[i]
        own[group] = own.get(group, 0.0) + self_time
        layer_self[group.split(".")[0]] += self_time
        if outermost:
            calls[group] = calls.get(group, 0) + 1
            inclusive[group] = inclusive.get(group, 0.0) + end - start

    m: dict[str, float] = {}

    def timed(group, count=None, time=None):
        if group in dead:
            return
        if count:
            m[count] = calls.get(group, 0)
        if time:
            m[time] = inclusive.get(group, 0.0)

    timed("packing.multiply_tables", "packing.multiply_tables.calls", "packing.multiply_tables.s")
    timed("packing.slot_bits_for", time="packing.slot_bits_for.s")
    timed("packing.pack", time="packing.pack.s")
    timed("packing.unpack", time="packing.unpack.s")
    if "packing.multiply_tables" not in dead:
        m["packing.bigmul.s"] = own.get("packing.multiply_tables", 0.0)
    if "packing.pack" not in dead:
        m["packing.packed_mbit"] = tracer.packed_bits / 1e6
    if "packing.slot_bits_for" not in dead:
        m["packing.slot_bits.max"] = tracer.slot_bits_max
    timed("series.bimul", "series.bimul.calls", "series.bimul.s")
    timed("series.invert_unit", "series.invert_unit.calls", "series.invert_unit.s")
    timed("series.poch", "series.poch.calls", "series.poch.s")
    timed("series.triple_product", time="series.triple_product.s")
    timed("counting.count_table", count="counting.count_table.calls")
    timed("counting.dp", "counting.dp.builds", "counting.dp.s")
    timed("counting.congruence_series", time="counting.congruence_series.s")
    timed(
        "gseries.summand_series", "gseries.summand_series.calls", "gseries.summand_series.s"
    )
    if "gseries.summand_series.misses" not in absent:
        m["gseries.summand_series.misses"] = tracer.memo_misses.get(
            "gseries.summand_series", 0
        )
    for name in ("constructed_gf", "enumerated_gf", "recurrence_gf", "product_forms"):
        timed(f"gseries.{name}", time=f"gseries.{name}.s")

    mask_cache = getattr(modules["counting"], "_mask_cache", None)
    if isinstance(mask_cache, dict):
        m["counting.mask_cache.entries"] = len(mask_cache)
    else:
        absent["counting.mask_cache.entries"] = "qgordon.counting._mask_cache not found"
    memos = [
        v
        for k, v in vars(modules["gseries"]).items()
        if k.startswith("_") and k.endswith("_cache") and isinstance(v, dict)
    ]
    if memos:
        m["gseries.memo.entries"] = sum(len(v) for v in memos)
    else:
        absent["gseries.memo.entries"] = "no qgordon.gseries._*_cache dicts found"
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    return m


def write_spans(tracer: Tracer, path: str) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (group, start, end, parent, _) in enumerate(tracer.spans):
            fh.write(f"{i}\t{group}\t{start - base:.9f}\t{end - base:.9f}\t{parent}\n")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    layers_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    from qgordon import _packing, cli, counting, gseries, harness, series

    modules = {
        "_packing": _packing,
        "series": series,
        "counting": counting,
        "gseries": gseries,
        "harness": harness,
    }
    tracer = Tracer()
    absent, dead = install(tracer, modules)
    code = cli.main(cli_args)
    print(TRACE_DONE_MARKER, flush=True)
    metrics = aggregate(tracer, modules, absent, dead)
    write_spans(tracer, spans_path)
    with open(layers_path, "w") as fh:
        json.dump({"metrics": metrics, "absent": absent, "spans": len(tracer.spans)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
