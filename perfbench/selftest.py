"""Self-test of the benchmark itself, at tiny scale.

    python3 perfbench/selftest.py

Checks, for every workload:

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and
  the metrics of each layer the workload runs are non-zero;
* every run passes the oracle with no failed operation;
* two runs with the same seed, in separate processes (so under different
  string-hash seeds), give identical work counts and ``c_edges_ratio``;
* a different seed changes the op stream.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

import run

#: Units of the per-layer metrics that count work (must repeat exactly).
WORK_UNITS = ("count", "bytes", "bytes/op", "nodes")

#: Per workload, the per-layer metrics that must be non-zero there.
MUST_MOVE = {
    "read-mostly": (
        "view.open_s", "view.read_s", "query.walk_s", "query.matches",
        "label.rules_censused", "kernel.pack_builds", "kernel.pack_hits",
        "index.self_s", "updates.isolate_s"),
    "write-recompress": (
        "recompress.runs", "recompress.s", "recompress.census_s",
        "recompress.round_upkeep_s", "recompress.replace_s",
        "recompress.prune_s", "recompress.rounds",
        "recompress.rules_censused", "recompress.stall_max_ms",
        "updates.isolate_s", "updates.rules_inlined", "updates.gc_s",
        "index.self_s", "index.resolve_s", "kernel.pack_builds"),
    "durable-commit": (
        "wal.append_s", "wal.fsync_s", "wal.fsyncs", "wal.bytes_per_op",
        "checkpoint.runs", "checkpoint.s", "snapshot.bytes",
        "shard.reshard_s", "shard.max_width", "updates.batch_plan_s",
        "updates.isolate_s", "index.self_s"),
}


def child(workload, seed, trace):
    """Run one tiny-scale workload in a fresh process; its summary."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload,
         str(seed), str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.stderr.write(f"selftest FAILED: {message}\n")
        sys.exit(1)


def signature(ops):
    """An op stream as comparable values (content trees serialized)."""
    from repro.trees.unranked import XmlNode
    from repro.trees.xml_io import serialize_xml

    def plain(value):
        if isinstance(value, XmlNode):
            return serialize_xml(value)
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        slots = getattr(type(value), "__slots__", None)
        if slots:  # batch operations
            return [type(value).__name__,
                    [plain(getattr(value, slot)) for slot in slots]]
        return value

    return plain(ops)


def work_counts(summary):
    return {name: m["value"] for name, m in summary["metrics"].items()
            if m["unit"] in WORK_UNITS or name == "kernel.hit_ratio"}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    run.load_program()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(run.W.WORKLOADS),
          "BENCHMARK.json workloads differ from the workloads module")
    for workload in run.W.WORKLOADS:
        first = [child(workload, 1, trace) for trace in (0, 1)]
        again = [child(workload, 1, trace) for trace in (0, 1)]
        for summary in first + again:
            check(summary["correct"] and summary["failed"] == 0,
                  f"{workload}: oracle or operation failure")
        for summary, units in zip(first, (e2e_units, layer_units)):
            got = {name: m["unit"] for name, m in summary["metrics"].items()}
            check(got == units, f"{workload}: metrics/units {got} != {units}")
        for name, metric in first[0]["metrics"].items():
            check(metric["value"] > 0, f"{workload}: {name} is zero")
        for name in MUST_MOVE[workload]:
            check(first[1]["metrics"][name]["value"] > 0,
                  f"{workload}: {name} did not move")
        check(work_counts(first[1]) == work_counts(again[1]),
              f"{workload}: work counts differ between same-seed runs")
        ratio = [s["metrics"]["c_edges_ratio"]["value"]
                 for s in (first[0], again[0])]
        check(ratio[0] == ratio[1],
              f"{workload}: c_edges_ratio differs between same-seed runs")
        plans = [run.W.make_plan(run.W.tiny(run.W.WORKLOADS[workload]),
                                 seed, 60, readback_ops=30)
                 for seed in (1, 2)]
        check(signature([r.ops for r in plans[0].rounds])
              != signature([r.ops for r in plans[1].rounds]),
              f"{workload}: seeds 1 and 2 gave the same op stream")
        print(f"{workload}: ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        name, seed, trace = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
        run.load_program()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        summary, _ = run.run(name, seed, 1, trace, tiny=True)
        print(json.dumps(summary))
    else:
        main()
