"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run generates its inputs from
``--seed``, then, for each of a few rounds, sets the document up, drives
the timed closed loop, reads the final state back and reopens the
document from disk; everything is checked against a plain-tree replay.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the library as shipped:
default metrics registry, default kernel setting, no wrappers.  Their
times are scaled to a reference machine speed (:mod:`pace`); the raw
times are in the record.
``--trace 1`` runs the same rounds twice, untraced and then with the
span wrappers of :mod:`ledger` installed, and reports the per-layer
metrics.  Either way a fuller record (environment, workload, per-kind
latencies, per-layer self times, spans) goes to ``.perfbench_runs/`` in
the checkout.

The op count is fixed per workload (``ops_per_second`` x ``--seconds``,
at least 1000), not cut off by a clock, so a seed always does the same
work; ``--seconds`` is the length of the timed loop on the 2-vCPU
machine the rates were calibrated on, not a hard limit.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"), ("read_p50_ms", "ms"), ("write_p50_ms", "ms"),
    ("c_edges_ratio", "ratio"), ("recovery_s", "s"), ("peak_rss_mb", "MB"),
)


def load_program():
    """Import the program from the checkout's ``src`` and the benchmark
    modules that depend on it; exit non-zero when the sources are absent."""
    global W, ledger, pace, summarize_latencies
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "api.py")):
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads as W
    import ledger
    import pace
    from repro.obs.metrics import summarize_latencies


def filesystem_of(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(workload, start_c_edges):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "store_filesystem": filesystem_of(OUT_DIR),
        "flush_policy": ("serial commits, one fsync per commit "
                         "(group_commit off)") if workload.durable else
                        "in memory; a snapshot file is written for the reopen",
        "clock": ("end-to-end times are this process's CPU time "
                  "(time.process_time) on this machine, scaled to the speed "
                  "at which the reference loop takes "
                  f"{pace.REF_SECONDS} s (see perfbench/pace.py)" +
                  (", plus the wall time blocked off the CPU (fsync, file "
                   "reads), unscaled" if workload.durable else "") +
                  "; not a storage device's latency; the traced ledger is "
                  "raw wall time"),
        "load": "closed loop, one process, one client thread",
        "workload": {
            "name": workload.name,
            "why": why.get(workload.name),
            "corpus": workload.corpus.name,
            "corpus_edges": workload.corpus.edges,
            "start_c_edges": start_c_edges,
            "doc_kwargs": workload.doc_kwargs,
        },
    }


def by_kind(ops, latencies):
    """Sample count, median and maximum latency (ms) per op kind."""
    groups = {}
    for op, lat in zip(ops, latencies):
        groups.setdefault(op[0], []).append(lat)
    return {kind: [len(lats), 1e3 * statistics.median(lats), 1e3 * max(lats)]
            for kind, lats in sorted(groups.items())}


def run_rounds(workload, plan, workdir, tracer=None):
    """Set up and run every round; returns ``(setup seconds, results)``."""
    setups, results = [], []
    for round_no, rnd in enumerate(plan.rounds):
        target = doc = None
        gc.collect()
        target, doc, elapsed = W.setup(workload, plan.tree, workdir)
        setups.append(elapsed)
        if tracer is not None:
            ledger.install(tracer)
        try:
            results.append(W.run_round(workload, rnd, target, doc, workdir,
                                       tracer, round_no))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return setups, results


def end_to_end(plan, setups, results):
    """The end-to-end metrics.  The application's explicit checkpoints run
    inside the timed loop (their cost is in ``ops_per_s``'s time) but are
    not operations: they stay out of the op count and the latency pools
    and are reported under their own kind."""
    main, reads, writes, ops, latencies, per_round = [], [], [], [], [], []
    for rnd, result in zip(plan.rounds, results):
        ops += rnd.ops
        latencies += result.latencies
        for op, lat in zip(rnd.ops, result.latencies):
            if op[0] in W.READ_KINDS:
                reads.append(lat)
        done = 0
        for op, lat in zip(rnd.ops[:rnd.main_ops], result.latencies):
            if op[0] == "checkpoint":
                continue
            done += 1
            main.append(lat)
            if op[0] not in W.READ_KINDS:
                writes.append(lat)
        per_round.append(done / sum(result.latencies[:rnd.main_ops]))
    op_lat = summarize_latencies(main)
    ratios = [ratio for result in results for ratio in result.c_edges_ratios]
    values = {
        "setup_s": statistics.median(setups),
        # per round, then the median: one round hit by a burst of
        # machine noise does not move the figure
        "ops_per_s": statistics.median(per_round),
        "op_p50_ms": op_lat["p50_ms"],
        "op_p99_ms": op_lat["p99_ms"],
        "read_p50_ms": summarize_latencies(reads)["p50_ms"],
        "write_p50_ms": summarize_latencies(writes)["p50_ms"],
        "c_edges_ratio": statistics.fmean(ratios),
        "recovery_s": statistics.median(r.recovery_s for r in results),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"ops": len(main), "reads": len(reads), "writes": len(writes),
               "setups": len(setups), "c_edges_samples": len(ratios),
               "setup_runs_s": setups,
               "recovery_runs_s": [r.recovery_s for r in results],
               # the loop's raw wall time and its scaled sum
               "loop_wall_s": [r.main_s for r in results],
               "loop_scaled_s": [sum(r.latencies[:rnd.main_ops]) for rnd, r
                                 in zip(plan.rounds, results)],
               "by_kind": by_kind(ops, latencies)}
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in END_TO_END}, samples)


def traced(workload, plan, workdir):
    """Untraced rounds, then the same rounds traced, on fresh documents."""
    _, untraced = run_rounds(workload, plan, workdir)
    tracer = ledger.Tracer()
    _, results = run_rounds(workload, plan, workdir, tracer)

    def timed_wall(rows):
        return sum(r.timed_wall for r in rows)

    metrics, layer_self = ledger.summarize(
        tracer, timed_wall(results), timed_wall(untraced),
        max(r.max_width for r in results))
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{workload.name}-seed{plan.seed}.jsonl"))
    extra = {"layer_self_s": layer_self, "spans": len(tracer.spans),
             "untraced_wall_s": timed_wall(untraced),
             "traced_wall_s": timed_wall(results),
             "untraced_failures": [f for r in untraced for f in r.failures],
             "untraced_problems": [p for rnd, r in zip(plan.rounds, untraced)
                                   for p in W.oracle(rnd, r)]}
    return metrics, results, extra


def run(workload_name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns ``(summary, full record)``."""
    workload = W.WORKLOADS[workload_name]
    main_ops = max(W.MIN_OPS, workload.ops_per_second * seconds)
    readback = W.READBACK_OPS
    if tiny:
        workload, main_ops, readback = W.tiny(workload), 60, 30
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = W.make_plan(workload, seed, main_ops, readback)
        # The plan (op streams, expected results, reference trees) lives
        # through the run; freezing it keeps the collector from walking
        # the benchmark's own objects on the program's clock.
        gc.collect()
        gc.freeze()
        record = {"seed": seed, "seconds": seconds, "trace": trace,
                  "main_ops": sum(r.main_ops for r in plan.rounds),
                  "checked_results": sum(len(r.checks) for r in plan.rounds)}
        if trace:
            metrics, results, extra = traced(workload, plan, workdir)
            record.update(extra)
        else:
            setups, results = run_rounds(workload, plan, workdir)
            metrics, record["samples"] = end_to_end(plan, setups, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for r in results for f in r.failures]
    problems = [p for rnd, r in zip(plan.rounds, results)
                for p in W.oracle(rnd, r)]
    if trace:
        failures += record["untraced_failures"]
        problems += record["untraced_problems"]
    record["env"] = environment(workload, results[0].start_c_edges)
    record["failures"] = failures[:20]
    record["oracle_problems"] = problems[:20]
    summary = {
        "correct": not problems and not failures,
        "attempted": sum(len(r.ops) for r in plan.rounds) * (2 if trace else 1),
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = summary
    tag = f"{workload_name}-seed{seed}-trace{trace}"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return summary, record


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(W.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    summary, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
