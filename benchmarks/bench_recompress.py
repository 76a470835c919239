"""Macro-benchmark: sustained update traffic with automatic recompression.

Under ``auto_recompress_factor`` maintenance, the cost profile of a
long-lived document is dominated by ``GrammarRePair`` runs.  Each run
builds one ``GrammarOccurrenceIndex`` -- seeded with only the rules
dirtied since the last recompression, or with the whole grammar when the
dirty mass dominates it -- and then re-censuses only the rules each
replacement round touches.

The workload: an EXI-Weblog-like document, a mixed stream of
rename/insert/append/delete operations at random element indices, and
``auto_recompress_factor=2`` (recompress whenever the grammar doubles).

Results are printed and written to ``BENCH_recompress.json`` at the repo
root as the machine-readable perf baseline for future PRs.

Run directly (``PYTHONPATH=src python benchmarks/bench_recompress.py``)
for the full scale -- 50k edges, 500 updates -- which asserts a >= 5x
reduction in rule-census volume against what a full RETRIEVEOCCS census
every round would have scanned, computed from each run's own
``rule_count_trace``; ``--smoke`` (the CI job) runs a tiny scale and
asserts the JSON schema plus that dirty-scoped recompression rescanned
fewer rules than the grammar has.  Like all ``bench_*`` modules it is
collected by pytest only via an explicit path.
"""

import json
import os
import random
import sys
import time

from repro.api import CompressedXml
from repro.obs.metrics import summarize_latencies
from repro.trees.unranked import XmlNode

FULL_SCALE = {"edges": 50_000, "updates": 500}
SMOKE_SCALE = {"edges": 2_000, "updates": 60}
AUTO_FACTOR = 2.0
SEED = 42
TAGS = ("ip", "user", "ts", "request", "status", "bytes", "extra")

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_recompress.json"
)


def make_doc(edges, seed=SEED):
    from repro.datasets.synthetic import make_corpus

    return CompressedXml.from_document(
        make_corpus("EXI-Weblog", edges=edges, seed=seed),
        auto_recompress_factor=AUTO_FACTOR,
    )


def make_ops(updates, seed=SEED):
    """The op stream as (kind, fraction, tag): fractions are mapped to a
    valid element index at application time."""
    rng = random.Random(seed)
    kinds = ("rename", "rename", "rename", "insert", "insert",
             "append", "delete")
    return [
        (rng.choice(kinds), rng.random(), rng.choice(TAGS))
        for _ in range(updates)
    ]


def apply_op(doc, op):
    kind, fraction, tag = op
    count = doc.element_count
    if kind == "rename":
        doc.rename(1 + int(fraction * (count - 1)), tag)
    elif kind == "insert":
        doc.insert(1 + int(fraction * (count - 1)),
                   XmlNode("entry", [XmlNode(tag)]))
    elif kind == "append":
        doc.append_child(int(fraction * count), XmlNode(tag))
    elif kind == "delete" and count > 2:
        doc.delete(1 + int(fraction * (count - 1)))


def per_round_full_census(stats):
    """Rules a full census every round would have scanned in this run:
    the rules alive at round ``i`` minus the ``i`` digram rules made
    earlier in the run, which are opaque to the census."""
    return sum(
        max(0, rules - i) for i, rules in enumerate(stats.rule_count_trace)
    )


def run_workload(edges, ops):
    doc = make_doc(edges)
    samples = []
    census_s = 0.0
    full_census_volume = 0
    runs_seen = 0
    start = time.perf_counter()
    for op in ops:
        op_started = time.perf_counter()
        apply_op(doc, op)
        samples.append(time.perf_counter() - op_started)
        if doc.recompress_runs != runs_seen:
            runs_seen += 1
            assert doc.recompress_runs == runs_seen, \
                "one update fired several recompressions"
            census_s += doc.last_repair_stats.census_seconds
            full_census_volume += per_round_full_census(
                doc.last_repair_stats
            )
    total_s = time.perf_counter() - start
    stats = doc.last_repair_stats
    result = {
        "initial_c_edges": doc._last_compressed_size,
        "final_c_edges": doc.compressed_size,
        "element_count": doc.element_count,
        "total_s": round(total_s, 4),
        "ops_per_s": round(len(ops) / total_s, 2),
        "recompress_runs": doc.recompress_runs,
        "recompress_s": round(doc.recompress_seconds, 4),
        "census_s": round(census_s, 4),
        "rules_censused": doc.rules_censused_total,
        "rules_adapted": doc.rules_adapted_total,
        "per_round_full_census_volume": full_census_volume,
        "index_wholesale_resets": doc.index.wholesale_invalidations,
        "grammar_rules": len(doc.grammar),
        "latency": summarize_latencies(samples),
    }
    if stats is not None:
        result["last_run"] = {
            "rounds": stats.rounds,
            "full_censuses": stats.full_censuses,
            "seed_rule_count": stats.seed_rule_count,
            "census_trace": stats.census_trace,
            "rule_count_trace": stats.rule_count_trace,
        }
    # One small update followed by an explicit recompress exercises the
    # dirty-rule-scoped census (the auto policy may have chosen full
    # seeding when the dirty mass dominated the grammar).
    doc.rename(1, "probe")
    doc.recompress()
    probe = doc.last_repair_stats
    result["scoped_probe"] = {
        "seed_rule_count": probe.seed_rule_count,
        "full_censuses": probe.full_censuses,
        "census_trace": probe.census_trace,
        "rule_count_trace": probe.rule_count_trace,
        "index_wholesale_resets": doc.index.wholesale_invalidations,
    }
    return result


def run(edges, updates, smoke=False):
    ops = make_ops(updates)
    print(f"workload: EXI-Weblog {edges} edges, {updates} mixed updates, "
          f"auto_recompress_factor={AUTO_FACTOR}")
    result = run_workload(edges, ops)
    print(f"  recompress  : {result['total_s']:8.2f}s total, "
          f"{result['recompress_s']:8.2f}s recompress "
          f"({result['census_s']:.2f}s occurrence census and upkeep, "
          f"{result['recompress_runs']} runs), "
          f"{result['final_c_edges']} c-edges")
    censused = result["rules_censused"]
    full_volume = result["per_round_full_census_volume"]
    volume_ratio = full_volume / censused if censused else float("inf")
    print(f"  census      : {censused} rules censused "
          f"(+{result['rules_adapted']} adapted below census cost) vs "
          f"{full_volume} for a full census every round: "
          f"{volume_ratio:.1f}x less")

    report = {
        "benchmark": "bench_recompress",
        "workload": {
            "corpus": "EXI-Weblog",
            "edges": edges,
            "updates": updates,
            "auto_recompress_factor": AUTO_FACTOR,
            "seed": SEED,
            "smoke": smoke,
        },
        "recompress": result,
        # The volume of full O(|rule|) occurrence censuses the
        # incrementally maintained index avoids: a rule is censused only
        # when a round rewrote it non-locally.  (Rules brought up to date
        # below census cost -- event-log adaptation, crossing-only
        # rescans -- are reported as rules_adapted, not census volume.)
        "census_volume": {
            "rules_censused": censused,
            "per_round_full_census": full_volume,
            "reduction": round(volume_ratio, 2),
        },
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(JSON_PATH)}")
    return report


def check_schema(report):
    """The machine-readable contract future PRs regress against."""
    for section in ("workload", "recompress", "census_volume"):
        assert section in report, f"missing section {section!r}"
    for key in ("total_s", "ops_per_s", "recompress_runs", "recompress_s",
                "census_s", "rules_censused", "final_c_edges",
                "grammar_rules", "latency"):
        assert key in report["recompress"], f"missing {key!r}"
    for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
        assert key in report["recompress"]["latency"], \
            f"missing latency {key!r}"
    assert report["recompress"]["latency"]["count"] > 0
    for key in ("rules_censused", "per_round_full_census", "reduction"):
        assert key in report["census_volume"], \
            f"missing census_volume {key!r}"


def check_scoping(report):
    """Dirty-scoped recompression rescans fewer rules than the grammar."""
    probe = report["recompress"]["scoped_probe"]
    assert probe["full_censuses"] == 0, "dirty-scoped run did a full census"
    assert probe["seed_rule_count"] is not None
    trace = list(zip(probe["census_trace"], probe["rule_count_trace"]))
    assert trace, "no census recorded"
    assert all(censused < total for censused, total in trace), (
        f"a census scanned the whole grammar: {trace}"
    )
    assert probe["index_wholesale_resets"] == 0
    # The whole run -- not just the probe -- must maintain the
    # structural index per rule, never reset it wholesale.
    assert report["recompress"]["index_wholesale_resets"] == 0, \
        "recompression wholesale-reset the structural index"


def check_census_volume(report, minimum=5.0):
    """The acceptance bound: >= 5x less rule-census volume than a full
    census every round would have scanned over the same runs."""
    reduction = report["census_volume"]["reduction"]
    assert reduction >= minimum, (
        f"incremental recompression only cut rule-census volume "
        f"{reduction:.1f}x (required >= {minimum}x)"
    )


def test_recompress_smoke():
    """Entry point at a CI-friendly scale (explicit-path pytest runs)."""
    report = run(smoke=True, **SMOKE_SCALE)
    check_schema(report)
    check_scoping(report)


if __name__ == "__main__":
    try:
        from benchmarks._common import maybe_profile
    except ImportError:  # run directly: benchmarks/ itself is sys.path[0]
        from _common import maybe_profile

    smoke = "--smoke" in sys.argv
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    with maybe_profile("bench_recompress"):
        report = run(smoke=smoke, **scale)
    check_schema(report)
    check_scoping(report)
    if not smoke:
        check_census_volume(report)
        print("bounds ok: >=5x rule-census volume reduction, dirty-scoped "
              "censuses smaller than the grammar")
    else:
        print("smoke ok: schema valid, dirty-scoped censuses smaller than "
              "the grammar")
