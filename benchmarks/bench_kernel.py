"""Macro-benchmark: flat-kernel descents and query walks under traffic.

Every structural descent and matching walk runs over per-rule packed
integer columns (:mod:`repro.grammar.kernel`).  This bench times them on
EXI-Weblog at 50k edges:

* **descent** -- ``resolve_preorder`` over a fixed set of *distinct*
  random targets, each a full cold descent from the start rule;
* **walks** -- ``bench_query``-style traffic rounds (renames moving the
  needle label, inserts, appends, deletes, incremental recompressions
  interleaved), each followed by a burst of timed ``select`` calls.

Every round checks the kernel's answers against the plain-tree oracle
(:func:`repro.query.naive.naive_select` and the tag sequence of the
decoded document), and the maintenance story is asserted the same way
the other benches do: the kernel must be *maintained* -- per-rule pack
evictions through the observer channel, zero wholesale invalidations --
across the whole update/recompression interleaving.

Results go to ``BENCH_kernel.json``.  ``--smoke`` (the CI job) runs the
same checks at a tiny scale.
"""

import json
import os
import random
import sys
import time

from repro.api import CompressedXml
from repro.obs.metrics import summarize_latencies
from repro.query.naive import naive_select
from repro.trees.unranked import XmlNode

FULL_SCALE = {
    "edges": 50_000,
    "rounds": 5,
    "updates_per_round": 40,
    "selects_per_round": 20,
    "descents": 4_000,
}
SMOKE_SCALE = {
    "edges": 2_000,
    "rounds": 2,
    "updates_per_round": 10,
    "selects_per_round": 5,
    "descents": 300,
}
AUTO_FACTOR = 2.0
SEED = 42
NEEDLE = "alert"
QUERY = f"//{NEEDLE}"

JSON_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json"
)


def make_doc(edges, seed=SEED):
    from repro.datasets.synthetic import make_corpus

    corpus = make_corpus("EXI-Weblog", edges=edges, seed=seed)
    return CompressedXml.from_document(
        corpus, auto_recompress_factor=AUTO_FACTOR
    )


def preorder_tags(root):
    """Tags of a plain tree in document order (the ``tags()`` oracle)."""
    tags = []
    walk = [root]
    while walk:
        node = walk.pop()
        tags.append(node.tag)
        walk.extend(reversed(node.children))
    return tags


def apply_traffic(doc, rng, ops):
    """One burst of mixed updates (bench_query's recipe)."""
    for _ in range(ops):
        count = doc.element_count
        kind = rng.random()
        index = rng.randrange(1, count)
        if kind < 0.35:
            tag = NEEDLE if rng.random() < 0.33 else f"t{rng.randrange(8)}"
            doc.rename(index, tag)
        elif kind < 0.6:
            doc.insert(index, XmlNode(f"t{rng.randrange(8)}"))
        elif kind < 0.8:
            doc.append_child(index, XmlNode(f"t{rng.randrange(8)}"))
        elif count > 2:
            doc.delete(index)


def bench_descents(doc, targets):
    """Time cold descents: distinct targets, memo cleared first."""
    doc.index._locations.clear()
    samples = []
    for target in targets:
        started = time.perf_counter()
        doc.index.resolve_preorder(target)
        samples.append(time.perf_counter() - started)
    return samples


def run(edges, rounds, updates_per_round, selects_per_round, descents,
        smoke=False):
    rng = random.Random(SEED)
    doc = make_doc(edges)
    print(f"workload: EXI-Weblog {edges} edges, {rounds} rounds of "
          f"{updates_per_round} updates + selects ({QUERY!r}), "
          f"{descents} cold descents, "
          f"auto_recompress_factor={AUTO_FACTOR}")

    for _ in range(8):
        doc.rename(rng.randrange(1, doc.element_count), NEEDLE)

    kernel = doc.index.kernel
    doc.count(QUERY)  # warm censuses (and lazily pack) once

    # Phase 1: cold structural descents over distinct targets.
    targets = rng.sample(range(1, doc.element_count),
                         min(descents, doc.element_count - 1))
    descent = bench_descents(doc, targets)

    # Phase 2: select walks under interleaved update traffic.
    selects = []
    matches = []
    for _ in range(rounds):
        apply_traffic(doc, random.Random(rng.randrange(2**31)),
                      updates_per_round)
        for _ in range(selects_per_round):
            started = time.perf_counter()
            matches = doc.select(QUERY)
            selects.append(time.perf_counter() - started)

        # Checked answers or the timings measure nothing.
        plain = doc.to_document()
        assert matches == naive_select(plain, QUERY), \
            "kernel select diverged from the plain-tree oracle"
        assert list(doc.tags()) == preorder_tags(plain), \
            "kernel tags stream diverged from the decoded document"

    descent_us = 1e6 * sum(descent) / len(descent)
    select_ms = 1e3 * sum(selects) / len(selects)

    print(f"  descent: {descent_us:8.2f} us/op "
          f"({len(targets)} cold descents)")
    print(f"  select : {select_ms:8.3f} ms/query "
          f"({len(matches)} matches of {doc.element_count} elements)")
    print(f"  kernel : {kernel.rules_packed} rules packed "
          f"({kernel.bytes_packed} bytes), {kernel.builds} builds, "
          f"{kernel.evictions} evictions, {kernel.hits} hits, "
          f"{kernel.wholesale_invalidations} wholesale invalidations, "
          f"{doc.recompress_runs} recompressions interleaved")

    report = {
        "benchmark": "bench_kernel",
        "workload": {
            "corpus": "EXI-Weblog",
            "edges": edges,
            "rounds": rounds,
            "updates_per_round": updates_per_round,
            "descents": len(targets),
            "auto_recompress_factor": AUTO_FACTOR,
            "seed": SEED,
            "smoke": smoke,
        },
        "descent": {
            "kernel_us": round(descent_us, 3),
            "kernel_latency": summarize_latencies(descent),
        },
        "select": {
            "path": QUERY,
            "matches_final": len(matches),
            "element_count_final": doc.element_count,
            "kernel_ms": round(select_ms, 4),
            "kernel_latency": summarize_latencies(selects),
        },
        "maintenance": {
            "rules_packed_final": kernel.rules_packed,
            "bytes_packed_final": kernel.bytes_packed,
            "pack_builds": kernel.builds,
            "pack_evictions": kernel.evictions,
            "pack_hits": kernel.hits,
            "kernel_wholesale_invalidations":
                kernel.wholesale_invalidations,
            "grammar_wholesale_invalidations":
                doc.index.wholesale_invalidations,
            "recompress_runs": doc.recompress_runs,
            "updates_applied": doc.updates_applied,
        },
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(JSON_PATH)}")
    return report


def check_schema(report):
    """The machine-readable contract future PRs regress against."""
    for section in ("workload", "descent", "select", "maintenance"):
        assert section in report, f"missing section {section!r}"
    for key in ("kernel_us", "kernel_latency"):
        assert key in report["descent"], f"missing descent {key!r}"
    for key in ("kernel_ms", "kernel_latency", "matches_final"):
        assert key in report["select"], f"missing select {key!r}"
    for section in ("descent", "select"):
        latency = report[section]["kernel_latency"]
        for key in ("count", "p50_ms", "p95_ms", "p99_ms"):
            assert key in latency, (section, key)
        assert latency["count"] > 0
    for key in ("rules_packed_final", "bytes_packed_final", "pack_builds",
                "pack_evictions", "pack_hits",
                "kernel_wholesale_invalidations", "recompress_runs"):
        assert key in report["maintenance"], f"missing maintenance {key!r}"


def check_maintenance(report):
    """The kernel must be maintained, never rebuilt wholesale.

    * zero wholesale invalidations on the kernel *and* on the structural
      index -- the interleaved incremental recompressions must evict
      packs rule-by-rule, not reset anything;
    * per-rule pack evictions really fired (the kernel saw the traffic);
    * packs were rebuilt lazily afterwards and served hits.
    """
    maintenance = report["maintenance"]
    assert maintenance["kernel_wholesale_invalidations"] == 0, \
        "something wholesale-invalidated the kernel"
    assert maintenance["grammar_wholesale_invalidations"] == 0
    assert maintenance["recompress_runs"] >= 1, \
        "the workload was meant to interleave recompressions"
    assert maintenance["pack_evictions"] > 0, \
        "no pack evictions -- the kernel cannot have observed the updates"
    assert maintenance["rules_packed_final"] > 0
    assert maintenance["pack_hits"] > 0


def test_kernel_smoke():
    """Entry point at a CI-friendly scale (explicit-path pytest runs)."""
    report = run(smoke=True, **SMOKE_SCALE)
    check_schema(report)
    check_maintenance(report)


if __name__ == "__main__":
    try:
        from benchmarks._common import maybe_profile
    except ImportError:  # run directly: benchmarks/ itself is sys.path[0]
        from _common import maybe_profile

    smoke = "--smoke" in sys.argv
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    with maybe_profile("bench_kernel"):
        report = run(smoke=smoke, **scale)
    check_schema(report)
    check_maintenance(report)
    print("ok: schema valid, answers equal to the plain-tree oracle, "
          "kernel maintained (zero wholesale invalidations) across "
          "interleaved updates and recompressions")
