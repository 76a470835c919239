"""Outside-in tracing: spans around each layer's entry points.

Only the traced run installs these wrappers, and only from this file:
nothing under ``src/`` knows about them.  Each wrapper records a span
``[name, layer, start, end, parent, op, duration]`` in memory.  ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the position
of the benchmark operation that caused it, and ``duration`` the time the
span was on the CPU path (for an iterator: the sum of its resumptions).
Work counts are taken at the same boundaries.

A class method is wrapped on the class, so every instance sees it.  A
function imported by name is wrapped at the binding its caller looks up
(``collect_garbage`` in ``repro.updates.grammar_updates``, not the one
in ``repro.core.grammar_repair``), because rebinding the defining module
would not reach a caller that already holds the name.
"""

import functools
import json
from importlib import import_module
import os
import time
from types import GeneratorType

CLOCK = time.perf_counter
#: Op id of work outside the timed phases: not traced.
UNTIMED = -2


def _pop(stack, idx):
    if stack and stack[-1] == idx:
        stack.pop()
    else:  # an iterator abandoned out of order
        try:
            stack.remove(idx)
        except ValueError:
            pass


class _TracedIter:
    """Keeps an iterator's span open across resumptions: every ``next``
    re-enters the span, so calls the iterator body makes nest under it
    and only resumed time counts toward its duration."""

    __slots__ = ("_it", "_rec", "_idx", "_stack")

    def __init__(self, it, rec, idx, stack):
        self._it, self._rec, self._idx, self._stack = it, rec, idx, stack

    def __iter__(self):
        return self

    def __next__(self):
        stack, idx, rec = self._stack, self._idx, self._rec
        stack.append(idx)
        started = CLOCK()
        try:
            return next(self._it)
        finally:
            now = CLOCK()
            rec[6] += now - started
            rec[3] = now
            _pop(stack, idx)


class Tracer:
    """In-memory span store plus the counters taken at the boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = {}
        self._undo = []

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation ---------------------------------------------------
    def _wrap_function(self, fn, name, layer, pre, post):
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op == UNTIMED:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.op, 0.0]
            spans.append(rec)
            token = pre(args) if pre is not None else None
            stack.append(idx)
            started = rec[2] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = CLOCK()
                rec[6] = rec[3] - started
                _pop(stack, idx)
            if isinstance(result, (GeneratorType, _TracedIter)):
                return _TracedIter(result, rec, idx, stack)
            if post is not None:
                post(tracer, args, result, token)
            return result

        return wrapper

    def wrap(self, owner, attr, name, layer, pre=None, post=None):
        """Replace ``owner.attr`` (a module global, a method, a
        classmethod or a property) with a span-recording wrapper."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap_function(
                raw.__func__, name, layer, pre, post))
        elif isinstance(raw, property):
            new = property(self._wrap_function(
                raw.fget, name, layer, pre, post), raw.fset, raw.fdel)
        else:
            new = self._wrap_function(raw, name, layer, pre, post)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis -------------------------------------------------------
    def outermost(self):
        """Per span: whether no enclosing span has the same name (a
        recursive boundary counts its inclusive time once)."""
        spans = self.spans
        above, flags, cache = [], [], {}
        empty = frozenset()
        for rec in spans:
            names = above[rec[4]] if rec[4] >= 0 else empty
            flags.append(rec[0] not in names)
            key = (names, rec[0])
            if key not in cache:
                cache[key] = names | {rec[0]}
            above.append(cache[key])
        return flags

    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[6]
        return [max(0.0, rec[6] - child[i]) for i, rec in enumerate(spans)]

    def write(self, path):
        """One JSON span per line: name, layer, start, end, parent,
        op id ([round, position]), duration."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


# ----------------------------------------------------------------------
# the boundaries
# ----------------------------------------------------------------------
INDEX_METHODS = (
    "resolve_element", "resolve_preorder", "resolve_element_with_extent",
    "preorder_of_element", "tag_of", "iter_element_symbols",
    "element_subtree_extent", "end_of_children_position", "parent_of",
    "depth_of", "first_child", "next_sibling", "children",
    "children_with_tags", "rule_table", "element_segments",
    "element_count", "node_count", "rule_changed", "rule_removed",
    "rule_relabeled", "invalidate_all", "export_segments",
    "import_segments",
)
RESOLVE_METHODS = ("resolve_element", "resolve_preorder",
                   "resolve_element_with_extent")
READ_METHODS = ("select", "count", "subtree_xml", "tag_of", "tags",
                "parent_of", "depth_of", "first_child", "next_sibling",
                "children")
DOC_METHODS = READ_METHODS + (
    "rename", "insert", "append_child", "delete", "apply_batch",
    "save_snapshot", "from_snapshot_file", "export_state")
STORE_METHODS = ("rename", "insert", "append_child", "delete",
                 "apply_batch", "close", "open")


def _pack_pre(args):
    kernel, head = args[0], args[1]
    return head in kernel._packs


def _pack_post(tracer, args, result, was_cached):
    if was_cached:
        tracer.add("kernel.pack_hits")
    else:
        tracer.add("kernel.pack_builds")
        tracer.add("kernel.bytes_packed", result.nbytes)


def _shard_pre(args):
    stats = args[0].stats
    return stats.splits, stats.merges


def _shard_post(tracer, args, result, before):
    stats = args[0].stats
    tracer.add("shard.splits", stats.splits - before[0])
    tracer.add("shard.merges", stats.merges - before[1])


def _compress_post(tracer, args, result, token):
    stats = args[0].stats
    tracer.add("recompress.rules_censused", stats.rules_censused)
    tracer.add("recompress.rules_adapted",
               stats.rules_adapted + stats.rules_partially_rescanned)


def _isolate_post(tracer, args, result, token):
    tracer.add("updates.rules_inlined", result.inlined_rules)


def _evict_pre(args):
    return args[0].evicted_rules


def _evict_post(tracer, args, result, before):
    tracer.add("label.evicted_rules", args[0].evicted_rules - before)


def _counter(key):
    def post(tracer, args, result, token):
        tracer.add(key)
    return post


def _matches_post(tracer, args, result, token):
    tracer.add("query.matches", len(result))


def _pruned_post(tracer, args, result, token):
    tracer.add("query.pruned_subtrees", result)


def _wal_pre(args):
    return args[0].size


def _wal_post(tracer, args, result, before):
    tracer.add("wal.records")
    tracer.add("wal.bytes", args[0].size - before)


def _fsync_post(tracer, args, result, token):
    site = args[2] if len(args) > 2 else ""
    tracer.add("fsync:" + site)


def _snapshot_post(tracer, args, result, token):
    tracer.add("snapshot.writes")
    tracer.add("snapshot.bytes_total", os.path.getsize(args[0]))


def install(tracer):
    """Wrap every layer boundary the ledger reports on."""
    # import_module, not ``import a.b as c``: a package may re-export a
    # function under its submodule's name (repro.core.grammar_repair)
    api = import_module("repro.api")
    grammar_repair = import_module("repro.core.grammar_repair")
    index_mod = import_module("repro.grammar.index")
    kernel_mod = import_module("repro.grammar.kernel")
    engine = import_module("repro.query.engine")
    durable = import_module("repro.storage.durable")
    recovery = import_module("repro.storage.recovery")
    snapshot = import_module("repro.storage.snapshot")
    grammar_updates = import_module("repro.updates.grammar_updates")
    view = import_module("repro.view")
    from repro.core.occurrence_index import GrammarOccurrenceIndex
    from repro.grammar.index import GrammarIndex
    from repro.grammar.kernel import GrammarKernel
    from repro.grammar.sharding import ShardManager
    from repro.query.label_index import LabelIndex
    from repro.storage.faults import StorageIO
    from repro.storage.wal import SegmentedWal

    wrap = tracer.wrap
    # facade
    for name in DOC_METHODS:
        wrap(api.CompressedXml, name, "api." + name, "api")
    wrap(api.CompressedXml, "snapshot", "view.open", "view")
    wrap(api.CompressedXml, "_recompress_locked", "recompress.run",
         "recompress")
    # MVCC views
    for name in READ_METHODS:
        wrap(view.SnapshotView, name, "view.read", "view")
    wrap(view.SnapshotView, "close", "view.close", "view")
    # updates: edits, isolation, garbage collection, batch planner
    for name in ("rename", "insert", "delete"):
        wrap(grammar_updates, name, "updates.edit", "updates")
    wrap(grammar_updates, "isolate", "updates.isolate", "updates",
         post=_isolate_post)
    wrap(grammar_updates, "isolate_many", "updates.isolate", "updates",
         post=_isolate_post)
    wrap(grammar_updates, "collect_garbage", "updates.gc", "updates")
    wrap(grammar_updates, "apply_isolated_batch", "updates.batch_apply",
         "updates")
    wrap(api, "execute_batch", "updates.batch_plan", "updates")
    # structural index
    for name in INDEX_METHODS:
        label = "index.resolve" if name in RESOLVE_METHODS else "index." + name
        wrap(GrammarIndex, name, label, "index")
    # flat kernel
    wrap(GrammarKernel, "pack", "kernel.pack", "kernel",
         pre=_pack_pre, post=_pack_post)
    for name in ("kernel_locate_element", "kernel_resolve_preorder",
                 "kernel_iter_element_symbols"):
        wrap(index_mod, name, "kernel.descent", "kernel")
    wrap(engine, "kernel_stream_preorder", "kernel.descent", "kernel")
    # imported at call time by repro.grammar.navigation
    wrap(kernel_mod, "kernel_stream_elements", "kernel.descent", "kernel")
    # spine sharding
    for name in ("reshard", "recompression_settled", "repair_ranks"):
        wrap(ShardManager, name, "shard.reshard", "sharding",
             pre=_shard_pre, post=_shard_post)
    # recompression
    wrap(grammar_repair.GrammarRePair, "compress", "recompress.compress",
         "recompress", post=_compress_post)
    wrap(GrammarOccurrenceIndex, "build", "recompress.census", "recompress")
    wrap(GrammarOccurrenceIndex, "apply_round", "recompress.round_upkeep",
         "recompress", post=_counter("recompress.rounds"))
    wrap(grammar_repair, "replace_all_occurrences_optimized",
         "recompress.replace", "recompress")
    wrap(grammar_repair, "prune_grammar", "recompress.prune", "recompress")
    # queries
    for module in (api, engine):
        wrap(module, "parse_path", "query.parse", "query")
    for module in (api, view):
        wrap(module, "engine_select", "query.walk", "query",
             post=_matches_post)
        wrap(module, "count_matches", "query.walk", "query")
        wrap(module, "extract_subtree", "query.extract", "query")
    wrap(api, "read_prune_counter", "query.prune_counter", "query",
         post=_pruned_post)
    wrap(LabelIndex, "_census", "label.census", "query",
         post=_counter("label.rules_censused"))
    wrap(LabelIndex, "_evict", "label.evict", "query",
         pre=_evict_pre, post=_evict_post)
    # storage
    for name in STORE_METHODS:
        wrap(durable.DurableXml, name, "storage." + name, "storage")
    wrap(durable.DurableXml, "checkpoint", "checkpoint.run", "storage",
         post=_counter("checkpoint.runs"))
    wrap(SegmentedWal, "append", "wal.append", "storage",
         pre=_wal_pre, post=_wal_post)
    wrap(StorageIO, "fsync", "storage.fsync", "storage", post=_fsync_post)
    wrap(durable, "write_snapshot", "snapshot.write", "storage",
         post=_snapshot_post)
    wrap(snapshot, "write_snapshot", "snapshot.write", "storage",
         post=_snapshot_post)
    wrap(recovery, "apply_record", "recovery.replay", "storage",
         post=_counter("recovery.records"))
    wrap(durable, "recover", "recovery.run", "storage")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("updates.isolate_s", "s"), ("updates.rules_inlined", "count"),
    ("updates.gc_s", "s"), ("updates.batch_plan_s", "s"),
    ("index.self_s", "s"), ("index.resolve_s", "s"),
    ("kernel.pack_s", "s"), ("kernel.pack_builds", "count"),
    ("kernel.pack_hits", "count"), ("kernel.hit_ratio", "ratio"),
    ("kernel.bytes_packed", "bytes"),
    ("shard.reshard_s", "s"), ("shard.splits", "count"),
    ("shard.merges", "count"), ("shard.max_width", "nodes"),
    ("recompress.runs", "count"), ("recompress.s", "s"),
    ("recompress.census_s", "s"), ("recompress.round_upkeep_s", "s"),
    ("recompress.replace_s", "s"), ("recompress.prune_s", "s"),
    ("recompress.rounds", "count"), ("recompress.rules_censused", "count"),
    ("recompress.rules_adapted", "count"),
    ("recompress.stall_max_ms", "ms"),
    ("query.parse_s", "s"), ("query.walk_s", "s"),
    ("query.pruned_subtrees", "count"), ("query.matches", "count"),
    ("label.rules_censused", "count"), ("label.evicted_rules", "count"),
    ("view.open_s", "s"), ("view.read_s", "s"),
    ("wal.append_s", "s"), ("wal.fsync_s", "s"), ("wal.fsyncs", "count"),
    ("wal.bytes_per_op", "bytes/op"), ("checkpoint.runs", "count"),
    ("checkpoint.s", "s"), ("snapshot.bytes", "bytes"),
    ("recovery.records", "count"),
    ("api.self_s", "s"),
    ("ledger.coverage", "ratio"), ("trace.overhead", "ratio"),
)

#: Spans whose inclusive duration a metric sums (outermost spans only).
_INCLUSIVE = {
    "updates.isolate_s": ("updates.isolate",),
    "updates.gc_s": ("updates.gc",),
    "index.resolve_s": ("index.resolve",),
    "kernel.pack_s": ("kernel.pack",),
    "shard.reshard_s": ("shard.reshard",),
    "recompress.s": ("recompress.run",),
    "recompress.census_s": ("recompress.census",),
    "recompress.round_upkeep_s": ("recompress.round_upkeep",),
    "recompress.replace_s": ("recompress.replace",),
    "recompress.prune_s": ("recompress.prune",),
    "query.parse_s": ("query.parse",),
    "query.walk_s": ("query.walk",),
    "view.open_s": ("view.open",),
    "view.read_s": ("view.read",),
    "wal.append_s": ("wal.append",),
    "checkpoint.s": ("checkpoint.run",),
}


def summarize(tracer, timed_wall, untraced_wall, max_width):
    """Per-layer metrics from the spans and boundary counts.

    ``timed_wall`` is the traced run's timed wall time and
    ``untraced_wall`` the same op streams' wall time with no wrappers.
    """
    spans = tracer.spans
    counts = tracer.counts
    self_times = tracer.self_times()
    inclusive = {}
    layer_self = {}
    recompress_ops = set()
    op_wall = {}   # op id -> wall seconds of its top-level spans
    fsync_s = 0.0
    for rec, own, outer in zip(spans, self_times, tracer.outermost()):
        name = rec[0]
        if outer:
            inclusive[name] = inclusive.get(name, 0.0) + rec[6]
        layer_self[rec[1]] = layer_self.get(rec[1], 0.0) + own
        if rec[4] < 0:
            op_wall[rec[5]] = op_wall.get(rec[5], 0.0) + rec[6]
        if name == "recompress.run":
            recompress_ops.add(rec[5])
        elif name == "storage.fsync" and rec[4] >= 0 \
                and spans[rec[4]][0] == "wal.append":
            # only the WAL append site: snapshot and manifest fsyncs
            # belong to the checkpoint and sit inside checkpoint.s
            fsync_s += rec[6]
    values = {}
    for metric, names in _INCLUSIVE.items():
        values[metric] = sum(inclusive.get(name, 0.0) for name in names)
    values["updates.batch_plan_s"] = sum(
        own for rec, own in zip(spans, self_times)
        if rec[0] == "updates.batch_plan")
    values["index.self_s"] = layer_self.get("index", 0.0)
    values["api.self_s"] = layer_self.get("api", 0.0)
    hits = counts.get("kernel.pack_hits", 0)
    builds = counts.get("kernel.pack_builds", 0)
    values["kernel.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    values["recompress.runs"] = sum(
        1 for rec in spans if rec[0] == "recompress.run")
    values["recompress.stall_max_ms"] = 1e3 * max(
        (op_wall.get(op, 0.0) for op in recompress_ops), default=0.0)
    values["wal.fsync_s"] = fsync_s
    values["wal.fsyncs"] = counts.get("fsync:wal:append", 0)
    records = counts.get("wal.records", 0)
    values["wal.bytes_per_op"] = (counts.get("wal.bytes", 0) / records
                                  if records else 0.0)
    writes = counts.get("snapshot.writes", 0)
    values["snapshot.bytes"] = (counts.get("snapshot.bytes_total", 0) / writes
                                if writes else 0.0)
    values["shard.max_width"] = max_width
    values["ledger.coverage"] = sum(self_times) / timed_wall
    values["trace.overhead"] = timed_wall / untraced_wall
    for metric, _ in PER_LAYER:
        if metric not in values:
            values[metric] = counts.get(metric, 0)
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in PER_LAYER}, layer_self
