"""The three workloads: seeded inputs, the closed-loop client, the oracle.

Every input is generated from the seed before anything is timed, by
walking a plain-tree interpreter (:mod:`interp`) through the op stream:
write targets are drawn as a fraction of the *live* element count, so no
index is ever out of range, and the interpreter's answers become the
expected results the run is checked against.  The program under test
receives only the generated operations.

A run is a few rounds (``ROUNDS`` by default).  Each round sets the
document up from the corpus (timed: ``setup_s``), drives its share of
the timed loop, reads the final state back, and reopens the document
from disk (timed: ``recovery_s``).  Several short rounds instead of one
long one keep the work per run steady: under auto-recompression the
grammar's size doubles between stop-the-world runs, so one long round
would be dominated by its last few, ever larger, recompressions.

Why each workload was chosen is recorded in ``BENCHMARK.json``.

Load is one client thread in a closed loop: each call is issued when the
previous one returned, the way an embedded library is called.
"""

import gc
import os
import random
import shutil
from dataclasses import dataclass, field, replace

from repro.api import CompressedXml
from repro.datasets.synthetic import make_corpus
from repro.query.naive import naive_count, naive_select
from repro.storage.durable import DurableXml
from repro.trees.unranked import XmlNode
from repro.trees.xml_io import serialize_xml
from repro.updates.batch import BatchAppend, BatchDelete, BatchInsert, BatchRename
from repro.updates.workload import generate_clustered_element_ops

from interp import PlainDocument, to_xml
from ledger import UNTIMED
from pace import CPU, PROBE_EVERY_S, WALL, Pace

#: Seed of the corpus: the document under test is the same for every run;
#: ``--seed`` draws the traffic.
CORPUS_SEED = 1

#: Every run times at least this many operations, so that p99 has ten
#: samples beyond it.
MIN_OPS = 1000
#: Rounds per run, each on a freshly set-up document; ``setup_s`` and
#: ``recovery_s`` are medians over them.
ROUNDS = 3
#: The compression ratio is sampled after every this many timed ops.
RATIO_EVERY = 10
#: Deletes target elements whose subtree holds at most this many
#: elements (records, not whole document sections), so one draw cannot
#: wipe out a tenth of the document and swing every later figure.
MAX_DELETE_EXTENT = 64
#: Read-back phase that ends every round: reads of the final state, in
#: the same mix as the read-mostly sessions (``MIX_READS``).
READBACK_OPS = 1600
#: Every this-many-th select and count of a round goes to one of the
#: corpus's ``deep`` paths (see ``Corpus``).  The count restarts each
#: round, so every read-mostly round times the same number of them (two
#: selects and one count among ~500 ops).
DEEP_EVERY = 25
#: Shares of select/count/subtree reads checked against the naive
#: evaluator, in the timed loop and in the read-back phase.
LOOP_CHECK_SHARE = 0.02
READBACK_CHECK_SHARE = 0.1

#: Strata of the target draws (see ``_Generator.fraction``).
STRATA = tuple(range(16))
WRITE_KINDS = ("rename", "rename", "rename", "insert", "insert",
               "append", "delete")
READ_KINDS = frozenset((
    "select", "count", "subtree", "tag_of", "tags", "parent",
    "first_child", "next_sibling", "children", "depth", "pin", "unpin"))


@dataclass(frozen=True)
class Corpus:
    name: str
    edges: int
    write_tags: tuple
    selective: tuple      # label paths with few matches
    broad: tuple          # label paths with many matches
    counted: tuple        # paths for count()
    #: Descendant-then-child paths, dealt once every ``DEEP_EVERY``
    #: selects and counts: the child step under a descendant step walks
    #: far more of the grammar than either step alone (~0.6 s a query on
    #: XMark 20k), so a few of them are a large share of the run's time.
    deep: tuple = ()


XMARK = Corpus(
    "XMark", 20_000,
    write_tags=("note", "payment", "phone", "shipping", "homepage"),
    selective=("//note", "//phone", "//payment", "//homepage"),
    broad=("//listitem", "//text", "/site/regions/*/item", "//bidder"),
    counted=("//person", "//listitem", "//bidder", "/site/regions/*/item"),
    deep=("//item/payment",),
)
WEBLOG = Corpus(
    "EXI-Weblog", 5_000,
    write_tags=("ip", "user", "ts", "request", "status", "bytes", "extra"),
    selective=("//extra",),
    broad=("//status",),
    counted=("//entry", "//status", "//extra"),
)
MEDLINE = Corpus(
    "Medline", 20_000,
    write_tags=("Keyword", "Note", "Comment", "Grant"),
    selective=("//Keyword", "//Note", "//Abstract"),
    broad=("//Author",),
    counted=("//Author", "//MeshHeading", "//Keyword"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    doc_kwargs: dict
    #: "sessions" (read sessions with interleaved writes), "writes"
    #: (single-op updates only) or "commits" (single ops and batches).
    traffic: str
    #: Timed operations per second of ``--seconds`` (fixed work per run,
    #: so work counts repeat exactly for a seed).
    ops_per_second: int
    rounds: int = ROUNDS
    #: Run on a DurableXml store.  Its ops block off the CPU (fsync, file
    #: reads), and that time counts in their latencies (see :mod:`pace`).
    durable: bool = False
    #: Commits between the application's explicit checkpoints.  A fixed
    #: count, not the store's WAL-bytes trigger, so every round reopens
    #: with the same number of records to replay (commits per round
    #: modulo this).
    checkpoint_every: int = 0
    #: Commit kinds dealt in the "commits" traffic.
    commit_deck: tuple = ()
    batch_size: int = 16


WORKLOADS = {
    "read-mostly": Workload(
        "read-mostly", XMARK, {"auto_recompress_factor": 2.0}, "sessions",
        ops_per_second=100),
    "write-recompress": Workload(
        "write-recompress", WEBLOG, {"auto_recompress_factor": 2.0},
        "writes",
        # more, shorter rounds: p99 falls among the stalls of five
        # recompression cycles instead of the last few of one
        ops_per_second=67, rounds=5),
    "durable-commit": Workload(
        "durable-commit", MEDLINE, {"shard_width": 256}, "commits",
        ops_per_second=100, rounds=5, durable=True,
        checkpoint_every=80,  # 300 commits a round: a 60-record WAL tail
        commit_deck=("batch",) * 3 + ("single",) * 17),
}


def tiny(workload):
    """The same workload at self-test scale."""
    corpus = replace(workload.corpus, edges=600)
    return replace(workload, corpus=corpus,
                   checkpoint_every=workload.checkpoint_every and 8)


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------
@dataclass
class Round:
    ops: list = field(default_factory=list)   # (kind, on_view, a, b)
    main_ops: int = 0                          # ops[:main_ops] are timed
    checks: dict = field(default_factory=dict)  # position -> expected
    expected_xml: str = ""


@dataclass
class Plan:
    seed: int
    tree: XmlNode
    rounds: list


class _Generator:
    """Walks the interpreter through the stream it generates."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.corpus = workload.corpus
        self.rng = random.Random(seed)
        self.tree = make_corpus(self.corpus.name, edges=self.corpus.edges,
                                seed=CORPUS_SEED)
        self.check_share = LOOP_CHECK_SHARE
        self._version = 0
        self._xml_cache = (None, None)
        self._decks = {}

    def start_round(self):
        self.round = Round()
        self.plain = PlainDocument(self.tree)
        self._path_reads = {"select": 0, "count": 0}
        self._version += 1
        return self.round

    def draw(self, items, key=None):
        """Deal from a shuffled deck of ``items`` (one deck per ``key``):
        every full deck has exact proportions, so two seeds run the same
        mix of op kinds and paths and differ only in order and targets."""
        key = (items, key)
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()

    # -- expected answers ------------------------------------------------
    def _current_xml(self):
        if self._xml_cache[0] != self._version:
            self._xml_cache = (self._version, self.plain.snapshot_xml())
        return self._xml_cache[1]

    def emit(self, op, expected=None):
        rnd = self.round
        if expected is not None:
            rnd.checks[len(rnd.ops)] = expected
        rnd.ops.append(op)

    def fraction(self):
        """A uniform draw in [0, 1), stratified: each of ``STRATA``
        equal slices is dealt once per deck, so every seed spreads its
        targets over the whole document."""
        return (self.draw(STRATA, "fraction") + self.rng.random()) / len(STRATA)

    def _wants_check(self):
        return self.rng.random() < self.check_share

    def path(self, kind, on_view, paths):
        """The label path of a select or count: every ``DEEP_EVERY``-th
        one of each kind is a ``deep`` path, the others are dealt from
        ``paths``."""
        self._path_reads[kind] += 1
        if self.corpus.deep and self._path_reads[kind] % DEEP_EVERY == 0:
            return self.draw(self.corpus.deep, kind)
        return self.draw(paths, on_view)

    # -- reads -------------------------------------------------------------
    def read(self, on_view, kinds):
        """One read of the current interpreter state (the pinned state
        when ``on_view``: pinned sessions draw their reads at pin time)."""
        plain, corpus = self.plain, self.corpus
        count = plain.element_count
        kind = self.draw(kinds, on_view)
        if kind == "select":
            path = self.path(kind, on_view, corpus.selective + corpus.broad)
            expected = (naive_select(self._current_xml(), path)
                        if self._wants_check() else None)
            return ("select", on_view, path, None), expected
        if kind == "count":
            path = self.path(kind, on_view, corpus.counted)
            expected = (naive_count(self._current_xml(), path)
                        if self._wants_check() else None)
            return ("count", on_view, path, None), expected
        if kind == "subtree":
            for _ in range(8):
                index = int(self.fraction() * count)
                node = plain.locate(index)[0]
                if node[2] <= MAX_DELETE_EXTENT:
                    expected = (serialize_xml(to_xml(node))
                                if self._wants_check() else None)
                    return ("subtree", on_view, index, None), expected
            kind = "tag_of"
        if kind == "tag_of":
            index = int(self.fraction() * count)
            return ("tag_of", on_view, index, None), plain.tag_of(index)
        if kind == "tags":
            start = int(self.fraction() * count)
            return ("tags", on_view, start, start + 64), None
        return (kind, on_view, int(self.fraction() * count), None), None

    # -- writes ------------------------------------------------------------
    def _index(self):
        count = self.plain.element_count
        return 1 + int(self.fraction() * (count - 1))

    def write(self):
        """One single-op update, applied to the interpreter."""
        rng, plain = self.rng, self.plain
        tag = self.draw(self.corpus.write_tags)
        kind = self.draw(WRITE_KINDS)
        self._version += 1
        if kind == "delete":
            for _ in range(8):
                index = self._index()
                if plain.subtree_size(index) <= MAX_DELETE_EXTENT:
                    plain.delete(index)
                    return ("delete", False, index, None)
            kind = "rename"
        if kind == "rename":
            index = self._index()
            plain.rename(index, tag)
            return ("rename", False, index, tag)
        if kind == "insert":
            index = self._index()
            node = XmlNode(tag, [XmlNode(rng.choice(self.corpus.write_tags))])
            plain.insert(index, [node])
            return ("insert", False, index, node)
        index = int(self.fraction() * plain.element_count)
        node = XmlNode(tag)
        plain.append_child(index, [node])
        return ("append", False, index, node)

    def batch(self):
        """A clustered burst as one batch; every op is checked against
        the interpreter before it is kept (sequential semantics)."""
        plain = self.plain
        drawn = generate_clustered_element_ops(
            plain.element_count, self.workload.batch_size, rng=self.rng,
            tags=self.corpus.write_tags, max_delete_extent=MAX_DELETE_EXTENT)
        kept = []
        for op in drawn:
            count = plain.element_count
            if isinstance(op, BatchAppend):
                if op.parent_index < count:
                    plain.append_child(op.parent_index, op.content)
                    kept.append(op)
            elif op.index >= count or op.index == 0:
                continue
            elif isinstance(op, BatchRename):
                plain.rename(op.index, op.new_tag)
                kept.append(op)
            elif isinstance(op, BatchInsert):
                plain.insert(op.index, op.content)
                kept.append(op)
            elif isinstance(op, BatchDelete) and \
                    plain.subtree_size(op.index) <= MAX_DELETE_EXTENT:
                plain.delete(op.index)
                kept.append(op)
        self._version += 1
        return ("batch", False, kept, None)


MIX_READS = ("select", "select", "count", "subtree", "subtree",
             "tag_of", "tag_of", "tag_of", "tags", "tags", "tags",
             "parent", "first_child", "next_sibling", "children", "depth")
#: One write per 18 session slots: ~5% of all ops with pins counted.
SESSION_SLOTS = ("w",) + ("r",) * 17


def make_plan(workload, seed, main_ops, readback_ops=READBACK_OPS):
    """Generate every round's op stream and its expected results."""
    gen = _Generator(workload, seed)
    plan = Plan(seed, gen.tree, [])
    per_round = -(-main_ops // workload.rounds)
    every = workload.checkpoint_every
    for _ in range(workload.rounds):
        rnd = gen.start_round()
        gen.check_share = LOOP_CHECK_SHARE
        if workload.traffic == "sessions":
            while len(rnd.ops) < per_round:
                _session(gen)  # whole sessions only
        elif workload.traffic == "commits":
            for commit in range(1, per_round + 1):
                if gen.draw(workload.commit_deck) == "batch":
                    gen.emit(gen.batch())
                else:
                    gen.emit(gen.write())
                if every and commit % every == 0 and commit < per_round:
                    gen.emit(("checkpoint", False, None, None))
        else:
            for _ in range(per_round):
                gen.emit(gen.write())
        rnd.main_ops = len(rnd.ops)
        gen.check_share = READBACK_CHECK_SHARE
        for _ in range(readback_ops // workload.rounds):
            gen.emit(*gen.read(False, MIX_READS))
        rnd.expected_xml = serialize_xml(gen.plain.snapshot_xml())
        plan.rounds.append(rnd)
    return plan


def _session(gen):
    """A read session of 8-16 ops, half of them on a pinned snapshot;
    writes to the live document interleave either way."""
    slots = [gen.draw(SESSION_SLOTS) for _ in range(gen.rng.randint(8, 16))]
    if gen.draw((True, False)):
        # the pinned view answers as of the pin: draw its reads now
        reads = [gen.read(True, MIX_READS)
                 for slot in slots if slot == "r"]
        gen.emit(("pin", False, None, None))
        for slot in slots:
            if slot == "r":
                gen.emit(*reads.pop(0))
            else:
                gen.emit(gen.write())
        gen.emit(("unpin", False, None, None))
    else:
        for slot in slots:
            if slot == "r":
                gen.emit(*gen.read(False, MIX_READS))
            else:
                gen.emit(gen.write())


# ----------------------------------------------------------------------
# set-up, the closed loop, recovery
# ----------------------------------------------------------------------
def setup(workload, tree, workdir):
    """Build the program's document (and store) from the corpus tree;
    returns ``(target, doc, scaled seconds)``.  The store directory is
    cleared before the clock starts."""
    store_dir = os.path.join(workdir, "store")
    if workload.durable:
        shutil.rmtree(store_dir, ignore_errors=True)

    def build():
        doc = CompressedXml.from_document(tree, **workload.doc_kwargs)
        if workload.durable:
            return DurableXml.create(store_dir, doc), doc
        return doc, doc

    (target, doc), _, elapsed = Pace(workload.durable).time(build)
    return target, doc, elapsed


def drive(target, ops, checks, pace, offset=0, tracer=None, sampled=None,
          round_no=0):
    """Issue ``ops`` one after another, timing each and probing the
    machine's speed between them; returns the per-op latencies scaled to
    the reference speed, the results of the checked positions, the
    failures, and ``sampled``'s compression ratio after every
    ``RATIO_EVERY``-th op."""
    cpu = []
    wall = []
    results = {}
    failures = []
    ratios = []
    view = None
    probes = [(0, pace.probe())]
    since_probe = 0.0
    for pos, (kind, on_view, a, b) in enumerate(ops, offset):
        if tracer is not None:
            tracer.op = (round_no, pos)
        reader = view if on_view else target
        out = None
        started, wall_started = CPU(), WALL()
        try:
            if kind == "tag_of":
                out = reader.tag_of(a)
            elif kind == "select":
                out = reader.select(a)
            elif kind == "count":
                out = reader.count(a)
            elif kind == "subtree":
                out = reader.subtree_xml(a)
            elif kind == "tags":
                out = list(reader.tags(a, b))
            elif kind == "children":
                out = list(reader.children(a))
            elif kind == "parent":
                out = reader.parent_of(a)
            elif kind == "first_child":
                out = reader.first_child(a)
            elif kind == "next_sibling":
                out = reader.next_sibling(a)
            elif kind == "depth":
                out = reader.depth_of(a)
            elif kind == "pin":
                view = target.snapshot()
            elif kind == "unpin":
                view.close()
                view = None
            elif kind == "rename":
                target.rename(a, b)
            elif kind == "insert":
                target.insert(a, b)
            elif kind == "append":
                target.append_child(a, b)
            elif kind == "delete":
                target.delete(a)
            elif kind == "batch":
                target.apply_batch(a)
            elif kind == "checkpoint":
                target.checkpoint()
        except Exception as exc:  # counted, reported, and failing the run
            failures.append((pos, kind, repr(exc)))
        cpu.append(CPU() - started)
        wall.append(WALL() - wall_started)
        since_probe += cpu[-1]
        if since_probe >= PROBE_EVERY_S:
            probes.append((len(cpu), pace.probe()))
            since_probe = 0.0
        if pos in checks:
            results[pos] = out
        if sampled is not None and (pos + 1) % RATIO_EVERY == 0:
            ratios.append(sampled.compression_ratio)
    if probes[-1][0] != len(cpu):
        probes.append((len(cpu), pace.probe()))
    if view is not None:
        view.close()
    return pace.scale(cpu, wall, probes), results, failures, ratios


def recover(workload, target, doc, workdir, tracer=None, op=None):
    """Close and reopen the document from disk; returns ``(reopened
    document, scaled seconds, wall seconds)``.  Only the reopen is timed
    (as op ``op``).  In memory the persisted form is a snapshot file; for
    the store it is the snapshot-plus-WAL directory."""
    path = os.path.join(workdir, "doc.snapshot")
    if workload.durable:
        target.close()
    else:
        doc.save_snapshot(path)
    gc.collect()
    if tracer is not None:
        tracer.op = op
    if workload.durable:
        def reopen():
            return DurableXml.open(os.path.join(workdir, "store"))
    else:
        def reopen():
            return CompressedXml.from_snapshot_file(path,
                                                    **workload.doc_kwargs)
    reopened, wall, elapsed = Pace(workload.durable).time(reopen)
    if tracer is not None:
        tracer.op = UNTIMED
    if workload.durable:
        store = reopened
        reopened = store.document
        store.close()
    return reopened, elapsed, wall


@dataclass
class PassResult:
    latencies: list          # scaled seconds per op
    results: dict
    failures: list
    main_s: float            # wall seconds of the timed loop
    recovery_s: float        # scaled seconds of the reopen
    timed_wall: float        # wall seconds of loop + read-back + reopen
    c_edges_ratios: list
    start_c_edges: int
    final_xml: str
    reopened_xml: str
    max_width: int


def run_round(workload, rnd, target, doc, workdir, tracer=None, round_no=0):
    """The timed loop, the read-back phase and the reopen of one round.

    ``c_edges_ratios`` samples the document's compression ratio (c-edges /
    edges) every ``RATIO_EVERY`` timed ops: the mean is steady where the
    final value would land anywhere in the recompression cycle."""
    start_c_edges = doc.compressed_size
    main = rnd.ops[:rnd.main_ops]
    pace = Pace(workload.durable)
    gc.collect()
    wall = WALL()
    lat, results, failures, ratios = drive(
        target, main, rnd.checks, pace, 0, tracer, doc, round_no)
    main_s = timed_wall = WALL() - wall
    gc.collect()
    wall = WALL()
    lat2, results2, failures2, _ = drive(
        target, rnd.ops[rnd.main_ops:], rnd.checks, pace, rnd.main_ops,
        tracer, None, round_no)
    timed_wall += WALL() - wall
    if tracer is not None:
        tracer.op = UNTIMED
    results.update(results2)
    manager = doc.shard_manager
    max_width = manager.max_spine_width() if manager is not None else 0
    final_xml = doc.to_xml()
    reopened, recovery_s, wall = recover(
        workload, target, doc, workdir, tracer, op=(round_no, len(rnd.ops)))
    return PassResult(lat + lat2, results, failures + failures2,
                      main_s, recovery_s, timed_wall + wall, ratios,
                      start_c_edges, final_xml, reopened.to_xml(), max_width)


def oracle(rnd, result):
    """Mismatches between a round and the interpreter (empty when the
    round is correct)."""
    problems = []
    if result.final_xml != rnd.expected_xml:
        problems.append("final document differs from the plain-tree replay")
    if result.reopened_xml != result.final_xml:
        problems.append("reopened document differs from the live one")
    for pos, expected in rnd.checks.items():
        got = result.results.get(pos)
        if got != expected:
            problems.append(f"op {pos} {rnd.ops[pos][:1]}: got {got!r:.80}, "
                            f"expected {expected!r:.80}")
    return problems
