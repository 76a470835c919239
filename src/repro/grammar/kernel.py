"""Flat integer-array rule packs: the structural index and its descents.

Every read path of this code base -- element addressing, query walks,
preorder resolution, windowed serialization -- descends the derivation
over per-rule size tables.  This module is the one implementation of
both: each rule body is packed once into parallel preorder columns (the
integer-sequence representation of Maneth & Sebastian's structural
self-indexes), and every descent runs on integer compares and list reads
over those columns instead of chasing ``Node`` objects:

* :class:`SymbolTable` -- process-wide symbol interning (symbol object ->
  small int id, identity-keyed like the symbols themselves),
* :class:`RulePack` -- one rule body in preorder as parallel columns:
  ``(kind, symbol id, rank, next-sibling, subtree-node-count,
  subtree-element-count, parameters below)`` per RHS node, plus the
  rule's node/element segments and parallel object lists so descents
  still return live ``Node``/``Symbol`` references and
  :class:`~repro.grammar.navigation.PathStep` paths,
* :class:`GrammarKernel` -- the per-index pack cache: built lazily per
  rule (callees first), evicted per rule through the observer events the
  owning :class:`~repro.grammar.index.GrammarIndex` forwards
  (``set_rule``/``remove_rule``/in-place rewrites cascade through
  ``GrammarIndex._evict``; relabels evict just the one pack whose cached
  symbol ids went stale), never wholesale on the incremental path,
* the walk functions the index/query/navigation layers call
  (:func:`kernel_locate_element`, :func:`kernel_resolve_preorder`,
  :func:`kernel_iter_element_symbols`, :func:`kernel_stream_preorder`,
  :func:`kernel_stream_elements`).

Epoch/MVCC interplay
--------------------
Packs reference the rule bodies they were built from, so any structural
mutation evicts the rule's pack (and its dependents').  Descents perform
no rule-body reads, so they are no copy-on-write preservation points:
every in-place rewrite is preceded by ``Grammar.preserve_for_write`` (or
goes through ``set_rule``/``remove_rule``), which is what keeps pinned
epochs intact.  A :class:`~repro.view.SnapshotView` owns its own
:class:`GrammarIndex` over a frozen grammar (private, stable copy-on-write
bodies), hence its own kernel whose packs can never be invalidated --
the flat analog of the pinned copy-on-write rule tables.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.grammar.navigation import PathStep
from repro.grammar.slcf import GrammarError
from repro.trees.symbols import Symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grammar.index import GrammarIndex
    from repro.query.label_index import LabelIndex

__all__ = [
    "SymbolTable",
    "RulePack",
    "GrammarKernel",
    "global_symbol_table",
    "kernel_locate_element",
    "kernel_resolve_preorder",
    "kernel_iter_element_symbols",
    "kernel_stream_preorder",
    "kernel_stream_elements",
]

#: RHS-node kind codes (the ``kind`` column): integer compares replace the
#: ``is_terminal``/``is_parameter``/``is_bottom`` property-call chain.  A
#: terminal's kind doubles as its own element count (``⊥`` 0, element 1).
KIND_BOTTOM = 0
KIND_ELEMENT = 1
KIND_NONTERMINAL = 2
KIND_PARAMETER = 3


class SymbolTable:
    """Process-wide interning of :class:`Symbol` objects to small ints.

    Symbols are already interned per :class:`~repro.trees.symbols.Alphabet`
    and compared by identity, so the table is identity-keyed too: two
    alphabets (e.g. a live document and a snapshot reload) may both intern
    a ``"entry"/2`` terminal and receive distinct ids -- ids are stable
    per symbol *object*, which is exactly the equality the packs need.
    The table only ever grows (append-only), so ids never get reused and
    packs from different documents can safely coexist in one process.
    """

    __slots__ = ("_ids", "_symbols", "info")

    def __init__(self) -> None:
        self._ids: Dict[Symbol, int] = {}
        self._symbols: List[Symbol] = []
        #: pack-build memo: Symbol -> ``(kind, code, rank, name)``.
        #: Symbols are immutable (relabels intern fresh objects), so
        #: entries never go stale; the dict collapses the per-node
        #: property cascade of a pack build into one probe.
        self.info: Dict[Symbol, Tuple[int, int, int, str]] = {}

    def id_of(self, symbol: Symbol) -> int:
        """The interned id, assigning the next one on first sight."""
        sid = self._ids.get(symbol)
        if sid is None:
            sid = len(self._symbols)
            self._ids[symbol] = sid
            self._symbols.append(symbol)
        return sid

    def symbol_of(self, sid: int) -> Symbol:
        """Inverse lookup (debugging / introspection)."""
        return self._symbols[sid]

    def __len__(self) -> int:
        return len(self._symbols)


_GLOBAL_SYMBOLS = SymbolTable()


def global_symbol_table() -> SymbolTable:
    """The one process-wide table every kernel shares by default."""
    return _GLOBAL_SYMBOLS


class RulePack:
    """One rule body, flattened to parallel preorder columns.

    For RHS preorder position ``i`` (the first child of ``i`` sits at
    ``i + 1``):

    * ``kind[i]`` -- :data:`KIND_BOTTOM` / :data:`KIND_ELEMENT` /
      :data:`KIND_NONTERMINAL` / :data:`KIND_PARAMETER`,
    * ``sym[i]`` -- interned symbol id; for parameters the 1-based
      parameter index (the binding-environment slot),
    * ``rank[i]`` -- child count,
    * ``nxt[i]`` -- preorder position of the next sibling (``-1`` last),
    * ``nnodes[i]`` / ``nelems[i]`` -- generated subtree sizes *without*
      parameter contributions (bindings supply the argument sizes),
    * ``params[i]`` -- tuple of parameter indices occurring below ``i``,
    * ``node_objs[i]`` / ``sym_objs[i]`` / ``sym_names[i]`` -- the live
      ``Node``, its ``Symbol``, and the symbol's name, so descents
      return object-world results.

    ``node_segs`` / ``elem_segs`` are the rule's node and element
    segments (the paper's ``size(A, 0..k)``); the owning index's segment
    dicts hold these very lists, so counting queries and snapshots read
    them without touching the pack.

    Three derived views exist purely for walk speed:

    * ``walk`` -- one tuple ``(kind, sym, rank, nxt, nnodes, nelems,
      params, node_objs, sym_objs, sym_names, steps_enter,
      steps_target)`` whose integer columns are *list* mirrors of the
      packed arrays.  ``array('l')`` reads box a fresh ``int`` object on
      every access; the mirrors box each value exactly once, at build
      time, and a pack switch inside a walk becomes a single attribute
      load plus one tuple unpack instead of many attribute loads.
    * ``walk_nodes`` -- the node-count descent's subset of ``walk``
      (``kind, sym, rank, nxt, nnodes, params, sym_objs, steps_enter,
      steps_target``): :func:`kernel_resolve_preorder` touches neither
      element counts nor the object columns, so its pack switches unpack
      nine columns instead of twelve.
    * ``steps_enter`` / ``steps_target`` -- one shared, immutable
      :class:`PathStep` per position (``enters_rule`` true at nonterminal
      positions, false at terminals; ``None`` elsewhere).  Consumers only
      ever read ``.node`` / ``.enters_rule``, so every descent through a
      position can return the same step object instead of allocating one.
    """

    __slots__ = (
        "head", "n", "kind", "sym", "rank", "nxt",
        "nnodes", "nelems", "params", "node_objs", "sym_objs", "sym_names",
        "node_segs", "elem_segs", "_label_arrays", "hop_segs",
        "walk", "walk_nodes", "steps_enter", "steps_target",
    )

    def __init__(self, head: Symbol) -> None:
        self.head = head
        #: per-label match-count arrays for the query walk, versioned by
        #: the identity of the LabelIndex node table they were built from:
        #: a census eviction anywhere below this rule (including callee
        #: relabels, which change ancestor counts without touching
        #: ancestor *structure*) rebuilds that dict, so an identity check
        #: per rule entry keeps the flat counts consistent without a
        #: second invalidation channel.  Entries are ``(node_table,
        #: packed array, list mirror, hop-body dict)`` -- walks read the
        #: mirror; the hop-body dict memoises the callee's own label
        #: total per application position (the zero-census hop test),
        #: which shares the entry's versioning: any census change below
        #: an application changes this rule's counts too, so the entry
        #: is rebuilt -- dropping the memo -- exactly when needed.
        self._label_arrays: Dict[str, Tuple[dict, array, list, dict]] = {}
        #: per-application-position ``(segments, kids)`` memo for the
        #: zero-census hop (callee element segments + this rule's child
        #: positions).  Both are purely structural, so the pack's own
        #: lifetime is the correct version: any structural change at or
        #: below the callee cascades an eviction through every applier,
        #: discarding this pack -- and relabels, which do *not* evict
        #: appliers, cannot change segments or child layout.
        self.hop_segs: Dict[int, tuple] = {}

    @property
    def nbytes(self) -> int:
        """Packed payload bytes (the memory-footprint gauge)."""
        total = 0
        for name in ("kind", "sym", "rank", "nxt", "nnodes", "nelems"):
            arr = getattr(self, name)
            total += arr.itemsize * len(arr)
        for entry in self._label_arrays.values():
            arr = entry[1]
            total += arr.itemsize * len(arr)
        return total

    def label_counts(self, lindex: "LabelIndex", label: str) -> list:
        """Per-position ``label`` occurrence counts (census substrate of
        the kernel query walk), aligned with the other arrays.  Returns
        the boxed list mirror; the packed array backs ``nbytes``."""
        return self.label_hop(lindex, label)[0]

    def label_hop(self, lindex: "LabelIndex", label: str) -> Tuple[list, dict]:
        """``(counts, hop-body memo)`` for ``label`` -- the walk-entry
        bundle of the query walk.  The memo maps application positions to
        the callee's own label total so repeated walks skip the
        ``rule_label_count`` probe; it rides the entry's node-table
        versioning (see ``_label_arrays``)."""
        ntab = lindex.node_table(self.head, label)
        cached = self._label_arrays.get(label)
        if cached is not None and cached[0] is ntab:
            return cached[2], cached[3]
        arr = array("l", [ntab[id(node)][0] for node in self.node_objs])
        counts = arr.tolist()
        entry = (ntab, arr, counts, {})
        self._label_arrays[label] = entry
        return counts, entry[3]


def _build_pack(kernel: "GrammarKernel", head: Symbol) -> RulePack:
    """Flatten one rule body into a :class:`RulePack` with its segments.

    A preorder walk lays the body out and fills the symbol columns; one
    reverse sweep over the positions then derives every subtree column
    (next sibling, generated node/element counts, parameters below) and
    the rule's node/element segments from the children's.  Callee
    segments come from the owning index; callees without any (neither
    packed nor imported from a snapshot) are packed first, through
    :meth:`GrammarKernel.pack`.
    """
    index = kernel._index
    node_segments = index._node_segments
    elem_segments = index._elem_segments
    dependents = index._dependents

    order: List[object] = []
    append = order.append
    stack = [index.grammar.rhs(head)]
    pop = stack.pop
    extend = stack.extend
    while stack:
        node = pop()
        append(node)
        kids = node.children
        if kids:
            extend(reversed(kids))
    n = len(order)

    kind_l = [0] * n
    sym_l = [0] * n
    rank_l = [0] * n
    sym_objs: List[Symbol] = [None] * n  # type: ignore[list-item]
    sym_names: List[str] = [""] * n
    steps_enter: List[Optional[PathStep]] = [None] * n
    steps_target: List[Optional[PathStep]] = [None] * n

    # Forward: symbol columns.  Symbol facts come from the table's
    # interning memo (one dict probe instead of the kind/rank/name
    # property cascade).
    symbols = kernel.symbols
    si = symbols.info
    id_of = symbols.id_of
    callees: Dict[Symbol, tuple] = {}
    for i, node in enumerate(order):
        symbol = node.symbol
        inf = si.get(symbol)
        if inf is None:
            if symbol.is_parameter:
                inf = (KIND_PARAMETER, symbol.param_index,
                       symbol.rank, symbol.name)
            elif symbol.is_terminal:
                k = KIND_BOTTOM if symbol.is_bottom else KIND_ELEMENT
                inf = (k, id_of(symbol), symbol.rank, symbol.name)
            else:
                inf = (KIND_NONTERMINAL, id_of(symbol),
                       symbol.rank, symbol.name)
            si[symbol] = inf
        k, code, r, name = inf
        kind_l[i] = k
        sym_l[i] = code
        rank_l[i] = r
        sym_objs[i] = symbol
        sym_names[i] = name
        if k <= KIND_ELEMENT:
            steps_target[i] = PathStep(node, False)
        elif k == KIND_NONTERMINAL:
            steps_enter[i] = PathStep(node, True)
            callees[symbol] = ()
    missing = [callee for callee in callees if callee not in node_segments]
    if missing:
        _pack_bottom_up(kernel, missing)
    # Per distinct callee: (generated nodes, elements, node segments,
    # element segments) -- applications of one callee repeat a lot.
    for callee in callees:
        dependents.setdefault(callee, set()).add(head)
        callee_nodes = node_segments[callee]
        callee_elems = elem_segments[callee]
        callees[callee] = (sum(callee_nodes), sum(callee_elems),
                           callee_nodes, callee_elems)

    # Reverse: every node is visited after its descendants, so child
    # spans (in RHS nodes), sizes, and parameter segments are ready.
    # Children are located by offset arithmetic -- the first at ``i + 1``,
    # each sibling right after its predecessor's span.  Subtrees with
    # parameters below also carry their own ``(node segments, element
    # segments)`` split at those parameters: a rule body is linear, so
    # only the few nodes on a parameter's ancestor path ever do.
    span = [1] * n
    nxt_l = [-1] * n
    nnodes_l = [0] * n
    nelems_l = [0] * n
    params: List[Tuple[int, ...]] = [()] * n
    split: Dict[int, Tuple[List[int], List[int]]] = {}
    for i in range(n - 1, -1, -1):
        k = kind_l[i]
        if k == KIND_PARAMETER:
            params[i] = (sym_l[i],)
            split[i] = ([0, 0], [0, 0])
            continue
        if k == KIND_NONTERMINAL:
            nodes, elems, callee_nodes, callee_elems = callees[sym_objs[i]]
        else:
            nodes = 1
            elems = k
        r = rank_l[i]
        if not r:
            nnodes_l[i] = nodes
            nelems_l[i] = elems
            continue
        total = 1
        below: Tuple[int, ...] = ()
        c = i + 1
        for _ in range(r):
            s = span[c]
            total += s
            nodes += nnodes_l[c]
            elems += nelems_l[c]
            if params[c]:
                below += params[c]
            nxt_l[c] = c + s
            c += s
        nxt_l[c - s] = -1
        span[i] = total
        nnodes_l[i] = nodes
        nelems_l[i] = elems
        if below:
            params[i] = below
            # Concatenate the children's splits, merging each boundary;
            # an application weaves its callee's segments in between
            # (virtual preorder: seg0, arg1, seg1, ..., argk, segk).
            if k == KIND_NONTERMINAL:
                seg_nodes = [callee_nodes[0]]
                seg_elems = [callee_elems[0]]
            else:
                seg_nodes = [1]
                seg_elems = [k]
            c = i + 1
            for slot in range(1, r + 1):
                child_split = split.pop(c, None)
                if child_split is None:
                    seg_nodes[-1] += nnodes_l[c]
                    seg_elems[-1] += nelems_l[c]
                else:
                    child_nodes, child_elems = child_split
                    seg_nodes[-1] += child_nodes[0]
                    seg_elems[-1] += child_elems[0]
                    seg_nodes.extend(child_nodes[1:])
                    seg_elems.extend(child_elems[1:])
                if k == KIND_NONTERMINAL:
                    seg_nodes[-1] += callee_nodes[slot]
                    seg_elems[-1] += callee_elems[slot]
                c += span[c]
            split[i] = (seg_nodes, seg_elems)

    node_segs, elem_segs = split.get(0) or ([nnodes_l[0]], [nelems_l[0]])
    if len(node_segs) != head.rank + 1:
        raise GrammarError(
            f"rule {head!r}: found {len(node_segs) - 1} parameters, "
            f"rank is {head.rank}"
        )
    node_segments[head] = node_segs
    elem_segments[head] = elem_segs

    pack = RulePack(head)
    pack.n = n
    # Packed columns are built from the finished lists in one C-level
    # conversion each; the walk tuples reuse the lists directly.
    pack.kind = array("l", kind_l)
    pack.sym = array("l", sym_l)
    pack.rank = array("l", rank_l)
    pack.nxt = array("l", nxt_l)
    pack.nnodes = array("l", nnodes_l)
    pack.nelems = array("l", nelems_l)
    pack.params = params
    pack.node_objs = order
    pack.sym_objs = sym_objs
    pack.sym_names = sym_names
    pack.node_segs = node_segs
    pack.elem_segs = elem_segs
    pack.steps_enter = steps_enter
    pack.steps_target = steps_target
    pack.walk = (
        kind_l, sym_l, rank_l, nxt_l, nnodes_l, nelems_l, params,
        order, sym_objs, sym_names, steps_enter, steps_target,
    )
    pack.walk_nodes = (
        kind_l, sym_l, rank_l, nxt_l, nnodes_l, params, sym_objs,
        steps_enter, steps_target,
    )
    return pack


def _pack_bottom_up(kernel: "GrammarKernel", heads: List[Symbol]) -> None:
    """Pack ``heads`` and every rule below them that lacks segments,
    callees first, so each :meth:`GrammarKernel.pack` call finds all of
    its callees' segments in place.  Iterative: a call DAG may be deeper
    than the interpreter stack."""
    segments = kernel._index._node_segments
    grammar = kernel._index.grammar
    pending = set()
    stack = list(heads)
    while stack:
        current = stack[-1]
        if current in segments:
            stack.pop()
            continue
        pending.add(current)
        callees = set()
        walk = [grammar.rhs(current)]
        while walk:
            node = walk.pop()
            symbol = node.symbol
            if symbol.is_nonterminal and symbol not in segments:
                if symbol in pending:
                    raise GrammarError(
                        f"grammar is recursive: cycle through {symbol!r}"
                    )
                callees.add(symbol)
            walk.extend(node.children)
        if callees:
            stack.extend(callees)
            continue
        kernel.pack(current)
        pending.discard(current)
        stack.pop()


class GrammarKernel:
    """The per-index pack cache (built lazily, evicted per rule).

    Owned by a :class:`~repro.grammar.index.GrammarIndex`; the index
    forwards its observer events here.  A rule's pack is its only
    per-node table: structural edits evict it with the rule's segments
    and dependents, relabels evict just the pack (sizes and segments
    survive a relabel; cached symbol ids and names do not).
    """

    __slots__ = (
        "_index", "_packs", "symbols",
        "builds", "evictions", "hits", "misses", "wholesale_invalidations",
        "_m_builds", "_m_evictions",
    )

    def __init__(
        self,
        index: "GrammarIndex",
        symbols: Optional[SymbolTable] = None,
    ) -> None:
        self._index = index
        self._packs: Dict[Symbol, RulePack] = {}
        self.symbols = symbols if symbols is not None else _GLOBAL_SYMBOLS
        self.builds = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self.wholesale_invalidations = 0
        self._m_builds = None
        self._m_evictions = None

    # ------------------------------------------------------------------
    # pack lifecycle
    # ------------------------------------------------------------------
    def pack(self, head: Symbol) -> RulePack:
        """The rule's pack, building it (and its callees' first) lazily.

        ``hits``/``misses`` are counted here, i.e. at walk-entry and
        cold-build granularity: the walk inner loops probe ``_packs``
        directly (an inlined dict ``get``) and fall back to this method
        only on a miss, so warm per-step probes cost no bookkeeping.
        """
        existing = self._packs.get(head)
        if existing is not None:
            self.hits += 1
            return existing
        self.misses += 1
        built = _build_pack(self, head)
        self._packs[head] = built
        self.builds += 1
        if self._m_builds is not None:
            self._m_builds.inc()
        return built

    def evict(self, head: Symbol) -> None:
        """Drop one rule's pack (observer channel; no-op when absent)."""
        if self._packs.pop(head, None) is not None:
            self.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()

    def invalidate_all(self) -> None:
        """Wholesale reset -- must never fire on the update or
        recompression paths (the bench gates assert the counter stays
        0)."""
        if self._packs:
            self._packs.clear()
        self.wholesale_invalidations += 1

    def reset(self) -> None:
        """Forget every pack without counting it as a wholesale
        invalidation: used when the index adopts imported snapshot
        segments (a brand-new table generation, not an eviction event)."""
        self._packs.clear()

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def set_metric_handles(self, builds, evictions) -> None:
        """Adopt registry counters for the cold build/evict events; the
        per-descent hit/miss tallies stay plain ints and export through
        the ``repro_kernel`` gauge source instead."""
        self._m_builds = builds
        self._m_evictions = evictions

    @property
    def rules_packed(self) -> int:
        return len(self._packs)

    @property
    def bytes_packed(self) -> int:
        """Packed bytes across every cached pack.  Summed on demand --
        the gauge source samples this at collection time only, and the
        per-pack total moves when label arrays attach lazily."""
        return sum(p.nbytes for p in self._packs.values())

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "rules_packed": self.rules_packed,
            "bytes_packed": self.bytes_packed,
            "builds": self.builds,
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
            "wholesale_invalidations": self.wholesale_invalidations,
        }


# ----------------------------------------------------------------------
# kernel walks
# ----------------------------------------------------------------------
# Binding environments of the element descents are tuples of 5-tuples
#   (outer_pack, pos, outer_env, nodes, elems)
# -- the argument's position in the applying rule's pack, the
# environment to resolve it in, and its generated sizes.  Downstream
# consumers (the ``GrammarIndex`` extent and axis helpers, the
# ``_locations`` memo) read the sizes from slots 3..4.
#
# Every walk below keeps the current pack's columns in locals via one
# ``pack.walk`` unpack per pack switch, probes the pack cache with an
# inlined ``kernel._packs.get`` (falling back to ``kernel.pack`` on a
# miss), and appends the pack's *shared* per-position PathStep objects
# instead of allocating steps -- the three constant-factor levers the
# walks are built on.


def kernel_locate_element(
    index: "GrammarIndex",
    kernel: GrammarKernel,
    element_index: int,
    track_axes: bool,
):
    """Descend the derivation to the ``element_index``-th element.

    Returns ``(binary preorder index, pack, position of the generating
    terminal in it, binding environment, derivation path, parent element
    index, document depth)``; see ``GrammarIndex._locate_element`` for
    the shortcut/axis semantics.  Bounds are pre-checked.
    """
    packs = kernel._packs
    pack = kernel.pack(index.grammar.start)
    (kind, sym, rank, nxt, nnodes, nelems, params, _objs, sym_objs,
     _names, steps_enter, steps_target) = pack.walk
    pos = 0
    env: Tuple = ()
    remaining = element_index
    position = 0
    parent: Optional[int] = None
    depth = 0
    steps: List[PathStep] = []

    while True:
        k = kind[pos]
        if k <= 1:  # terminal
            if k == 1:
                if remaining == 0:
                    steps.append(steps_target[pos])
                    return (position, pack, pos, env, steps,
                            parent, depth)
                remaining -= 1
                position += 1
                if rank[pos] == 2:
                    # FCNS element: descend into the content subtree
                    # (first child -- then this element is the target's
                    # document parent so far) or, by the walk invariant
                    # (``remaining`` < the current subtree's element
                    # count), directly into the sibling subtree without
                    # computing its size.
                    child = pos + 1
                    ce = nelems[child]
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            b = env[p - 1]
                            cn += b[3]
                            ce += b[4]
                    if remaining < ce:
                        parent = element_index - remaining - 1
                        depth += 1
                        pos = child
                    else:
                        remaining -= ce
                        position += cn
                        pos = nxt[child]
                    continue
            else:
                position += 1
            # Non-FCNS terminal: scan the first r-1 children, the last
            # inherits the target by the same invariant.
            r = rank[pos]
            child = pos + 1
            for _ in range(r - 1):
                ce = nelems[child]
                cn = nnodes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        b = env[p - 1]
                        cn += b[3]
                        ce += b[4]
                if remaining < ce:
                    break
                remaining -= ce
                position += cn
                child = nxt[child]
            pos = child
            continue

        if k == 3:  # parameter: hop to the bound argument
            b = env[sym[pos] - 1]
            pack = b[0]
            pos = b[1]
            env = b[2]
            (kind, sym, rank, nxt, nnodes, nelems, params, _objs,
             sym_objs, _names, steps_enter, steps_target) = pack.walk
            continue

        # Nonterminal application (virtual preorder: seg0, arg1, seg1,
        # ..., argk, segk).  An argument target is descended into
        # directly; a body-segment target enters the rule with both
        # counters unchanged -- walking the body under the bindings
        # reproduces exactly the interleaved sequence.  Axis tracking
        # always enters: the skipped rule-body path may contain the
        # target's binary ancestors (in particular its document parent).
        sobj = sym_objs[pos]
        callee = packs.get(sobj)
        if callee is None:
            callee = kernel.pack(sobj)
        r = rank[pos]
        if not track_axes:
            callee_nodes = callee.node_segs
            callee_elems = callee.elem_segs
            descend_to = -1
            preceding_nodes = callee_nodes[0]
            preceding_elems = callee_elems[0]
            if remaining >= preceding_elems:
                child = pos + 1
                for child_pos in range(1, r + 1):
                    ce = nelems[child]
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            b = env[p - 1]
                            cn += b[3]
                            ce += b[4]
                    if remaining < preceding_elems + ce:
                        remaining -= preceding_elems
                        position += preceding_nodes
                        descend_to = child
                        break
                    preceding_elems += ce + callee_elems[child_pos]
                    preceding_nodes += cn + callee_nodes[child_pos]
                    if remaining < preceding_elems:
                        break  # a body segment after this arg: enter
                    child = nxt[child]
            if descend_to >= 0:
                pos = descend_to
                continue
        steps.append(steps_enter[pos])
        if r:
            outer_env = env
            child = pos + 1
            ce = nelems[child]
            cn = nnodes[child]
            pp = params[child]
            if pp:
                for p in pp:
                    b = outer_env[p - 1]
                    cn += b[3]
                    ce += b[4]
            if r == 1:
                env = ((pack, child, outer_env, cn, ce),)
            else:
                bindings = [(pack, child, outer_env, cn, ce)]
                for _ in range(r - 1):
                    child = nxt[child]
                    ce = nelems[child]
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            b = outer_env[p - 1]
                            cn += b[3]
                            ce += b[4]
                    bindings.append((pack, child, outer_env, cn, ce))
                env = tuple(bindings)
        else:
            env = ()
        pack = callee
        pos = 0
        (kind, sym, rank, nxt, nnodes, nelems, params, _objs,
         sym_objs, _names, steps_enter, steps_target) = pack.walk


def kernel_resolve_preorder(
    index: "GrammarIndex",
    kernel: GrammarKernel,
    target: int,
) -> List[PathStep]:
    """Derivation path to the node at binary preorder ``target`` (the
    node-count descent behind ``GrammarIndex.resolve_preorder``; bounds
    pre-checked by the caller).

    The hottest kernel loop, so it walks the trimmed ``walk_nodes``
    columns and -- since its environments never escape (only ``steps``
    are returned) -- uses private 4-tuple bindings
    ``(nodes, outer_env, outer_pack, pos)`` instead of the 5-tuple
    binding format of the element descents.
    Child scans lean on the walk invariant (``remaining`` is always
    smaller than the current subtree's node count: checked at the root,
    preserved by every descent): a target that fell through the first
    ``r - 1`` children must sit in the last one, whose size then never
    needs computing.
    """
    packs = kernel._packs
    pack = kernel.pack(index.grammar.start)
    (kind, sym, rank, nxt, nnodes, params, sym_objs,
     steps_enter, steps_target) = pack.walk_nodes
    pos = 0
    env: Tuple = ()
    remaining = target
    steps: List[PathStep] = []

    while True:
        k = kind[pos]
        if k <= 1:  # terminal
            if remaining == 0:
                steps.append(steps_target[pos])
                return steps
            remaining -= 1  # the terminal itself
            r = rank[pos]
            child = pos + 1
            if r == 2:  # FCNS: one size probe decides between the two
                cn = nnodes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        cn += env[p - 1][0]
                if remaining < cn:
                    pos = child
                else:
                    remaining -= cn
                    pos = nxt[child]
            else:
                for _ in range(r - 1):
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            cn += env[p - 1][0]
                    if remaining < cn:
                        break
                    remaining -= cn
                    child = nxt[child]
                pos = child
            continue

        if k == 3:  # parameter: hop to the bound argument
            b = env[sym[pos] - 1]
            pos = b[3]
            env = b[1]
            pack = b[2]
            (kind, sym, rank, nxt, nnodes, params, sym_objs,
             steps_enter, steps_target) = pack.walk_nodes
            continue

        # Nonterminal application (virtual preorder: seg0, arg1, seg1,
        # ..., argk, segk).
        sobj = sym_objs[pos]
        callee = packs.get(sobj)
        if callee is None:
            callee = kernel.pack(sobj)
        preceding = callee.node_segs[0]
        r = rank[pos]
        if r == 1:
            # The dominant shape after vertical/horizontal compression:
            # one argument, so the size probe that decides arg-descent
            # vs rule-entry is exactly the binding the entry needs.
            child = pos + 1
            cn = nnodes[child]
            pp = params[child]
            if pp:
                for p in pp:
                    cn += env[p - 1][0]
            if preceding <= remaining < preceding + cn:
                remaining -= preceding
                pos = child
                continue
            steps.append(steps_enter[pos])
            env = ((cn, env, pack, child),)
        elif r:
            callee_nodes = callee.node_segs
            descend_to = -1
            if remaining >= preceding:
                child = pos + 1
                for child_pos in range(1, r + 1):
                    cn = nnodes[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            cn += env[p - 1][0]
                    if remaining < preceding + cn:
                        remaining -= preceding
                        descend_to = child
                        break
                    preceding += cn + callee_nodes[child_pos]
                    if remaining < preceding:
                        break  # a body segment after this arg: enter
                    child = nxt[child]
            if descend_to >= 0:
                pos = descend_to
                continue
            steps.append(steps_enter[pos])
            outer_env = env
            bindings = []
            child = pos + 1
            for _ in range(r):
                cn = nnodes[child]
                pp = params[child]
                if pp:
                    for p in pp:
                        cn += outer_env[p - 1][0]
                bindings.append((cn, outer_env, pack, child))
                child = nxt[child]
            env = tuple(bindings)
        else:
            steps.append(steps_enter[pos])
            env = ()
        pack = callee
        pos = 0
        (kind, sym, rank, nxt, nnodes, params, sym_objs,
         steps_enter, steps_target) = pack.walk_nodes


def kernel_iter_element_symbols(
    index: "GrammarIndex",
    kernel: GrammarKernel,
    start: int,
    stop: int,
) -> Iterator[Symbol]:
    """Element symbols ``start..stop-1`` in document order (the windowed
    walk behind ``GrammarIndex.iter_element_symbols``): any subtree
    generating only elements before ``start`` is skipped in O(1)."""
    if start >= stop:
        return
    to_skip = start
    to_yield = stop - start
    packs = kernel._packs
    root = kernel.pack(index.grammar.start)
    # Stack items: (pack, pos, env); env entries are
    # (outer_pack, pos, outer_env, elems) -- no node counts are needed.  Consecutive items overwhelmingly share a pack (children
    # are pushed together), so the unpacked columns are cached across
    # iterations and refreshed only when the popped pack changes.
    stack = [(root, 0, ())]
    cur = None
    while stack:
        pack, pos, env = stack.pop()
        if pack is not cur:
            cur = pack
            (kind, sym, rank, nxt, _nn, nelems, params, _objs,
             sym_objs, _names, _enter, _target) = pack.walk
        k = kind[pos]
        if k == 3:
            stack.append(env[sym[pos] - 1][:3])
            continue
        if to_skip:
            elems = nelems[pos]
            pp = params[pos]
            if pp:
                for p in pp:
                    elems += env[p - 1][3]
            if elems <= to_skip:
                to_skip -= elems
                continue  # window starts after this whole subtree
        if k <= 1:
            if k == 1:
                if to_skip:
                    to_skip -= 1
                else:
                    yield sym_objs[pos]
                    to_yield -= 1
                    if not to_yield:
                        return
            r = rank[pos]
            if r == 2:
                child = pos + 1
                stack.append((pack, nxt[child], env))
                stack.append((pack, child, env))
            elif r == 1:
                stack.append((pack, pos + 1, env))
            elif r:
                child = pos + 1
                kids = []
                for _ in range(r):
                    kids.append(child)
                    child = nxt[child]
                for c in reversed(kids):
                    stack.append((pack, c, env))
        else:
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = kernel.pack(sobj)
            r = rank[pos]
            outer_env = env
            if r:
                bindings = []
                child = pos + 1
                for _ in range(r):
                    ce = nelems[child]
                    pp = params[child]
                    if pp:
                        for p in pp:
                            ce += outer_env[p - 1][3]
                    bindings.append((pack, child, outer_env, ce))
                    child = nxt[child]
                inner_env: Tuple = tuple(bindings)
            else:
                inner_env = ()
            stack.append((callee, 0, inner_env))


def kernel_stream_preorder(kernel: GrammarKernel) -> Iterator[Symbol]:
    """Flat-array twin of :func:`repro.grammar.navigation.stream_preorder`
    (whole-document terminal symbol stream; feeds ``extract_subtree``'s
    root shortcut).  Environments are light (pack, pos, env) closures --
    no counts are needed when nothing is skipped."""
    index = kernel._index
    packs = kernel._packs
    stack = [(kernel.pack(index.grammar.start), 0, ())]
    cur = None
    while stack:
        pack, pos, env = stack.pop()
        if pack is not cur:
            cur = pack
            (kind, sym, rank, nxt, _nn, _ne, _pp, _no, sym_objs,
             _names, _enter, _target) = pack.walk
        k = kind[pos]
        if k == 3:
            stack.append(env[sym[pos] - 1])
            continue
        if k <= 1:
            yield sym_objs[pos]
            r = rank[pos]
            if r == 2:
                child = pos + 1
                stack.append((pack, nxt[child], env))
                stack.append((pack, child, env))
            elif r == 1:
                stack.append((pack, pos + 1, env))
            elif r:
                child = pos + 1
                kids = []
                for _ in range(r):
                    kids.append((pack, child, env))
                    child = nxt[child]
                stack.extend(reversed(kids))
        else:
            sobj = sym_objs[pos]
            callee = packs.get(sobj)
            if callee is None:
                callee = kernel.pack(sobj)
            r = rank[pos]
            if r:
                child = pos + 1
                bindings = []
                for _ in range(r):
                    bindings.append((pack, child, env))
                    child = nxt[child]
                inner_env: Tuple = tuple(bindings)
            else:
                inner_env = ()
            stack.append((callee, 0, inner_env))


def kernel_stream_elements(
    kernel: GrammarKernel,
) -> Iterator[Tuple[int, str, Optional[int], int]]:
    """Flat-array twin of :func:`repro.grammar.navigation.stream_elements`
    (same ``(index, tag, parent, depth)`` stream, same FCNS contract)."""
    index_counter = 0
    packs = kernel._packs
    root = kernel.pack(kernel._index.grammar.start)
    # Items: (pack, pos, env, parent, depth); env entries (pack, pos, env).
    stack = [(root, 0, (), None, 0)]
    cur = None
    while stack:
        pack, pos, env, parent, depth = stack.pop()
        if pack is not cur:
            cur = pack
            (kind, sym, rank, nxt, _nn, _ne, _pp, _no, sym_objs,
             sym_names, _enter, _target) = pack.walk
        k = kind[pos]
        if k == 3:
            b = env[sym[pos] - 1]
            stack.append((b[0], b[1], b[2], parent, depth))
            continue
        if k == 0:
            continue
        if k == 1:
            if rank[pos] != 2:
                raise ValueError(
                    f"terminal {sym_objs[pos]!r} is not a "
                    "binary-encoded element (rank 2) -- stream_elements "
                    "requires an FCNS encoding"
                )
            first_child = pos + 1
            sibling = nxt[first_child]
            stack.append((pack, sibling, env, parent, depth))
            stack.append((pack, first_child, env, index_counter, depth + 1))
            yield index_counter, sym_names[pos], parent, depth
            index_counter += 1
            continue
        sobj = sym_objs[pos]
        callee = packs.get(sobj)
        if callee is None:
            callee = kernel.pack(sobj)
        r = rank[pos]
        if r:
            child = pos + 1
            bindings = []
            for _ in range(r):
                bindings.append((pack, child, env))
                child = nxt[child]
            inner_env: Tuple = tuple(bindings)
        else:
            inner_env = ()
        stack.append((callee, 0, inner_env, parent, depth))
