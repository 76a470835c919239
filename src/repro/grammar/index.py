"""A persistent structural self-index over an SLCF grammar.

:class:`GrammarIndex` caches, per rule ``A`` of rank ``k``:

* the paper's ``size(A, 0..k)`` *node* segments (Section III-A),
* the analogous *element* segments counting only non-``⊥`` terminals,
* a :class:`~repro.grammar.kernel.RulePack`: the rule body as flat
  preorder columns of generated (node, element) subtree sizes plus the
  parameter indices occurring below each node -- the one per-rule table
  every descent reads.

Together these answer the navigation queries every update needs --

* ``element_count`` / ``node_count`` of ``valG(S)``,
* ``preorder_of_element``: document-order element index -> binary preorder
  index (the addressing step of :class:`repro.api.CompressedXml`),
* ``tag_of``: the element's label without touching the stream,
* ``end_of_children_position``: the preorder index of the ``⊥`` terminating
  an element's child list (the "insert on a null pointer" target of
  Section V-C) --

by *descending the derivation* in ``O(depth · rule-width)`` per query
instead of streaming the ``O(N)`` symbols of the generated tree.  This is
the grammar-level count-table idea of Maneth & Sebastian's structural
self-indexes, specialized to the update path of this reproduction.

Invalidation contract
---------------------
The index registers itself as a grammar observer (see
:meth:`repro.grammar.slcf.Grammar.register_observer`).  Whenever a rule is
installed, removed, or mutated in place, the cache entries of that rule
*and of every rule whose tables were computed from it* (the transitive
dependents along the call DAG) are evicted; recomputation happens lazily,
bottom-up, on the next query.  An isolated ``rename``/``insert``/``delete``
therefore costs one eviction of the start rule plus an
``O(|start RHS|)``-time lazy recompute -- independent of document size.
Callers that mutate rule bodies in place without going through
``set_rule`` must call :meth:`Grammar.notify_rule_changed`; the update and
compression layers of this code base all do.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.grammar.kernel import (
    GrammarKernel,
    RulePack,
    kernel_iter_element_symbols,
    kernel_locate_element,
    kernel_resolve_preorder,
)
from repro.grammar.navigation import PathStep
from repro.grammar.slcf import Grammar, GrammarError
from repro.trees.symbols import Symbol

__all__ = ["GrammarIndex", "check_element_index"]


def check_element_index(index: int, what: str = "element index") -> int:
    """Shared validation for document-order element indices.

    Every element-addressed entry point (``tag_of``/``rename``/``delete``/
    ``select`` results, batch operations, ``tags`` windows) funnels through
    this one contract: a non-``int`` (including ``bool`` -- almost always a
    bug, and batch ops already rejected it) raises ``TypeError``; a negative
    index raises ``IndexError``.  From-the-end indices are deliberately not
    supported -- under concurrent updates they are ambiguous.  The
    out-of-range check stays with the caller, who knows the element count.
    """
    if not isinstance(index, int) or isinstance(index, bool):
        raise TypeError(f"{what} must be an int, got {index!r}")
    if index < 0:
        raise IndexError(f"{what} must be >= 0, got {index}")
    return index


def _bound_counts(pack: RulePack, pos: int, env: tuple) -> Tuple[int, int]:
    """Generated (nodes, elements) of a pack position's subtree, with its
    parameters bound by ``env`` (element-descent bindings)."""
    nodes = pack.nnodes[pos]
    elems = pack.nelems[pos]
    for param in pack.params[pos]:
        binding = env[param - 1]
        nodes += binding[3]
        elems += binding[4]
    return nodes, elems


class _SegmentsView:
    """Lazy, always-current stand-in for ``parameter_segments(grammar)``.

    Subscripting ensures the rule's segments exist, so path isolation
    can share the index's node segments instead of rebuilding the full
    segment dictionary on every update.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "GrammarIndex") -> None:
        self._index = index

    def __getitem__(self, head: Symbol) -> List[int]:
        self._index._ensure(head)
        return self._index._node_segments[head]

    def get(self, head: Symbol, default=None):
        try:
            return self[head]
        except GrammarError:
            return default

    def __contains__(self, head: Symbol) -> bool:
        return self._index._grammar.has_rule(head)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._index._grammar.rules)


class GrammarIndex:
    """Cached count tables over a grammar, kept correct across updates.

    One index should be owned per mutable grammar (e.g. by
    :class:`repro.api.CompressedXml`); it registers itself as an observer
    on construction and can be released with :meth:`detach`.
    """

    def __init__(self, grammar: Grammar, register: bool = True) -> None:
        self._grammar = grammar
        self._node_segments: Dict[Symbol, List[int]] = {}
        self._elem_segments: Dict[Symbol, List[int]] = {}
        # Reverse call edges registered at computation time: callee -> rule
        # heads whose cached segments were derived from it.
        self._dependents: Dict[Symbol, Set[Symbol]] = {}
        # Memoized ``_locate_element`` descents.  Relabels change neither
        # subtree sizes nor node identities, so a located path stays
        # valid across rename traffic (the hot case: repeated point
        # updates to the same region); any structural change clears it.
        self._locations: Dict[Tuple[int, bool], tuple] = {}
        # Eviction instrumentation: per-rule evictions through the observer
        # channel vs wholesale resets.  Dirty-rule-scoped recompression is
        # asserted against these (untouched rules must keep their tables).
        self.evicted_rules = 0
        self.wholesale_invalidations = 0
        # The per-rule packs (see :mod:`repro.grammar.kernel`), riding this
        # index's observer forwarding so packs and segments share one
        # invalidation lifetime.
        self._kernel = GrammarKernel(self)
        self._registered = register
        if register:
            grammar.register_observer(self)

    @property
    def grammar(self) -> Grammar:
        return self._grammar

    def detach(self) -> None:
        """Unregister from the grammar; the index must not be used after."""
        if self._registered:
            self._grammar.unregister_observer(self)
            self._registered = False

    # ------------------------------------------------------------------
    # invalidation (grammar observer protocol)
    # ------------------------------------------------------------------
    def rule_changed(self, head: Symbol) -> None:
        self._evict(head)

    def rule_removed(self, head: Symbol) -> None:
        self._evict(head)

    def rule_relabeled(self, head: Symbol) -> None:
        """A terminal relabel changes no size or segment -- keep them, and
        the located paths (they reference live nodes, so ``tag_of`` stays
        correct through the relabeled symbol).  The pack of the relabeled
        rule *does* go: it caches interned symbol ids and names per
        position.  Only that one rule's pack -- dependents' packs
        reference the relabeled terminal solely through this rule's body,
        which they never cache into their own columns."""
        self._kernel.evict(head)

    def _evict(self, head: Symbol) -> None:
        """Drop the cached segments and pack of ``head`` and of its
        transitive dependents.

        A rule is only ever cached after its callees (anti-SL order), so a
        cached dependent always has its reverse edge registered here --
        walking the dependent closure is sound.  Uncached rules are clean
        by definition (they recompute lazily).
        """
        self._locations.clear()
        kernel = self._kernel
        stack = [head]
        while stack:
            current = stack.pop()
            if current not in self._node_segments:
                continue
            del self._node_segments[current]
            del self._elem_segments[current]
            # A pack only exists for a rule with segments (building one
            # writes them), so the cascade reaches every pack.
            kernel.evict(current)
            self.evicted_rules += 1
            stack.extend(self._dependents.pop(current, ()))

    def invalidate_all(self) -> None:
        """Drop every cache entry (scrub's repair fallback)."""
        self._node_segments.clear()
        self._elem_segments.clear()
        self._dependents.clear()
        self._locations.clear()
        self._kernel.invalidate_all()
        self.wholesale_invalidations += 1

    def to_dict(self) -> dict:
        """Flat numeric view (the shared stats-object protocol)."""
        return {
            "evicted_rules": self.evicted_rules,
            "wholesale_invalidations": self.wholesale_invalidations,
            "cached_rules": len(self._node_segments),
        }

    # ------------------------------------------------------------------
    # pack access
    # ------------------------------------------------------------------
    def kernel_info(self) -> dict:
        """Kernel stats for status surfaces (``durable status --json``)."""
        return self._kernel.to_dict()

    @property
    def kernel(self) -> GrammarKernel:
        """The pack cache itself, for instrumentation wiring."""
        return self._kernel

    @property
    def cached_rule_count(self) -> int:
        """How many rules currently have segments."""
        return len(self._node_segments)

    def is_cached(self, head: Symbol) -> bool:
        """True when ``head``'s segments are currently materialized."""
        return head in self._node_segments

    def cached_rules(self) -> Tuple[Symbol, ...]:
        """The rules with materialized segments, for external audits
        (the storage scrub verifies exactly these against a fresh
        recomputation and evicts the ones that drifted)."""
        return tuple(self._node_segments)

    # ------------------------------------------------------------------
    # snapshot state (the serializable half of the cache)
    # ------------------------------------------------------------------
    def export_segments(self) -> Dict[Symbol, Tuple[List[int], List[int]]]:
        """Per-rule (node, element) segment lists for every rule.

        Forces the whole reachable grammar first, so a snapshot built
        from this restores counting/addressing for *all* rules.  The
        packs are deliberately not exported -- they reference live
        ``Node`` objects and rebuild lazily per rule on first descent.
        """
        self._ensure(self._grammar.start)
        for head in self._grammar.rules:
            if head not in self._node_segments:
                self._ensure(head)  # unreachable-but-live rules, if any
        return {
            head: (list(self._node_segments[head]),
                   list(self._elem_segments[head]))
            for head in self._node_segments
        }

    def import_segments(
        self, segments: Dict[Symbol, Tuple[List[int], List[int]]]
    ) -> None:
        """Adopt snapshot segment lists without recomputation.

        Rebuilds the reverse call edges from the grammar so per-rule
        observer evictions keep cascading correctly over imported
        entries.  Counting queries (``element_count``, subtree sizes)
        are answered straight from the imported lists; descents build
        their packs lazily, one rule at a time.
        """
        grammar = self._grammar
        self._node_segments.clear()
        self._elem_segments.clear()
        self._dependents.clear()
        # A fresh table generation, not an eviction event: packs build
        # lazily per rule (no wholesale-invalidation count -- snapshot
        # opens must report ``rules_packed == 0`` cleanly).
        self._kernel.reset()
        for head, (node_segs, elem_segs) in segments.items():
            if head not in grammar.rules:
                raise GrammarError(
                    f"segments for unknown rule {head!r}"
                )
            if len(node_segs) != head.rank + 1 or \
                    len(elem_segs) != head.rank + 1:
                raise GrammarError(
                    f"rule {head!r}: segment arity does not match rank "
                    f"{head.rank}"
                )
            self._node_segments[head] = list(node_segs)
            self._elem_segments[head] = list(elem_segs)
        for head in self._node_segments:
            walk = [grammar.rhs(head)]
            seen: Set[Symbol] = set()
            while walk:
                node = walk.pop()
                symbol = node.symbol
                if symbol.is_nonterminal and symbol not in seen:
                    seen.add(symbol)
                    self._dependents.setdefault(symbol, set()).add(head)
                walk.extend(node.children)

    # ------------------------------------------------------------------
    # lazy recompute (bottom-up along the call DAG)
    # ------------------------------------------------------------------
    def _ensure(self, head: Symbol) -> None:
        """Make ``head``'s segments available: imported or already packed
        segments serve as they are, anything else packs the rule (and,
        first, any callee lacking segments)."""
        if head not in self._node_segments:
            self._kernel.pack(head)

    # ------------------------------------------------------------------
    # whole-document totals
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """``|valG(S)|`` in nodes (including ``⊥``), without decompression."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._node_segments[start])

    @property
    def element_count(self) -> int:
        """Number of non-``⊥`` nodes of ``valG(S)``: the document's elements."""
        start = self._grammar.start
        self._ensure(start)
        return sum(self._elem_segments[start])

    def segments(self) -> _SegmentsView:
        """Node segments as a lazy mapping, API-compatible with
        :func:`repro.grammar.properties.parameter_segments`."""
        return _SegmentsView(self)

    # ------------------------------------------------------------------
    # element addressing
    # ------------------------------------------------------------------
    def _locate_element(
        self, element_index: int, track_axes: bool = False
    ) -> Tuple[int, RulePack, int, tuple, List[PathStep], Optional[int], int]:
        """Descend the derivation to the ``element_index``-th element.

        Returns ``(binary preorder index, pack, position of the
        generating terminal in that pack, binding environment,
        derivation path, parent element index, document depth)``:
        everything the public queries need, in one
        ``O(depth · rule-width)`` walk (:func:`kernel_locate_element`).
        The recorded :class:`PathStep` list is exactly what
        :func:`repro.grammar.navigation.resolve_preorder_path` would
        produce for the resulting preorder index, so path isolation can
        replay it without a second descent.

        With ``track_axes`` the walk visits *every* binary ancestor of the
        target: in the first-child/next-sibling encoding the target's
        document parent is the last element from which the walk takes a
        first-child (slot 1) edge -- next-sibling (slot 2) edges stay on
        the same child list -- and depth counts those edges (the root has
        depth 0).  This forgoes the descend-directly-into-an-argument
        shortcut (whose skipped rule-body path may contain exactly those
        ancestors) and always enters the rule instead: same
        ``O(depth · rule-width)`` bound, and the recorded steps then
        over-approximate the isolation path, so axis queries ignore them.
        Without ``track_axes`` the two trailing results are meaningless.

        Read the target's symbol off ``pack.node_objs[pos]`` (the live
        node), not the pack's symbol columns: a memoized location may
        outlive its pack across a relabel, which changes no size.
        """
        check_element_index(element_index)
        total = self.element_count
        if element_index >= total:
            raise IndexError(
                f"element index {element_index} out of range "
                f"({total} elements)"
            )
        key = (element_index, track_axes)
        cached = self._locations.get(key)
        if cached is not None:
            position, pack, pos, env, steps, parent, depth = cached
            return position, pack, pos, env, list(steps), parent, depth
        located = kernel_locate_element(
            self, self._kernel, element_index, track_axes
        )
        position, pack, pos, env, steps, parent, depth = located
        if len(self._locations) >= 4096:
            self._locations.clear()
        self._locations[key] = (
            position, pack, pos, env, tuple(steps), parent, depth,
        )
        return located

    def _locate_binary_element(
        self, element_index: int
    ) -> Tuple[int, RulePack, int, tuple, List[PathStep]]:
        """:meth:`_locate_element`, insisting on an FCNS element (rank 2:
        first-child slot at ``pos + 1``, next-sibling slot after it)."""
        position, pack, pos, env, steps, _parent, _depth = \
            self._locate_element(element_index)
        if pack.rank[pos] != 2:
            raise GrammarError(
                f"element {element_index} is generated by "
                f"{pack.node_objs[pos].symbol!r}; expected a "
                f"binary-encoded element of rank 2"
            )
        return position, pack, pos, env, steps

    def preorder_of_element(self, element_index: int) -> int:
        """Binary preorder index of the ``element_index``-th element."""
        return self._locate_element(element_index)[0]

    def iter_element_symbols(
        self, start: int, stop: Optional[int] = None
    ) -> Iterator[Symbol]:
        """Element symbols ``start..stop-1`` in document order.

        The walk mirrors :func:`repro.grammar.navigation.stream_preorder`
        but skips any RHS subtree generating only elements before
        ``start`` in O(1) via the cached subtree sizes, so reaching the
        window costs O(depth · rule-width) instead of streaming the
        ``start`` preceding elements -- this is the indexed range
        iterator behind :meth:`repro.api.CompressedXml.tags`.
        """
        # From-the-end indices are ambiguous under concurrent updates;
        # reject negative bounds uniformly instead of silently yielding an
        # empty window for a negative ``stop`` (slicing-like callers
        # would misread that as "window past the end").
        check_element_index(start, "element window start")
        if stop is not None:
            check_element_index(stop, "element window stop")
        total = self.element_count
        if stop is None or stop > total:
            stop = total
        return kernel_iter_element_symbols(self, self._kernel, start, stop)

    def resolve_element(
        self, element_index: int
    ) -> Tuple[int, List[PathStep]]:
        """One-descent combo for the update path: the element's binary
        preorder index *and* its derivation path, ready for
        :func:`repro.updates.path_isolation.isolate` to replay."""
        located = self._locate_element(element_index)
        return located[0], located[4]

    def resolve_preorder(self, position: int) -> List[PathStep]:
        """Derivation path to the node at binary preorder ``position``.

        Produces exactly the steps
        :func:`repro.grammar.navigation.resolve_preorder_path` would --
        but descends on the packed subtree sizes, so each step costs
        O(rule width) instead of the O(generated subtree) node walk
        ``generated_size_of_subtree_with_env`` pays per child probe.
        This is the resolver behind append targets (child-list
        terminators are *nodes*, not elements, so the element descent
        cannot address them): without it, every append to a long child
        list re-walks the list's whole compressed representation.
        """
        check_element_index(position, "preorder position")
        total = self.node_count
        if position >= total:
            raise IndexError(
                f"preorder index {position} out of range for a tree of "
                f"{total} nodes"
            )
        return kernel_resolve_preorder(self, self._kernel, position)

    def tag_of(self, element_index: int) -> str:
        """Label of the ``element_index``-th element (document order)."""
        located = self._locate_element(element_index)
        return located[1].node_objs[located[2]].symbol.name

    def resolve_element_with_extent(
        self, element_index: int
    ) -> Tuple[int, List[PathStep], int, int]:
        """Everything batch planning needs about an element, in one walk.

        Returns ``(binary preorder index, derivation path, unranked
        subtree extent in elements, child-list terminator's binary
        preorder index)`` -- the combination of :meth:`resolve_element`,
        :meth:`element_subtree_extent`, and
        :meth:`end_of_children_position` at the cost of a single
        ``O(depth · rule-width)`` descent.
        """
        position, pack, pos, env, steps = \
            self._locate_binary_element(element_index)
        first_nodes, first_elems = _bound_counts(pack, pos + 1, env)
        return position, steps, 1 + first_elems, position + first_nodes

    def element_subtree_extent(self, element_index: int) -> int:
        """Elements of the *unranked* subtree rooted at an element.

        The element itself plus all of its document descendants: in the
        first-child/next-sibling encoding these are exactly the element
        and the non-``⊥`` terminals of its first-child subtree, so the
        answer is one subtree-size lookup (``O(depth · rule-width)``).
        ``delete(element_index)`` removes exactly this many elements --
        the quantity batch planning needs to shift later targets.
        """
        _position, pack, pos, env, _steps = \
            self._locate_binary_element(element_index)
        return 1 + _bound_counts(pack, pos + 1, env)[1]

    def end_of_children_position(self, element_index: int) -> int:
        """Preorder index of the ``⊥`` terminating an element's child list.

        In the first-child/next-sibling encoding the terminator is the
        preorder-last node of the element's first-child subtree, so it sits
        exactly ``size(subtree(u.1))`` positions after the element ``u``
        itself -- one subtree-size lookup instead of a stream walk.
        """
        position, pack, pos, env, _steps = \
            self._locate_binary_element(element_index)
        return position + _bound_counts(pack, pos + 1, env)[0]

    # ------------------------------------------------------------------
    # document-tree navigation (axes over element indices)
    # ------------------------------------------------------------------
    def _child_slot_elements(self, element_index: int) -> Tuple[int, int]:
        """Elements generated below the element's two binary slots:
        ``(descendants, following siblings + their descendants)``."""
        _position, pack, pos, env, _steps = \
            self._locate_binary_element(element_index)
        below = _bound_counts(pack, pos + 1, env)[1]
        after = _bound_counts(pack, pack.nxt[pos + 1], env)[1]
        return below, after

    def parent_of(self, element_index: int) -> Optional[int]:
        """Element index of the document parent (``None`` for the root).

        One ``O(depth · rule-width)`` descent: the parent is the last
        element from which the descent took a first-child edge.
        """
        return self._locate_element(element_index, track_axes=True)[5]

    def depth_of(self, element_index: int) -> int:
        """Document depth of an element (the root has depth 0)."""
        return self._locate_element(element_index, track_axes=True)[6]

    def first_child(self, element_index: int) -> Optional[int]:
        """Element index of the first child, or ``None`` for a leaf.

        In document order the first child immediately follows its parent,
        so the answer is ``element_index + 1`` whenever the element's
        first-child slot generates any element at all.
        """
        below, _after = self._child_slot_elements(element_index)
        return element_index + 1 if below else None

    def next_sibling(self, element_index: int) -> Optional[int]:
        """Element index of the next sibling, or ``None`` for a last child.

        The next sibling follows the element's whole subtree in document
        order: ``element_index + 1 + #descendants``, provided the
        next-sibling slot generates any element.
        """
        below, after = self._child_slot_elements(element_index)
        return element_index + 1 + below if after else None

    def children_with_tags(self, element_index: int) -> Iterator[Tuple[int, str]]:
        """``(element index, tag)`` of the direct children, document order.

        One ``O(depth · rule-width)`` descent per child: each locate
        yields the child's terminal (its tag for free) *and* the subtree
        sizes that address the next sibling -- the single-pass primitive
        child-axis query steps ride, instead of paying separate
        ``next_sibling`` + ``tag_of`` descents per sibling.
        """
        child = self.first_child(element_index)
        while child is not None:
            _position, pack, pos, env, _steps = \
                self._locate_binary_element(child)
            yield child, pack.node_objs[pos].symbol.name
            if not _bound_counts(pack, pack.nxt[pos + 1], env)[1]:
                return
            child = child + 1 + _bound_counts(pack, pos + 1, env)[1]

    def children(self, element_index: int) -> Iterator[int]:
        """Element indices of the direct children, in document order.

        Each step is one derivation descent, so enumerating ``k``
        children costs ``O(k · depth · rule-width)`` -- independent of
        the subtree sizes skipped between siblings.
        """
        for child, _tag in self.children_with_tags(element_index):
            yield child

    # ------------------------------------------------------------------
    # raw table access (the query subsystem's substrate)
    # ------------------------------------------------------------------
    def rule_table(self, head: Symbol) -> RulePack:
        """The rule's :class:`~repro.grammar.kernel.RulePack`, packing it
        (and any callee lacking segments) on demand.

        This is the read-only substrate :mod:`repro.query.engine` walks:
        the pack stays valid exactly as long as the rule is untouched --
        the observer channel evicts it on any mutation, so callers must
        re-fetch per query and never cache across updates.
        """
        return self._kernel.pack(head)

    def element_segments(self, head: Symbol) -> List[int]:
        """The rule's element-count segments ``[e0, ..., ek]``: elements
        generated by the body before the first parameter, between
        consecutive parameters (preorder), and after the last.

        The query engine uses them to hop over a rule body whose label
        census is zero without walking it: the virtual preorder is
        ``seg0, arg1, seg1, ..., argk, segk``, so the element cursor can
        advance by whole body segments while only the argument subtrees
        are visited.  Same caching/invalidation as every other table.
        """
        self._ensure(head)
        return self._elem_segments[head]
