"""Rooted trees of block headers with depth and stability queries.

Depth of a node is the maximum cumulative cost over paths to any tip in
its subtree, where cost is 1 per block (confirmation counting) or the work
its difficulty target implies (fork choice). The stability score of a
block is its depth clipped by its lead over every other block at the same
height; a block on a losing fork scores negative. These are the quantities
that drive confirmation reporting and anchor advancement.

Cumulative chain work from the root is fixed on each node when it is
inserted (Bitcoin Core's nChainWork). The selected chain, root to tip, is
kept as a list indexed by height and advanced as nodes come and go, so a
path along it is a slice. A block on that chain has the tip in its subtree,
and the tip holds the most chain work in the tree, so its work depth is
the tip's chain work minus its own, plus its own work: one subtraction.
Every other depth is memoized per node and invalidated along the ancestor
path on insertion, so repeated queries after incremental growth stay cheap
and exactly match a from-scratch traversal.

A tree that serves update requests walks the anchor's subtree minus the
blocks the requester holds (`bfs` with a skip set). For that it keeps, from
its first such walk on, the set of its nodes above a height mark that
follows the walks' start heights; the blocks the requester lacks are that
set minus the skip set, one set difference, so a round costs what the
requester lacks rather than what it holds. The hashes of the bodied nodes
are kept as a frozenset, rebuilt only after the bodies change.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from itertools import filterfalse
from typing import AbstractSet, Iterable, Iterator, Optional

from btcstate.chain import Block, BlockHeader, CompactBitsError, Hash256, work_from_bits


class UnknownBlockError(KeyError):
    """Raised when a queried hash is not in the tree."""


class TreeStructureError(ValueError):
    """Raised for malformed tree dumps or structurally invalid insertions."""


class DepthKind(Enum):
    CONFIRMATION = "confirmation"  # every block costs 1
    WORK = "work"  # every block costs the work its target implies


@dataclass(frozen=True)
class WorkRatio:
    """An exact work-denominated score: numerator work units over the work
    of a reference block. Compared by cross-multiplication, never floats."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("reference work must be positive")

    def cmp(self, threshold: int) -> int:
        lhs = self.num
        rhs = threshold * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __ge__(self, threshold: int) -> bool:
        return self.cmp(threshold) >= 0

    def __lt__(self, threshold: int) -> bool:
        return self.cmp(threshold) < 0

    def __float__(self) -> float:
        return self.num / self.den


class _Node:
    __slots__ = (
        "hash", "prev", "height", "bits", "header", "block", "children", "work", "chain_work"
    )

    def __init__(
        self,
        hash_: Hash256,
        parent: Optional["_Node"],
        bits: int,
        header: Optional[BlockHeader],
    ):
        self.hash = hash_
        self.prev = parent.hash if parent is not None else None
        self.height = parent.height + 1 if parent is not None else 0
        self.bits = bits
        self.header = header
        self.block: Optional[Block] = None
        self.children: list[Hash256] = []  # ascending by hash
        self.work = work_from_bits(bits)
        self.chain_work = self.work + (parent.chain_work if parent is not None else 0)


class BlockTree:
    """Single-rooted header tree; single-writer, many concurrent readers."""

    def __init__(self, genesis: BlockHeader | tuple[Hash256, int]):
        """Root the tree at `genesis`: a header, or a bare (hash, bits) pair
        for trees keyed by externally supplied hashes (dump files, synthetic
        tests), whose proof of work is not rechecked."""
        if isinstance(genesis, BlockHeader):
            root, bits, header = genesis.hash(), genesis.bits, genesis
        else:
            (root, bits), header = genesis, None
        self._nodes: dict[Hash256, _Node] = {}
        self._by_height: dict[int, list[Hash256]] = {}
        self._depth_c: dict[Hash256, int] = {}
        self._depth_w: dict[Hash256, int] = {}
        # The hashes of the nodes that hold a body, and a frozen copy of
        # them kept until they change.
        self._bodied: set[Hash256] = set()
        self._bodied_frozen: Optional[frozenset[Hash256]] = None
        # The nodes above the height `_mark`, kept from the first walk
        # with a skip set on (`_above_mark`); None until then.
        self._above: Optional[set[Hash256]] = None
        self._mark = 0
        # Every height from 0 up to this one holds a node: each node's
        # parent sits one height below it.
        self._max_height = 0
        self.root = root
        self._put(_Node(root, None, bits, header))
        # The end of the selected chain: the most chain work, ties to the
        # smaller child hash where the two paths split.
        self.tip = root
        # The selected chain from the root to the tip, indexed by height.
        self._chain: list[Hash256] = [root]

    # -- structure ----------------------------------------------------------

    def _put(self, node: _Node) -> None:
        self._nodes[node.hash] = node
        self._by_height.setdefault(node.height, []).append(node.hash)
        if node.height > self._max_height:
            self._max_height = node.height
        if self._above is not None and node.height > self._mark:
            self._above.add(node.hash)

    def __contains__(self, hash_: Hash256) -> bool:
        return hash_ in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Hash256]:
        return iter(self._nodes)

    def _node(self, hash_: Hash256) -> _Node:
        try:
            return self._nodes[hash_]
        except KeyError:
            raise UnknownBlockError(hash_.rev_hex()) from None

    def add_header(self, header: BlockHeader) -> Hash256:
        """Insert a header under its parent. Re-inserting is a no-op."""
        return self._insert(header.hash(), header.prev, header.bits, header)

    def add_raw(self, hash_: Hash256, prev: Hash256, bits: int) -> Hash256:
        """Insert a node by explicit hash (dump loading, synthetic trees)."""
        return self._insert(hash_, prev, bits, None)

    def _insert(
        self, hash_: Hash256, prev: Hash256, bits: int, header: Optional[BlockHeader]
    ) -> Hash256:
        if hash_ in self._nodes:
            return hash_
        parent = self._node(prev)
        node = _Node(hash_, parent, bits, header)
        self._put(node)
        insort(parent.children, hash_)
        self._invalidate_up(prev)
        if self._beats(node, self._nodes[self.tip]):
            self._set_tip(node)
        return hash_

    def remove_subtree(self, hash_: Hash256) -> int:
        """Remove a node and all its descendants; returns the count removed."""
        if hash_ == self.root:
            raise TreeStructureError("cannot remove the root")
        node = self._node(hash_)
        parent = self._node(node.prev)
        parent.children.remove(hash_)
        removed = 0
        above = self._above
        stack = [hash_]
        while stack:
            h = stack.pop()
            n = self._nodes.pop(h)
            self._by_height[n.height].remove(h)
            if not self._by_height[n.height]:
                del self._by_height[n.height]
            self._depth_c.pop(h, None)
            self._depth_w.pop(h, None)
            if n.block is not None:
                self._bodied.discard(h)
                self._bodied_frozen = None
            if above is not None:
                above.discard(h)
            stack.extend(n.children)
            removed += 1
        while self._max_height not in self._by_height:
            self._max_height -= 1
        self._invalidate_up(node.prev)
        if self.tip not in self._nodes:
            best = self._nodes[self.root]
            for n in self._nodes.values():
                if self._beats(n, best):
                    best = n
            self._set_tip(best)
        return removed

    def _on_chain(self, node: _Node) -> bool:
        chain = self._chain
        return node.height < len(chain) and chain[node.height] == node.hash

    def _set_tip(self, node: _Node) -> None:
        """Make `node` the tip: walk back from it to the first block on the
        selected chain, cut the chain there and append the walked blocks."""
        self.tip = node.hash
        fresh = []
        while not self._on_chain(node):
            fresh.append(node.hash)
            node = self._nodes[node.prev]  # the root is always on the chain
        del self._chain[node.height + 1 :]
        self._chain.extend(reversed(fresh))

    def header(self, hash_: Hash256) -> Optional[BlockHeader]:
        return self._node(hash_).header

    def height(self, hash_: Hash256) -> int:
        return self._node(hash_).height

    def parent(self, hash_: Hash256) -> Optional[Hash256]:
        return self._node(hash_).prev

    def children(self, hash_: Hash256) -> list[Hash256]:
        return list(self._node(hash_).children)

    def bits(self, hash_: Hash256) -> int:
        return self._node(hash_).bits

    def node_work(self, hash_: Hash256) -> int:
        return self._node(hash_).work

    def chain_work(self, hash_: Hash256) -> int:
        """Total work of the blocks from the root through this one."""
        return self._node(hash_).chain_work

    def set_block(self, hash_: Hash256, block: Block) -> None:
        node = self._node(hash_)
        if node.block is None:
            self._bodied.add(hash_)
            self._bodied_frozen = None
        node.block = block

    def drop_block(self, hash_: Hash256) -> None:
        node = self._node(hash_)
        if node.block is not None:
            self._bodied.discard(hash_)
            self._bodied_frozen = None
        node.block = None

    def block(self, hash_: Hash256) -> Optional[Block]:
        return self._node(hash_).block

    def has_block(self, hash_: Hash256) -> bool:
        return self._node(hash_).block is not None

    def bodied(self) -> frozenset[Hash256]:
        """The hashes of the nodes that hold a body; the same frozenset
        until a body is set, dropped or removed."""
        if self._bodied_frozen is None:
            self._bodied_frozen = frozenset(self._bodied)
        return self._bodied_frozen

    def bodied_matches_scan(self) -> bool:
        """Whether the kept bodied set and its frozen copy are both the
        nodes that hold a body: an invariant check, one pass over the tree."""
        scan = {h for h, node in self._nodes.items() if node.block is not None}
        return self._bodied == scan and self.bodied() == scan

    def ancestor_headers(self, hash_: Hash256, count: int) -> list[Optional[BlockHeader]]:
        """The headers of up to `count` blocks ending at `hash_`, newest
        first, stopping early at the root."""
        node = self._node(hash_)
        headers = [node.header]
        while len(headers) < count and node.prev is not None:
            node = self._nodes[node.prev]
            headers.append(node.header)
        return headers

    def hashes(self) -> Iterator[Hash256]:
        return iter(self._nodes)

    def at_height(self, height: int) -> list[Hash256]:
        return list(self._by_height.get(height, ()))

    def max_height(self) -> int:
        return self._max_height

    def heights(self) -> Iterable[int]:
        return self._by_height.keys()

    def bfs(
        self, start: Optional[Hash256] = None, skip: AbstractSet[Hash256] = frozenset()
    ) -> Iterator[Hash256]:
        """The subtree of `start` (the root by default), breadth-first:
        parents before children, siblings ascending by internal-byte hash,
        so each level is in path order (`_path_before`).

        The nodes in `skip` are left out and their subtrees are not walked
        through: an unskipped child of a skipped node inside the subtree
        joins the walk as a root at its own level, in path order against
        the nodes already there. Those roots are found among the kept
        nodes above `start`'s height minus `skip`, one set difference that
        never iterates `skip` in Python; the walk then visits only the
        nodes it yields.
        """
        top = self._node(self.root if start is None else start)
        nodes, skipped = self._nodes, skip.__contains__
        by_path = cmp_to_key(lambda a, b: -1 if self._path_before(nodes[a], nodes[b]) else 1)
        joins: dict[int, list[Hash256]] = {}
        if skip:
            for h in self._above_mark(top.height).difference(skip):
                node = nodes[h]
                parent = nodes[node.prev]
                if (
                    parent.height > top.height
                    and skipped(parent.hash)
                    and self._descends(parent, top)
                ):
                    joins.setdefault(node.height, []).append(h)
        if top.hash not in skip:
            yield top.hash
        level = list(filterfalse(skipped, top.children))
        height = top.height + 1
        while level or joins:
            if not level:
                height = min(joins)
            for root in joins.pop(height, ()):
                insort(level, root, key=by_path)
            below: list[Hash256] = []
            for h in level:
                yield h
                below.extend(filterfalse(skipped, nodes[h].children))
            level = below
            height += 1

    def _above_mark(self, height: int) -> set[Hash256]:
        """The kept set of the nodes above `height`, its mark moved there
        from the last one: a cost in the nodes between the two heights.
        The first call starts it with the mark at the top."""
        above = self._above
        if above is None:
            above = self._above = set()
            self._mark = self._max_height
        by_height, mark = self._by_height, self._mark
        # At most one of the two loops runs: lowering the mark adds the
        # heights it passes, raising it removes them.
        for h in range(height + 1, mark + 1):
            above.update(by_height.get(h, ()))
        for h in range(mark + 1, height + 1):
            above.difference_update(by_height.get(h, ()))
        self._mark = height
        return above

    def _descends(self, node: _Node, top: _Node) -> bool:
        """Whether `node`, above `top`'s height, lies in `top`'s subtree. A
        node on the selected chain does when `top` is on it too; any other
        walks up to the chain or to `top`'s height."""
        while not self._on_chain(node):
            if node.height == top.height:
                return node is top
            node = self._nodes[node.prev]
        return self._on_chain(top)

    # -- depth and stability --------------------------------------------------

    def _invalidate_up(self, hash_: Optional[Hash256]) -> None:
        # `depth` caches a node only after all its children, so a node held
        # in neither cache has no cached ancestor either: stop there.
        while hash_ is not None and (hash_ in self._depth_c or hash_ in self._depth_w):
            self._depth_c.pop(hash_, None)
            self._depth_w.pop(hash_, None)
            hash_ = self._nodes[hash_].prev

    def depth(self, hash_: Hash256, kind: DepthKind) -> int:
        """Maximum cumulative cost from this block to any tip below it."""
        cache = self._depth_c if kind is DepthKind.CONFIRMATION else self._depth_w
        if hash_ in cache:
            return cache[hash_]
        node = self._node(hash_)
        if kind is DepthKind.WORK and self._on_chain(node):
            # The tip is in this block's subtree and no leaf has more chain work.
            return self._nodes[self.tip].chain_work - node.chain_work + node.work
        # Iterative post-order: children before parents, memoizing as we go.
        stack: list[tuple[Hash256, bool]] = [(hash_, False)]
        while stack:
            h, expanded = stack.pop()
            if h in cache:
                continue
            node = self._nodes[h]
            if expanded:
                cost = 1 if kind is DepthKind.CONFIRMATION else node.work
                best = max((cache[c] for c in node.children), default=0)
                cache[h] = cost + best
            else:
                stack.append((h, True))
                stack.extend((c, False) for c in node.children if c not in cache)
        return cache[hash_]

    def stability(
        self,
        hash_: Hash256,
        kind: DepthKind,
        reference: Optional[Hash256] = None,
    ) -> int | WorkRatio:
        """Depth clipped by the lead over every same-height rival.

        Confirmation kind returns a signed block count. Work kind returns
        an exact ratio against the work of `reference` (the root when not
        given), matching how work-based thresholds are specified.
        """
        node = self._node(hash_)
        d = self.depth(hash_, kind)
        score = d
        for rival in self._by_height.get(node.height, ()):
            if rival != hash_:
                score = min(score, d - self.depth(rival, kind))
        if kind is DepthKind.CONFIRMATION:
            return score
        ref = reference if reference is not None else self.root
        return WorkRatio(score, self._node(ref).work)

    def is_delta_stable(
        self,
        hash_: Hash256,
        delta: int,
        kind: DepthKind,
        reference: Optional[Hash256] = None,
    ) -> bool:
        """Whether the block's stability score reaches `delta`: its depth
        and its lead over every same-height rival both do."""
        if delta < 0:
            raise ValueError("delta must be non-negative")
        return self.stability(hash_, kind, reference) >= delta

    def confirmations(self, hash_: Hash256) -> int:
        """Confirmation count of a block: its confirmation-based stability."""
        score = self.stability(hash_, DepthKind.CONFIRMATION)
        assert isinstance(score, int)
        return score

    def _beats(self, a: _Node, b: _Node) -> bool:
        """Whether `a` ends a better chain than `b`: more chain work, or as
        much and the smaller child hash where the two paths split (the
        order `current_chain` picks in)."""
        if a.chain_work != b.chain_work:
            return a.chain_work > b.chain_work
        while a.height > b.height:
            a = self._nodes[a.prev]
        while b.height > a.height:
            b = self._nodes[b.prev]
        return a is not b and self._path_before(a, b)

    def _path_before(self, a: _Node, b: _Node) -> bool:
        """Whether `a` comes before `b`, another node at its height, in path
        order: the smaller child hash where their paths from the root split."""
        while a.prev != b.prev:
            a, b = self._nodes[a.prev], self._nodes[b.prev]
        return a.hash < b.hash

    def path_to(self, hash_: Hash256, since: Optional[Hash256] = None) -> Optional[list[Hash256]]:
        """The blocks from `since` (the root by default) to `hash_`, both
        included, in chain order; None when `since` is not `hash_` or one
        of its ancestors. A block on the selected chain is answered with a
        slice of it; any other walks only the blocks between the two."""
        node = self._node(hash_)
        stop = self._node(self.root if since is None else since)
        if self._on_chain(node):
            if stop.height > node.height or not self._on_chain(stop):
                return None
            return self._chain[stop.height : node.height + 1]
        path = []
        while node.height > stop.height:
            path.append(node.hash)
            node = self._nodes[node.prev]
        if node is not stop:
            return None
        path.append(node.hash)
        path.reverse()
        return path

    def selected_at(self, height: int) -> Optional[Hash256]:
        """The selected chain's block at `height`; None above the tip."""
        chain = self._chain
        return chain[height] if 0 <= height < len(chain) else None

    def current_chain(self) -> list[Hash256]:
        """Root-to-tip path maximizing cumulative work depth.

        Ties at any step break toward the child with the smallest header
        hash, keeping the selection identical across replicas.
        """
        return self._chain.copy()

    # -- dump / load -----------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """One node per line, in `bfs` order: the writer that round-trips
        with `from_dump`."""
        lines = ["blocktree 1"]
        for h in self.bfs():
            node = self._nodes[h]
            prev = node.prev.rev_hex() if node.prev is not None else "-"
            has_block = 1 if node.block is not None else 0
            lines.append(
                f"node {h.rev_hex()} {prev} {node.height} {node.bits:08x} {has_block}"
            )
        return lines

    @classmethod
    def from_dump(cls, lines: Iterable[str]) -> "BlockTree":
        tree: Optional[BlockTree] = None
        count = 0
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if count == 0:
                if line != "blocktree 1":
                    raise TreeStructureError(f"line {lineno}: expected 'blocktree 1' magic")
                count += 1
                continue
            fields = line.split()
            if len(fields) != 6 or fields[0] != "node":
                raise TreeStructureError(f"line {lineno}: malformed node line")
            _, hash_hex, prev_hex, height_s, bits_hex, has_block = fields
            if has_block not in ("0", "1"):
                raise TreeStructureError(f"line {lineno}: has_block must be 0 or 1")
            try:
                h = Hash256.from_rev_hex(hash_hex)
                prev = None if prev_hex == "-" else Hash256.from_rev_hex(prev_hex)
                bits = int(bits_hex, 16)
                height = int(height_s)
            except ValueError as exc:
                raise TreeStructureError(f"line {lineno}: {exc}") from None
            if prev is None:
                if tree is not None:
                    raise TreeStructureError(f"line {lineno}: second root")
                if height != 0:
                    raise TreeStructureError(f"line {lineno}: root height must be 0")
            elif tree is None:
                raise TreeStructureError(f"line {lineno}: node before root")
            elif prev not in tree:
                raise TreeStructureError(f"line {lineno}: orphaned node (unknown parent)")
            elif h in tree:
                raise TreeStructureError(f"line {lineno}: node listed twice")
            try:
                if prev is None:
                    tree = cls((h, bits))
                else:
                    tree.add_raw(h, prev, bits)
            except CompactBitsError as exc:
                raise TreeStructureError(f"line {lineno}: bad bits {bits_hex}: {exc}") from None
            if tree.height(h) != height:
                raise TreeStructureError(f"line {lineno}: stated height disagrees with parent")
            count += 1
        if tree is None:
            raise TreeStructureError("empty tree dump")
        return tree
