"""Shared test helpers: synthetic trees, brute-force oracles, and a
builder for valid regtest blocks."""

from __future__ import annotations

import random

import pytest

from btcstate.blocktree import BlockTree, DepthKind
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    bits_to_target,
    merkle_root,
    p2pkh_script,
    script_address,
    sha256d,
    work_from_bits,
)
from btcstate.netsim import (
    COINBASE_VALUE,
    REGTEST_GENESIS_TIME,
    make_coinbase,
    mine_header,
    regtest_genesis_block,
)
from btcstate.validation import REGTEST_BITS, median_time_past

# A "current time" safely after any block a test builds.
NOW = REGTEST_GENESIS_TIME + 10 * 365 * 24 * 3600

EASY_BITS = REGTEST_BITS
HARDER_BITS = 0x207FFF00  # slightly smaller target than regtest, still easy to mine


def header_with_bad_pow(parent: BlockHeader) -> BlockHeader:
    """A child of `parent` that meets every header rule but proof of work:
    its hash exceeds the regtest target its bits name."""
    target = bits_to_target(EASY_BITS)
    merkle = Hash256(sha256d(b"bad-pow"))
    nonce = 0
    while True:
        header = BlockHeader(2, parent.hash(), merkle, parent.time + 1, EASY_BITS, nonce)
        if header.hash().as_int() > target:
            return header
        nonce += 1


def name_hash(name: str) -> Hash256:
    return Hash256(sha256d(b"node:" + name.encode()))


def make_tree(
    edges: list[tuple[str, str]],
    bits: dict[str, int] | None = None,
) -> tuple[BlockTree, dict[str, Hash256]]:
    """Raw tree from (child, parent) name pairs; the root is named 'g'."""
    bits = bits or {}
    ids = {"g": name_hash("g")}
    tree = BlockTree((ids["g"], bits.get("g", EASY_BITS)))
    for child, parent in edges:
        ids[child] = name_hash(child)
        tree.add_raw(ids[child], ids[parent], bits.get(child, EASY_BITS))
    return tree, ids


# -- independent recursive oracles (no memoization, no incremental state) ----


def brute_depth(tree: BlockTree, node: Hash256, kind: DepthKind) -> int:
    cost = 1 if kind is DepthKind.CONFIRMATION else work_from_bits(tree.bits(node))
    children = tree.children(node)
    if not children:
        return cost
    return cost + max(brute_depth(tree, c, kind) for c in children)


def brute_stability(tree: BlockTree, node: Hash256, kind: DepthKind) -> int:
    d = brute_depth(tree, node, kind)
    score = d
    for rival in tree.at_height(tree.height(node)):
        if rival != node:
            score = min(score, d - brute_depth(tree, rival, kind))
    return score


def brute_best_path(tree: BlockTree) -> list[Hash256]:
    """Exhaustive enumeration of root-to-leaf paths by total work, ties
    resolved toward the lexicographically smallest hash sequence."""
    paths: list[tuple[int, list[Hash256]]] = []

    def walk(node: Hash256, acc: list[Hash256], work: int) -> None:
        work += work_from_bits(tree.bits(node))
        acc = acc + [node]
        children = tree.children(node)
        if not children:
            paths.append((work, acc))
            return
        for child in children:
            walk(child, acc, work)

    walk(tree.root, [], 0)
    best_work = max(w for w, _ in paths)
    candidates = [p for w, p in paths if w == best_work]
    return min(candidates, key=lambda p: [bytes(h) for h in p])


def random_tree(
    rng: random.Random,
    max_nodes: int = 200,
    max_fanout: int = 4,
    bits_choices: tuple[int, ...] = (EASY_BITS,),
) -> BlockTree:
    size = rng.randrange(1, max_nodes + 1)
    tree = BlockTree((name_hash("r0"), rng.choice(bits_choices)))
    nodes = [tree.root]
    # The nodes with fewer than max_fanout children, in insertion order.
    eligible = [tree.root]
    for i in range(1, size):
        # Bias toward recent nodes so trees look chain-like with occasional forks.
        if rng.random() < 0.65:
            parent = eligible[-1]
        else:
            parent = eligible[rng.randrange(len(eligible))]
        h = name_hash(f"r{i}")
        tree.add_raw(h, parent, rng.choice(bits_choices))
        nodes.append(h)
        eligible.append(h)
        if len(tree.children(parent)) == max_fanout:
            eligible.remove(parent)
        if rng.random() < 0.3:
            # Interleave queries so the memo cache is warm before more inserts.
            probe = nodes[rng.randrange(len(nodes))]
            tree.depth(probe, DepthKind.CONFIRMATION)
            tree.depth(probe, DepthKind.WORK)
    return tree


def overlay_oracle(canister, address: str, min_conf: int | None = None) -> list[tuple]:
    """UTXOs of an address as (outpoint, value, height) in page order, by a
    fresh scan: the selected chain's bodied blocks above the anchor (cut at
    the first with fewer than `min_conf` confirmations) are re-hashed and
    re-addressed in full and overlaid on a full scan of the materialized set.
    """
    tree = canister.tree
    chain = tree.current_chain()
    applied = []
    for h in chain[chain.index(canister.anchor) + 1 :]:
        if not tree.has_block(h) or (min_conf is not None and tree.confirmations(h) < min_conf):
            break
        applied.append(h)
    spent: set[OutPoint] = set()
    created: dict[OutPoint, tuple[TxOut, int]] = {}
    for h in applied:
        for tx in tree.block(h).transactions:
            if not tx.is_coinbase():
                spent.update(txin.outpoint for txin in tx.inputs)
            txid = tx.txid()
            for vout, txout in enumerate(tx.outputs):
                if script_address(txout.script_pubkey, canister.network) == address:
                    created[OutPoint(txid, vout)] = (txout, tree.height(h))
    scripts = canister.utxos.scripts
    held = [
        (op, row.value, row.height)
        for op, (row, held_address) in canister.utxos.by_outpoint.items()
        if script_address(scripts[held_address], canister.network) == address
    ]
    entries = [e for e in held if e[0] not in spent]
    entries.extend((op, txout.value, height) for op, (txout, height) in created.items() if op not in spent)
    entries.sort(key=lambda e: (-e[2], bytes(e[0].txid), e[0].vout))
    return entries


# -- builder for fully valid regtest chains -----------------------------------


class ChainBuilder:
    """Builds valid regtest blocks off-line for feeding into endpoints.

    Tracks headers in its own tree (for timestamp medians) and hands out
    coinbase outputs so tests can build structurally valid spends.
    """

    def __init__(self):
        self.genesis = regtest_genesis_block()
        self.tree = BlockTree(self.genesis.header)
        self.tip = self.genesis.header.hash()
        self.blocks: dict[Hash256, Block] = {self.tip: self.genesis}
        self._counter = 0

    def extend(
        self,
        parent: Hash256 | None = None,
        extra_txs: tuple[Transaction, ...] = (),
        miner: bytes = b"m0",
        time: int | None = None,
    ) -> Block:
        parent = parent if parent is not None else self.tip
        height = self.tree.height(parent) + 1
        self._counter += 1
        tag = miner + self._counter.to_bytes(4, "big")
        coinbase = make_coinbase(height, tag, p2pkh_script(sha256d(tag)[:20]))
        txs = (coinbase,) + tuple(extra_txs)
        if time is None:
            time = median_time_past(self.tree, parent) + 1
        header = mine_header(parent, merkle_root([t.txid() for t in txs]), time, REGTEST_BITS)
        block = Block(header, txs)
        h = self.tree.add_header(header)
        self.blocks[h] = block
        if h == self.tree.tip:
            self.tip = h
        return block

    def build(self, count: int, parent: Hash256 | None = None) -> list[Block]:
        out = []
        for _ in range(count):
            block = self.extend(parent=parent)
            out.append(block)
            parent = block.header.hash()
        return out

    def coinbase_outpoint(self, block: Block) -> tuple[OutPoint, int]:
        return OutPoint(block.transactions[0].txid(), 0), COINBASE_VALUE

    def tree_with_bodies(self) -> BlockTree:
        for h, block in self.blocks.items():
            self.tree.set_block(h, block)
        return self.tree

    def spend(
        self, source: tuple[OutPoint, int], outputs: list[tuple[int, bytes]]
    ) -> Transaction:
        outpoint, value = source
        outs = [TxOut(v, script) for v, script in outputs]
        spent = sum(v for v, _ in outputs)
        if spent < value:
            outs.append(TxOut(value - spent, p2pkh_script(sha256d(b"change")[:20])))
        return Transaction(1, (TxIn(outpoint, b"sig"),), tuple(outs), 0)


@pytest.fixture
def builder() -> ChainBuilder:
    return ChainBuilder()


@pytest.fixture
def genesis_block():
    return regtest_genesis_block()
