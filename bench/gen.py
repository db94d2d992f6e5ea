"""Seeded input generator and answer ledger for the query workloads.

The generator builds a regtest block tree from a seed: a main chain, a few
losing rival branches, and (for the churn stream) rival branches that
overtake the tip. Every output it creates is paid to a named party, so the
generator can answer every query from its own books: the ledger replays
the selected chain per party, never parsing a script or asking the program.
"""

from __future__ import annotations

import random
from typing import Optional

from btcstate.chain import (
    Block,
    Hash256,
    NetworkKind,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    merkle_root,
    p2pkh_script,
    script_address,
    sha256d,
)
from btcstate.netsim import (
    REGTEST_GENESIS_TIME,
    make_coinbase,
    mine_header,
    regtest_genesis_block,
)
from btcstate.validation import REGTEST_BITS

NETWORK = NetworkKind.REGTEST
DELTA = 144

BASE_BLOCKS = 30  # main-chain blocks that end up folded below the anchor
TXS_PER_BLOCK = 16  # coinbase plus payments
MID_PARTIES = 8
BIG_PARTIES = 2
ABSENT_PARTIES = 4
FILLER_PARTIES = 200
BIG_FANOUT = 210  # outputs per fan-out payment to a big party
FANOUT_BLOCKS = 24  # base blocks that carry one fan-out payment each
MID_SHARE = 0.45  # chance a payment's first output goes to a mid party
BIG_SHARE = 0.02  # chance it goes to a big party
POOL_SHARE = 0.5  # chance a plain output becomes spendable later
# Outputs become spendable only this deep below the tip, deeper than any
# reorg the generator makes, so every spend is valid on every branch.
MATURITY = 6
LOSING_RIVALS = 4  # short branches that never overtake the tip


class Party:
    __slots__ = ("index", "name", "script", "address")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.script = p2pkh_script(sha256d(b"bench-party:" + name.encode())[:20])
        self.address = script_address(self.script, NETWORK)


class ChainGen:
    """A seeded block tree with per-party books for every block."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.parties: list[Party] = []
        self.mid = [self._party(f"mid{i}") for i in range(MID_PARTIES)]
        self.big = [self._party(f"big{i}") for i in range(BIG_PARTIES)]
        self.absent = [self._party(f"absent{i}") for i in range(ABSENT_PARTIES)]
        self.filler = [self._party(f"filler{i}") for i in range(FILLER_PARTIES)]

        genesis = regtest_genesis_block()
        self.genesis = genesis
        g = genesis.header.hash()
        self.blocks: dict[Hash256, Block] = {g: genesis}
        self.parent: dict[Hash256, Optional[Hash256]] = {g: None}
        self.height: dict[Hash256, int] = {g: 0}
        self.children: dict[Hash256, list[Hash256]] = {g: []}
        self.at_height: dict[int, list[Hash256]] = {0: [g]}
        # Per block, per party index: outputs created and outpoints spent.
        self.created: dict[Hash256, dict[int, list[tuple[OutPoint, int]]]] = {g: {}}
        self.spent: dict[Hash256, dict[int, list[OutPoint]]] = {g: {}}
        self.owner: dict[OutPoint, int] = {}
        self.tip = g
        self.order: list[Hash256] = []  # blocks in the order they were made
        self.pool: list[OutPoint] = []
        self._maturing: dict[Hash256, list[OutPoint]] = {}
        self._tag = 0

    def _party(self, name: str) -> Party:
        party = Party(len(self.parties), name)
        self.parties.append(party)
        return party

    # -- building -------------------------------------------------------------

    def _spend_from_pool(self) -> Optional[OutPoint]:
        if not self.pool:
            return None
        i = self.rng.randrange(len(self.pool))
        self.pool[i], self.pool[-1] = self.pool[-1], self.pool[i]
        return self.pool.pop()

    def _make_block(
        self, parent: Hash256, fanout_to: Optional[Party] = None, seed_outputs: int = 0
    ) -> Hash256:
        rng = self.rng
        height = self.height[parent] + 1
        self._tag += 1
        miner = rng.choice(self.filler)
        # Base blocks give the coinbase extra outputs to fill the spend pool.
        seeded = [rng.choice(self.filler) for _ in range(seed_outputs)]
        coinbase = make_coinbase(
            height,
            b"bench" + self._tag.to_bytes(4, "big"),
            miner.script,
            tuple(TxOut(rng.randrange(1000, 1_000_000), p.script) for p in seeded),
        )
        txs = [coinbase]
        # Per transaction, (party, pooled) for every output, booked once txids exist.
        plans: list[list[tuple[Party, bool]]] = [[(p, True) for p in [miner] + seeded]]
        inputs_spent: list[OutPoint] = []
        if fanout_to is not None:
            outpoint = self._spend_from_pool()
            if outpoint is not None:
                outs = tuple(
                    TxOut(rng.randrange(1000, 100_000), fanout_to.script) for _ in range(BIG_FANOUT)
                )
                txs.append(Transaction(1, (TxIn(outpoint, b"fanout"),), outs, 0))
                plans.append([(fanout_to, False)] * BIG_FANOUT)
                inputs_spent.append(outpoint)
        while len(txs) < TXS_PER_BLOCK:
            outpoint = self._spend_from_pool()
            if outpoint is None:
                break
            roll = rng.random()
            if roll < BIG_SHARE:
                first = rng.choice(self.big)
            elif roll < BIG_SHARE + MID_SHARE:
                first = rng.choice(self.mid)
            else:
                first = rng.choice(self.filler)
            second = rng.choice(self.filler)
            outs = (
                TxOut(rng.randrange(1000, 1_000_000), first.script),
                TxOut(rng.randrange(1000, 1_000_000), second.script),
            )
            txs.append(Transaction(1, (TxIn(outpoint, b"pay"),), outs, 0))
            plans.append([(first, rng.random() < POOL_SHARE), (second, rng.random() < POOL_SHARE)])
            inputs_spent.append(outpoint)

        txids = [tx.txid() for tx in txs]
        time = REGTEST_GENESIS_TIME + 600 * height + self._tag % 7
        header = mine_header(parent, merkle_root(txids), time, REGTEST_BITS)
        block = Block(header, tuple(txs))
        h = header.hash()

        created: dict[int, list[tuple[OutPoint, int]]] = {}
        pooled: list[OutPoint] = []
        for tx, txid, plan in zip(txs, txids, plans):
            for vout, (txout, (party, to_pool)) in enumerate(zip(tx.outputs, plan)):
                outpoint = OutPoint(txid, vout)
                self.owner[outpoint] = party.index
                created.setdefault(party.index, []).append((outpoint, txout.value))
                if to_pool:
                    pooled.append(outpoint)
        spent: dict[int, list[OutPoint]] = {}
        for outpoint in inputs_spent:
            spent.setdefault(self.owner[outpoint], []).append(outpoint)

        self.blocks[h] = block
        self.parent[h] = parent
        self.height[h] = height
        self.children[h] = []
        self.children[parent].append(h)
        self.at_height.setdefault(height, []).append(h)
        self.created[h] = created
        self.spent[h] = spent
        self.order.append(h)
        self._maturing[h] = pooled
        return h

    def _mature(self) -> None:
        """Release outputs of main-chain blocks now MATURITY deep."""
        cursor = self.tip
        for _ in range(MATURITY):
            cursor = self.parent[cursor]
            if cursor is None:
                return
        self.pool.extend(self._maturing.pop(cursor, ()))

    def extend(self, fanout_to: Optional[Party] = None, seed_outputs: int = 0) -> list[Hash256]:
        """One block on the main tip."""
        self.tip = self._make_block(self.tip, fanout_to, seed_outputs)
        self._mature()
        return [self.tip]

    def branch(self, length: int, depth: int) -> list[Hash256]:
        """A branch of `length` blocks whose parent sits `depth` blocks
        below the main tip. It becomes the main chain when it is longer."""
        parent = self.tip
        for _ in range(depth):
            parent = self.parent[parent]
        made = []
        for _ in range(length):
            parent = self._make_block(parent)
            made.append(parent)
        if self.height[parent] > self.height[self.tip]:
            self.tip = parent
            self._mature()
        return made

    def build_static(self) -> None:
        """Base blocks, then delta - 1 unstable blocks with a few losing
        rivals: the anchor lands BASE_BLOCKS above genesis."""
        for i in range(BASE_BLOCKS):
            fanout = self.big[i % BIG_PARTIES] if i >= BASE_BLOCKS - FANOUT_BLOCKS else None
            self.extend(fanout, seed_outputs=2 * TXS_PER_BLOCK)
        unstable = DELTA - 1
        rival_at = set(self.rng.sample(range(40, unstable - 4), LOSING_RIVALS))
        for i in range(unstable):
            self.extend()
            if i in rival_at:
                depth = self.rng.randint(1, 3)
                self.branch(self.rng.randint(1, depth), depth)

    def churn_step(self, reorg_every: int) -> list[Hash256]:
        """Next delivery: usually one block, every few steps a rival branch
        of 2 to 4 blocks that overtakes the tip (a reorg 1 to 3 deep)."""
        if self.rng.randrange(reorg_every) == 0:
            length = self.rng.randint(2, 4)
            return self.branch(length, length - 1)
        return self.extend()

    # -- ledger ---------------------------------------------------------------

    def chain_to(self, tip: Hash256) -> list[Hash256]:
        chain = []
        cursor: Optional[Hash256] = tip
        while cursor is not None:
            chain.append(cursor)
            cursor = self.parent[cursor]
        chain.reverse()
        return chain

    def _depth(self, h: Hash256, known: set[Hash256]) -> int:
        best = 0
        stack = [(h, 1)]
        while stack:
            cur, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in self.children[cur] if c in known)
        return best

    def selected_prefix(
        self, tip: Hash256, known: set[Hash256], min_conf: Optional[int]
    ) -> list[Hash256]:
        """The selected chain, cut before the first block whose confirmation
        count (depth minus the deepest same-height rival) is below min_conf.

        Blocks at or below the anchor always clear the filters used here
        (at most delta // 2), so the scan can start at genesis.
        """
        chain = self.chain_to(tip)
        if min_conf is None:
            return chain
        tip_height = self.height[tip]
        for pos in range(1, len(chain)):
            h = chain[pos]
            depth = tip_height - pos + 1
            conf = depth
            for rival in self.at_height[pos]:
                if rival != h and rival in known:
                    conf = min(conf, depth - self._depth(rival, known))
            if conf < min_conf:
                return chain[:pos]
        return chain

    def expected_utxos(self, party: Party, prefix: list[Hash256]) -> list[tuple[OutPoint, int, int]]:
        """(outpoint, value, height) of the party's unspent outputs along the
        prefix, in page order: height descending, then txid bytes, then vout."""
        live: dict[OutPoint, tuple[int, int]] = {}
        p = party.index
        for h in prefix[1:]:  # the genesis output is not part of the tracked set
            for outpoint in self.spent[h].get(p, ()):
                live.pop(outpoint, None)
            height = self.height[h]
            for outpoint, value in self.created[h].get(p, ()):
                live[outpoint] = (value, height)
        out = [(op, value, height) for op, (value, height) in live.items()]
        out.sort(key=lambda e: (-e[2], bytes(e[0].txid), e[0].vout))
        return out
