"""The overlay index: what the applied chain (the selected chain's bodied
blocks above the anchor) changes for queries, indexed by address.

A block's outputs, with their addresses and grouped by address, and its
inputs are derived when it joins the overlay index and kept there while it
stays applied. Folding a block the index holds into the materialized set
moves that kept delta in per address (`UtxoSet.apply_delta`), building no
row and deriving no address, unless the order of the block's writes could
show in the result; then the fold walks the block's transactions
(`UtxoSet.apply_block`).

The overlay is one index over the applied chain: each address's overlay
rows in page order, the heights of the blocks that spend each outpoint,
each address's materialized outpoints that the applied chain spends, and
each address's value over its overlay outputs that no applied block
spends. It is built on the first query after a load and follows the chain
at the end of every response after that (`OverlayIndex.follow`): folded
blocks leave from the bottom, the blocks of a branch that lost leave from
the top and new blocks join at the top, each at the cost of its own
outputs and inputs.

Each applied block also keeps its net: the change it made to each
address's unfiltered balance when it joined at the top. A balance cut
below the top is the unfiltered one less the nets of the blocks above the
cut, so a confirmation filter costs one lookup per block it leaves out. A
net depends only on the blocks below its own and on the materialized set,
which a fold changes without changing any balance, except where one
outpoint is created twice, or created after a block spends it: a fold
while the index holds such an outpoint rebuilds the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from btcstate.blocktree import BlockTree
from btcstate.chain import Block, Hash256, OutPoint
from btcstate.utxoset import Utxo, UtxoSet, _outpoint, _page_key

_txid = itemgetter(0)  # an outpoint's txid


class OverlayDelta(NamedTuple):
    """What one unstable block changes for queries: every output as a row,
    in block order, with the output's address at the same position; the
    same rows grouped by address, each group in page order; the block's
    inputs in block order, and the outpoints they spend. Every address of
    the block is found once, here, by `address_of`, and the anchor fold
    reuses them, with the rows and groups.

    `plain` says that no two transactions of the block share a txid and no
    input names one of the block's own transactions, so that the block's
    inputs and outputs touch distinct outpoints whatever their order."""

    rows: list[Utxo]
    addresses: list[str]
    groups: dict[str, list[Utxo]]
    inputs: list[OutPoint]
    spent: frozenset[OutPoint]
    plain: bool

    @classmethod
    def of_block(
        cls, block: Block, height: int, address_of: Callable[[bytes], str]
    ) -> "OverlayDelta":
        rows: list[Utxo] = []
        addresses: list[str] = []
        groups: dict[str, list[Utxo]] = {}
        inputs: list[OutPoint] = []
        txids = set()
        for tx in block.transactions:
            if not tx.is_coinbase():
                inputs.extend(txin.outpoint for txin in tx.inputs)
            txid = tx.txid()
            txids.add(txid)
            for vout, txout in enumerate(tx.outputs):
                address = address_of(txout.script_pubkey)
                row = Utxo(OutPoint(txid, vout), txout.value, height)
                rows.append(row)
                addresses.append(address)
                group = groups.get(address)
                if group is None:
                    groups[address] = [row]
                else:
                    group.append(row)
        for group in groups.values():
            if len(group) > 1:
                group.sort(key=_page_key)
        plain = len(txids) == len(block.transactions) and txids.isdisjoint(map(_txid, inputs))
        return cls(rows, addresses, groups, inputs, frozenset(inputs), plain)


class OverlayIndex:
    """The applied chain's overlay, indexed by address.

    `blocks` are the applied blocks with their deltas in chain order, the
    lowest at height `first`. `rows` holds each address's overlay rows in
    page order, every copy of a repeated outpoint included; `outputs` the
    address, value and number of rows of each overlay outpoint; `spenders`
    the heights of the applied blocks that spend each outpoint, ascending,
    whether or not the outpoint is known; `unspent_value` each address's
    total over its overlay outpoints that no applied block spends, which is
    what an unfiltered query adds to the materialized outputs; `held_spent`
    each address's materialized outpoints that an applied block spends, and
    `held_address` the address of each of those. `nets` holds each applied
    block's net, by address and without zeros, in the order of `blocks`;
    `repeats` the heights, ascending, of the applied blocks that joined
    with an outpoint that the index or the materialized set already had or
    that the index spent. Blocks join and leave only at the two ends, so
    each costs its own rows and spends. `floors` holds the applied blocks'
    running minimum confirmation count, negated so that it ascends, from
    the first filtered query after the index last followed the chain.
    """

    __slots__ = (
        "first",
        "blocks",
        "nets",
        "rows",
        "outputs",
        "spenders",
        "unspent_value",
        "held_spent",
        "held_address",
        "repeats",
        "floors",
    )

    def __init__(self, first: int):
        self.first = first
        self.blocks: list[tuple[Hash256, OverlayDelta]] = []
        self.nets: list[dict[str, int]] = []
        self.rows: dict[str, list[Utxo]] = {}
        self.outputs: dict[OutPoint, tuple[str, int, int]] = {}
        self.spenders: dict[OutPoint, list[int]] = {}
        self.unspent_value: dict[str, int] = {}
        self.held_spent: dict[str, set[OutPoint]] = {}
        self.held_address: dict[OutPoint, str] = {}
        self.repeats: list[int] = []
        self.floors: Optional[list[int]] = None

    def __eq__(self, other: object) -> bool:
        # The floors are left out: they are taken from the tree on demand.
        return isinstance(other, OverlayIndex) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__[:-1]
        )

    def top(self) -> int:
        """Height of the highest applied block; the anchor's when none."""
        return self.first + len(self.blocks) - 1

    def delta(self, h: Hash256, height: int) -> Optional[OverlayDelta]:
        """Block `h`'s delta when the index holds it at `height`, else None."""
        pos = height - self.first
        if 0 <= pos < len(self.blocks) and self.blocks[pos][0] == h:
            return self.blocks[pos][1]
        return None

    def follow(
        self,
        tree: BlockTree,
        top: int,
        utxos: UtxoSet,
        address_of: Optional[Callable[[bytes], str]] = None,
    ) -> None:
        """Bring the index up to date with the applied chain: the selected
        chain's bodied blocks above height `top` (the anchor's), over the
        materialized set `utxos`. A joining block's addresses are found by
        `address_of`, the set's kept names by default."""
        touched: set[OutPoint] = set()
        blocks = self.blocks
        keep = len(blocks)  # the held blocks still on the selected chain
        while keep and tree.selected_at(self.first + keep - 1) != blocks[keep - 1][0]:
            keep -= 1
        folded = top + 1 - self.first  # held blocks now at or below the anchor
        # A fold can change the nets of blocks that repeat an outpoint or
        # create one after its spend (see above), so it rebuilds then.
        if keep > folded and not (folded and self.repeats):
            while len(blocks) > keep:
                self.drop_top(touched)
            for _ in range(folded):
                self.drop_bottom(touched)
        else:
            self.__init__(top + 1)  # no held block stays, or a fold meets a repeat
        address_of = address_of or utxos.address_of
        by_outpoint = utxos.by_outpoint
        height = self.top() + 1
        while (h := tree.selected_at(height)) is not None and tree.has_block(h):
            delta = OverlayDelta.of_block(tree.block(h), height, address_of)
            self.push(h, delta, touched, by_outpoint)
            height += 1
        self.settle(touched, by_outpoint)
        self.floors = None

    def confirmed_top(self, tree: BlockTree, min_conf: int) -> int:
        """The height up to which every applied block has at least
        `min_conf` confirmations; the anchor's when the lowest has fewer.
        The counts are taken once, in one pass down the selected chain."""
        if self.floors is None:
            counts = tree.chain_confirmations(self.first)[: len(self.blocks)]
            self.floors = list(accumulate((-count for count in counts), max))
        return self.first - 1 + bisect_right(self.floors, -min_conf)

    def changes(
        self, address: str, cut: int, after_key: Optional[tuple[int, bytes, int]] = None
    ) -> tuple[list[Utxo], list[OutPoint]]:
        """The address's overlay rows at or below height `cut` that no block
        up to `cut` spends, in page order and after `after_key` (a repeated
        outpoint lists its highest copy only), and its materialized
        outpoints that a block up to `cut` spends."""
        spenders = self.spenders
        created: list[Utxo] = []
        rows = self.rows.get(address)
        if rows:
            start = bisect_left(rows, (-cut,), key=_page_key)
            seen: set[OutPoint] = set()
            if after_key is not None:
                served = bisect_right(rows, after_key, key=_page_key)
                if served > start:
                    seen = {row[0] for row in rows[start:served]}
                    start = served
            for row in rows[start:]:
                op = row[0]
                if op in seen:
                    continue  # an older copy of a repeated outpoint
                seen.add(op)
                heights = spenders.get(op)
                if heights is None or heights[0] > cut:
                    created.append(row)
        spent = [op for op in self.held_spent.get(address, ()) if spenders[op][0] <= cut]
        return created, spent

    def value(self, address: str, cut: int, by_outpoint: dict) -> int:
        """What the applied chain up to height `cut` adds to the address's
        materialized total: the kept unspent value, less the materialized
        outputs `by_outpoint` that the overlay spends, less the nets of the
        blocks above `cut`."""
        total = self.unspent_value.get(address, 0) - sum(
            by_outpoint[op][0].value for op in self.held_spent.get(address, ())
        )
        for net in self.nets[cut + 1 - self.first :]:
            total -= net.get(address, 0)
        return total

    def check(
        self, tree: BlockTree, by_outpoint: dict, require: Callable[[bool, str], None]
    ) -> None:
        """Check the kept values, nets and confirmation floors against
        scans of the rows and the tree, through `require(holds, invariant)`."""
        top = self.top()
        require(
            set(self.unspent_value) <= set(self.rows)
            and all(
                self.unspent_value.get(address, 0)
                == sum(row.value for row in self.changes(address, top)[0])
                for address in self.rows
            ),
            "each address's kept unspent value is the sum of its unfiltered overlay rows",
        )
        addresses = set(self.rows).union(self.held_spent, *self.nets)
        for cut in range(self.first - 1, top + 1):
            for address in addresses:
                created, spent = self.changes(address, cut)
                scanned = sum(row.value for row in created) - sum(
                    by_outpoint[op][0].value for op in spent
                )
                require(
                    self.value(address, cut, by_outpoint) == scanned,
                    "each cut's balance from the kept nets equals a scan of the overlay rows",
                )
        if self.floors is not None:
            lows = accumulate((tree.confirmations(h) for h, _ in self.blocks), min)
            require(
                self.floors == [-low for low in lows],
                "the kept confirmation floors are the applied blocks' running minimum",
            )

    def push(
        self, h: Hash256, delta: OverlayDelta, touched: set[OutPoint], by_outpoint: dict
    ) -> None:
        """Join a block at the top, over the materialized outputs
        `by_outpoint`; the outpoints whose spends changed go into
        `touched`."""
        height = self.first + len(self.blocks)
        self.blocks.append((h, delta))
        outputs, spenders, index_rows = self.outputs, self.spenders, self.rows
        gained: dict[str, int] = {}  # the block's change to each address's unspent value
        repeat = False
        for address, rows in delta.groups.items():
            value = 0
            for row in rows:
                op = row.outpoint
                entry = outputs.get(op)
                if entry is None:
                    outputs[op] = (address, row.value, 1)
                    if op in spenders:
                        repeat = True
                    else:
                        value += row.value
                else:
                    outputs[op] = (address, row.value, entry[2] + 1)
                    repeat = True
                if op in by_outpoint:
                    repeat = True
            if value:
                gained[address] = value
            # The block lies above every indexed row, so its rows lead.
            index_rows.setdefault(address, [])[:0] = rows
        first_spent_held = []  # `settle` adds these to `held_spent`
        for op in delta.spent:
            heights = spenders.get(op)
            if heights is None:
                spenders[op] = [height]
                entry = outputs.get(op)
                if entry is not None:
                    gained[entry[0]] = gained.get(entry[0], 0) - entry[1]
                held = by_outpoint.get(op)
                if held is not None:
                    first_spent_held.append(held)
            else:
                heights.append(height)
        for address, value in gained.items():
            self._add_unspent(address, value)
        # The block's net also loses the materialized outputs it spends first.
        for txout, _, address in first_spent_held:
            gained[address] = gained.get(address, 0) - txout.value
        self.nets.append({address: value for address, value in gained.items() if value})
        if repeat:
            self.repeats.append(height)
        touched |= delta.spent

    def drop_top(self, touched: set[OutPoint]) -> None:
        """Take the top block off: a reorganization left it behind."""
        _, delta = self.blocks.pop()
        self.nets.pop()
        if self.repeats and self.repeats[-1] == self.first + len(self.blocks):
            self.repeats.pop()
        self._forget(delta, bottom=False)
        touched |= delta.spent

    def drop_bottom(self, touched: set[OutPoint]) -> None:
        """Take the lowest block off: it was folded into the materialized
        set, which now holds its outputs and lacks what it spent."""
        _, delta = self.blocks.pop(0)
        del self.nets[0]
        self.first += 1
        self._forget(delta, bottom=True)
        touched |= delta.spent
        # Its outputs were in no materialized entry before the fold (a
        # repeat rebuilds the index instead), so `settle` can change only
        # those that an applied block spends.
        touched |= self.spenders.keys() & map(_outpoint, delta.rows)

    def _forget(self, delta: OverlayDelta, bottom: bool) -> None:
        """Delete an end block's rows and spends. The lowest block's rows
        close each address's rows and its height opens each outpoint's
        spending heights; the top block's are the other way round."""
        outputs, spenders, index_rows = self.outputs, self.spenders, self.rows
        for address, rows in delta.groups.items():
            kept = index_rows[address]
            if bottom:
                del kept[-len(rows) :]
            else:
                del kept[: len(rows)]
            if not kept:
                del index_rows[address]
            for row in rows:
                op = row.outpoint
                copies = outputs[op][2]
                if copies > 1:
                    outputs[op] = (address, row.value, copies - 1)
                else:
                    del outputs[op]
                    if op not in spenders:
                        self._add_unspent(address, -row.value)
        for op in delta.spent:
            heights = spenders[op]
            del heights[0 if bottom else -1]
            if not heights:
                del spenders[op]
                entry = outputs.get(op)
                if entry is not None:  # an overlay outpoint rejoins the unspent value
                    self._add_unspent(entry[0], entry[1])

    def _add_unspent(self, address: str, value: int) -> None:
        total = self.unspent_value.get(address, 0) + value
        if total:
            self.unspent_value[address] = total
        else:
            self.unspent_value.pop(address, None)

    def settle(self, touched: set[OutPoint], by_outpoint: dict) -> None:
        """Bring `held_spent` up to date for the outpoints whose spends or
        materialized entries changed."""
        for op in touched:
            address = self.held_address.get(op)
            entry = by_outpoint.get(op) if op in self.spenders else None
            if entry is not None:
                if address is None:
                    self.held_address[op] = entry[2]
                    self.held_spent.setdefault(entry[2], set()).add(op)
            elif address is not None:
                del self.held_address[op]
                spent = self.held_spent[address]
                spent.discard(op)
                if not spent:
                    del self.held_spent[address]
