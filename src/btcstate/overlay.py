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
spends. It is built on the first query after a load and brought up to date
on the first query after each response: folded blocks leave from the
bottom, the blocks of a branch that lost leave from the top and new blocks
join at the top, each at the cost of its own outputs and inputs.

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

from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from btcstate.chain import Block, Hash256, OutPoint
from btcstate.utxoset import Utxo, _outpoint, _page_key

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
    each costs its own rows and spends.
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OverlayIndex) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
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

    def net_above(self, address: str, cut: int) -> int:
        """What the applied blocks above height `cut` changed in the
        address's balance: the sum of their nets."""
        total = 0
        for net in self.nets[cut + 1 - self.first :]:
            total += net.get(address, 0)
        return total

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
