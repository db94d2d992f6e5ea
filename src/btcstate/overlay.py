"""The overlay index: what the applied chain (the selected chain's bodied
blocks above the anchor) changes for queries, indexed by address.

A block's outputs, as rows grouped by address, each address's script, and
its inputs are derived when it joins the overlay index and kept there
while it stays applied. The anchor fold of the index's lowest block goes
through the index (`OverlayIndex.fold`): the block leaves the bottom while
the materialized set still holds what it spends, then its kept rows move
into the set per address (`UtxoSet.apply_delta`), each output staying the
one row it was built as, and its outputs that a higher applied block
spends join `held_spent`. So the index is current after every fold, with
no repair at the end of the response.

The overlay is one index over the applied chain: each address's overlay
rows in page order, the heights of the blocks that spend each outpoint,
and each address's materialized outpoints that the applied chain spends.
It is built on the first query after a load, folds its lowest block as
the anchor takes it, and at the end of every response follows the chain
(`OverlayIndex.follow`): the blocks of a branch that lost leave from the
top and new blocks join at the top, each at the cost of its own outputs and
inputs. A fold the index cannot take (its lowest block lost to a rival) or
one while it holds a repeat (below) leaves it to be rebuilt there.

Each applied block also keeps its net: the change it made to each
address's unfiltered balance when it joined at the top. The index keeps
each address's sum of the applied blocks' nets, which is what an
unfiltered balance adds to the materialized total, so that balance costs
one lookup. A balance cut below the top is that sum less the nets of the
blocks above the cut, one lookup per block it leaves out. A net depends
only on the blocks below its own and on the materialized set, which a fold
changes without changing any balance, except where one outpoint is
created twice, or created after a block spends it: a fold while the index
holds such an outpoint empties the index, and `follow` rebuilds it.

An unfiltered listing reads each address's overlay rows that no applied
block spends from a kept list, filled by the address's first unfiltered
query and deleted when a block joins or leaves that pays the address or
spends one of its overlay outputs; a page continuation bisects the page
keys kept beside it.
A filtered listing scans the address's rows against the spending heights.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from btcstate.blocktree import BlockTree
from btcstate.chain import Block, Hash256, OutPoint
from btcstate.utxoset import Utxo, UtxoSet, _outpoint, _page_key

_txid = itemgetter(0)  # an outpoint's txid


class OverlayDelta(NamedTuple):
    """What one unstable block changes for queries: every output as a row,
    grouped by address, each group in page order; each of those addresses
    under its script in `names`; the block's inputs in block order, and the
    outpoints they spend. Every address of the block is found once, here,
    by `address_of` on the first output paying its script (each script has
    its own address), and the anchor fold stores the groups' rows in the
    materialized set, taking a newly held address's script from `names`.

    `plain` says that no two transactions of the block share a txid and no
    input names one of the block's own transactions, so that the block's
    inputs and outputs touch distinct outpoints whatever their order."""

    groups: dict[str, list[Utxo]]
    names: dict[bytes, str]
    inputs: list[OutPoint]
    spent: frozenset[OutPoint]
    plain: bool

    @classmethod
    def of_block(
        cls, block: Block, height: int, address_of: Callable[[bytes], str]
    ) -> "OverlayDelta":
        groups: dict[str, list[Utxo]] = {}
        names: dict[bytes, str] = {}
        inputs: list[OutPoint] = []
        txids = set()
        for tx in block.transactions:
            if not tx.is_coinbase():
                inputs.extend(txin.outpoint for txin in tx.inputs)
            txid = tx.txid()
            txids.add(txid)
            for vout, txout in enumerate(tx.outputs):
                script = txout.script_pubkey
                row = Utxo(OutPoint(txid, vout), txout.value, height)
                address = names.get(script)
                if address is None:
                    address = names[script] = address_of(script)
                    groups[address] = [row]
                else:
                    groups[address].append(row)
        for group in groups.values():
            if len(group) > 1:
                group.sort(key=_page_key)
        plain = len(txids) == len(block.transactions) and txids.isdisjoint(map(_txid, inputs))
        return cls(groups, names, inputs, frozenset(inputs), plain)


class OverlayIndex:
    """The applied chain's overlay, indexed by address.

    `blocks` are the applied blocks with their deltas in chain order, the
    lowest at height `first`. `rows` holds each address's overlay rows in
    page order, every copy of a repeated outpoint included; `outputs` the
    address, value and number of rows of each overlay outpoint; `spenders`
    the heights of the applied blocks that spend each outpoint, ascending,
    whether or not the outpoint is known; `held_spent` each address's
    materialized outpoints that an applied block spends. `nets` holds each
    applied block's net, by address and without zeros, in the order of
    `blocks`, and `net_sums` each address's sum of them, without zeros,
    which is what an unfiltered balance adds to the materialized total;
    `repeats` the heights, ascending, of the applied blocks that joined
    with an outpoint that the index or the materialized set already had or
    that the index spent. Blocks join and leave only at the two ends, so
    each costs its own rows and spends. `floors` holds the applied blocks'
    running minimum confirmation count, negated so that it ascends, from
    the first filtered query after the index last followed the chain.
    `unspent_rows` holds, for addresses with overlay rows that an
    unfiltered query asked for, the rows that no applied block spends, as
    `changes` lists them, with their page keys in a parallel list; a block
    that joins or leaves deletes the entries of the addresses it pays and
    of the overlay outputs whose spends it changes.
    """

    __slots__ = (
        "first",
        "blocks",
        "nets",
        "net_sums",
        "rows",
        "outputs",
        "spenders",
        "held_spent",
        "repeats",
        "floors",
        "unspent_rows",
    )
    # Kept only to answer reads sooner, and filled by reads, so a fresh
    # build need not hold them.
    UNCOMPARED = frozenset({"floors", "unspent_rows"})

    def __init__(self, first: int):
        self.first = first
        self.blocks: list[tuple[Hash256, OverlayDelta]] = []
        self.nets: list[dict[str, int]] = []
        self.net_sums: dict[str, int] = {}
        self.rows: dict[str, list[Utxo]] = {}
        self.outputs: dict[OutPoint, tuple[str, int, int]] = {}
        self.spenders: dict[OutPoint, list[int]] = {}
        self.held_spent: dict[str, set[OutPoint]] = {}
        self.repeats: list[int] = []
        self.floors: Optional[list[int]] = None
        self.unspent_rows: dict[str, tuple[list[Utxo], list[tuple]]] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OverlayIndex) and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
            if name not in self.UNCOMPARED
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
        blocks = self.blocks
        by_outpoint = utxos.by_outpoint
        keep = len(blocks)  # the held blocks still on the selected chain
        while keep and tree.selected_at(self.first + keep - 1) != blocks[keep - 1][0]:
            keep -= 1
        # A held lowest block is still applied, so every fold went through
        # `fold` and the index starts right above the anchor.
        if keep:
            while len(blocks) > keep:
                self.drop_top(by_outpoint)
        else:
            self.__init__(top + 1)
        address_of = address_of or utxos.address_of
        height = self.top() + 1
        while (h := tree.selected_at(height)) is not None and tree.has_block(h):
            delta = OverlayDelta.of_block(tree.block(h), height, address_of)
            self.push(h, delta, by_outpoint)
            height += 1
        self.floors = None

    def fold(self, h: Hash256, block: Block, utxos: UtxoSet) -> Optional[int]:
        """Fold block `h`, the index's lowest, into the materialized set
        `utxos` and return the anomaly count, as `UtxoSet.apply_block`
        would; None, changing nothing, when `h` is not the lowest block.

        The block leaves the bottom before the set changes, so each
        outpoint it spends still names its address there as it leaves
        `held_spent`; then its kept delta moves into the set, and its
        outputs that a higher applied block spends join `held_spent`. A
        fold can change the nets of blocks that repeat an outpoint or
        create one after its spend (see above), so while the index holds
        one the fold empties it instead, for `follow` to rebuild."""
        if not self.blocks or self.blocks[0][0] != h:
            return None
        height, delta = self.first, self.blocks[0][1]
        by_outpoint = utxos.by_outpoint
        if self.repeats:
            self.__init__(height + 1)
        else:
            self.drop_bottom(by_outpoint)
        anomalies = utxos.apply_delta(block, height, delta)
        spenders = self.spenders
        for address, rows in delta.groups.items():
            for op in map(_outpoint, rows):
                if op in spenders and op in by_outpoint:
                    self.held_spent.setdefault(address, set()).add(op)
        return anomalies

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
    ) -> tuple[list[Utxo], int, list[OutPoint]]:
        """The address's overlay rows at or below height `cut` that no block
        up to `cut` spends, in page order (a repeated outpoint lists its
        highest copy only), the position of the first of them after
        `after_key`, and its materialized outpoints that a block up to `cut`
        spends. At the top, the rows come from the kept list, filled here on
        the address's first such call, and the position from bisecting the
        page keys kept beside it; the caller reads the returned rows and
        changes nothing in them."""
        if cut == self.top() and address in self.rows:
            kept = self.unspent_rows.get(address)
            if kept is None:
                created = self._scan(address, cut)
                keys = [(-height, op.txid, op.vout) for op, _, height in created]
                kept = self.unspent_rows[address] = (created, keys)
            created, keys = kept
            start = 0 if after_key is None else bisect_right(keys, after_key)
        else:
            created, start = self._scan(address, cut, after_key), 0
        spenders = self.spenders
        spent = [op for op in self.held_spent.get(address, ()) if spenders[op][0] <= cut]
        return created, start, spent

    def _scan(
        self, address: str, cut: int, after_key: Optional[tuple[int, bytes, int]] = None
    ) -> list[Utxo]:
        """The overlay rows of `changes`, from a pass over the address's rows
        at or below `cut` that tests each one's spending heights."""
        rows = self.rows.get(address)
        if not rows:
            return []
        spenders = self.spenders
        # every row lies at or below the top
        lowest = start = bisect_left(rows, (-cut,), key=_page_key) if cut < self.top() else 0
        if after_key is not None:
            start = max(start, bisect_right(rows, after_key, key=_page_key))
        if not self.repeats:  # no outpoint has two rows
            return [
                row
                for row in rows[start:]
                if (heights := spenders.get(row[0])) is None or heights[0] > cut
            ]
        # An outpoint's older copies follow its highest one, which may have
        # been served already.
        seen = {row[0] for row in rows[lowest:start]}
        created = []
        for row in rows[start:]:
            op = row[0]
            if op in seen:
                continue
            seen.add(op)
            heights = spenders.get(op)
            if heights is None or heights[0] > cut:
                created.append(row)
        return created

    def value(self, address: str, cut: int) -> int:
        """What the applied chain up to height `cut` adds to the address's
        materialized total: the kept sum of the applied blocks' nets, less
        the nets of the blocks above `cut`."""
        total = self.net_sums.get(address, 0)
        for net in self.nets[cut + 1 - self.first :]:
            total -= net.get(address, 0)
        return total

    def check(
        self, tree: BlockTree, by_outpoint: dict, require: Callable[[bool, str], None]
    ) -> None:
        """Check the kept sums, nets, unspent rows and confirmation floors
        against scans of the rows and the tree, through `require(holds,
        invariant)`."""
        top = self.top()
        sums: Counter = Counter()
        for net in self.nets:
            sums.update(net)
        require(
            self.net_sums == {address: total for address, total in sums.items() if total},
            "each address's kept net sum is the sum of the applied blocks' nets",
        )
        require(
            self.unspent_rows.keys() <= self.rows.keys()
            and all(
                rows == self._scan(address, top) and keys == list(map(_page_key, rows))
                for address, (rows, keys) in self.unspent_rows.items()
            ),
            "each kept list of unspent rows equals a scan of its address's rows, "
            "with their page keys",
        )
        addresses = set(self.rows).union(self.held_spent, *self.nets)
        for cut in range(self.first - 1, top + 1):
            for address in addresses:
                scanned = sum(row.value for row in self._scan(address, cut)) - sum(
                    by_outpoint[op][0].value
                    for op in self.held_spent.get(address, ())
                    if self.spenders[op][0] <= cut
                )
                require(
                    self.value(address, cut) == scanned,
                    "each cut's balance from the kept nets equals a scan of the overlay rows",
                )
        if self.floors is not None:
            lows = accumulate((tree.confirmations(h) for h, _ in self.blocks), min)
            require(
                self.floors == [-low for low in lows],
                "the kept confirmation floors are the applied blocks' running minimum",
            )

    def push(self, h: Hash256, delta: OverlayDelta, by_outpoint: dict) -> None:
        """Join a block at the top, over the materialized outputs
        `by_outpoint`."""
        height = self.first + len(self.blocks)
        self.blocks.append((h, delta))
        outputs, spenders, index_rows = self.outputs, self.spenders, self.rows
        unspent_rows = self.unspent_rows
        gained: dict[str, int] = {}  # the block's change to each address's balance
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
            unspent_rows.pop(address, None)
        for op in delta.spent:
            heights = spenders.get(op)
            if heights is None:  # the block is first to spend it
                spenders[op] = [height]
                entry = outputs.get(op)
                if entry is not None:
                    gained[entry[0]] = gained.get(entry[0], 0) - entry[1]
                    unspent_rows.pop(entry[0], None)
                held = by_outpoint.get(op)
                if held is not None:
                    row, address = held
                    gained[address] = gained.get(address, 0) - row.value
                    self.held_spent.setdefault(address, set()).add(op)
            else:
                heights.append(height)
        net = {address: value for address, value in gained.items() if value}
        self.nets.append(net)
        self._add_net(net, 1)
        if repeat:
            self.repeats.append(height)

    def drop_top(self, by_outpoint: dict) -> None:
        """Take the top block off, over the materialized outputs
        `by_outpoint`: a reorganization left it behind."""
        _, delta = self.blocks.pop()
        self._add_net(self.nets.pop(), -1)
        if self.repeats and self.repeats[-1] == self.first + len(self.blocks):
            self.repeats.pop()
        self._forget(delta, False, by_outpoint)

    def drop_bottom(self, by_outpoint: dict) -> None:
        """Take the lowest block off as `fold` folds it, over the
        materialized outputs `by_outpoint` from before the fold."""
        _, delta = self.blocks.pop(0)
        self._add_net(self.nets.pop(0), -1)
        self.first += 1
        self._forget(delta, True, by_outpoint)

    def _forget(self, delta: OverlayDelta, bottom: bool, by_outpoint: dict) -> None:
        """Delete an end block's rows and spends. The lowest block's rows
        close each address's rows and its height opens each outpoint's
        spending heights; the top block's are the other way round. A
        materialized outpoint leaves `held_spent` when its last spender
        leaves, or when the lowest block, about to be folded, spends it."""
        outputs, spenders, index_rows = self.outputs, self.spenders, self.rows
        unspent_rows, held_spent = self.unspent_rows, self.held_spent
        for address, rows in delta.groups.items():
            unspent_rows.pop(address, None)
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
        for op in delta.spent:
            heights = spenders[op]
            del heights[0 if bottom else -1]
            if not heights:
                del spenders[op]
                entry = outputs.get(op)
                if entry is not None:  # an overlay outpoint is unspent again
                    unspent_rows.pop(entry[0], None)
            held = by_outpoint.get(op) if bottom or not heights else None
            if held is not None:
                spent = held_spent[held[1]]
                spent.remove(op)
                if not spent:
                    del held_spent[held[1]]

    def _add_net(self, net: dict[str, int], sign: int) -> None:
        """Add a block's net to the kept sums, or take it out (`sign` -1)."""
        sums = self.net_sums
        for address, value in net.items():
            total = sums.get(address, 0) + sign * value
            if total:
                sums[address] = total
            else:
                del sums[address]
