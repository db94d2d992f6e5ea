"""The materialized UTXO set: the chain's unspent outputs up to and
including the anchor.

Each output is held as one immutable `Utxo` row, stored once under its
outpoint beside its address, so spending it derives nothing. The set keeps
the script of each address it holds, once, with its inverse (`names`), so
a new output paid to a held script derives nothing either, and no script
is held per output. The kept listings and the overlay hand out the stored
rows themselves: serving a page builds nothing per entry.

An address's materialized outputs are listed once, on the first query that
needs them, sorted by the page key (height descending, then txid and
output index) together with their total value. Beside its rows a listing
keeps each row's page key, a plain tuple, in a parallel list, so a write or
a query bisects the keys and calls no Python key function; every later
write keeps both lists current with a bisected insert or delete. A kept
listing lives as long as the set, empty while its address holds nothing,
so whether an address has one never depends on the order of writes.

A block is folded in one of two ways. `apply_block` walks its transactions
and is the rule. `apply_delta` moves the block's kept overlay delta in per
address, storing the delta's rows themselves: the outpoints go in in bulk,
and each address's rows lead its kept listing, since a folded block lies
above every held row. It gives `apply_block`'s result and falls back to it
whenever the order of the block's writes could show: a transaction held
twice, an input naming one of the block's own transactions, or an output
whose outpoint is held.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from btcstate.chain import Block, NetworkKind, OutPoint, script_address

if TYPE_CHECKING:
    from btcstate.overlay import OverlayDelta


class Utxo(NamedTuple):
    """One unspent output. Every stored row is one of these and queries
    hand the stored objects out, so they are immutable."""

    outpoint: OutPoint
    value: int
    height: int


_outpoint = itemgetter(0)  # a row's outpoint


def _page_key(row: Utxo) -> tuple[int, bytes, int]:
    """Listing order: height descending, then txid bytes, then output index."""
    outpoint = row.outpoint
    return (-row[2], outpoint.txid, outpoint.vout)


class Listing:
    """One address's materialized outputs in page order, each row's page
    key at the same position in `keys`, and their total."""

    __slots__ = ("rows", "keys", "total")

    def __init__(self, rows: list[Utxo], keys: list[tuple[int, bytes, int]], total: int):
        self.rows = rows
        self.keys = keys
        self.total = total


# shared by every address with no outputs; tuples, so never written
_NO_LISTING = Listing((), (), 0)


def _address(script: bytes, network: NetworkKind) -> str:
    """The script's address, interned so that one string serves every
    output paid to it."""
    return sys.intern(script_address(script, network))


class UtxoSet:
    """Outpoint-indexed unspent outputs, each one stored row with its
    address, an address index for retrieval, a kept listing of the stored
    rows for each address a query has ever asked for, and the script of
    each held address (`scripts`) with its inverse (`names`). Each script
    has its own address (`script_address` is one-to-one on a network), so
    a script is held exactly while its address's bucket is."""

    def __init__(self, network: NetworkKind):
        self.network = network
        self.by_outpoint: dict[OutPoint, tuple[Utxo, str]] = {}
        self.by_address: dict[str, set[OutPoint]] = {}
        self.scripts: dict[str, bytes] = {}
        self.names: dict[bytes, str] = {}
        # Built on an address's first query and kept current by every write,
        # also once the address holds nothing.
        self.listings: dict[str, Listing] = {}

    def __len__(self) -> int:
        return len(self.by_outpoint)

    def address_of(self, script: bytes) -> str:
        """The script's address: the kept one while an output pays it,
        derived otherwise."""
        address = self.names.get(script)
        if address is None:
            address = _address(script, self.network)
        return address

    def add(self, row: Utxo, address: str, script: bytes) -> None:
        """Hold the output `row`, paid to `script`, whose address is
        `address`."""
        outpoint = row.outpoint
        if outpoint in self.by_outpoint:
            self.remove(outpoint)  # a repeated txid replaces the older output
        self.by_outpoint[outpoint] = (row, address)
        bucket = self.by_address.get(address)
        if bucket is None:
            bucket = self.by_address[address] = set()
            self.scripts[address] = script
            self.names[script] = address
        bucket.add(outpoint)
        listing = self.listings.get(address)
        if listing is not None:
            key = (-row.height, outpoint.txid, outpoint.vout)
            at = bisect_left(listing.keys, key)
            listing.keys.insert(at, key)
            listing.rows.insert(at, row)
            listing.total += row.value

    def load(self, rows: list[tuple[Utxo, bytes]]) -> None:
        """Fill an empty set with `(row, script)` pairs, deriving each
        script's address once. The rows name distinct outpoints; if two
        name one, the set comes out shorter than `rows` and unfit for use,
        which is how a caller finds out."""
        assert not self.by_outpoint, "load fills an empty set"
        by_outpoint, by_address, names = self.by_outpoint, self.by_address, self.names
        network = self.network
        for row, script in rows:
            address = names.get(script)
            if address is None:
                address = names[script] = _address(script, network)
                self.scripts[address] = script
                by_address[address] = set()
            by_outpoint[row.outpoint] = (row, address)
            by_address[address].add(row.outpoint)

    def remove(self, outpoint: OutPoint) -> bool:
        entry = self.by_outpoint.pop(outpoint, None)
        if entry is None:
            return False
        row, address = entry
        bucket = self.by_address.get(address)
        if bucket is not None:
            bucket.discard(outpoint)
            if not bucket:
                del self.by_address[address]
                del self.names[self.scripts.pop(address)]
        listing = self.listings.get(address)
        if listing is not None:
            at = bisect_left(listing.keys, (-row.height, outpoint.txid, outpoint.vout))
            del listing.keys[at]
            del listing.rows[at]
            listing.total -= row.value
        return True

    def listing(self, address: str) -> Listing:
        """The address's kept listing of its stored rows, built on first
        use. An address with no outputs gets an empty listing that is not
        kept."""
        listing = self.listings.get(address)
        if listing is None:
            bucket = self.by_address.get(address)
            if not bucket:
                return _NO_LISTING
            by_outpoint = self.by_outpoint
            keyed = []
            for outpoint in bucket:
                row = by_outpoint[outpoint][0]
                keyed.append(((-row.height, outpoint.txid, outpoint.vout), row))
            keyed.sort()  # by page key; keys are distinct, so no two rows are compared
            rows = [row for _, row in keyed]
            keys = [key for key, _ in keyed]
            listing = self.listings[address] = Listing(rows, keys, sum(row.value for row in rows))
        return listing

    def apply_block(
        self, block: Block, height: int, address_of: Optional[Callable[[bytes], str]] = None
    ) -> int:
        """Spend the inputs and insert the outputs of every transaction,
        finding each output's address by `address_of`, the kept names by
        default.

        Spending conditions are never verified here; an input that names
        an unknown outpoint is counted as an anomaly and skipped, keeping
        the two indexes consistent no matter what the block contains.
        """
        address_of = address_of or self.address_of
        anomalies = 0
        for tx in block.transactions:
            if not tx.is_coinbase():
                for txin in tx.inputs:
                    if not self.remove(txin.outpoint):
                        anomalies += 1
            txid = tx.txid()
            for vout, txout in enumerate(tx.outputs):
                script = txout.script_pubkey
                row = Utxo(OutPoint(txid, vout), txout.value, height)
                self.add(row, address_of(script), script)
        return anomalies

    def apply_delta(self, block: Block, height: int, delta: OverlayDelta) -> int:
        """Fold the block from its overlay delta, as `apply_block` would:
        spend its inputs in block order, then move its outputs in per
        address, storing the delta's rows. A folded block lies above every
        held output, so an address's rows lead its kept listing.

        The block goes through `apply_block` instead when the order of its
        writes could show in the result: when it is not `plain`, or when an
        output repeats a held outpoint.
        """
        by_outpoint, by_address, listings = self.by_outpoint, self.by_address, self.listings
        groups = delta.groups
        if not delta.plain or not by_outpoint.keys().isdisjoint(
            map(_outpoint, chain.from_iterable(groups.values()))
        ):
            return self.apply_block(block, height, delta.names.__getitem__)
        anomalies = 0
        for outpoint in delta.inputs:
            if not self.remove(outpoint):
                anomalies += 1
        for script, address in delta.names.items():
            rows = groups[address]
            bucket = by_address.get(address)
            if bucket is None:
                bucket = by_address[address] = set()
                self.scripts[address] = script
                self.names[script] = address
            for row in rows:
                by_outpoint[row.outpoint] = (row, address)
                bucket.add(row.outpoint)
            listing = listings.get(address)
            if listing is not None:
                listing.rows[:0] = rows
                listing.keys[:0] = map(_page_key, rows)
                listing.total += sum(row.value for row in rows)
        return anomalies
