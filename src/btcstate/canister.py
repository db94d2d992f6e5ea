"""The replicated state machine that tracks the chain's spendable outputs.

The materialized UTXO set covers the chain up to and including the anchor,
the highest block considered stable under the work-based stability rule
(threshold delta, 144 in production). Full blocks above the anchor are kept
separately so any reorganization above the anchor resolves automatically;
queries overlay the applied chain (the selected chain's bodied blocks above
the anchor) on the materialized set. A block's outputs, with their
addresses, and the outpoints it spends are derived when it joins the
overlay index and kept there while it stays applied; folding a block the
index holds into the materialized set takes its outputs' addresses from
there. The materialized set keeps each output's address beside it, so
spending it derives nothing.

Every listed output, materialized or overlaid, is stored as an immutable
`Utxo` row when it is first indexed, and queries hand out those stored
rows: serving a page builds nothing per entry.

The overlay is one index over the applied chain: each address's overlay
rows in page order, the heights of the blocks that spend each outpoint,
each address's materialized outpoints that the applied chain spends, and
each address's value over its overlay outputs that no applied block
spends. It is built on the first query after a load and brought up to date
on the first query after each response: folded blocks leave from the
bottom, the blocks of a branch that lost leave from the top and new blocks
join at the top, each at the cost of its own outputs and inputs. A
confirmation filter or a page token's tip is a height cut on those rows and
spends, so no query walks the unstable blocks; the applied blocks'
confirmation counts are taken once per response, on the first filtered
query.

An address's materialized outputs are listed once, on the first query that
needs them, sorted by the page key (height descending, then txid and
output index) together with their total value; every later write keeps that
listing current with a bisected insert or delete. Every overlay output lies
above the anchor and every materialized output at or below it, so a listing
is the overlay's unspent outputs followed by the kept listing minus the
outpoints the overlay spends, with no merge. A page token names the key of
the last entry served, and its continuation bisects to that key, so a full
walk is linear in its entries. An unfiltered balance is the kept total,
less the materialized outputs the overlay spends, plus the index's kept
value; a filtered balance scans the address's overlay rows up to its cut.

Responses from the sync endpoint are applied one at a time in simulator
order; the whole state is deterministic given the message sequence.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import Counter, deque
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from btcstate.adapter import GetSuccessorsRequest, GetSuccessorsResponse
from btcstate.blocktree import BlockTree, DepthKind
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    MAX_MONEY,
    NetworkKind,
    OutPoint,
    SerializationError,
    Transaction,
    TxOut,
    script_address,
)
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    check_block,
    check_block_shape,
    check_header,
)

DEFAULT_DELTA = 144
DEFAULT_TAU = 2
DEFAULT_PAGE_SIZE = 1000

SNAPSHOT_MAGIC = "btcstate-snapshot 2"


class SnapshotError(ValueError):
    """A state snapshot that cannot be loaded; the message names the
    offending line or field."""


class ApiError(Exception):
    pass


class ApiUnavailableError(ApiError):
    """State is not synced; serving now could return stale data."""


class FilterRejectedError(ApiError):
    """The confirmation filter or page token cannot be honored."""


class NetworkMismatchError(ApiError):
    pass


class MalformedTransactionError(ApiError):
    pass


class Utxo(NamedTuple):
    """One unspent output as listed. Every stored row is one of these and
    queries hand the stored objects out, so they are immutable."""

    outpoint: OutPoint
    value: int
    height: int


class UtxosPage:
    """One page of a UTXO listing, height-descending, with the tip of the
    chain the listing reflects and a continuation token when truncated."""

    __slots__ = ("utxos", "tip_hash", "tip_height", "next_page")

    def __init__(
        self,
        utxos: tuple[Utxo, ...],
        tip_hash: Hash256,
        tip_height: int,
        next_page: Optional[str],
    ):
        self.utxos = utxos
        self.tip_hash = tip_hash
        self.tip_height = tip_height
        self.next_page = next_page


def _page_key(row: Utxo) -> tuple[int, bytes, int]:
    """Listing order: height descending, then txid bytes, then output index."""
    outpoint = row[0]
    return (-row[2], outpoint.txid, outpoint.vout)


class Listing:
    """One address's materialized outputs in page order, and their total."""

    __slots__ = ("rows", "total")

    def __init__(self, rows: list[Utxo], total: int):
        self.rows = rows
        self.total = total


_NO_LISTING = Listing((), 0)  # shared by every address with no outputs; a tuple, so never written


def _address(script: bytes, network: NetworkKind) -> str:
    """The script's address, interned so that one string serves every
    output paid to it."""
    return sys.intern(script_address(script, network))


def output_addresses(block: Block, network: NetworkKind) -> list[str]:
    """The address of every output of the block, in block order."""
    return [
        _address(txout.script_pubkey, network) for tx in block.transactions for txout in tx.outputs
    ]


class UtxoSet:
    """Outpoint-indexed unspent outputs, each with its height and address,
    an address index for retrieval, and a kept listing for each address a
    query has asked for."""

    def __init__(self, network: NetworkKind):
        self.network = network
        self.by_outpoint: dict[OutPoint, tuple[TxOut, int, str]] = {}
        self.by_address: dict[str, set[OutPoint]] = {}
        # Built on an address's first query and kept current by every write.
        self.listings: dict[str, Listing] = {}

    def __len__(self) -> int:
        return len(self.by_outpoint)

    def add(self, outpoint: OutPoint, txout: TxOut, height: int, address: str) -> None:
        """Hold an output; `address` is its script's address."""
        if outpoint in self.by_outpoint:
            self.remove(outpoint)  # a repeated txid replaces the older output
        self.by_outpoint[outpoint] = (txout, height, address)
        self.by_address.setdefault(address, set()).add(outpoint)
        listing = self.listings.get(address)
        if listing is not None:
            insort(listing.rows, Utxo(outpoint, txout.value, height), key=_page_key)
            listing.total += txout.value

    def remove(self, outpoint: OutPoint) -> bool:
        entry = self.by_outpoint.pop(outpoint, None)
        if entry is None:
            return False
        txout, height, address = entry
        bucket = self.by_address.get(address)
        if bucket is not None:
            bucket.discard(outpoint)
            if not bucket:
                del self.by_address[address]
        listing = self.listings.get(address)
        if listing is not None:
            if bucket:
                rows = listing.rows
                del rows[bisect_left(rows, (-height, outpoint.txid, outpoint.vout), key=_page_key)]
                listing.total -= txout.value
            else:
                del self.listings[address]
        return True

    def listing(self, address: str) -> Listing:
        """The address's kept listing, built on first use. An address with
        no outputs gets an empty listing that is not kept."""
        listing = self.listings.get(address)
        if listing is None:
            bucket = self.by_address.get(address)
            if not bucket:
                return _NO_LISTING
            rows = []
            for outpoint in bucket:
                txout, height, _ = self.by_outpoint[outpoint]
                rows.append(Utxo(outpoint, txout.value, height))
            rows.sort(key=_page_key)
            listing = self.listings[address] = Listing(rows, sum(row.value for row in rows))
        return listing

    def apply_block(
        self, block: Block, height: int, addresses: Optional[list[str]] = None
    ) -> int:
        """Spend the inputs and insert the outputs of every transaction.
        `addresses` are the outputs' addresses in block order, as
        `output_addresses` gives them; derived here when not given.

        Spending conditions are never verified here; an input that names
        an unknown outpoint is counted as an anomaly and skipped, keeping
        the two indexes consistent no matter what the block contains.
        """
        if addresses is None:
            addresses = output_addresses(block, self.network)
        anomalies = 0
        pos = 0
        for tx in block.transactions:
            if not tx.is_coinbase():
                for txin in tx.inputs:
                    if not self.remove(txin.outpoint):
                        anomalies += 1
            txid = tx.txid()
            for vout, txout in enumerate(tx.outputs):
                self.add(OutPoint(txid, vout), txout, height, addresses[pos])
                pos += 1
        return anomalies


class OverlayDelta(NamedTuple):
    """What one unstable block changes for queries: every output as a row,
    in block order, with the output's address at the same position, and
    the outpoints it spends. Every address of the block is derived once,
    here, and the anchor fold reuses them."""

    rows: list[Utxo]
    addresses: list[str]
    spent: frozenset[OutPoint]

    @classmethod
    def of_block(cls, block: Block, height: int, network: NetworkKind) -> "OverlayDelta":
        rows: list[Utxo] = []
        spent: list[OutPoint] = []
        for tx in block.transactions:
            if not tx.is_coinbase():
                spent.extend(txin.outpoint for txin in tx.inputs)
            txid = tx.txid()
            rows.extend(
                Utxo(OutPoint(txid, vout), txout.value, height) for vout, txout in enumerate(tx.outputs)
            )
        return cls(rows, output_addresses(block, network), frozenset(spent))


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
    `held_address` the address of each of those. Blocks join and leave
    only at the two ends, so each costs its own rows and spends.
    """

    __slots__ = (
        "first",
        "blocks",
        "rows",
        "outputs",
        "spenders",
        "unspent_value",
        "held_spent",
        "held_address",
    )

    def __init__(self, first: int):
        self.first = first
        self.blocks: list[tuple[Hash256, OverlayDelta]] = []
        self.rows: dict[str, list[Utxo]] = {}
        self.outputs: dict[OutPoint, tuple[str, int, int]] = {}
        self.spenders: dict[OutPoint, list[int]] = {}
        self.unspent_value: dict[str, int] = {}
        self.held_spent: dict[str, set[OutPoint]] = {}
        self.held_address: dict[OutPoint, str] = {}

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

    def push(self, h: Hash256, delta: OverlayDelta, touched: set[OutPoint]) -> None:
        """Join a block at the top; the outpoints whose spends changed go
        into `touched`."""
        height = self.first + len(self.blocks)
        self.blocks.append((h, delta))
        outputs, spenders = self.outputs, self.spenders
        fresh: dict[str, list[Utxo]] = {}
        for address, row in zip(delta.addresses, delta.rows):
            fresh.setdefault(address, []).append(row)
            op = row.outpoint
            entry = outputs.get(op)
            if entry is None:
                outputs[op] = (address, row.value, 1)
                if op not in spenders:
                    self._add_unspent(address, row.value)
            else:
                outputs[op] = (address, row.value, entry[2] + 1)
        for address, rows in fresh.items():
            rows.sort(key=_page_key)
            # The block lies above every indexed row, so its rows lead.
            self.rows.setdefault(address, [])[:0] = rows
        for op in delta.spent:
            heights = spenders.get(op)
            if heights is None:
                spenders[op] = [height]
                self._spend_changed(op, -1)
            else:
                heights.append(height)
        touched |= delta.spent

    def drop_top(self, touched: set[OutPoint]) -> None:
        """Take the top block off: a reorganization left it behind."""
        _, delta = self.blocks.pop()
        self._forget(delta, bottom=False)
        touched |= delta.spent

    def drop_bottom(self, touched: set[OutPoint]) -> None:
        """Take the lowest block off: it was folded into the materialized
        set, which now holds its outputs and lacks what it spent."""
        _, delta = self.blocks.pop(0)
        self.first += 1
        self._forget(delta, bottom=True)
        touched |= delta.spent
        touched.update(row.outpoint for row in delta.rows)

    def _forget(self, delta: OverlayDelta, bottom: bool) -> None:
        """Delete an end block's rows and spends. The lowest block's rows
        close each address's rows and its height opens each outpoint's
        spending heights; the top block's are the other way round."""
        outputs, spenders = self.outputs, self.spenders
        for address, count in Counter(delta.addresses).items():
            rows = self.rows[address]
            if bottom:
                del rows[-count:]
            else:
                del rows[:count]
            if not rows:
                del self.rows[address]
        for address, row in zip(delta.addresses, delta.rows):
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
                self._spend_changed(op, 1)

    def _spend_changed(self, op: OutPoint, sign: int) -> None:
        """An outpoint gained its first spender (sign -1) or lost its last
        (sign 1): an overlay outpoint leaves or rejoins the unspent value."""
        entry = self.outputs.get(op)
        if entry is not None:
            self._add_unspent(entry[0], sign * entry[1])

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


_PAGE_TAG = "p2"


def _encode_page_token(tip: Hash256, utxo: Utxo) -> str:
    return (
        f"{_PAGE_TAG}:{tip.rev_hex()}:{utxo.height}:"
        f"{utxo.outpoint.txid.hex()}:{utxo.outpoint.vout}"
    )


def _decode_page_token(token: str) -> tuple[Hash256, tuple[int, bytes, int]]:
    """The tip the listing was cut from and the page key of its last entry."""
    parts = token.split(":")
    if len(parts) != 5 or parts[0] != _PAGE_TAG:
        raise FilterRejectedError("unrecognized page token")
    try:
        tip = Hash256.from_rev_hex(parts[1])
        height = int(parts[2])
        txid = bytes.fromhex(parts[3])
        vout = int(parts[4])
    except ValueError:
        raise FilterRejectedError("corrupt page token") from None
    if len(txid) != 32:
        raise FilterRejectedError("corrupt page token")
    return tip, (-height, txid, vout)


class Canister:
    """Deterministic single-writer state machine over sync responses."""

    def __init__(
        self,
        genesis: BlockHeader,
        network: NetworkKind,
        delta: int = DEFAULT_DELTA,
        tau: int = DEFAULT_TAU,
        policy: Optional[ChainPolicy] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        if delta < 1:
            raise ValueError(f"delta must be at least 1, not {delta}")
        if tau < 0:
            raise ValueError(f"tau must be non-negative, not {tau}")
        if page_size < 1:
            raise ValueError(f"page size must be at least 1, not {page_size}")
        self.network = network
        self.delta = delta
        self.tau = tau
        self.policy = policy if policy is not None else ChainPolicy.for_network(network)
        self.page_size = page_size
        self.tree = BlockTree(genesis)
        self.anchor: Hash256 = genesis.hash()
        self.utxos = UtxoSet(network)
        # The applied chain's overlay, built on the first query and brought
        # up to date on the first query after each response.
        self._index: Optional[OverlayIndex] = None
        self._index_current = False
        # The applied blocks' running minimum confirmation count, negated so
        # that it ascends; taken on the first filtered query after a response.
        self._floors: Optional[list[int]] = None
        self.outbound_txs: deque[bytes] = deque()
        self.synced = True
        self.anomaly_count = 0
        self.blocks_ingested = 0
        self.reorgs = 0
        # Valid-looking headers rejected for extending below the anchor; a
        # rising count is the local symptom of a reorganization too deep to
        # absorb (recovery would need a state reset).
        self.below_anchor_rejects = 0

    # -- request/response cycle --------------------------------------------------

    def anchor_height(self) -> int:
        return self.tree.height(self.anchor)

    def max_body_height(self) -> int:
        """Greatest height for which a block body is held (anchor if none)."""
        top = self.anchor_height()
        for height in range(self.tree.max_height(), top, -1):
            if any(self.tree.has_block(h) for h in self.tree.at_height(height)):
                return height
        return top

    def _bodies_within_tau(self) -> bool:
        """Whether the known headers outrun the held bodies by at most tau
        blocks: what the synced flag says."""
        return self.tree.max_height() - self.max_body_height() <= self.tau

    def build_request(self) -> GetSuccessorsRequest:
        """Anchor, the hashes we already hold bodies for (all above the
        anchor), and the drained outbound transaction queue."""
        anchor_header = self.tree.header(self.anchor)
        assert anchor_header is not None
        txs = tuple(self.outbound_txs)
        self.outbound_txs.clear()
        return GetSuccessorsRequest(anchor_header, self.tree.bodied(), txs)

    def requeue_transactions(self, txs: Iterable[bytes]) -> None:
        """Put drained transactions back (used when a request round fails)."""
        for raw in txs:
            self.outbound_txs.appendleft(raw)

    def handle_response(self, resp: GetSuccessorsResponse, now: float) -> None:
        """Apply one response: store valid blocks, advance the anchor while
        the lowest unstable block is work-stable, append reported headers,
        and recompute the synced flag. Invalid items are skipped one by
        one; a bad pair never poisons the rest of the response."""
        self._index_current = False
        self._floors = None
        old_tip = self.tree.tip
        for block, header in resp.blocks:
            if self._ingest_block(block, header, now):
                self._advance_anchor()
        for header in resp.next_headers:
            self._ingest_header(header, now)
        self.synced = self._bodies_within_tau()
        if old_tip not in self.tree or self.tree.path_to(self.tree.tip, old_tip) is None:
            self.reorgs += 1

    def _ingest_header(self, header: BlockHeader, now: float) -> bool:
        h = header.hash()
        if h in self.tree:
            return True
        if header.prev in self.tree and self.tree.height(header.prev) + 1 <= self.anchor_height():
            self.below_anchor_rejects += 1
            return False  # below the anchor only the settled header may remain
        try:
            check_header(header, self.tree, self.policy, now)
        except ValidationError:
            return False
        self.tree.add_header(header)
        return True

    def _ingest_block(self, block: Block, header: BlockHeader, now: float) -> bool:
        if block.header != header:
            return False
        h = header.hash()
        if h in self.tree and self.tree.has_block(h):
            return False
        try:
            check_block(block, self.tree, self.anchor)
        except ValidationError:
            return False
        if not self._ingest_header(header, now):
            return False
        self.tree.set_block(h, block)
        self.blocks_ingested += 1
        return True

    def _advance_anchor(self) -> None:
        """Advance while the selected chain's block right above the anchor
        has a body and is δ-stable, in work relative to the current anchor
        block's work. The selected chain passes through the anchor, so that
        block has the most work depth at its height; any rival scores at
        most 0 against it and can never fold.

        Each advancement folds the block into the UTXO set, prunes rival
        branches at that height, and drops the block body. The outputs'
        addresses come from the overlay index when it holds the block, and
        are derived otherwise.
        """
        index = self._index
        while True:
            next_height = self.anchor_height() + 1
            best = self.tree.selected_at(next_height)
            if (
                best is None
                or (block := self.tree.block(best)) is None
                or not self.tree.is_delta_stable(
                    best, self.delta, DepthKind.WORK, reference=self.anchor
                )
            ):
                break
            delta = index.delta(best, next_height) if index is not None else None
            addresses = delta.addresses if delta is not None else None
            self.anomaly_count += self.utxos.apply_block(block, next_height, addresses)
            for rival in self.tree.at_height(next_height):
                if rival != best:
                    self.tree.remove_subtree(rival)
            self.tree.drop_block(best)
            self.anchor = best

    # -- query helpers ---------------------------------------------------------

    def _overlay_index(self) -> OverlayIndex:
        """The overlay index, brought up to date with the applied chain."""
        index = self._index
        if self._index_current:
            return index
        tree = self.tree
        top = self.anchor_height()
        touched: set[OutPoint] = set()
        if index is not None:
            blocks = index.blocks
            keep = len(blocks)  # the indexed blocks still on the selected chain
            while keep and tree.selected_at(index.first + keep - 1) != blocks[keep - 1][0]:
                keep -= 1
            folded = top + 1 - index.first  # indexed blocks now at or below the anchor
            if keep > folded:
                while len(blocks) > keep:
                    index.drop_top(touched)
                for _ in range(folded):
                    index.drop_bottom(touched)
            else:
                index = None  # no indexed block stays: build afresh
        if index is None:
            index = OverlayIndex(top + 1)
        height = index.top() + 1
        while (h := tree.selected_at(height)) is not None and tree.has_block(h):
            index.push(h, OverlayDelta.of_block(tree.block(h), height, self.network), touched)
            height += 1
        index.settle(touched, self.utxos.by_outpoint)
        self._index = index
        self._index_current = True
        return index

    def _filter_cut(self, min_conf: Optional[int]) -> int:
        """The height up to which a fresh query overlays the applied chain.

        With a confirmation filter, the chain is cut before the first block
        whose confirmation count falls short; the materialized prefix up to
        the anchor is always included since it cannot be unwound.
        """
        index = self._overlay_index()
        if min_conf is None:
            return index.top()
        if self._floors is None:
            self._floors = list(
                accumulate((-self.tree.confirmations(h) for h, _ in index.blocks), max)
            )
        return index.first - 1 + bisect_right(self._floors, -min_conf)

    def _token_cut(self, tip: Hash256) -> int:
        """The height up to which a continuation overlays: its token's tip,
        which must still be the anchor or an applied block."""
        index = self._overlay_index()
        if tip == self.anchor:
            return index.first - 1
        if tip in self.tree:
            height = self.tree.height(tip)
            if index.delta(tip, height) is not None:
                return height
            if height >= index.first and self.tree.selected_at(height) == tip:
                raise FilterRejectedError("page token's tip is above the held blocks")
        raise FilterRejectedError("page token's tip left the selected chain")

    def _overlay(
        self, address: str, cut: int, after_key: Optional[tuple[int, bytes, int]] = None
    ) -> tuple[list[Utxo], list[OutPoint]]:
        """The address's overlay rows at or below height `cut` that no block
        up to `cut` spends, in page order and after `after_key` (a repeated
        outpoint lists its highest copy only), and its materialized
        outpoints that a block up to `cut` spends."""
        index = self._overlay_index()
        spenders = index.spenders
        created: list[Utxo] = []
        rows = index.rows.get(address)
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
        spent = [op for op in index.held_spent.get(address, ()) if spenders[op][0] <= cut]
        return created, spent

    def _rows(
        self,
        address: str,
        cut: int,
        after_key: Optional[tuple[int, bytes, int]] = None,
        limit: Optional[int] = None,
    ) -> list[Utxo]:
        """The address's unspent rows in page order, after `after_key`, at
        most `limit` of them: the overlay's rows, then the kept listing
        minus the outpoints the overlay spends. Only the rows returned are
        copied, and each spent outpoint costs one bisect."""
        created, spent = self._overlay(address, cut, after_key)
        held = self.utxos.listing(address).rows
        start = 0 if after_key is None else bisect_right(held, after_key, key=_page_key)
        if limit is None:
            limit = len(created) + len(held)
        rows = created[:limit]
        room = limit - len(rows)
        window = held[start : start + room + len(spent)]
        if spent:
            # Cut the spent rows out by position, found by bisecting to
            # their keys, rather than testing every row of the window.
            by_outpoint = self.utxos.by_outpoint
            cuts = sorted(
                (
                    bisect_left(held, (-by_outpoint[op][1], op.txid, op.vout), key=_page_key)
                    for op in spent
                ),
                reverse=True,
            )
            end = start + len(window)
            for cut_at in cuts:
                if start <= cut_at < end:
                    del window[cut_at - start]
        rows.extend(window[:room])
        return rows

    def _check_available(self, network: NetworkKind) -> None:
        if network is not self.network:
            raise NetworkMismatchError(f"state tracks {self.network.value}, not {network.value}")
        if not self.synced:
            raise ApiUnavailableError("known headers outrun available blocks")

    def _check_min_conf(self, min_conf: int) -> None:
        if min_conf < 1:
            raise FilterRejectedError("min_confirmations must be positive")
        if min_conf > self.delta:
            raise FilterRejectedError(
                f"min_confirmations {min_conf} exceeds the stability threshold {self.delta}"
            )

    def _fresh_cut(self, network: NetworkKind, min_confirmations: Optional[int]) -> int:
        """The checks every fresh query makes, then the height up to which
        it overlays the applied chain."""
        self._check_available(network)
        if min_confirmations is not None:
            self._check_min_conf(min_confirmations)
        return self._filter_cut(min_confirmations)

    # -- public API -----------------------------------------------------------

    def get_utxos(
        self,
        address: str,
        network: NetworkKind,
        min_confirmations: Optional[int] = None,
        page: Optional[str] = None,
    ) -> UtxosPage:
        """UTXOs of an address, height-descending, paginated.

        The result reflects the materialized set at the anchor plus the
        unstable blocks along the currently selected chain, minus outputs
        those blocks spend. A min_confirmations filter restricts the
        overlay to blocks with at least that many confirmations; it is
        rejected above the stability threshold because spends already
        folded into the materialized set could not be excluded.

        A page token carries the tip its listing was cut from, and a
        continuation overlays exactly up to that tip; once the tip has left
        the selected chain above the anchor, the token is rejected rather
        than mixing two chain states in one walk.
        """
        if page is None:
            cut = self._fresh_cut(network, min_confirmations)
            index = self._overlay_index()
            tip = index.blocks[cut - index.first][0] if cut >= index.first else self.anchor
            after_key = None
        else:
            self._check_available(network)
            if min_confirmations is not None:
                raise FilterRejectedError("filter takes confirmations or a page token, not both")
            tip, after_key = _decode_page_token(page)
            cut = self._token_cut(tip)
        rows = self._rows(address, cut, after_key, self.page_size + 1)
        utxos = tuple(rows[: self.page_size])
        next_token = None
        if len(rows) > self.page_size:
            next_token = _encode_page_token(tip, utxos[-1])
        return UtxosPage(utxos, tip, cut, next_token)

    def list_utxos(
        self,
        address: str,
        network: NetworkKind,
        min_confirmations: Optional[int] = None,
    ) -> tuple[Utxo, ...]:
        """Every UTXO a get_utxos walk over the same selection pages
        through, in one unpaginated listing."""
        cut = self._fresh_cut(network, min_confirmations)
        return tuple(self._rows(address, cut))

    def get_balance(
        self,
        address: str,
        network: NetworkKind,
        min_confirmations: Optional[int] = None,
    ) -> int:
        """Total satoshi over the same selection as get_utxos, unpaginated:
        the kept total, less what the overlay spends of it, plus what the
        overlay creates and leaves unspent. Without a filter the overlay's
        part is the index's kept value; a filter scans the address's rows."""
        cut = self._fresh_cut(network, min_confirmations)
        if min_confirmations is None:
            index = self._overlay_index()
            spent = index.held_spent.get(address, ())
            created = index.unspent_value.get(address, 0)
        else:
            rows, spent = self._overlay(address, cut)
            created = sum(row.value for row in rows)
        by_outpoint = self.utxos.by_outpoint
        return (
            self.utxos.listing(address).total
            - sum(by_outpoint[op][0].value for op in spent)
            + created
        )

    def send_transaction(self, tx_bytes: bytes, network: NetworkKind) -> Hash256:
        """Queue a syntactically valid transaction for relay on the next
        update request. Spending semantics are not checked."""
        self._check_available(network)
        try:
            tx = Transaction.from_bytes(bytes(tx_bytes))
        except SerializationError as exc:
            raise MalformedTransactionError(str(exc)) from None
        if not tx.inputs or not tx.outputs:
            raise MalformedTransactionError("transaction needs inputs and outputs")
        if any(not 0 <= out.value <= MAX_MONEY for out in tx.outputs):
            raise MalformedTransactionError("output value out of range")
        self.outbound_txs.append(bytes(tx_bytes))
        return tx.txid()

    # -- metrics helpers ---------------------------------------------------------

    def confirmations_of_tx(self, txid: Hash256) -> Optional[int]:
        """Confirmation count of the unstable block containing txid, if any;
        of several, the lowest, and of rivals the first held at its height."""
        tree = self.tree
        holders = [
            h for h in tree.bodied() if any(tx.txid() == txid for tx in tree.block(h).transactions)
        ]
        if not holders:
            return None
        first = min(
            holders, key=lambda h: (tree.height(h), tree.at_height(tree.height(h)).index(h))
        )
        return tree.confirmations(first)

    def current_tip_height(self) -> int:
        return self.tree.height(self.tree.tip)

    # -- invariants -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Check every invariant the state keeps, by full scans and fresh
        builds; raise AssertionError naming the first one broken."""
        tree, utxos, by_outpoint = self.tree, self.utxos, self.utxos.by_outpoint

        def require(holds: bool, invariant: str) -> None:
            if not holds:
                raise AssertionError(f"broken invariant: {invariant}")

        require(self.anchor in tree, "the anchor is in the tree")
        chain = tree.path_to(tree.tip, self.anchor)
        require(chain is not None, "the anchor is on the selected chain")
        top = self.anchor_height()
        by_address: dict[str, set[OutPoint]] = {}
        for op, (txout, height, address) in by_outpoint.items():
            require(height <= top, "materialized outputs lie at or below the anchor")
            require(
                address == script_address(txout.script_pubkey, self.network),
                "each materialized output keeps its script's address",
            )
            by_address.setdefault(address, set()).add(op)
        require(by_address == utxos.by_address, "the address and outpoint indexes agree")
        for address, listing in utxos.listings.items():
            rows = sorted(
                (
                    (op, by_outpoint[op][0].value, by_outpoint[op][1])
                    for op in by_address.get(address, ())
                ),
                key=_page_key,
            )
            require(
                bool(rows) and listing.rows == rows and listing.total == sum(r[1] for r in rows),
                "each kept listing is its address's outputs in page order, with their total",
            )
        bodied = tree.bodied()
        require(
            bodied == {h for h in tree.hashes() if tree.has_block(h)},
            "the tree's kept bodied set equals a scan of has_block",
        )
        for h in bodied:
            require(tree.height(h) > top, "bodies are held only above the anchor")
            parent = tree.parent(h)
            require(
                parent == self.anchor or parent in bodied,
                "every body's parent is bodied or is the anchor",
            )
        require(self.synced == self._bodies_within_tau(), "synced matches tau")
        if not self._index_current:
            return  # brought up to date by the next query
        applied = []
        for h in chain[1:]:
            if not tree.has_block(h):
                break
            applied.append(h)
        fresh = OverlayIndex(top + 1)
        touched: set[OutPoint] = set()
        for h in applied:
            fresh.push(h, OverlayDelta.of_block(tree.block(h), tree.height(h), self.network), touched)
        fresh.settle(touched, by_outpoint)
        require(
            self._index == fresh, "the overlay index equals a fresh build from the applied chain"
        )
        index_top = fresh.top()
        require(
            set(fresh.unspent_value) <= set(fresh.rows)
            and all(
                fresh.unspent_value.get(address, 0)
                == sum(row.value for row in self._overlay(address, index_top)[0])
                for address in fresh.rows
            ),
            "each address's kept unspent value is the sum of its unfiltered overlay rows",
        )
        if self._floors is not None:
            lows = list(accumulate((tree.confirmations(h) for h in applied), min))
            require(
                self._floors == [-low for low in lows],
                "the kept confirmation floors are the applied blocks' running minimum",
            )

    # -- snapshot ---------------------------------------------------------------

    def snapshot_lines(self) -> list[str]:
        lines = [
            SNAPSHOT_MAGIC,
            f"network {self.network.value}",
            f"delta {self.delta}",
            f"tau {self.tau}",
            f"page-size {self.page_size}",
            f"anchor {self.anchor.rev_hex()}",
            f"synced {1 if self.synced else 0}",
        ]
        order = list(self.tree.bfs())
        for h in order:
            header = self.tree.header(h)
            assert header is not None
            lines.append(f"header {header.to_bytes().hex()}")
        for h in order:
            block = self.tree.block(h)
            if block is not None:
                lines.append(f"block {block.to_bytes().hex()}")
        for outpoint, (txout, height, _) in sorted(
            self.utxos.by_outpoint.items(), key=lambda kv: (bytes(kv[0].txid), kv[0].vout)
        ):
            lines.append(
                "utxo "
                f"{outpoint.txid.rev_hex()} {outpoint.vout} {txout.value} "
                f"{txout.script_pubkey.hex()} {height}"
            )
        for raw in self.outbound_txs:
            lines.append(f"queued-tx {raw.hex()}")
        lines.append("end")
        return lines

    @classmethod
    def from_snapshot(cls, lines: Iterable[str]) -> "Canister":
        """Load a state written by snapshot_lines. Anything malformed raises
        SnapshotError, naming the line (counted from 1) or the field."""
        numbered = enumerate(lines, start=1)
        magic = next(numbered, (1, ""))[1].strip()
        if magic != SNAPSHOT_MAGIC:
            if magic.startswith("btcstate-snapshot "):
                raise SnapshotError(f"unsupported snapshot version {magic!r}")
            raise SnapshotError("not a state snapshot (bad magic)")
        fields: dict[str, tuple[int, str]] = {}
        headers: list[tuple[int, BlockHeader]] = []
        blocks: list[tuple[int, Block]] = []
        utxo_lines: list[tuple[int, OutPoint, TxOut, int]] = []
        queued: list[bytes] = []
        for lineno, raw in numbered:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "end":
                break
            key, _, value = line.partition(" ")
            try:
                if key == "header":
                    headers.append((lineno, BlockHeader.from_bytes(bytes.fromhex(value))))
                elif key == "block":
                    blocks.append((lineno, Block.from_bytes(bytes.fromhex(value))))
                elif key == "utxo":
                    parts = value.split()
                    if len(parts) != 5:
                        raise ValueError(f"needs 5 fields, got {len(parts)}")
                    txid_hex, vout, amount, script_hex, height = parts
                    utxo_lines.append(
                        (
                            lineno,
                            OutPoint(Hash256.from_rev_hex(txid_hex), int(vout)),
                            TxOut(int(amount), bytes.fromhex(script_hex)),
                            int(height),
                        )
                    )
                elif key == "queued-tx":
                    queued.append(bytes.fromhex(value))
                else:
                    fields[key] = (lineno, value)
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: bad {key} line: {exc}") from None
        else:
            raise SnapshotError("snapshot cut off before end")
        if not headers:
            raise SnapshotError("snapshot has no headers")
        network = _snapshot_field(fields, "network", NetworkKind.from_str)
        delta = _snapshot_field(fields, "delta", int)
        tau = _snapshot_field(fields, "tau", int)
        page_size = _snapshot_field(fields, "page-size", int)
        try:
            state = cls(headers[0][1], network, delta=delta, tau=tau, page_size=page_size)
        except ValueError as exc:
            raise SnapshotError(str(exc)) from None
        for lineno, header in headers[1:]:
            if header.prev not in state.tree:
                raise SnapshotError(
                    f"line {lineno}: header {header.hash().rev_hex()} has unknown parent "
                    f"{header.prev.rev_hex()}"
                )
            try:
                state.tree.add_header(header)
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: bad header line: {exc}") from None
        state.anchor = _snapshot_field(fields, "anchor", Hash256.from_rev_hex)
        if state.anchor not in state.tree:
            raise SnapshotError(f"anchor {state.anchor.rev_hex()} is not in the snapshot's tree")
        if state.tree.path_to(state.tree.tip, state.anchor) is None:
            raise SnapshotError(
                f"anchor {state.anchor.rev_hex()} is not on the snapshot's selected chain"
            )
        top = state.anchor_height()
        # Bodies are held only above the anchor, each on the anchor or on a
        # bodied parent (snapshots list them parents first), as ingest keeps
        # them; the overlay and the anchor fold rely on both. Each body also
        # passes the shape check ingest applies, so its transactions are the
        # ones its header commits to.
        for lineno, block in blocks:
            h = block.header.hash()
            if h not in state.tree:
                raise SnapshotError(f"line {lineno}: block {h.rev_hex()} has no header line")
            if state.tree.height(h) <= top:
                raise SnapshotError(
                    f"line {lineno}: block {h.rev_hex()} at height {state.tree.height(h)} "
                    f"is at or below the anchor's height {top}"
                )
            prev = block.header.prev
            if prev != state.anchor and not state.tree.has_block(prev):
                raise SnapshotError(
                    f"line {lineno}: block {h.rev_hex()} has parent {prev.rev_hex()}, "
                    "which is neither the anchor nor bodied"
                )
            try:
                check_block_shape(block)
            except ValidationError as exc:
                raise SnapshotError(f"line {lineno}: bad block {h.rev_hex()}: {exc}") from None
            state.tree.set_block(h, block)
        # Queries list materialized outputs after the overlay's, which
        # holds only if none of them lies above the anchor.
        for lineno, outpoint, txout, height in utxo_lines:
            if height > top:
                raise SnapshotError(
                    f"line {lineno}: utxo height {height} is above the anchor's height {top}"
                )
            state.utxos.add(outpoint, txout, height, _address(txout.script_pubkey, network))
        state.synced = state._bodies_within_tau()
        if "synced" in fields:
            lineno, value = fields["synced"]
            if value != str(int(state.synced)):
                raise SnapshotError(
                    f"line {lineno}: bad synced {value!r}: the loaded tree says {int(state.synced)}"
                )
        state.outbound_txs.extend(queued)
        return state


def _snapshot_field(fields: dict[str, tuple[int, str]], name: str, parse):
    """A snapshot field's value, parsed; SnapshotError names the field's
    line when it is missing or does not parse."""
    if name not in fields:
        raise SnapshotError(f"missing {name} line")
    lineno, value = fields[name]
    try:
        return parse(value)
    except ValueError as exc:
        raise SnapshotError(f"line {lineno}: bad {name} {value!r}: {exc}") from None
