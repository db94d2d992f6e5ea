"""The replicated state machine that tracks the chain's spendable outputs.

The materialized UTXO set covers the chain up to and including the anchor,
the highest block considered stable under the work-based stability rule
(threshold delta, 144 in production). Full blocks above the anchor are kept
separately so any reorganization above the anchor resolves automatically;
queries overlay those unstable blocks on the materialized set per request.
Each unstable block's overlay (its outputs by address and the outpoints it
spends) is computed once, on the first query that needs it, and kept until
the block's body is dropped; folding the block into the materialized set
takes its outputs' addresses from there. The materialized set keeps each
output's address beside it, so spending it derives nothing. The blocks a
query overlays (the selected chain's bodied blocks above the anchor) are
listed once per applied response.

An address's materialized outputs are listed once, on the first query that
needs them, sorted by the page key (height descending, then txid and
output index) together with their total value; every later write keeps that
listing current with a bisected insert or delete. Every overlay output lies
above the anchor and every materialized output at or below it, so a listing
is the overlay's unspent outputs followed by the kept listing minus the
outpoints the overlay spends, with no merge. A page token names the key of
the last entry served, and its continuation bisects to that key, so a full
walk is linear in its entries, and a balance is the kept total corrected by
the overlay alone.

Responses from the sync endpoint are applied one at a time in simulator
order; the whole state is deterministic given the message sequence.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import starmap
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


class Utxo:
    __slots__ = ("outpoint", "value", "height")

    def __init__(self, outpoint: OutPoint, value: int, height: int):
        self.outpoint = outpoint
        self.value = value
        self.height = height

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Utxo)
            and self.outpoint == other.outpoint
            and self.value == other.value
            and self.height == other.height
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Utxo({self.outpoint.txid.rev_hex()[:12]}:{self.outpoint.vout}, {self.value}, h={self.height})"


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


# One unspent output as listed: (outpoint, value, height).
Row = tuple[OutPoint, int, int]


def _page_key(row: Row) -> tuple[int, bytes, int]:
    """Listing order: height descending, then txid bytes, then output index."""
    outpoint = row[0]
    return (-row[2], outpoint.txid, outpoint.vout)


class Listing:
    """One address's materialized outputs in page order, and their total."""

    __slots__ = ("rows", "total")

    def __init__(self, rows: list[Row], total: int):
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
            insort(listing.rows, (outpoint, txout.value, height), key=_page_key)
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
                rows.append((outpoint, txout.value, height))
            rows.sort(key=_page_key)
            listing = self.listings[address] = Listing(rows, sum(row[1] for row in rows))
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
    """What one unstable block changes for queries: its outputs grouped by
    address, each address's rows in page order, the outpoints it spends,
    its txids, and every output's address in block order (which the anchor
    fold reuses). Every address of the block is derived once, here."""

    created: dict[str, tuple[Row, ...]]
    spent: frozenset[OutPoint]
    txids: frozenset[Hash256]
    addresses: list[str]

    @classmethod
    def of_block(cls, block: Block, height: int, network: NetworkKind) -> "OverlayDelta":
        addresses = output_addresses(block, network)
        created: dict[str, list[Row]] = {}
        spent: list[OutPoint] = []
        txids: list[Hash256] = []
        pos = 0
        for tx in block.transactions:
            if not tx.is_coinbase():
                spent.extend(txin.outpoint for txin in tx.inputs)
            txid = tx.txid()
            txids.append(txid)
            for vout, txout in enumerate(tx.outputs):
                row = (OutPoint(txid, vout), txout.value, height)
                created.setdefault(addresses[pos], []).append(row)
                pos += 1
        return cls(
            {a: tuple(sorted(rows, key=_page_key)) for a, rows in created.items()},
            frozenset(spent),
            frozenset(txids),
            addresses,
        )


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
        # Overlay deltas of bodied blocks above the anchor, built on first use.
        self.deltas: dict[Hash256, OverlayDelta] = {}
        # The blocks queries overlay, built on first use after each response.
        self._kept_chain: Optional[list[Hash256]] = None
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

    def _bodied_hashes(self) -> list[Hash256]:
        out = []
        for height in range(self.anchor_height() + 1, self.tree.max_height() + 1):
            for h in self.tree.at_height(height):
                if self.tree.has_block(h):
                    out.append(h)
        return out

    def max_body_height(self) -> int:
        """Greatest height for which a block body is held (anchor if none)."""
        top = self.anchor_height()
        for height in range(self.tree.max_height(), top, -1):
            if any(self.tree.has_block(h) for h in self.tree.at_height(height)):
                return height
        return top

    def build_request(self) -> GetSuccessorsRequest:
        """Anchor, the hashes we already hold bodies for, and the drained
        outbound transaction queue."""
        anchor_header = self.tree.header(self.anchor)
        assert anchor_header is not None
        txs = tuple(self.outbound_txs)
        self.outbound_txs.clear()
        return GetSuccessorsRequest(anchor_header, frozenset(self._bodied_hashes()), txs)

    def requeue_transactions(self, txs: Iterable[bytes]) -> None:
        """Put drained transactions back (used when a request round fails)."""
        for raw in txs:
            self.outbound_txs.appendleft(raw)

    def handle_response(self, resp: GetSuccessorsResponse, now: float) -> None:
        """Apply one response: store valid blocks, advance the anchor while
        the lowest unstable block is work-stable, append reported headers,
        and recompute the synced flag. Invalid items are skipped one by
        one; a bad pair never poisons the rest of the response."""
        self._kept_chain = None
        old_tip = self.tree.tip
        for block, header in resp.blocks:
            if self._ingest_block(block, header, now):
                self._advance_anchor()
        for header in resp.next_headers:
            self._ingest_header(header, now)
        gap = self.tree.max_height() - self.max_body_height()
        self.synced = gap <= self.tau
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
        """Advance while the best block right above the anchor is δ-stable,
        in work relative to the current anchor block's work.

        Each advancement folds the block into the UTXO set, prunes rival
        branches at that height, and drops the block body; overlay deltas
        of the blocks whose bodies are gone go with them.
        """
        pruned = False
        while True:
            next_height = self.anchor_height() + 1
            at_height = self.tree.at_height(next_height)
            best = self.tree.heaviest(h for h in at_height if self.tree.has_block(h))
            if best is None or not self.tree.is_delta_stable(
                best, self.delta, DepthKind.WORK, reference=self.anchor
            ):
                break
            block = self.tree.block(best)
            assert block is not None
            delta = self.deltas.pop(best, None)
            addresses = delta.addresses if delta is not None else None
            self.anomaly_count += self.utxos.apply_block(block, next_height, addresses)
            for rival in at_height:
                if rival != best:
                    self.tree.remove_subtree(rival)
                    pruned = True
            self.tree.drop_block(best)
            self.anchor = best
        if pruned:
            # Bodies leave the tree only by folding or with a pruned branch.
            self.deltas = {h: d for h, d in self.deltas.items() if h in self.tree}

    # -- query helpers ---------------------------------------------------------

    def _applied_chain(self) -> list[Hash256]:
        """The selected chain's blocks above the anchor, in chain order, up
        to the first without a body. Kept until the next response; callers
        must not change it."""
        if self._kept_chain is None:
            chain = self.tree.path_to(self.tree.tip, self.anchor)
            assert chain is not None, "the selected tip descends from the anchor"
            applied = []
            for h in chain[1:]:
                if not self.tree.has_block(h):
                    break
                applied.append(h)
            self._kept_chain = applied
        return self._kept_chain

    def _selected_chain(self, min_conf: Optional[int]) -> tuple[list[Hash256], Hash256]:
        """Unstable blocks to overlay (in chain order) and the tip of the
        chain the result reflects.

        With a confirmation filter, the chain is cut before the first block
        whose confirmation count falls short; the materialized prefix up to
        the anchor is always included since it cannot be unwound.
        """
        applied = self._applied_chain()
        if min_conf is not None:
            for pos, h in enumerate(applied):
                if self.tree.confirmations(h) < min_conf:
                    applied = applied[:pos]
                    break
        return applied, applied[-1] if applied else self.anchor

    def _chain_to(self, tip: Hash256) -> list[Hash256]:
        """Unstable blocks to overlay for a listing cut from `tip`, which
        must still be on the selected chain at or above the anchor with
        every block up to it bodied."""
        if tip == self.anchor:
            return []
        applied = self._applied_chain()
        if tip in self.tree:
            pos = self.tree.height(tip) - self.anchor_height() - 1
            if 0 <= pos < len(applied) and applied[pos] == tip:
                return applied[: pos + 1]
            if pos >= 0 and self.tree.path_to(self.tree.tip, tip) is not None:
                raise FilterRejectedError("page token's tip is above the held blocks")
        raise FilterRejectedError("page token's tip left the selected chain")

    def _delta(self, h: Hash256) -> OverlayDelta:
        delta = self.deltas.get(h)
        if delta is None:
            block = self.tree.block(h)
            assert block is not None
            delta = OverlayDelta.of_block(block, self.tree.height(h), self.network)
            self.deltas[h] = delta
        return delta

    def _overlay(self, address: str, applied: list[Hash256]) -> tuple[list[Row], set[OutPoint]]:
        """The address's unspent rows created by the applied blocks, in page
        order, and its materialized outpoints that those blocks spend."""
        deltas = [self._delta(h) for h in applied]
        # Highest block first: each block's rows are already in page order.
        created: list[Row] = []
        for delta in reversed(deltas):
            created.extend(delta.created.get(address, ()))
        fresh = {row[0] for row in created}
        if len(fresh) < len(created):  # a repeated txid: its latest outputs win
            latest: dict[OutPoint, Row] = {}
            for row in created:
                latest.setdefault(row[0], row)
            created = list(latest.values())
        # Intersect sets only (a dict operand would be walked in full), so
        # each intersection walks the smaller side: the cost follows the
        # answer, not the block size.
        held = self.utxos.by_address.get(address)
        spent_held: set[OutPoint] = set()
        spent_fresh: set[OutPoint] = set()
        for delta in deltas:
            if held:
                spent_held |= delta.spent & held
            if fresh:
                spent_fresh |= delta.spent & fresh
        if spent_fresh:
            created = [row for row in created if row[0] not in spent_fresh]
        return created, spent_held

    def _rows(
        self,
        address: str,
        applied: list[Hash256],
        after_key: Optional[tuple[int, bytes, int]] = None,
        limit: Optional[int] = None,
    ) -> list[Row]:
        """The address's unspent rows in page order, after `after_key`, at
        most `limit` of them: the overlay's rows, then the kept listing
        minus the outpoints the overlay spends. Only the rows returned are
        copied, and each spent outpoint costs one bisect."""
        created, spent = self._overlay(address, applied)
        held = self.utxos.listing(address).rows
        start = 0
        if after_key is not None:
            created = created[bisect_right(created, after_key, key=_page_key) :]
            start = bisect_right(held, after_key, key=_page_key)
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
            for cut in cuts:
                if start <= cut < end:
                    del window[cut - start]
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

    def _applied(
        self, network: NetworkKind, min_confirmations: Optional[int]
    ) -> tuple[list[Hash256], Hash256]:
        """The checks every fresh query makes, then the blocks it overlays
        and the tip its answer reflects."""
        self._check_available(network)
        if min_confirmations is not None:
            self._check_min_conf(min_confirmations)
        return self._selected_chain(min_confirmations)

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
            applied, tip = self._applied(network, min_confirmations)
            after_key = None
        else:
            self._check_available(network)
            if min_confirmations is not None:
                raise FilterRejectedError("filter takes confirmations or a page token, not both")
            tip, after_key = _decode_page_token(page)
            applied = self._chain_to(tip)
        rows = self._rows(address, applied, after_key, self.page_size + 1)
        utxos = tuple(starmap(Utxo, rows[: self.page_size]))
        next_token = None
        if len(rows) > self.page_size:
            next_token = _encode_page_token(tip, utxos[-1])
        return UtxosPage(utxos, tip, self.tree.height(tip), next_token)

    def list_utxos(
        self,
        address: str,
        network: NetworkKind,
        min_confirmations: Optional[int] = None,
    ) -> tuple[Utxo, ...]:
        """Every UTXO a get_utxos walk over the same selection pages
        through, in one unpaginated listing."""
        applied, _ = self._applied(network, min_confirmations)
        return tuple(starmap(Utxo, self._rows(address, applied)))

    def get_balance(
        self,
        address: str,
        network: NetworkKind,
        min_confirmations: Optional[int] = None,
    ) -> int:
        """Total satoshi over the same selection as get_utxos, unpaginated:
        the kept total, less what the overlay spends of it, plus what the
        overlay creates and leaves unspent."""
        applied, _ = self._applied(network, min_confirmations)
        created, spent = self._overlay(address, applied)
        by_outpoint = self.utxos.by_outpoint
        return (
            self.utxos.listing(address).total
            - sum(by_outpoint[op][0].value for op in spent)
            + sum(row[1] for row in created)
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
        """Confirmation count of the unstable block containing txid, if any."""
        for h in self._bodied_hashes():
            if txid in self._delta(h).txids:
                return self.tree.confirmations(h)
        return None

    def current_tip_height(self) -> int:
        return self.tree.height(self.tree.tip)

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
        # them; the overlay and the anchor fold rely on both.
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
            state.tree.set_block(h, block)
        # Queries list materialized outputs after the overlay's, which
        # holds only if none of them lies above the anchor.
        for lineno, outpoint, txout, height in utxo_lines:
            if height > top:
                raise SnapshotError(
                    f"line {lineno}: utxo height {height} is above the anchor's height {top}"
                )
            state.utxos.add(outpoint, txout, height, _address(txout.script_pubkey, network))
        state.synced = fields.get("synced", (0, "1"))[1] == "1"
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
