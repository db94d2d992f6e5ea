"""The replicated state machine that tracks the chain's spendable outputs.

The materialized UTXO set (`utxoset`) covers the chain up to and including
the anchor, the highest block considered stable under the work-based
stability rule (threshold delta, 144 in production). Full blocks above the
anchor are kept separately so any reorganization above the anchor resolves
automatically; queries overlay the applied chain (the selected chain's
bodied blocks above the anchor) on the materialized set, through the
overlay index (`overlay`). The state saves to and loads from a text
snapshot (`snapshot`).

A confirmation filter or a page token's tip is a height cut on the
overlay's rows and spends, so no query walks the unstable blocks; the
applied blocks' confirmation counts are taken once per response, on the
first filtered query. Every overlay output lies above the anchor and every
materialized output at or below it, so a listing is the overlay's unspent
outputs followed by the kept listing minus the outpoints the overlay
spends, with no merge. A page token names the key of the last entry
served, and its continuation bisects to that key, so a full walk is linear
in its entries. An unfiltered balance is the kept total, less the
materialized outputs the overlay spends, plus the index's kept value; a
filtered balance scans the address's overlay rows up to its cut.

Responses from the sync endpoint are applied one at a time in simulator
order; the whole state is deterministic given the message sequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from itertools import accumulate
from typing import Iterable, Optional

from btcstate import snapshot
from btcstate.adapter import GetSuccessorsRequest, GetSuccessorsResponse
from btcstate.blocktree import BlockTree, DepthKind
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    NetworkKind,
    OutPoint,
    SerializationError,
    Transaction,
    script_address,
)
from btcstate.overlay import OverlayDelta, OverlayIndex
from btcstate.utxoset import Utxo, UtxoSet, _address, _page_key
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    check_block,
    check_header,
    check_transaction_shape,
)

DEFAULT_DELTA = 144
DEFAULT_TAU = 2
DEFAULT_PAGE_SIZE = 1000


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
            delta = OverlayDelta.of_block(tree.block(h), height, self.utxos.address_of)
            index.push(h, delta, touched)
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
            check_transaction_shape(tx)
        except (SerializationError, ValidationError) as exc:
            raise MalformedTransactionError(str(exc)) from None
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
        names: dict[bytes, str] = {}
        for op, (txout, height, address) in by_outpoint.items():
            require(height <= top, "materialized outputs lie at or below the anchor")
            require(
                address == script_address(txout.script_pubkey, self.network),
                "each materialized output keeps its script's address",
            )
            by_address.setdefault(address, set()).add(op)
            names[txout.script_pubkey] = address
        require(by_address == utxos.by_address, "the address and outpoint indexes agree")
        require(names == utxos.names, "the kept names are the held outputs' scripts' addresses")
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
        require(tree.bodied_matches_scan(), "the tree's kept bodied set equals a scan of has_block")
        bodied = tree.bodied()
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
        derive = partial(_address, network=self.network)  # not through the kept names
        for h in applied:
            fresh.push(h, OverlayDelta.of_block(tree.block(h), tree.height(h), derive), touched)
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

    snapshot_lines = snapshot.snapshot_lines
    from_snapshot = classmethod(snapshot.from_snapshot)
