"""The replicated state machine that tracks the chain's spendable outputs.

The materialized UTXO set (`utxoset`) covers the chain up to and including
the anchor, the highest block considered stable under the work-based
stability rule (threshold delta, 144 in production). Full blocks above the
anchor are kept separately so any reorganization above the anchor resolves
automatically; queries overlay the applied chain (the selected chain's
bodied blocks above the anchor) on the materialized set, through the
overlay index (`overlay`), which a query builds and every response after
it keeps current. The index folds its own lowest block when the anchor
takes it (`OverlayIndex.fold`); any other block, such as one folded before
the first query, is applied transaction by transaction. The state saves to
and loads from a text snapshot (`snapshot`).

A confirmation filter or a page token's tip is a height cut on the
overlay's rows and spends, so no query walks the unstable blocks; the
applied blocks' confirmation counts are taken once per response, in one
pass down the selected chain, on the first filtered query. Every overlay
output lies above the anchor and every materialized output at or below it,
so a listing is the overlay's unspent outputs followed by the kept listing
minus the outpoints the overlay spends, with no merge. A page is one slice
of the kept listing, trimmed in place (spent rows cut out by position, the
overlay's rows spliced in at its front), and then one tuple. A page token
names the key of the last entry served, and its continuation bisects the
listing's kept page keys to that key, so a full walk is linear in its
entries and calls no Python key function on the listing. An unfiltered
listing reads the index's kept list of the address's unspent overlay rows,
which the first such query fills and a block that touches the address
deletes; a filtered one scans the address's overlay rows. An unfiltered
balance is the kept total plus the index's kept sum of the applied blocks'
nets for the address, two lookups; a filtered balance also subtracts the
kept nets of the applied blocks above its cut, one lookup per block.

Responses from the sync endpoint are applied one at a time in simulator
order; the whole state is deterministic given the message sequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from typing import Iterable, Optional

from btcstate import snapshot
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
from btcstate.overlay import OverlayIndex
from btcstate.utxoset import Utxo, UtxoSet, _address, _page_key
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    check_block,
    check_header,
    check_transaction_shape,
)
from btcstate.wire import GetSuccessorsRequest, GetSuccessorsResponse

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
    """The tip the listing was cut from and the page key of its last entry.
    Every field must be written as the encoder writes it: the hashes in
    lowercase hex, the height and output index as plain decimal numbers (as
    a snapshot's are), the height at least 0 and the index a 32-bit one."""
    parts = token.split(":")
    if len(parts) != 5 or parts[0] != _PAGE_TAG:
        raise FilterRejectedError("unrecognized page token")
    try:
        tip = Hash256.from_rev_hex(parts[1])
        height = snapshot._bounded("height", parts[2])
        txid = bytes.fromhex(parts[3])
        vout = snapshot._bounded("vout", parts[4], snapshot._UINT32_MAX)
    except ValueError:
        raise FilterRejectedError("corrupt page token") from None
    if len(txid) != 32 or txid.hex() != parts[3] or tip.rev_hex() != parts[1]:
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
        # The applied chain's overlay, built on the first query and kept
        # current at the end of every response after it.
        self._index: Optional[OverlayIndex] = None
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
        tree, old_tip = self.tree, self.tree.tip
        for block, header in resp.blocks:
            if self._ingest_block(block, header, now):
                self._advance_anchor()
        for header in resp.next_headers:
            self._ingest_header(header, now)
        self.synced = self._bodies_within_tau()
        if old_tip not in tree or tree.selected_at(tree.height(old_tip)) != old_tip:
            self.reorgs += 1
        if self._index is not None:
            self._index.follow(self.tree, self.anchor_height(), self.utxos)

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
        branches at that height, and drops the block body. The overlay
        index folds its own lowest block (`OverlayIndex.fold`); any other
        block is applied transaction by transaction.
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
            anomalies = index.fold(best, block, self.utxos) if index is not None else None
            if anomalies is None:
                anomalies = self.utxos.apply_block(block, next_height)
            self.anomaly_count += anomalies
            for rival in self.tree.at_height(next_height):
                if rival != best:
                    self.tree.remove_subtree(rival)
            self.tree.drop_block(best)
            self.anchor = best

    # -- query helpers ---------------------------------------------------------

    def _overlay_index(self) -> OverlayIndex:
        """The overlay index, built on the first query."""
        if self._index is None:
            top = self.anchor_height()
            self._index = OverlayIndex(top + 1)
            self._index.follow(self.tree, top, self.utxos)
        return self._index

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
            if self.tree.selected_at(height) == tip:
                if height < index.first:
                    raise FilterRejectedError("page token's tip folded below the anchor")
                raise FilterRejectedError("page token's tip is above the held blocks")
        raise FilterRejectedError("page token's tip left the selected chain")

    def _rows(
        self,
        address: str,
        cut: int,
        after_key: Optional[tuple[int, bytes, int]] = None,
        limit: Optional[int] = None,
    ) -> list[Utxo]:
        """The address's unspent rows in page order, after `after_key`, at
        most `limit` of them, in a new list the caller may change: the
        overlay's rows, then the kept listing minus the outpoints the
        overlay spends.

        Only the rows returned are copied, and at most one more per spent
        outpoint: the kept listing is sliced once, from the continuation
        start to `limit` rows plus one per spent outpoint, and the slice is
        trimmed in place. The spent rows are cut out by position, the rows
        past `limit` are deleted, and the overlay's rows are spliced in at
        its front. The start and each spent row's position come from
        bisecting the listing's kept page keys, so no Python key function
        is called. The overlay's rows come from position `begin` of its
        list, found the same way."""
        created, begin, spent = self._overlay_index().changes(address, cut, after_key)
        listing = self.utxos.listing(address)
        held, keys = listing.rows, listing.keys
        if limit is None:
            limit = len(created) - begin + len(held)
        room = limit - (len(created) - begin)
        if room <= 0 or not held:  # the shared empty listing is a tuple
            return created[begin : begin + limit]
        start = 0 if after_key is None else bisect_right(keys, after_key)
        window = held[start : start + room + len(spent)]
        if spent:
            stored = self.utxos.by_outpoint
            cuts = [bisect_left(keys, (-stored[op][0].height, op.txid, op.vout)) for op in spent]
            cuts.sort(reverse=True)
            end = start + len(window)
            for at in cuts:
                if start <= at < end:
                    del window[at - start]
        del window[room:]
        window[:0] = created[begin:]
        return window

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
        it overlays the applied chain. With a confirmation filter, the chain
        is cut before the first block whose confirmation count falls short;
        the materialized prefix up to the anchor is always included since it
        cannot be unwound."""
        self._check_available(network)
        if min_confirmations is None:
            return self._overlay_index().top()
        self._check_min_conf(min_confirmations)
        return self._overlay_index().confirmed_top(self.tree, min_confirmations)

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
        next_token = None
        if len(rows) > self.page_size:
            del rows[self.page_size :]
            next_token = _encode_page_token(tip, rows[-1])
        return UtxosPage(tuple(rows), tip, cut, next_token)

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
        the kept total plus what the overlay up to the cut changes."""
        cut = self._fresh_cut(network, min_confirmations)
        value = self._overlay_index().value(address, cut)
        return self.utxos.listing(address).total + value

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
        top = self.anchor_height()
        require(tree.selected_at(top) == self.anchor, "the anchor is on the selected chain")
        by_address: dict[str, set[OutPoint]] = {}
        for op, (row, address) in by_outpoint.items():
            require(row.outpoint == op, "each stored row lies under its own outpoint")
            require(row.height <= top, "materialized outputs lie at or below the anchor")
            by_address.setdefault(address, set()).add(op)
        require(by_address == utxos.by_address, "the address and outpoint indexes agree")
        scripts = utxos.scripts
        require(
            scripts.keys() == by_address.keys()
            and all(script_address(script, self.network) == a for a, script in scripts.items()),
            "each held address keeps one script, which derives that address",
        )
        require(
            utxos.names == {script: a for a, script in scripts.items()},
            "the kept names are the exact inverse of the kept scripts",
        )
        for address, listing in utxos.listings.items():
            rows = sorted((by_outpoint[op][0] for op in by_address.get(address, ())), key=_page_key)
            require(
                len(listing.rows) == len(rows)
                and all(kept is row for kept, row in zip(listing.rows, rows))
                and listing.total == sum(row.value for row in rows),
                "each kept listing holds its address's stored rows in page order, with their total",
            )
            require(
                listing.keys == list(map(_page_key, rows)),
                "each kept listing's keys are its rows' page keys",
            )
        require(tree.bodied_matches_scan(), "the tree's kept bodied set equals a scan of has_block")
        require(
            tree.kept_facts_match_scan(),
            "each node's kept time window and work equal a walk up the tree",
        )
        bodied = tree.bodied()
        for h in bodied:
            require(tree.height(h) > top, "bodies are held only above the anchor")
            parent = tree.parent(h)
            require(
                parent == self.anchor or parent in bodied,
                "every body's parent is bodied or is the anchor",
            )
        require(self.synced == self._bodies_within_tau(), "synced matches tau")
        index = self._index
        if index is not None:
            fresh = OverlayIndex(top + 1)
            # derives every address on its own, not through the kept names
            fresh.follow(tree, top, utxos, partial(_address, network=self.network))
            require(index == fresh, "the overlay index equals a fresh build from the applied chain")
            index.check(tree, by_outpoint, require)

    # -- snapshot ---------------------------------------------------------------

    snapshot_lines = snapshot.snapshot_lines
    from_snapshot = classmethod(snapshot.from_snapshot)
