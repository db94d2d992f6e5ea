"""The lightweight sync endpoint that faces the (simulated) Bitcoin network.

It keeps a header tree of every valid fork it hears about, fetches block
bodies on demand, caches outbound transactions for relay, and serves the
state machine's update requests: given the requester's anchor and the set
of headers it already holds bodies for, return new blocks that extend the
requester's chain plus the headers of anything further that still needs
syncing.

The endpoint performs no fork resolution on purpose; competing branches
are all retained and the requester resolves them. It chooses no peers
either: it connects to the peers it is given, which the simulated world
draws uniformly at random (`SimWorld.sample_adapter_peers`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from btcstate import wire
from btcstate.blocktree import BlockTree
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    NetworkKind,
    SerializationError,
    Transaction,
)
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    ViolationCode,
    check_block_shape,
    header_violation,
)
from btcstate.wire import BLOCK_ITEM, MAX_HEADERS_RESULTS, TX_ITEM

MAX_HEADERS_PER_RESPONSE = 100
MAX_RESPONSE_BYTES = 2 * 1024 * 1024  # soft limit


class UnknownAnchorError(KeyError):
    """The requested anchor header is not in the local tree."""


@dataclass
class AdapterConfig:
    network: NetworkKind
    max_headers: int = MAX_HEADERS_PER_RESPONSE
    max_response_bytes: int = MAX_RESPONSE_BYTES
    tx_expiry: float = 600.0  # seconds an undelivered transaction is kept
    checkpoint_height: int = 1 << 31  # at or above: one block per response
    preset_peers: tuple[int, ...] = ()

    @classmethod
    def for_network(cls, network: NetworkKind, **overrides) -> "AdapterConfig":
        """The network's settings with `overrides` applied; an override
        that names no field raises TypeError."""
        return cls(network, **overrides)


@dataclass
class _TxCacheEntry:
    tx: Transaction
    inserted_at: float
    delivered_to: set[int] = field(default_factory=set)


class Adapter:
    """Single logical actor; callers serialize message and request handling.

    `rng` is kept but never read: the adapter makes no random choice, as
    its peers are given to it. `bench/workloads.py` still passes it by
    position.
    """

    def __init__(
        self,
        config: AdapterConfig,
        genesis: BlockHeader,
        policy: ChainPolicy,
        rng: random.Random,
    ):
        self.config = config
        self.policy = policy
        self.rng = rng
        # Every header heard of, and the body of each block fetched.
        self.tree = BlockTree(genesis)
        self.peers: set[int] = set()
        self.tx_cache: dict[Hash256, _TxCacheEntry] = {}
        # Each body asked for and not yet stored, with the peer asked.
        self.pending_fetch: dict[Hash256, int] = {}
        self._announced_by: dict[Hash256, int] = {}
        # Peers already asked for headers because of an unconnected header,
        # by that header's hash, until the header connects.
        self._orphan_asks: dict[Hash256, set[int]] = {}
        # Messages for peers, oldest first, until `take_outbox` hands them over.
        self.outbox: list[tuple[int, wire.Message]] = []
        self._rr = 0  # round-robin cursor for fetch fallback

    # -- outbox ---------------------------------------------------------------

    def take_outbox(self) -> list[tuple[int, wire.Message]]:
        out = self.outbox
        self.outbox = []
        return out

    def _send(self, peer: int, msg: wire.Message) -> None:
        self.outbox.append((peer, msg))

    # -- peers ------------------------------------------------------------------

    def connect_peers(self) -> None:
        """Connect every preset peer not yet connected and ask it for
        headers, in the preset order."""
        for peer in self.config.preset_peers:
            if peer not in self.peers:
                self.peers.add(peer)
                self._ask_headers(peer)

    def _ask_headers(self, peer: int) -> None:
        self._send(peer, wire.GetHeaders(frozenset(self.tree.hashes())))

    def drop_peer(self, peer: int) -> None:
        """Remove a lost or misbehaving connection, its delivery marks and
        the fetches it owes, which the next request asks of another peer.
        The peer is not redialed."""
        self.peers.discard(peer)
        for entry in self.tx_cache.values():
            entry.delivered_to.discard(peer)
        self.pending_fetch = {h: asked for h, asked in self.pending_fetch.items() if asked != peer}

    # -- header/block ingestion ---------------------------------------------------

    def accept_header(self, header: BlockHeader, now: float) -> Optional[ViolationCode]:
        """Insert a valid header; duplicates are no-ops. Returns the violation
        when rejected, None when accepted. Every valid fork is retained."""
        if header.hash() in self.tree:
            return None
        violation = header_violation(header, self.tree, self.policy, now)
        if violation is not None:
            return violation
        self.tree.add_header(header)
        return None

    def store_block(self, block: Block) -> bool:
        """Keep a body whose header is already known and that passes the
        state machine's shape check (`check_block_shape`), so a body the
        state machine would refuse never takes the place of one it would
        take; anything else is ignored."""
        h = block.header.hash()
        if h not in self.tree or self.tree.has_block(h):
            return False
        try:
            check_block_shape(block)
        except ValidationError:
            return False
        self.tree.set_block(h, block)
        self.pending_fetch.pop(h, None)
        self._announced_by.pop(h, None)  # only fetches of missing bodies read it
        return True

    # -- request handling (the update protocol) --------------------------------------

    def handle_request(
        self, req: wire.GetSuccessorsRequest, now: float
    ) -> wire.GetSuccessorsResponse:
        """Serve one update request.

        The requester holds the anchor and the blocks in `processed`; the
        rest of the anchor's subtree is offered in breadth-first order
        (`BlockTree.bfs`: by height, then path order), which lists the
        kept nodes above the anchor minus `processed` and walks nothing.
        A block is returned when the requester lacks it and its parent is
        available to the requester (the anchor itself, something the
        requester holds, or a block earlier in this response). The
        response size limit is soft:
        the block that crosses it is still included, then collection stops.
        At or above the checkpoint height only a single block is returned
        per response. Headers the requester lacks that are not returned as
        blocks are reported, at most `max_headers` of them, so it knows more
        syncing remains; missing bodies of offerable blocks are fetched from
        peers in the background for future requests.
        """
        anchor_hash = req.anchor.hash()
        if anchor_hash not in self.tree:
            raise UnknownAnchorError(anchor_hash.rev_hex())
        for raw in req.transactions:
            try:
                self.cache_transaction(Transaction.from_bytes(raw), now)
            except SerializationError:
                continue  # unparseable relay payloads are dropped
        processed = req.processed
        anchor_height = self.tree.height(anchor_hash)
        block_cap = 1 if anchor_height >= self.config.checkpoint_height else None

        blocks: list[tuple[Block, BlockHeader]] = []
        included: set[Hash256] = set()
        next_headers: list[BlockHeader] = []
        total_bytes = 0

        walk = self.tree.bfs(anchor_hash, skip=processed)
        if anchor_hash not in processed:
            next(walk)  # the anchor itself
        for cur in walk:
            if len(next_headers) >= self.config.max_headers:
                break
            parent = self.tree.parent(cur)
            if parent == anchor_hash or parent in processed or parent in included:
                body = self.tree.block(cur)
                if body is None:
                    self._schedule_fetch(cur)
                elif total_bytes < self.config.max_response_bytes and (
                    block_cap is None or len(blocks) < block_cap
                ):
                    header = self.tree.header(cur)
                    assert header is not None
                    blocks.append((body, header))
                    included.add(cur)
                    total_bytes += body.size()
            if cur not in included:
                header = self.tree.header(cur)
                assert header is not None
                next_headers.append(header)
        return wire.GetSuccessorsResponse(tuple(blocks), tuple(next_headers))

    def _schedule_fetch(self, hash_: Hash256) -> None:
        if hash_ in self.pending_fetch or not self.peers:
            return
        peer = self._announced_by.get(hash_)
        if peer is None or peer not in self.peers:
            ordered = sorted(self.peers)
            peer = ordered[self._rr % len(ordered)]
            self._rr += 1
        self.pending_fetch[hash_] = peer
        self._send(peer, wire.GetData((wire.InvItem(BLOCK_ITEM, hash_),)))

    # -- transaction cache -----------------------------------------------------------

    def cache_transaction(self, tx: Transaction, now: float) -> None:
        txid = tx.txid()
        if txid in self.tx_cache:
            return
        self.tx_cache[txid] = _TxCacheEntry(tx, now)
        for peer in sorted(self.peers):
            self._send(peer, wire.Inv((wire.InvItem(TX_ITEM, txid),)))

    def tick_tx_cache(self, now: float) -> None:
        """Drop entries delivered to every connected peer or past expiry;
        re-advertise the rest to peers that have not pulled them yet."""
        expired = [
            txid
            for txid, entry in self.tx_cache.items()
            if now - entry.inserted_at > self.config.tx_expiry
            or (self.peers and self.peers <= entry.delivered_to)
        ]
        for txid in expired:
            del self.tx_cache[txid]
        for txid, entry in self.tx_cache.items():
            for peer in sorted(self.peers - entry.delivered_to):
                self._send(peer, wire.Inv((wire.InvItem(TX_ITEM, txid),)))

    # -- peer messages ------------------------------------------------------------

    def on_peer_message(self, peer: int, msg: wire.Message, now: float) -> None:
        """Apply one message from a connected peer. Malformed traffic, a
        headers message longer than `MAX_HEADERS_RESULTS` and a header that
        fails a consensus check get the peer disconnected."""
        if peer not in self.peers:
            return
        if isinstance(msg, wire.HeadersMsg):
            if len(msg.headers) > MAX_HEADERS_RESULTS:
                # No honest peer sends more than a full reply; drop the
                # peer before checking any header (Bitcoin Core's
                # ProcessHeadersMessage).
                self.drop_peer(peer)
                return
            fresh = 0
            unasked_orphan = False
            for header in msg.headers:
                h = header.hash()
                known = h in self.tree
                violation = self.accept_header(header, now)
                if violation is ViolationCode.ORPHAN:
                    asked = self._orphan_asks.setdefault(h, set())
                    unasked_orphan |= peer not in asked
                    asked.add(peer)
                elif violation is None:
                    if not known:
                        fresh += 1
                        self._orphan_asks.pop(h, None)
                        self._announced_by[h] = peer
                        self._schedule_fetch(h)  # a header just inserted has no body
                elif violation is not ViolationCode.TIME_TOO_NEW:
                    # A header that fails a consensus check drops the peer
                    # before the rest is read (Bitcoin Core's
                    # ProcessHeadersMessage); one too far ahead of our clock
                    # may become valid later, so it is only skipped.
                    self.drop_peer(peer)
                    return
            # A header whose parent we lack arrived ahead of it: ask the
            # peer for every header we are missing, which it sends in
            # height order (Bitcoin Core's unconnecting-headers handling).
            # Once per header and peer, so a peer that serves a branch
            # without its base cannot draw the same request forever. A full
            # batch means the peer may hold more than it sent.
            if unasked_orphan or (fresh and len(msg.headers) >= MAX_HEADERS_RESULTS):
                self._ask_headers(peer)
        elif isinstance(msg, wire.BlockMsg):
            self.pending_fetch.pop(msg.block.header.hash(), None)
            self.store_block(msg.block)
        elif isinstance(msg, wire.Inv):
            wanted = []
            for item in msg.items:
                h = item.hash
                if item.kind == BLOCK_ITEM and h in self.tree and not self.tree.has_block(h):
                    self._announced_by[h] = peer
                    wanted.append(item)
            if wanted:
                self._send(peer, wire.GetData(tuple(wanted)))
        elif isinstance(msg, wire.GetData):
            for item in msg.items:
                if item.kind == TX_ITEM and item.hash in self.tx_cache:
                    entry = self.tx_cache[item.hash]
                    entry.delivered_to.add(peer)
                    self._send(peer, wire.TxMsg(entry.tx))
                elif item.kind == BLOCK_ITEM and item.hash in self.tree:
                    body = self.tree.block(item.hash)
                    if body is not None:
                        self._send(peer, wire.BlockMsg(body))
        elif isinstance(msg, wire.TxMsg):
            pass  # inbound transactions are not our concern; peers relay them
        else:
            self.drop_peer(peer)

    # -- invariants -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Check every invariant the adapter keeps, by full scans; raise
        AssertionError naming the first one broken."""
        tree = self.tree

        def require(holds: bool, invariant: str) -> None:
            if not holds:
                raise AssertionError(f"broken invariant: {invariant}")

        require(self.peers <= set(self.config.preset_peers), "every peer is a preset peer")
        require(
            all(h in tree and not tree.has_block(h) for h in self.pending_fetch),
            "every pending fetch names a known header without a body",
        )
        require(
            set(self.pending_fetch.values()) <= self.peers,
            "every pending fetch was asked of a connected peer",
        )
        require(
            all(h in tree and not tree.has_block(h) for h in self._announced_by),
            "every announcer names a known header without a body",
        )
        require(tree.bodied_matches_scan(), "the tree's kept bodied set equals a scan of has_block")
        require(
            tree.kept_facts_match_scan(),
            "each node's kept time window and work equal a walk up the tree",
        )
