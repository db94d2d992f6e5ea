"""The sync endpoint: header ingestion, the update-request algorithm and
its limits, the transaction cache, configuration and peers, and peer
messages."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate import chain, validation, wire
from btcstate.adapter import (
    MAX_HEADERS_PER_RESPONSE,
    MAX_RESPONSE_BYTES,
    Adapter,
    AdapterConfig,
    UnknownAnchorError,
)
from btcstate.chain import Hash256, NetworkKind, TxOut, sha256d
from btcstate.validation import ChainPolicy, ViolationCode
from btcstate.wire import GetSuccessorsRequest

from conftest import NOW, ChainBuilder, header_with_bad_pow, random_tree


def make_adapter(builder, **cfg_overrides) -> Adapter:
    cfg = AdapterConfig.for_network(NetworkKind.REGTEST, **cfg_overrides)
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    return Adapter(cfg, builder.genesis.header, policy, random.Random(1))


def feed_chain(adapter, blocks, with_bodies=True):
    for block in blocks:
        assert adapter.accept_header(block.header, NOW) is None
        if with_bodies:
            assert adapter.store_block(block)


def request(adapter, anchor_header, processed=(), txs=()):
    req = GetSuccessorsRequest(anchor_header, frozenset(processed), tuple(txs))
    return adapter.handle_request(req, NOW)


# -- accept_header ---------------------------------------------------------------


def test_competing_children_both_retained(builder):
    adapter = make_adapter(builder)
    x = builder.extend(parent=builder.genesis.header.hash())
    y = builder.extend(parent=builder.genesis.header.hash())
    assert adapter.accept_header(x.header, NOW) is None
    assert adapter.accept_header(y.header, NOW) is None
    assert x.header.hash() in adapter.tree
    assert y.header.hash() in adapter.tree


def test_orphan_header_rejected(builder):
    adapter = make_adapter(builder)
    builder.extend()
    b2 = builder.extend()
    assert adapter.accept_header(b2.header, NOW) is ViolationCode.ORPHAN


def test_duplicate_header_noop(builder):
    adapter = make_adapter(builder)
    b1 = builder.extend()
    assert adapter.accept_header(b1.header, NOW) is None
    size = len(adapter.tree)
    assert adapter.accept_header(b1.header, NOW) is None
    assert len(adapter.tree) == size


def test_many_way_fork_retained(builder):
    adapter = make_adapter(builder)
    forks = [builder.extend(parent=builder.genesis.header.hash()) for _ in range(5)]
    for block in forks:
        assert adapter.accept_header(block.header, NOW) is None
    assert len(adapter.tree.at_height(1)) == 5


# -- the update request (hand-traced examples) -------------------------------------


def test_linear_blocks_returned_in_order(builder):
    adapter = make_adapter(builder)
    blocks = builder.build(3)
    feed_chain(adapter, blocks)
    resp = request(adapter, builder.genesis.header)
    got = [b.header.hash() for b, _ in resp.blocks]
    assert got == [blk.header.hash() for blk in blocks]
    assert resp.next_headers == ()


def test_headers_without_bodies_reported(builder):
    adapter = make_adapter(builder)
    blocks = builder.build(3)
    feed_chain(adapter, blocks)
    extra = builder.build(2)
    feed_chain(adapter, extra, with_bodies=False)
    resp = request(adapter, builder.genesis.header)
    assert [b.header.hash() for b, _ in resp.blocks] == [b.header.hash() for b in blocks]
    assert [h.hash() for h in resp.next_headers] == [b.header.hash() for b in extra]


def test_processed_set_skips_known_blocks(builder):
    adapter = make_adapter(builder)
    blocks = builder.build(4)
    feed_chain(adapter, blocks)
    processed = {blocks[0].header.hash(), blocks[1].header.hash()}
    resp = request(adapter, builder.genesis.header, processed=processed)
    got = [b.header.hash() for b, _ in resp.blocks]
    assert got == [blocks[2].header.hash(), blocks[3].header.hash()]


class _Unlistable(frozenset):
    """A processed set that answers membership but cannot be iterated."""

    def __iter__(self):
        raise AssertionError("the processed set was iterated")


def test_request_never_iterates_the_processed_set(builder):
    adapter = make_adapter(builder, preset_peers=(3,))
    adapter.connect_peers()
    blocks = builder.build(5)
    rival = builder.extend(parent=blocks[1].header.hash())
    feed_chain(adapter, blocks + [rival])
    headers_only = builder.build(2, parent=blocks[-1].header.hash())
    feed_chain(adapter, headers_only, with_bodies=False)
    processed = {b.header.hash() for b in blocks[:3]} | {Hash256(sha256d(b"outside"))}
    for anchor in (builder.genesis.header, blocks[0].header):
        req = GetSuccessorsRequest(anchor, _Unlistable(processed), ())
        resp = adapter.handle_request(req, NOW)
        want = whole_walk_response(adapter, GetSuccessorsRequest(anchor, frozenset(processed), ()))
        assert (resp.blocks, resp.next_headers) == want
        assert [b.header.hash() for b, _ in resp.blocks] == [
            b.header.hash() for b in (rival, blocks[3], blocks[4])
        ]


def test_unknown_anchor_errors(builder):
    adapter = make_adapter(builder)
    foreign = builder.extend()  # never fed to the adapter
    with pytest.raises(UnknownAnchorError):
        request(adapter, foreign.header)


def test_anchor_never_in_next_headers(builder):
    adapter = make_adapter(builder)
    blocks = builder.build(2)
    feed_chain(adapter, blocks, with_bodies=False)
    resp = request(adapter, builder.genesis.header)
    hashes = {h.hash() for h in resp.next_headers}
    assert builder.genesis.header.hash() not in hashes
    assert len(resp.next_headers) == 2


def test_anchor_never_offered_as_its_own_successor(builder):
    # g -> 1 -> 2 -> 3 anchored at 2 with only 1 processed: the anchor's
    # parent is available, but the requester holds the anchor itself
    adapter = make_adapter(builder)
    blocks = builder.build(3)
    feed_chain(adapter, blocks)
    resp = request(adapter, blocks[1].header, processed={blocks[0].header.hash()})
    assert [b.header.hash() for b, _ in resp.blocks] == [blocks[2].header.hash()]
    assert resp.next_headers == ()


def test_checkpoint_height_caps_to_single_block(builder):
    adapter = make_adapter(builder, checkpoint_height=0)
    blocks = builder.build(3)
    feed_chain(adapter, blocks)
    resp = request(adapter, builder.genesis.header)
    assert len(resp.blocks) == 1
    assert resp.blocks[0][0].header.hash() == blocks[0].header.hash()
    # the rest are announced as next headers instead
    assert [h.hash() for h in resp.next_headers] == [b.header.hash() for b in blocks[1:]]


def test_below_checkpoint_unlimited(builder):
    adapter = make_adapter(builder, checkpoint_height=100)
    blocks = builder.build(6)
    feed_chain(adapter, blocks)
    resp = request(adapter, builder.genesis.header)
    assert len(resp.blocks) == 6


def test_size_soft_limit_single_overflowing_block(builder):
    adapter = make_adapter(builder, max_response_bytes=1000)
    big_pad = TxOut(1, b"\x6a" + b"\x00" * 700)  # pushes each block near 1KB
    blocks = []
    for _ in range(3):
        source = builder.coinbase_outpoint(builder.blocks[builder.tip])
        blocks.append(
            builder.extend(extra_txs=(builder.spend(source, [(1, big_pad.script_pubkey)]),))
        )
    feed_chain(adapter, blocks)
    resp = request(adapter, builder.genesis.header)
    total = sum(b.size() for b, _ in resp.blocks)
    # the limit may be crossed only by the final included block
    assert len(resp.blocks) >= 1
    without_last = total - resp.blocks[-1][0].size()
    assert without_last < 1000
    # blocks that did not fit are reported as headers
    assert len(resp.blocks) + len(resp.next_headers) == 3


def test_max_headers_bound(builder):
    adapter = make_adapter(builder, max_headers=10)
    blocks = builder.build(30)
    feed_chain(adapter, blocks, with_bodies=False)
    resp = request(adapter, builder.genesis.header)
    assert len(resp.next_headers) == 10


def test_fork_traversal_breadth_first_ascending(builder):
    adapter = make_adapter(builder)
    a = builder.extend(parent=builder.genesis.header.hash())
    b = builder.extend(parent=builder.genesis.header.hash())
    feed_chain(adapter, [a, b], with_bodies=False)
    resp = request(adapter, builder.genesis.header)
    got = [h.hash() for h in resp.next_headers]
    assert got == sorted([a.header.hash(), b.header.hash()])


def test_missing_bodies_scheduled_for_fetch(builder):
    adapter = make_adapter(builder, preset_peers=(3,))
    adapter.connect_peers()
    adapter.take_outbox()
    blocks = builder.build(2)
    feed_chain(adapter, blocks, with_bodies=False)
    adapter.take_outbox()
    adapter.pending_fetch.clear()
    request(adapter, builder.genesis.header)
    # the first block's parent (the anchor) is available, so it is fetchable
    assert blocks[0].header.hash() in adapter.pending_fetch
    out = adapter.take_outbox()
    assert any(isinstance(m, wire.GetData) for _, m in out)


def test_response_parent_availability_invariant(builder):
    # every returned block's parent is the anchor, in processed, or earlier in B
    adapter = make_adapter(builder)
    trunk = builder.build(4)
    fork = builder.build(2, parent=trunk[0].header.hash())
    feed_chain(adapter, trunk)
    feed_chain(adapter, fork)
    anchor = builder.genesis.header
    processed = {trunk[0].header.hash()}
    resp = request(adapter, anchor, processed=processed)
    seen = set(processed) | {anchor.hash()}
    for block, header in resp.blocks:
        assert header.prev in seen
        seen.add(header.hash())


def whole_walk_response(adapter, req):
    """The update response by walking the anchor's whole subtree breadth-first
    (siblings ascending by hash) and filtering out what the requester holds:
    the oracle for `handle_request`, which walks only the rest."""
    tree, cfg = adapter.tree, adapter.config
    anchor = req.anchor.hash()
    processed = set(req.processed)
    available = processed | {anchor}
    block_cap = 1 if tree.height(anchor) >= cfg.checkpoint_height else None
    blocks, included, next_headers, total = [], set(), [], 0
    queue = [anchor]
    for cur in queue:
        queue.extend(sorted(tree.children(cur)))
        if cur == anchor:
            continue
        if len(next_headers) >= cfg.max_headers:
            break
        if cur not in processed and (tree.parent(cur) in available or tree.parent(cur) in included):
            body = tree.block(cur)
            if body is None:
                adapter._schedule_fetch(cur)
            elif total < cfg.max_response_bytes and (block_cap is None or len(blocks) < block_cap):
                blocks.append((body, tree.header(cur)))
                included.add(cur)
                total += body.size()
        if cur not in processed and cur not in included:
            next_headers.append(tree.header(cur))
    return tuple(blocks), tuple(next_headers)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_response_matches_the_whole_subtree_walk(seed):
    # Twin adapters learn one random tree of real blocks (bodies for some);
    # one serves requests by the oracle's walk, the other by handle_request.
    rng = random.Random(seed)
    shape = random_tree(rng, max_nodes=40)
    builder = ChainBuilder()
    blocks = {shape.root: builder.genesis}
    for raw in shape.bfs():  # parents first
        if raw != shape.root:
            blocks[raw] = builder.extend(parent=blocks[shape.parent(raw)].header.hash())
    order = [blocks[raw].header.hash() for raw in shape.bfs()]  # parents first
    fresh = [blocks[raw] for raw in shape.bfs() if raw != shape.root]
    bodied = [b for b in fresh if rng.random() < 0.7]
    limits = dict(
        max_headers=rng.randint(1, 8),
        max_response_bytes=rng.choice((1, 200, 600, 1 << 21)),
        checkpoint_height=rng.randint(0, 12),
    )
    twins = [make_adapter(builder, preset_peers=(3, 5), **limits) for _ in range(2)]
    for adapter in twins:
        adapter.connect_peers()
        feed_chain(adapter, fresh, with_bodies=False)
        for block in bodied:
            assert adapter.store_block(block)
        adapter.take_outbox()
    outside = {Hash256(sha256d(b"outside")), builder.extend().header.hash()}  # not in the trees
    for _ in range(12):
        anchor = blocks[rng.choice(sorted(blocks))].header
        share = rng.choice((0.1, 0.5, 0.9))
        if rng.random() < 0.5:
            processed = {h for h in order if rng.random() < share}
        else:  # closed under parents; below the anchor too
            processed = set()
            for h in order:
                parent = twins[0].tree.parent(h)
                if (parent is None or parent in processed) and rng.random() < 0.5 + share / 2:
                    processed.add(h)
        if rng.random() < 0.5:
            processed |= outside
        if rng.random() < 0.5:
            for adapter in twins:
                adapter.pending_fetch.clear()
        req = GetSuccessorsRequest(anchor, frozenset(processed), ())
        want_blocks, want_headers = whole_walk_response(twins[0], req)
        resp = twins[1].handle_request(req, NOW)
        assert resp.blocks == want_blocks
        assert resp.next_headers == want_headers
        fetches = [
            [(peer, m) for peer, m in adapter.take_outbox() if isinstance(m, wire.GetData)]
            for adapter in twins
        ]
        assert fetches[1] == fetches[0]


# -- transaction cache ---------------------------------------------------------------


def spend_tx(builder):
    source = builder.coinbase_outpoint(builder.blocks[builder.tip])
    return builder.spend(source, [(5000, b"\x51")])


def test_tx_expiry(builder):
    adapter = make_adapter(builder, preset_peers=(1, 2))
    adapter.connect_peers()
    blocks = builder.build(1)
    feed_chain(adapter, blocks)
    tx = spend_tx(builder)
    adapter.cache_transaction(tx, now=0.0)
    adapter.tick_tx_cache(now=599.0)
    assert tx.txid() in adapter.tx_cache
    adapter.tick_tx_cache(now=601.0)
    assert tx.txid() not in adapter.tx_cache


def test_tx_removed_once_delivered_to_all_peers(builder):
    adapter = make_adapter(builder, preset_peers=(1, 2))
    adapter.connect_peers()
    builder.build(1)
    tx = spend_tx(builder)
    adapter.cache_transaction(tx, now=0.0)
    txid = tx.txid()
    for peer in (1, 2):
        adapter.on_peer_message(peer, wire.GetData((wire.InvItem(wire.TX_ITEM, txid),)), 1.0)
    served = [m for _, m in adapter.take_outbox() if isinstance(m, wire.TxMsg)]
    assert len(served) == 2
    adapter.tick_tx_cache(now=5.0)  # well before expiry
    assert txid not in adapter.tx_cache
    adapter.check_invariants()


def test_tx_readvertised_to_lagging_peers(builder):
    adapter = make_adapter(builder, preset_peers=(1, 2))
    adapter.connect_peers()
    builder.build(1)
    tx = spend_tx(builder)
    adapter.cache_transaction(tx, now=0.0)
    adapter.on_peer_message(1, wire.GetData((wire.InvItem(wire.TX_ITEM, tx.txid()),)), 1.0)
    adapter.take_outbox()
    adapter.tick_tx_cache(now=10.0)
    invs = [(p, m) for p, m in adapter.take_outbox() if isinstance(m, wire.Inv)]
    assert invs and all(p == 2 for p, _ in invs)
    adapter.check_invariants()


def test_empty_cache_tick_noop(builder):
    adapter = make_adapter(builder, preset_peers=(1,))
    adapter.connect_peers()
    adapter.take_outbox()
    adapter.tick_tx_cache(now=100.0)
    assert adapter.take_outbox() == []


def test_request_transactions_enter_cache(builder):
    adapter = make_adapter(builder)
    builder.build(1)
    tx = spend_tx(builder)
    request(adapter, builder.genesis.header, txs=[tx.to_bytes()])
    assert tx.txid() in adapter.tx_cache
    # resending is idempotent and keeps the original entry
    entry = adapter.tx_cache[tx.txid()]
    request(adapter, builder.genesis.header, txs=[tx.to_bytes()])
    assert adapter.tx_cache[tx.txid()] is entry


def test_unparseable_transaction_dropped(builder):
    adapter = make_adapter(builder)
    resp = request(adapter, builder.genesis.header, txs=[b"\x01\x02"])
    assert resp.blocks == ()
    assert not adapter.tx_cache


# -- configuration and peers ----------------------------------------------------------


def test_mainnet_thresholds():
    cfg = AdapterConfig.for_network(NetworkKind.MAINNET)
    assert cfg == AdapterConfig(NetworkKind.MAINNET)
    assert (cfg.max_headers, cfg.max_response_bytes) == (MAX_HEADERS_PER_RESPONSE, MAX_RESPONSE_BYTES)
    assert (cfg.tx_expiry, cfg.checkpoint_height, cfg.preset_peers) == (600.0, 1 << 31, ())


def test_config_overrides_name_fields():
    for network in NetworkKind:
        cfg = AdapterConfig.for_network(network, max_headers=5)
        assert cfg == AdapterConfig(network, max_headers=5)
    with pytest.raises(TypeError, match="max_header"):
        AdapterConfig.for_network(NetworkKind.REGTEST, max_header=5)


@pytest.mark.parametrize("network", list(NetworkKind), ids=lambda n: n.value)
def test_preset_peers_connected_on_every_network(builder, network):
    cfg = AdapterConfig.for_network(network, preset_peers=(9, 7))
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    adapter = Adapter(cfg, builder.genesis.header, policy, random.Random(1))
    adapter.connect_peers()
    assert adapter.peers == {7, 9}
    out = adapter.take_outbox()
    assert [peer for peer, _ in out] == [9, 7]
    assert all(m == wire.GetHeaders(frozenset(adapter.tree.hashes())) for _, m in out)
    adapter.connect_peers()  # connected peers are not asked again
    assert adapter.take_outbox() == []


# -- peer messages -------------------------------------------------------------------


def test_headers_message_inserts_all(builder):
    adapter = make_adapter(builder, preset_peers=(4,))
    adapter.connect_peers()
    blocks = builder.build(5)
    msg = wire.HeadersMsg(tuple(b.header for b in blocks))
    adapter.on_peer_message(4, msg, NOW)
    assert all(b.header.hash() in adapter.tree for b in blocks)
    adapter.check_invariants()


def test_unconnecting_header_asks_that_peer_for_headers(builder):
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    adapter.take_outbox()
    b1, b2 = builder.build(2)
    adapter.on_peer_message(4, wire.HeadersMsg((b2.header,)), NOW)  # b2 overtook b1
    assert b2.header.hash() not in adapter.tree
    [(peer, ask)] = adapter.take_outbox()
    assert peer == 4 and isinstance(ask, wire.GetHeaders)
    assert ask.have == frozenset(adapter.tree.hashes())
    # the peer answers with every header the adapter lacks, in height order
    adapter.on_peer_message(4, wire.HeadersMsg((b1.header, b2.header)), NOW)
    assert b1.header.hash() in adapter.tree and b2.header.hash() in adapter.tree
    assert not any(isinstance(m, wire.GetHeaders) for _, m in adapter.take_outbox())
    adapter.check_invariants()


def test_unconnecting_header_asked_about_once_per_peer(builder):
    # a peer that serves a branch without its base can only ever answer
    # with headers that still do not connect
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    adapter.take_outbox()
    _, b2, b3 = builder.build(3)

    def asks():
        return [peer for peer, m in adapter.take_outbox() if isinstance(m, wire.GetHeaders)]

    adapter.on_peer_message(4, wire.HeadersMsg((b2.header,)), NOW)
    assert asks() == [4]
    adapter.on_peer_message(4, wire.HeadersMsg((b2.header,)), NOW)
    assert asks() == []
    adapter.on_peer_message(5, wire.HeadersMsg((b2.header,)), NOW)
    assert asks() == [5]
    adapter.on_peer_message(4, wire.HeadersMsg((b2.header, b3.header)), NOW)
    assert asks() == [4]  # b3 is a new unconnected header
    adapter.check_invariants()


def test_block_for_unknown_header_ignored(builder):
    adapter = make_adapter(builder, preset_peers=(4,))
    adapter.connect_peers()
    block = builder.extend()
    stray = builder.extend()
    adapter.on_peer_message(4, wire.BlockMsg(stray), NOW)
    assert stray.header.hash() not in adapter.tree
    adapter.on_peer_message(4, wire.HeadersMsg((block.header, stray.header)), NOW)
    adapter.on_peer_message(4, wire.BlockMsg(stray), NOW)
    assert adapter.tree.has_block(stray.header.hash())
    # a request or an announcement naming a hash outside the tree is ignored
    adapter.take_outbox()
    outside = wire.InvItem(wire.BLOCK_ITEM, builder.extend().header.hash())
    adapter.on_peer_message(4, wire.GetData((outside,)), NOW)
    adapter.on_peer_message(4, wire.Inv((outside,)), NOW)
    assert adapter.take_outbox() == [] and adapter.peers == {4}
    asked = wire.InvItem(wire.BLOCK_ITEM, stray.header.hash())
    adapter.on_peer_message(4, wire.GetData((outside, asked)), NOW)
    assert adapter.take_outbox() == [(4, wire.BlockMsg(stray))]
    adapter.check_invariants()


def test_malformed_message_disconnects_and_replaces(builder):
    # the peer is dropped with its delivery marks and not dialed again;
    # nothing replaces it, since peers are only ever given to the adapter
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    builder.build(1)
    tx = spend_tx(builder)
    adapter.cache_transaction(tx, now=0.0)
    adapter.on_peer_message(4, wire.GetData((wire.InvItem(wire.TX_ITEM, tx.txid()),)), 1.0)
    adapter.take_outbox()
    adapter.on_peer_message(4, wire.Malformed("junk"), 1.0)
    assert adapter.peers == {5}
    assert adapter.tx_cache[tx.txid()].delivered_to == set()
    assert adapter.take_outbox() == []
    adapter.on_peer_message(4, wire.HeadersMsg((builder.extend().header,)), NOW)
    assert adapter.take_outbox() == []  # a dropped peer is no longer heard
    adapter.check_invariants()


def test_oversized_headers_message_drops_the_peer_unchecked(builder, monkeypatch):
    # 5,000 headers is 2.5 full replies: the peer is dropped before any
    # header is checked, and nothing is inserted
    checked = []
    real_check = validation.check_header
    monkeypatch.setattr(
        validation, "check_header", lambda *args: checked.append(args) or real_check(*args)
    )
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    adapter.take_outbox()
    header = builder.extend().header
    adapter.on_peer_message(4, wire.HeadersMsg((header,) * 5000), NOW)
    assert adapter.peers == {5}
    assert checked == [] and header.hash() not in adapter.tree
    assert adapter.take_outbox() == []
    # a full reply is allowed: the peer stays and the header is checked
    adapter.on_peer_message(5, wire.HeadersMsg((header,) * wire.MAX_HEADERS_RESULTS), NOW)
    assert adapter.peers == {5}
    assert len(checked) == 1 and header.hash() in adapter.tree
    adapter.check_invariants()


def test_header_failing_a_consensus_check_drops_the_peer(builder):
    # the first header that breaks a consensus rule ends the message and
    # the connection; the headers after it are not read
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    adapter.take_outbox()
    first, second = builder.build(2)
    bad = header_with_bad_pow(first.header)
    adapter.on_peer_message(4, wire.HeadersMsg((first.header, bad, second.header)), NOW)
    assert adapter.peers == {5}
    assert first.header.hash() in adapter.tree
    assert bad.hash() not in adapter.tree and second.header.hash() not in adapter.tree
    assert adapter.pending_fetch == {}  # the fetch of `first` left with the peer
    adapter.check_invariants()


def test_header_too_far_ahead_keeps_the_peer(builder):
    # a header ahead of our clock may become valid later: it is skipped
    # and the rest of the message is read
    adapter = make_adapter(builder, preset_peers=(4,))
    adapter.connect_peers()
    genesis = builder.genesis.header.hash()
    ahead = builder.extend(parent=genesis, time=NOW + validation.MAX_FUTURE_DRIFT + 60)
    rival = builder.extend(parent=genesis)
    assert adapter.accept_header(ahead.header, NOW) is ViolationCode.TIME_TOO_NEW
    adapter.on_peer_message(4, wire.HeadersMsg((ahead.header, rival.header)), NOW)
    assert adapter.peers == {4}
    assert ahead.header.hash() not in adapter.tree and rival.header.hash() in adapter.tree
    adapter.check_invariants()


def test_stored_block_keeps_its_merkle_root_through_serving_and_checks(builder, monkeypatch):
    # the adapter's store and the state machine's shape check read one
    # root, computed once for the block object the response carries
    adapter = make_adapter(builder)
    block = builder.extend()
    assert adapter.accept_header(block.header, NOW) is None
    roots = []
    real_root = chain.merkle_root
    monkeypatch.setattr(chain, "merkle_root", lambda ids: roots.append(ids) or real_root(ids))
    assert adapter.store_block(block)
    [(served, _)] = request(adapter, builder.genesis.header).blocks
    assert served is block
    validation.check_block_shape(served)
    assert len(roots) == 1


def test_dropped_peers_fetches_asked_of_another_peer(builder):
    adapter = make_adapter(builder, preset_peers=(4, 5))
    adapter.connect_peers()
    adapter.take_outbox()
    block = builder.extend()
    h = block.header.hash()
    fetch = wire.GetData((wire.InvItem(wire.BLOCK_ITEM, h),))
    adapter.on_peer_message(4, wire.HeadersMsg((block.header,)), NOW)
    assert adapter.take_outbox() == [(4, fetch)]
    assert adapter.pending_fetch == {h: 4}
    adapter.on_peer_message(4, wire.Malformed("junk"), NOW)
    assert adapter.pending_fetch == {}
    adapter.check_invariants()
    request(adapter, builder.genesis.header)
    assert adapter.take_outbox() == [(5, fetch)]
    assert adapter.pending_fetch == {h: 5}
    adapter.check_invariants()
    adapter.on_peer_message(5, wire.BlockMsg(block), NOW)
    assert [b for b, _ in request(adapter, builder.genesis.header).blocks] == [block]
    adapter.check_invariants()


def test_check_invariants_names_the_broken_one(builder):
    block = builder.extend()
    h = block.header.hash()

    def bodied_unasked(adapter):  # the body is held; nothing is owed for it
        adapter.pending_fetch.clear()
        adapter._announced_by.clear()
        adapter.tree.set_block(h, block)

    breaks = [
        (lambda a: a.peers.add(6), "every peer is a preset peer"),
        (lambda a: a.pending_fetch.update({Hash256(sha256d(b"x")): 4}), "pending fetch names"),
        (lambda a: a.tree.set_block(h, block), "pending fetch names"),
        (lambda a: a.pending_fetch.update({h: 6}), "every pending fetch was asked of a connected"),
        (lambda a: (bodied_unasked(a), a._announced_by.update({h: 4})), "every announcer names"),
        (lambda a: (bodied_unasked(a), a.tree._bodied.discard(h)), "kept bodied set equals a scan"),
    ]
    for breaking, invariant in breaks:
        adapter = make_adapter(builder, preset_peers=(4, 5))
        adapter.connect_peers()
        adapter.on_peer_message(4, wire.HeadersMsg((block.header,)), NOW)
        assert adapter.pending_fetch == {h: 4} and adapter._announced_by == {h: 4}
        adapter.check_invariants()
        breaking(adapter)
        with pytest.raises(AssertionError, match=f"^broken invariant: .*{invariant}"):
            adapter.check_invariants()


def test_announcer_forgotten_once_the_body_is_stored(builder):
    # the announcing peer only serves fetches of missing bodies, so a
    # stored body's entry would only grow the map with the chain
    adapter = make_adapter(builder, preset_peers=(4,))
    adapter.connect_peers()
    first, second = builder.build(2)
    adapter.on_peer_message(4, wire.HeadersMsg((first.header, second.header)), NOW)
    assert adapter._announced_by == {first.header.hash(): 4, second.header.hash(): 4}
    adapter.on_peer_message(4, wire.BlockMsg(first), NOW)
    assert adapter._announced_by == {second.header.hash(): 4}
    adapter.on_peer_message(4, wire.Inv((wire.InvItem(wire.BLOCK_ITEM, first.header.hash()),)), NOW)
    assert adapter._announced_by == {second.header.hash(): 4}
    assert adapter.store_block(second)
    assert adapter._announced_by == {}
    adapter.check_invariants()


def test_inv_triggers_getdata_for_unknown_body(builder):
    adapter = make_adapter(builder, preset_peers=(4,))
    adapter.connect_peers()
    block = builder.extend()
    adapter.accept_header(block.header, NOW)
    adapter.take_outbox()
    adapter.pending_fetch.clear()
    h = block.header.hash()
    adapter.on_peer_message(4, wire.Inv((wire.InvItem(wire.BLOCK_ITEM, h),)), NOW)
    out = adapter.take_outbox()
    assert any(
        isinstance(m, wire.GetData) and m.items[0].hash == h for _, m in out
    )
    adapter.check_invariants()


# -- fuzzed limit sweep (small-scale; the acceptance suite does 10^4) ---------------


def test_fuzzed_requests_respect_limits(builder):
    rng = random.Random(2024)
    adapter = make_adapter(builder, max_headers=5, max_response_bytes=600, checkpoint_height=6)
    trunk = builder.build(8)
    feed_chain(adapter, trunk)
    fork = builder.build(3, parent=trunk[2].header.hash())
    feed_chain(adapter, fork, with_bodies=False)
    all_headers = [builder.genesis.header] + [b.header for b in trunk + fork]
    for _ in range(300):
        anchor = all_headers[rng.randrange(len(all_headers))]
        known = [b.header.hash() for b in trunk + fork]
        processed = frozenset(h for h in known if rng.random() < 0.4)
        resp = adapter.handle_request(
            GetSuccessorsRequest(anchor, processed, ()), NOW
        )
        assert len(resp.next_headers) <= 5
        sizes = [b.size() for b, _ in resp.blocks]
        if sizes:
            # every prefix before the final block stays under the budget,
            # so only the final block may push the total across it
            assert sum(sizes[:-1]) < 600
        if adapter.tree.height(anchor.hash()) >= 6:
            assert len(resp.blocks) <= 1
