"""The replicated state machine: response processing, anchor advancement,
UTXO maintenance, and the public API."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate import canister as canister_module
from btcstate import chain as chain_module
from btcstate import overlay, utxoset
from btcstate.blocktree import BlockTree
from btcstate.canister import (
    ApiUnavailableError,
    Canister,
    FilterRejectedError,
    MalformedTransactionError,
    NetworkMismatchError,
)
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    NetworkKind,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    p2pkh_script,
    script_address,
    sha256d,
)
from btcstate.netsim import make_coinbase, regtest_genesis_block, replay_utxo_set
from btcstate.overlay import OverlayDelta, OverlayIndex
from btcstate.snapshot import SnapshotError
from btcstate.utxoset import Utxo, UtxoSet
from btcstate.wire import GetSuccessorsResponse

from conftest import NOW, ChainBuilder, header_with_bad_pow, overlay_oracle

NET = NetworkKind.REGTEST


def make_canister(builder, delta=2, tau=2, **kw) -> Canister:
    return Canister(builder.genesis.header, NET, delta=delta, tau=tau, **kw)


def respond(canister, blocks=(), headers=()):
    resp = GetSuccessorsResponse(
        tuple((b, b.header) for b in blocks), tuple(h.header if hasattr(h, "header") else h for h in headers)
    )
    canister.handle_response(resp, NOW)


def addr_of(script: bytes) -> str:
    return script_address(script, NET)


PROBE_SCRIPT = p2pkh_script(sha256d(b"probe")[:20])
PROBE = addr_of(PROBE_SCRIPT)


# -- build_request ----------------------------------------------------------------


def test_build_request_fresh_state(builder):
    canister = make_canister(builder)
    req = canister.build_request()
    assert req.anchor == builder.genesis.header
    assert req.processed == frozenset()
    assert req.transactions == ()


def test_build_request_lists_unstable_bodies(builder):
    canister = make_canister(builder, delta=10)
    blocks = builder.build(2)
    respond(canister, blocks)
    req = canister.build_request()
    assert req.processed == {b.header.hash() for b in blocks}


def test_check_invariants_catches_a_stale_kept_bodied_set(builder):
    canister = make_canister(builder, delta=10)
    blocks = builder.build(2)
    respond(canister, blocks)
    canister.check_invariants()
    canister.tree._bodied.discard(blocks[1].header.hash())
    with pytest.raises(AssertionError, match="kept bodied set"):
        canister.check_invariants()


def test_build_request_drains_queue(builder):
    canister = make_canister(builder)
    blocks = builder.build(1)
    respond(canister, blocks)
    tx = builder.spend(builder.coinbase_outpoint(blocks[0]), [(1000, PROBE_SCRIPT)])
    canister.send_transaction(tx.to_bytes(), NET)
    req = canister.build_request()
    assert req.transactions == (tx.to_bytes(),)
    assert canister.build_request().transactions == ()


# -- handle_response and anchor advancement ----------------------------------------


def test_anchor_advancement_with_fork_trace(builder):
    # delta=2, unit work: chain a1,a2,a3 plus fork b1 off genesis.
    canister = make_canister(builder, delta=2)
    g = builder.genesis.header.hash()
    a1 = builder.extend(parent=g)
    a2 = builder.extend(parent=a1.header.hash())
    a3 = builder.extend(parent=a2.header.hash())
    b1 = builder.extend(parent=g)
    respond(canister, [b1, a1, a2, a3])
    # a1 stabilized (depth 3, lead 2), then a2 (depth 2, no rival); a3 stays
    assert canister.anchor == a2.header.hash()
    assert canister.anchor_height() == 2
    assert b1.header.hash() not in canister.tree
    # the losing header's height now holds exactly one header
    assert canister.tree.at_height(1) == [a1.header.hash()]
    # stabilized bodies are discarded, unstable one retained
    assert not canister.tree.has_block(a1.header.hash())
    assert canister.tree.has_block(a3.header.hash())


def test_anchor_requires_separation_by_default(builder):
    canister = make_canister(builder, delta=2)
    g = builder.genesis.header.hash()
    a1 = builder.extend(parent=g)
    a2 = builder.extend(parent=a1.header.hash())
    b1 = builder.extend(parent=g)
    # the rival must be known before the chain deepens, else it is pruned
    respond(canister, [a1, b1, a2])
    # depth(a1)=2 meets the threshold but the lead over b1 is only 1
    assert canister.anchor_height() == 0


def test_anchor_folds_only_the_selected_child_once_bodied(builder):
    canister = make_canister(builder, delta=2)
    g = builder.genesis.header.hash()
    a1, a2, a3 = builder.build(3, parent=g)
    b1 = builder.extend(parent=g)
    # the selected child a1 has only a header; the lighter rival b1 has a body
    respond(canister, [b1], headers=[a1, a2, a3])
    assert canister.tree.selected_at(1) == a1.header.hash()
    assert canister.anchor_height() == 0 and b1.header.hash() in canister.tree
    # a1's body arrives: depth 3, lead 2 over b1, so it folds and b1 goes
    respond(canister, [a1])
    assert canister.anchor == a1.header.hash()
    assert b1.header.hash() not in canister.tree
    canister.check_invariants()


def test_anchor_holds_between_equal_work_bodied_children(builder):
    canister = make_canister(builder, delta=2)
    g = builder.genesis.header.hash()
    c1, c2 = builder.build(2, parent=g)
    d1, d2 = builder.build(2, parent=g)
    respond(canister, [c1, d1, c2, d2])
    # both children have work depth 2, so each leads the other by 0
    assert canister.anchor_height() == 0
    assert all(canister.tree.has_block(b.header.hash()) for b in (c1, c2, d1, d2))


def test_invalid_block_skipped_rest_processed(builder):
    canister = make_canister(builder, delta=10)
    blocks = builder.build(3)
    cb = blocks[1].transactions[0]
    ruined = blocks[1].__class__(
        blocks[1].header,
        (Transaction(cb.version, cb.inputs, cb.outputs, cb.lock_time + 1),),
    )
    resp = GetSuccessorsResponse(
        (
            (blocks[0], blocks[0].header),
            (ruined, ruined.header),
            (blocks[2], blocks[2].header),
        ),
        (),
    )
    canister.handle_response(resp, NOW)
    assert canister.tree.has_block(blocks[0].header.hash())
    # the merkle-mismatched pair is dropped, and its child fails the
    # parent-body rule in the same response
    assert blocks[1].header.hash() not in canister.tree
    assert blocks[2].header.hash() not in canister.tree
    assert canister.blocks_ingested == 1


def test_bad_items_skipped_among_good_ones(builder):
    # A block paired with another block's header, a block whose header is
    # too far ahead of the clock and a header without proof of work, each
    # among good items: the good ones are all applied.
    canister = make_canister(builder, delta=10)
    g1, g2, g3, g4 = builder.build(4)
    late = builder.extend(parent=g1.header.hash(), time=NOW + 3 * 3600)
    bad_pow = header_with_bad_pow(g3.header)
    resp = GetSuccessorsResponse(
        ((g1, g1.header), (g2, g3.header), (late, late.header), (g2, g2.header), (g3, g3.header)),
        (bad_pow, g4.header),
    )
    canister.handle_response(resp, NOW)
    assert canister.blocks_ingested == 3
    assert all(canister.tree.has_block(b.header.hash()) for b in (g1, g2, g3))
    assert g4.header.hash() in canister.tree and not canister.tree.has_block(g4.header.hash())
    assert late.header.hash() not in canister.tree and bad_pow.hash() not in canister.tree
    assert canister.tree.tip == g4.header.hash() and canister.synced
    canister.check_invariants()


def test_gap_beyond_tau_unsyncs_and_api_errors(builder):
    canister = make_canister(builder, delta=10, tau=2)
    blocks = builder.build(2)
    respond(canister, blocks)
    assert canister.synced
    ahead = builder.build(3)  # headers only
    respond(canister, headers=[b.header for b in ahead])
    assert not canister.synced
    with pytest.raises(ApiUnavailableError):
        canister.get_utxos(PROBE, NET)
    with pytest.raises(ApiUnavailableError):
        canister.get_balance(PROBE, NET)
    with pytest.raises(ApiUnavailableError):
        canister.send_transaction(b"\x00", NET)
    # delivering the bodies restores availability
    respond(canister, ahead)
    assert canister.synced
    canister.get_utxos(PROBE, NET)


def test_gap_exactly_tau_stays_synced(builder):
    canister = make_canister(builder, delta=10, tau=2)
    blocks = builder.build(1)
    respond(canister, blocks)
    ahead = builder.build(2)
    respond(canister, headers=[b.header for b in ahead])
    assert canister.synced


def test_anchor_monotonic_and_stale_headers_rejected(builder):
    canister = make_canister(builder, delta=2)
    heights = [canister.anchor_height()]
    rivals = []
    parent = builder.genesis.header.hash()
    rng = random.Random(4)
    for _ in range(12):
        block = builder.extend(parent=parent)
        deliver = [block]
        if rng.random() < 0.4:
            rival = builder.extend(parent=block.header.prev)
            rivals.append(rival)
            deliver.append(rival)
        parent = block.header.hash()
        respond(canister, deliver)
        heights.append(canister.anchor_height())
    assert heights == sorted(heights)
    assert canister.anchor_height() > 2
    # replaying pruned-era headers cannot resurrect them below the anchor,
    # and each rejection feeds the deep-reorg diagnostic counter
    pruned = [r for r in rivals if r.header.hash() not in canister.tree]
    assert pruned
    for stale in pruned:
        respond(canister, headers=[stale.header])
        assert stale.header.hash() not in canister.tree
    assert canister.below_anchor_rejects == len(pruned)
    for height in range(0, canister.anchor_height() + 1):
        assert len(canister.tree.at_height(height)) == 1


# -- UtxoSet.apply_block -------------------------------------------------------------


def test_apply_block_coinbase_only(builder):
    utxos = UtxoSet(NET)
    block = builder.extend()
    anomalies = utxos.apply_block(block, 1)
    assert anomalies == 0
    cb = block.transactions[0]
    op, txout = OutPoint(cb.txid(), 0), cb.outputs[0]
    assert utxos.by_outpoint[op] == (Utxo(op, txout.value, 1), addr_of(txout.script_pubkey))
    assert len(utxos) == 1


def test_apply_block_spend_moves_value(builder):
    utxos = UtxoSet(NET)
    b1 = builder.extend()
    utxos.apply_block(b1, 1)
    source = builder.coinbase_outpoint(b1)
    spend = builder.spend(source, [(1000, PROBE_SCRIPT), (2000, PROBE_SCRIPT)])
    b2 = builder.extend(extra_txs=(spend,))
    anomalies = utxos.apply_block(b2, 2)
    assert anomalies == 0
    assert source[0] not in utxos.by_outpoint
    assert sorted(utxos.by_outpoint[op][0].value for op in utxos.by_address[PROBE]) == [1000, 2000]
    listing = utxos.listing(PROBE)
    assert [(op.txid, value, height) for op, value, height in listing.rows] == [
        (spend.txid(), 1000, 2),
        (spend.txid(), 2000, 2),
    ]
    assert listing.total == 3000


def test_apply_block_unknown_outpoint_counts_anomaly(builder):
    utxos = UtxoSet(NET)
    ghost = Transaction(
        1,
        (TxIn(OutPoint(Hash256(sha256d(b"ghost")), 3), b"x"),),
        (TxOut(777, PROBE_SCRIPT),),
    )
    block = builder.extend(extra_txs=(ghost,))
    anomalies = utxos.apply_block(block, 1)
    assert anomalies == 1
    # outputs are still inserted and the indexes stay consistent
    assert utxos.by_outpoint[OutPoint(ghost.txid(), 0)][0].value == 777
    assert OutPoint(ghost.txid(), 0) in utxos.by_address[PROBE]


def test_intra_block_spend_chain(builder):
    utxos = UtxoSet(NET)
    b1 = builder.extend()
    utxos.apply_block(b1, 1)
    first = builder.spend(builder.coinbase_outpoint(b1), [(5000, PROBE_SCRIPT)])
    second = Transaction(
        1,
        (TxIn(OutPoint(first.txid(), 0), b"chain"),),
        (TxOut(4000, PROBE_SCRIPT),),
    )
    block = builder.extend(extra_txs=(first, second))
    assert utxos.apply_block(block, 2) == 0
    assert OutPoint(first.txid(), 0) not in utxos.by_outpoint
    assert utxos.by_outpoint[OutPoint(second.txid(), 0)][0].value == 4000


# -- UtxoSet.apply_delta --------------------------------------------------------------

EQ_SCRIPTS = [p2pkh_script(sha256d(b"eq%d" % i)[:20]) for i in range(3)]
EQ_HEIGHT = 20
UNKNOWN = OutPoint(Hash256(sha256d(b"unknown")), 0)
payees = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 1000)), min_size=1, max_size=3)


def eq_tx(tag: bytes, inputs, pays) -> Transaction:
    return Transaction(
        1,
        tuple(TxIn(op, tag) for op in inputs),
        tuple(TxOut(value, EQ_SCRIPTS[script]) for script, value in pays),
    )


@st.composite
def held_set_and_block(draw):
    """The transactions that made a held set, their heights and the scripts
    whose listings are kept, and a block above them. The block's inputs
    spend held outpoints, the unknown outpoint and outputs of its own
    transactions, the spender before or after its source once the order is
    shuffled; an input list may name one outpoint twice; and a held
    transaction or one of the block's may be repeated in it."""
    held_txs = [
        eq_tx(b"held", [OutPoint(Hash256(sha256d(b"h%d" % i)), 0)], draw(payees))
        for i in range(draw(st.integers(1, 3)))
    ]
    heights = [draw(st.integers(1, EQ_HEIGHT - 1)) for _ in held_txs]
    listed = draw(st.sets(st.integers(0, 2)))
    held = [OutPoint(tx.txid(), vout) for tx in held_txs for vout in range(len(tx.outputs))]
    txs: list[Transaction] = []
    made: list[OutPoint] = []
    for i in range(draw(st.integers(0, 4))):
        inputs = draw(st.lists(st.sampled_from(held + [UNKNOWN] + made), min_size=1, max_size=3))
        tx = eq_tx(b"%d" % i, inputs, draw(payees))
        txs.append(tx)
        made.extend(OutPoint(tx.txid(), vout) for vout in range(len(tx.outputs)))
    txs = [txs[i] for i in draw(st.permutations(range(len(txs))))]
    for _ in range(draw(st.integers(0, 2))):
        txs.insert(draw(st.integers(0, len(txs))), draw(st.sampled_from(held_txs + txs)))
    coinbase = make_coinbase(EQ_HEIGHT, b"eq", EQ_SCRIPTS[draw(st.integers(0, 2))])
    return held_txs, heights, listed, Block(regtest_genesis_block().header, (coinbase, *txs))


def held_set(held_txs, heights, listed) -> UtxoSet:
    utxos = UtxoSet(NET)
    for tx, height in zip(held_txs, heights):
        for vout, txout in enumerate(tx.outputs):
            row = Utxo(OutPoint(tx.txid(), vout), txout.value, height)
            utxos.add(row, addr_of(txout.script_pubkey), txout.script_pubkey)
    for script in listed:
        utxos.listing(addr_of(EQ_SCRIPTS[script]))
    return utxos


def utxo_state(utxos: UtxoSet) -> tuple:
    listings = {a: (listing.rows, listing.total) for a, listing in utxos.listings.items()}
    return utxos.by_outpoint, utxos.by_address, utxos.scripts, utxos.names, listings


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=held_set_and_block())
def test_delta_fold_equals_apply_block(case):
    held_txs, heights, listed, block = case
    folded, applied = held_set(held_txs, heights, listed), held_set(held_txs, heights, listed)
    delta = OverlayDelta.of_block(block, EQ_HEIGHT, folded.address_of)
    anomalies = folded.apply_delta(block, EQ_HEIGHT, delta)
    assert anomalies == applied.apply_block(block, EQ_HEIGHT)
    assert utxo_state(folded) == utxo_state(applied)


# -- get_utxos / get_balance ----------------------------------------------------------


def build_probe_chain(builder, canister, pay_in_block=3, total=5):
    """Chain of `total` blocks above genesis; block `pay_in_block` pays PROBE."""
    blocks = []
    parent = builder.genesis.header.hash()
    pay_value = 12_345
    for i in range(1, total + 1):
        extra = ()
        if i == pay_in_block:
            source = builder.coinbase_outpoint(blocks[0])
            extra = (builder.spend(source, [(pay_value, PROBE_SCRIPT)]),)
        block = builder.extend(parent=parent, extra_txs=extra)
        blocks.append(block)
        parent = block.header.hash()
    respond(canister, blocks)
    return blocks, pay_value


def test_get_utxos_absent_address_empty(builder):
    canister = make_canister(builder, delta=10)
    build_probe_chain(builder, canister)
    page = canister.get_utxos(addr_of(p2pkh_script(b"\x42" * 20)), NET)
    assert page.utxos == ()
    assert page.next_page is None


def test_confirmation_filter_inclusion_boundary(builder):
    canister = make_canister(builder, delta=6)
    blocks, pay_value = build_probe_chain(builder, canister, pay_in_block=3, total=5)
    # the paying block sits 2 below the tip: 3 confirmations
    with_3 = canister.get_utxos(PROBE, NET, min_confirmations=3)
    assert [u.value for u in with_3.utxos] == [pay_value]
    assert with_3.tip_hash == blocks[2].header.hash()
    with_4 = canister.get_utxos(PROBE, NET, min_confirmations=4)
    assert with_4.utxos == ()
    assert with_4.tip_hash == blocks[1].header.hash()


def test_filter_above_delta_rejected(builder):
    canister = make_canister(builder, delta=6)
    build_probe_chain(builder, canister)
    with pytest.raises(FilterRejectedError):
        canister.get_utxos(PROBE, NET, min_confirmations=7)
    with pytest.raises(FilterRejectedError):
        canister.get_balance(PROBE, NET, min_confirmations=7)
    canister.get_utxos(PROBE, NET, min_confirmations=6)
    for query in (canister.get_utxos, canister.get_balance):
        with pytest.raises(FilterRejectedError, match="must be positive"):
            query(PROBE, NET, min_confirmations=0)


def test_network_mismatch_rejected(builder):
    canister = make_canister(builder)
    with pytest.raises(NetworkMismatchError):
        canister.get_utxos(PROBE, NetworkKind.MAINNET)
    with pytest.raises(NetworkMismatchError):
        canister.send_transaction(b"\x00", NetworkKind.TESTNET)


def test_balance_examples(builder):
    canister = make_canister(builder, delta=10)
    b1 = builder.extend()
    spend = builder.spend(
        builder.coinbase_outpoint(b1), [(50_000, PROBE_SCRIPT), (25_000, PROBE_SCRIPT)]
    )
    b2 = builder.extend(extra_txs=(spend,))
    respond(canister, [b1, b2])
    assert canister.get_balance(PROBE, NET) == 75_000
    assert canister.get_balance(addr_of(p2pkh_script(b"\x01" * 20)), NET) == 0


def test_spent_in_unstable_block_excluded(builder):
    canister = make_canister(builder, delta=10)
    b1 = builder.extend()
    pay = builder.spend(builder.coinbase_outpoint(b1), [(9_000, PROBE_SCRIPT)])
    b2 = builder.extend(extra_txs=(pay,))
    spend_probe = Transaction(
        1,
        (TxIn(OutPoint(pay.txid(), 0), b"sig"),),
        (TxOut(8_500, p2pkh_script(b"\x0a" * 20)),),
    )
    b3 = builder.extend(extra_txs=(spend_probe,))
    respond(canister, [b1, b2, b3])
    assert canister.get_balance(PROBE, NET) == 0
    assert canister.get_utxos(PROBE, NET).utxos == ()


def test_pagination_union_equals_oracle(builder):
    canister = make_canister(builder, delta=30, page_size=10)
    b1 = builder.extend()
    b2 = builder.extend()
    blocks = [b1, b2]
    # 37 outputs to the probe address spread over several blocks
    sources = [builder.coinbase_outpoint(b) for b in (b1, b2)]
    txs = [
        builder.spend(sources[0], [(100 + i, PROBE_SCRIPT) for i in range(20)]),
        builder.spend(sources[1], [(300 + i, PROBE_SCRIPT) for i in range(17)]),
    ]
    blocks.append(builder.extend(extra_txs=(txs[0],)))
    blocks.append(builder.extend(extra_txs=(txs[1],)))
    respond(canister, blocks)

    pages = []
    token = None
    while True:
        page = canister.get_utxos(PROBE, NET, page=token)
        pages.append(page)
        if page.next_page is None:
            break
        token = page.next_page
    collected = [u for page in pages for u in page.utxos]
    assert len(pages) == 4
    assert [len(p.utxos) for p in pages] == [10, 10, 10, 7]

    canister.page_size = 1000
    whole = canister.get_utxos(PROBE, NET)
    assert [(u.outpoint, u.value, u.height) for u in collected] == [
        (u.outpoint, u.value, u.height) for u in whole.utxos
    ]
    assert canister.list_utxos(PROBE, NET) == whole.utxos
    heights = [u.height for u in collected]
    assert heights == sorted(heights, reverse=True)
    assert len({(u.outpoint.txid, u.outpoint.vout) for u in collected}) == 37
    assert canister.get_balance(PROBE, NET) == sum(u.value for u in collected)


def test_balance_equals_page_sum_for_random_addresses(builder):
    rng = random.Random(12)
    canister = make_canister(builder, delta=40, page_size=3)
    scripts = [p2pkh_script(sha256d(b"addr%d" % i)[:20]) for i in range(12)]
    blocks = [builder.extend() for _ in range(4)]
    for i in range(4):
        outs = [
            (1000 + rng.randrange(5000), scripts[rng.randrange(len(scripts))])
            for _ in range(rng.randrange(1, 9))
        ]
        tx = builder.spend(builder.coinbase_outpoint(blocks[i]), outs)
        blocks.append(builder.extend(extra_txs=(tx,)))
    respond(canister, blocks)
    for script in scripts:
        address = addr_of(script)
        total = 0
        token = None
        while True:
            page = canister.get_utxos(address, NET, page=token)
            total += sum(u.value for u in page.utxos)
            if page.next_page is None:
                break
            token = page.next_page
        assert total == canister.get_balance(address, NET)


def walk(canister, address, page):
    """Every page from `page` on, following the continuation tokens."""
    pages = [page]
    while page.next_page is not None:
        page = canister.get_utxos(address, NET, page=page.next_page)
        pages.append(page)
    return pages


def listed(pages) -> list[tuple]:
    return [(u.outpoint, u.value, u.height) for page in pages for u in page.utxos]


def pay_probe(builder, source_block, count):
    source = builder.coinbase_outpoint(source_block)
    return builder.spend(source, [(100 + i, PROBE_SCRIPT) for i in range(count)])


def test_bad_page_token_rejected(builder):
    canister = make_canister(builder, delta=10, page_size=2)
    blocks = builder.build(1)
    blocks.append(builder.extend(extra_txs=(pay_probe(builder, blocks[0], 5),)))
    respond(canister, blocks)
    with pytest.raises(FilterRejectedError):
        canister.get_utxos(PROBE, NET, page="junk")
    with pytest.raises(FilterRejectedError):
        canister.get_utxos(PROBE, NET, min_confirmations=1, page="p1:0:1:ff:0")
    token = canister.get_utxos(PROBE, NET).next_page
    assert token.startswith(f"p2:{blocks[-1].header.hash().rev_hex()}:2:")
    _, tip, height, txid, vout = token.split(":")
    # a token of the earlier format, which named no tip, is refused
    with pytest.raises(FilterRejectedError, match="unrecognized"):
        canister.get_utxos(PROBE, NET, page=f"p1:0:{height}:{txid}:{vout}")
    with pytest.raises(FilterRejectedError, match="corrupt"):
        canister.get_utxos(PROBE, NET, page=f"p2:{tip[:-2]}:{height}:{txid}:{vout}")
    stray = Hash256(sha256d(b"stray")).rev_hex()
    with pytest.raises(FilterRejectedError, match="left the selected chain"):
        canister.get_utxos(PROBE, NET, page=f"p2:{stray}:{height}:{txid}:{vout}")
    # a forged tip on the selected chain whose body is not held
    header_only = builder.extend()
    respond(canister, headers=[header_only])
    forged = header_only.header.hash().rev_hex()
    with pytest.raises(FilterRejectedError, match="above the held blocks"):
        canister.get_utxos(PROBE, NET, page=f"p2:{forged}:{height}:{txid}:{vout}")


@pytest.mark.parametrize(
    "field, text",
    [
        ("height", "+2"),
        ("height", "02"),
        ("height", "\u0662"),  # an Arabic-Indic two, which int() reads as 2
        ("height", "0_2"),
        ("height", "-2"),
        ("vout", " 3"),
        ("vout", "-1"),
        ("vout", str(2**32)),
        ("vout", str(2**64)),
        ("txid", None),
        ("tip", None),
    ],
)
def test_page_token_fields_fail_closed(builder, field, text):
    # Each field must read as the encoder writes it; int() and fromhex()
    # take more, and a negative height would end the walk early.
    canister = make_canister(builder, delta=10, page_size=2)
    blocks = builder.build(1)
    blocks.append(builder.extend(extra_txs=(pay_probe(builder, blocks[0], 5),)))
    respond(canister, blocks)
    token = canister.get_utxos(PROBE, NET).next_page
    tag, tip, height, txid, vout = token.split(":")
    assert height == "2"
    fields = {"tip": tip, "height": height, "txid": txid, "vout": vout}
    fields[field] = fields[field].upper() if text is None else text
    bad = ":".join([tag, *fields.values()])
    assert bad != token
    with pytest.raises(FilterRejectedError, match="corrupt page token"):
        canister.get_utxos(PROBE, NET, page=bad)
    # the bounds themselves are taken
    for page in (f"{tag}:{tip}:0:{txid}:{vout}", f"{tag}:{tip}:{height}:{txid}:{2**32 - 1}"):
        canister.get_utxos(PROBE, NET, page=page)


def test_pages_bisect_kept_keys_and_hand_out_stored_rows(builder, monkeypatch):
    # A walk over a materialized listing of 2,100 rows, five of them spent
    # and two rows paid by the overlay: every page finds its start and its
    # spent rows by bisecting the listing's kept keys, and hands out the
    # stored rows, a slice of the whole listing.
    canister = make_canister(builder, delta=2, page_size=500)
    sources = builder.build(3)
    paying = [builder.extend(extra_txs=(pay_probe(builder, block, 700),)) for block in sources]
    respond(canister, sources + paying + builder.build(2))
    listing = canister.utxos.listing(PROBE)
    assert len(listing.rows) == 2100
    chosen = [listing.rows[at].outpoint for at in (3, 499, 500, 1200, 2099)]
    respend = Transaction(
        1,
        tuple(TxIn(op, b"sig") for op in chosen),
        (TxOut(77, PROBE_SCRIPT), TxOut(78, PROBE_SCRIPT)),
    )
    spending = builder.extend(extra_txs=(respend,))
    respond(canister, [spending])
    assert canister.tree.height(spending.header.hash()) > canister.anchor_height()
    expected = overlay_oracle(canister, PROBE)
    assert len(expected) == 2097
    assert canister.get_balance(PROBE, NET) == sum(value for _, value, _ in expected)
    calls: Counter = Counter()
    count_calls(monkeypatch, canister_module, ("_page_key",), calls)
    count_calls(monkeypatch, utxoset, ("_page_key",), calls)
    pages = walk(canister, PROBE, canister.get_utxos(PROBE, NET))
    assert calls == Counter()
    assert listed(pages) == expected and len(pages) == 5
    full = canister.list_utxos(PROBE, NET)
    stored = {id(row) for row in listing.rows} | {id(row) for row in canister._index.rows[PROBE]}
    for at, page in enumerate(pages):
        part = full[at * 500 : (at + 1) * 500]
        assert page.utxos == part and all(u is v for u, v in zip(page.utxos, part))
        assert all(id(u) in stored for u in page.utxos)
    monkeypatch.undo()
    canister.check_invariants()
    listing.keys.append((1, bytes(32), 0))  # a key left behind by a removed row
    with pytest.raises(AssertionError, match="keys are its rows' page keys"):
        canister.check_invariants()


def test_walk_through_kept_overlay_rows_calls_no_key_function(builder, monkeypatch):
    # The probe address holds three materialized rows and three overlay
    # rows, and a walk of three pages starts in the overlay's rows and
    # continues through and past them: each page finds its start in the
    # kept unspent overlay rows and in the kept listing by bisecting page
    # keys kept beside them, so no module calls `_page_key`.
    canister = make_canister(builder, delta=3, page_size=2)
    sources = builder.build(3)
    folded = builder.extend(extra_txs=(pay_probe(builder, sources[0], 3),))
    between = builder.build(3)
    overlaid = builder.extend(extra_txs=(pay_probe(builder, sources[1], 3),))
    respond(canister, sources + [folded] + between + [overlaid])
    assert canister.tree.height(folded.header.hash()) <= canister.anchor_height()
    assert canister.tree.height(overlaid.header.hash()) > canister.anchor_height()
    expected = overlay_oracle(canister, PROBE)
    # builds the overlay index and the kept listing
    assert canister.get_balance(PROBE, NET) == sum(value for _, value, _ in expected)
    calls: Counter = Counter()
    for module in (canister_module, overlay, utxoset):
        count_calls(monkeypatch, module, ("_page_key",), calls)
    pages = walk(canister, PROBE, canister.get_utxos(PROBE, NET))
    monkeypatch.undo()
    assert calls == Counter()
    assert len(pages) == 3 and listed(pages) == expected
    assert [len(canister._index.unspent_rows[PROBE][0])] == [3]
    canister.check_invariants()

def test_page_token_rejected_after_reorg_between_pages(builder):
    canister = make_canister(builder, delta=10, page_size=2)
    trunk = builder.build(2)
    fork_point = trunk[-1].header.hash()
    paying = builder.extend(parent=fork_point, extra_txs=(pay_probe(builder, trunk[0], 5),))
    respond(canister, trunk + [paying])
    first = canister.get_utxos(PROBE, NET)
    assert first.tip_hash == paying.header.hash()
    assert first.next_page is not None
    # a heavier branch off the fork point replaces the paying block
    rivals = builder.build(2, parent=fork_point)
    respond(canister, rivals)
    assert canister.tree.current_chain()[-1] == rivals[-1].header.hash()
    with pytest.raises(FilterRejectedError, match="left the selected chain"):
        canister.get_utxos(PROBE, NET, page=first.next_page)
    assert canister.get_utxos(PROBE, NET).utxos == ()


def test_page_token_overlays_exactly_up_to_its_tip(builder):
    canister = make_canister(builder, delta=10, page_size=2)
    blocks = builder.build(1)
    blocks.append(builder.extend(extra_txs=(pay_probe(builder, blocks[0], 5),)))
    respond(canister, blocks)
    expected = overlay_oracle(canister, PROBE)
    first = canister.get_utxos(PROBE, NET)
    # the chain grows between pages: the new block spends the entry the
    # walk lists last and pays the probe address again
    last = expected[-1][0]
    respend = Transaction(1, (TxIn(last, b"sig"),), (TxOut(50, PROBE_SCRIPT),))
    respond(canister, [builder.extend(extra_txs=(respend,))])
    pages = walk(canister, PROBE, first)
    assert listed(pages) == expected
    assert {page.tip_hash for page in pages} == {blocks[-1].header.hash()}
    assert listed(walk(canister, PROBE, canister.get_utxos(PROBE, NET))) != expected


def test_page_token_rejected_once_anchor_passes_its_tip(builder):
    canister = make_canister(builder, delta=2, page_size=2)
    blocks = builder.build(1)
    blocks.append(builder.extend(extra_txs=(pay_probe(builder, blocks[0], 5),)))
    respond(canister, blocks)
    first = canister.get_utxos(PROBE, NET)
    assert canister.anchor_height() < first.tip_height
    respond(canister, builder.build(1))
    # the anchor reached the tip: the materialized set is still that state
    assert canister.anchor == first.tip_hash
    second = canister.get_utxos(PROBE, NET, page=first.next_page)
    respond(canister, builder.build(1))
    assert canister.anchor_height() > first.tip_height
    # the tip is still on the selected chain, but folded below the anchor
    assert canister.tree.selected_at(first.tip_height) == first.tip_hash
    with pytest.raises(FilterRejectedError, match="tip folded below the anchor"):
        canister.get_utxos(PROBE, NET, page=second.next_page)


def test_repeated_queries_rederive_no_txid_or_address(builder, monkeypatch):
    canister = make_canister(builder, delta=10, page_size=3)
    sources = builder.build(3)
    paying = [builder.extend(extra_txs=(pay_probe(builder, block, 4),)) for block in sources]
    respond(canister, sources + paying)
    lines = canister.snapshot_lines()
    warm = Canister.from_snapshot(lines)
    cold = Canister.from_snapshot(lines)
    calls = {"script_address": 0, "txid": 0}
    real_address, real_txid = utxoset.script_address, Transaction.txid

    def counting_address(script, network):
        calls["script_address"] += 1
        return real_address(script, network)

    def counting_txid(tx):
        calls["txid"] += 1
        return real_txid(tx)

    monkeypatch.setattr(utxoset, "script_address", counting_address)
    monkeypatch.setattr(Transaction, "txid", counting_txid)

    def counted(query):
        calls.update(script_address=0, txid=0)
        result = query()
        return result, dict(calls)

    balance, first = counted(lambda: warm.get_balance(PROBE, NET))
    assert balance == 3 * (100 + 101 + 102 + 103)
    assert first["script_address"] > 0 and first["txid"] > 0
    none = {"script_address": 0, "txid": 0}
    assert counted(lambda: warm.get_balance(PROBE, NET)) == (balance, none)
    # another address, a filter and a whole walk reuse the same deltas
    other = addr_of(p2pkh_script(b"\x07" * 20))
    assert counted(lambda: warm.get_balance(other, NET, min_confirmations=2)) == (0, none)
    assert counted(lambda: len(walk(warm, PROBE, warm.get_utxos(PROBE, NET))))[1] == none
    # a cold state builds its deltas on the first page; later pages reuse them
    page, built = counted(lambda: cold.get_utxos(PROBE, NET))
    assert built == first
    while page.next_page is not None:
        page, later = counted(lambda: cold.get_utxos(PROBE, NET, page=page.next_page))
        assert later == none


def test_fold_derives_no_address_for_a_block_the_index_holds(builder, monkeypatch):
    # Twin states take the same blocks; one is queried before the response
    # that folds its lowest applied block, so the fold reads that block's
    # addresses from the overlay index, while the other derives each new
    # script's once, as its first output is held. Only the fold is counted,
    # not the index's upkeep that ends the response.
    sources = builder.build(2)
    paying = builder.extend(extra_txs=(pay_probe(builder, sources[0], 3),))
    later = builder.build(2)
    queried, unqueried = make_canister(builder, delta=3), make_canister(builder, delta=3)
    for canister in (queried, unqueried):
        respond(canister, sources + [paying] + later[:1])
        assert canister.anchor_height() == 2
    queried.get_balance(PROBE, NET)
    assert queried._index.blocks[0][0] == paying.header.hash()
    calls: Counter = Counter()
    count_calls(monkeypatch, utxoset, ("script_address",), calls)
    folds = count_in_folds(monkeypatch, calls)
    derived = []
    for canister in (queried, unqueried):
        folds.clear()
        respond(canister, later[1:])
        derived.append(folds["script_address"])
    monkeypatch.undo()
    scripts = [out.script_pubkey for tx in paying.transactions for out in tx.outputs]
    assert derived == [0, len(set(scripts))] and len(set(scripts)) < len(scripts)
    for canister in (queried, unqueried):
        assert canister.anchor == paying.header.hash()
        canister.check_invariants()
    assert queried.utxos.by_outpoint == unqueried.utxos.by_outpoint
    assert queried.get_balance(PROBE, NET) == 100 + 101 + 102


def test_fold_of_a_block_the_index_holds_builds_and_derives_nothing(builder, monkeypatch):
    # Twin states take the same blocks; the queried one folds the paying
    # block from the index's delta, moving the index's own rows into the
    # kept listing, while the unqueried one applies it transaction by
    # transaction. Only the fold is counted, not the index's upkeep that
    # ends the response.
    sources = builder.build(3)
    earlier = builder.extend(extra_txs=(pay_probe(builder, sources[0], 2),))
    paying = builder.extend(extra_txs=(pay_probe(builder, sources[1], 3),))
    later = builder.build(2)
    queried, unqueried = make_canister(builder, delta=3), make_canister(builder, delta=3)
    for canister in (queried, unqueried):
        respond(canister, sources + [earlier, paying] + later[:1])
        assert canister.anchor == earlier.header.hash()
    assert queried.get_balance(PROBE, NET) == 100 + 101 + 100 + 101 + 102
    unqueried.utxos.listing(PROBE)  # the same kept listing, but no overlay index
    delta = queried._index.delta(paying.header.hash(), queried.anchor_height() + 1)
    calls: Counter = Counter()
    count_calls(monkeypatch, utxoset, ("Utxo", "OutPoint", "script_address"), calls)
    count_calls(monkeypatch, overlay, ("Utxo", "OutPoint"), calls)
    paying_txs = {id(tx) for tx in paying.transactions}
    real_txid = Transaction.txid

    def counting_txid(tx):
        calls["txid"] += id(tx) in paying_txs
        return real_txid(tx)

    monkeypatch.setattr(Transaction, "txid", counting_txid)
    folds = count_in_folds(monkeypatch, calls)
    work = []
    for canister in (queried, unqueried):
        folds.clear()
        respond(canister, later[1:])
        assert canister.anchor == paying.header.hash()
        work.append(+folds)
    monkeypatch.undo()
    outputs = sum(len(tx.outputs) for tx in paying.transactions)
    assert work[0] == Counter()
    # every script but the coinbase's is held, so it alone is derived; each
    # output is stored as one new row
    assert work[1] == Counter(
        {"OutPoint": outputs, "Utxo": outputs, "script_address": 1, "txid": len(paying_txs)}
    )
    kept = queried.utxos.listings[PROBE].rows
    assert len(kept) == 5 and all(row is mine for row, mine in zip(kept, delta.groups[PROBE]))
    assert utxo_state(queried.utxos) == utxo_state(unqueried.utxos)
    for canister in (queried, unqueried):
        assert canister.get_balance(PROBE, NET) == 100 + 101 + 100 + 101 + 102
        canister.check_invariants()


def assert_one_row_per_output(utxos: UtxoSet) -> None:
    """Each address's listing, kept or built now, holds the very rows the
    set stores under its outpoints, one per output."""
    for address, held in utxos.by_address.items():
        rows = utxos.listing(address).rows
        assert len(rows) == len(held)
        assert all(utxos.by_outpoint[row.outpoint][0] is row for row in rows)


def test_each_output_is_held_as_one_stored_row(builder):
    # Twin states fold the paying block, the queried one from the index's
    # delta and the other through `apply_block`, each with a kept listing
    # for every address it held before; a snapshot load then lists every
    # address for the first time. On each path an output is one stored
    # row, which its address's listing holds, and a row folded from the
    # index is the one its block's delta built.
    sources = builder.build(3)
    earlier = builder.extend(extra_txs=(pay_probe(builder, sources[0], 2),))
    paying = builder.extend(extra_txs=(pay_probe(builder, sources[1], 3),))
    later = builder.build(2)
    queried, unqueried = make_canister(builder, delta=3), make_canister(builder, delta=3)
    for canister in (queried, unqueried):
        respond(canister, sources + [earlier, paying] + later[:1])
        assert canister.anchor == earlier.header.hash()
        for address in list(canister.utxos.by_address):
            canister.utxos.listing(address)
    queried.get_balance(PROBE, NET)
    delta = queried._index.delta(paying.header.hash(), queried.anchor_height() + 1)
    for canister in (queried, unqueried):
        respond(canister, later[1:])
        assert canister.anchor == paying.header.hash()
        assert_one_row_per_output(canister.utxos)
        canister.check_invariants()
    held = queried.utxos.by_outpoint
    assert all(held[row.outpoint][0] is row for rows in delta.groups.values() for row in rows)
    restored = Canister.from_snapshot(queried.snapshot_lines())
    assert restored.utxos.listings == {}
    assert_one_row_per_output(restored.utxos)
    restored.check_invariants()
    # the kept script map is checked: each script derives its address, and
    # the names are its inverse
    scripts, names = restored.utxos.scripts, restored.utxos.names
    scripts[PROBE] = b"\x51"
    with pytest.raises(AssertionError, match="keeps one script, which derives that address"):
        restored.check_invariants()
    scripts[PROBE] = PROBE_SCRIPT
    names[b"\x51"] = PROBE
    with pytest.raises(AssertionError, match="exact inverse of the kept scripts"):
        restored.check_invariants()

def test_folded_output_that_an_applied_block_spends_is_held_spent(builder):
    # The paying block folds while the block above it, which spends one of
    # its outputs, stays applied: that output is now a materialized one the
    # overlay spends.
    canister = make_canister(builder, delta=3)
    sources = builder.build(3)
    paying = builder.extend(extra_txs=(pay_probe(builder, sources[0], 2),))
    paid = OutPoint(paying.transactions[1].txid(), 1)
    spend = Transaction(1, (TxIn(paid, b"sig"),), (TxOut(5, b"\x51"),))
    respond(canister, sources + [paying, builder.extend(extra_txs=(spend,))])
    assert canister.get_balance(PROBE, NET) == 100
    respond(canister, builder.build(1))
    assert canister.anchor == paying.header.hash()
    assert canister.get_balance(PROBE, NET) == 100
    assert canister._index.held_spent == {PROBE: {paid}}
    canister.check_invariants()


def test_fold_beside_a_reorg_that_drops_the_spender_leaves_it_unspent(builder, monkeypatch):
    # The index holds the paying block, a plain one and the spender. One
    # response brings a heavier branch from the plain block: the paying
    # block folds while the stale index still holds the spender, so its
    # output joins `held_spent`, and the spender then leaves from the top,
    # which takes the output out again.
    canister = make_canister(builder, delta=4)
    sources = builder.build(2)
    pay = pay_probe(builder, sources[0], 1)
    paid = OutPoint(pay.txid(), 0)
    paying, plain = builder.extend(extra_txs=(pay,)), builder.extend()
    spend = Transaction(1, (TxIn(paid, b"sig"),), (TxOut(5, b"\x51"),))
    spender = builder.extend(extra_txs=(spend,))
    respond(canister, sources + [paying, plain, spender])
    assert canister.get_balance(PROBE, NET) == 0
    assert canister._index.first == canister.tree.height(paying.header.hash())
    calls: Counter = Counter()
    count_calls(monkeypatch, OverlayIndex, ("push", "drop_top", "drop_bottom"), calls)
    respond(canister, builder.build(2, parent=plain.header.hash()))
    assert canister.anchor == paying.header.hash()
    assert calls == Counter({"drop_bottom": 1, "drop_top": 1, "push": 2})  # no rebuild
    assert paid in canister.utxos.by_outpoint
    assert canister._index.held_spent == {}
    assert canister.get_balance(PROBE, NET) == 100
    canister.check_invariants()


def test_listing_stays_kept_when_every_held_output_is_spent(builder, monkeypatch):
    # Twin states fold the same blocks, the queried one through the index
    # and the other, which has a kept listing but no index, through
    # `apply_block`. One transaction spends both held outputs of the probe
    # address and pays it again; a later one spends that output too. The
    # listing stays kept through both.
    sources = builder.build(3)
    earlier = builder.extend(extra_txs=(pay_probe(builder, sources[0], 2),))
    blocks = sources + [earlier] + builder.build(2)
    queried, unqueried = make_canister(builder, delta=3), make_canister(builder, delta=3)
    for canister in (queried, unqueried):
        respond(canister, blocks)
        assert canister.anchor == earlier.header.hash()
    assert queried.get_balance(PROBE, NET) == 100 + 101
    unqueried.utxos.listing(PROBE)
    held = [OutPoint(earlier.transactions[1].txid(), vout) for vout in range(2)]
    repay = Transaction(1, tuple(TxIn(op, b"sig") for op in held), (TxOut(50, PROBE_SCRIPT),))
    respend = Transaction(1, (TxIn(OutPoint(repay.txid(), 0), b"sig"),), (TxOut(5, b"\x51"),))
    calls: Counter = Counter()
    count_calls(monkeypatch, OverlayIndex, ("drop_bottom",), calls)
    for spending, expected in ((repay, [50]), (respend, [])):
        spender = builder.extend(extra_txs=(spending,))
        later = builder.build(2)
        for canister in (queried, unqueried):
            respond(canister, [spender])  # the index holds it before it folds
            respond(canister, later)
            assert canister.anchor == spender.header.hash()
            listing = canister.utxos.listings[PROBE]
            assert [value for _, value, _ in listing.rows] == expected
            assert list(listing.rows) == overlay_oracle(canister, PROBE)
            assert listing.total == sum(expected)
            canister.check_invariants()
        assert utxo_state(queried.utxos) == utxo_state(unqueried.utxos)
        assert queried.get_balance(PROBE, NET) == sum(expected)
    assert unqueried._index is None and calls["drop_bottom"] == 6


def test_overlay_index_equality_compares_every_slot_it_does_not_name():
    # `check_invariants` compares the kept index with a fresh build, so a
    # slot added later takes part unless it is named as left out.
    assert OverlayIndex.UNCOMPARED == {"floors", "unspent_rows"}
    for name in OverlayIndex.__slots__:
        changed = OverlayIndex(1)
        setattr(changed, name, object())
        assert (changed == OverlayIndex(1)) == (name in OverlayIndex.UNCOMPARED), name


def count_calls(monkeypatch, owner, names, counts: Counter, key=None) -> None:
    """Count every call of the named methods of `owner` in `counts`, under
    `key` when given, else under each method's name."""
    for name in names:
        real = getattr(owner, name)

        def counting(*args, _real=real, _key=key or name, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


def count_in_folds(monkeypatch, counts: Counter) -> Counter:
    """A Counter that gains what `counts` gains while the anchor advances
    (`Canister._advance_anchor`, which folds blocks), and nothing else."""
    folds: Counter = Counter()
    real = Canister._advance_anchor

    def advancing(canister):
        before = Counter(counts)
        real(canister)
        folds.update(counts - before)

    monkeypatch.setattr(Canister, "_advance_anchor", advancing)
    return folds


def test_filtered_queries_take_confirmation_counts_once_per_response(builder, monkeypatch):
    canister = make_canister(builder, delta=10, page_size=2)
    sources = builder.build(2)
    respond(canister, sources + [builder.extend(extra_txs=(pay_probe(builder, sources[0], 3),))])
    calls: Counter = Counter()
    count_calls(monkeypatch, BlockTree, ("stability", "chain_confirmations"), calls)
    for _ in range(2):
        respond(canister, builder.build(2))
        expected = {k: overlay_oracle(canister, PROBE, k) for k in (1, 2, 3, 4, 10)}
        calls.clear()
        balance = canister.get_balance(PROBE, NET, min_confirmations=3)
        assert balance == sum(value for _, value, _ in expected[3])
        # one pass down the chain, and no stability call per applied block
        assert calls == Counter({"chain_confirmations": 1})
        calls.clear()
        for min_conf, rows in expected.items():
            assert canister.list_utxos(PROBE, NET, min_conf) == tuple(
                Utxo(*row) for row in rows
            )
            first = canister.get_utxos(PROBE, NET, min_confirmations=min_conf)
            assert listed(walk(canister, PROBE, first)) == rows
            total = sum(value for _, value, _ in rows)
            assert canister.get_balance(PROBE, NET, min_conf) == total
        assert not calls


def overlay_work_of_one_response(unstable: int, work: Counter) -> tuple[Counter, Counter]:
    """Build a state with `unstable` blocks above the anchor and warm its
    queries; deliver one block that extends the tip and folds one; return
    the work counted in `work` by that response and by the first balance
    after it, after checking that repeated queries count none."""
    builder = ChainBuilder()
    canister = make_canister(builder, delta=unstable + 1, page_size=3)
    sources = builder.build(3)
    paying = [builder.extend(extra_txs=(pay_probe(builder, block, 2),)) for block in sources]
    respond(canister, sources + paying + builder.build(unstable))
    assert canister.current_tip_height() - canister.anchor_height() == unstable
    queries = (
        lambda: canister.get_balance(PROBE, NET),
        lambda: canister.get_balance(PROBE, NET, min_confirmations=2),
        lambda: walk(canister, PROBE, canister.get_utxos(PROBE, NET)),
    )
    for query in queries:
        query()
    before = canister.anchor_height()
    work.clear()
    respond(canister, [builder.extend(extra_txs=(pay_probe(builder, paying[0], 2),))])
    response = Counter(work)
    assert canister.anchor_height() == before + 1
    work.clear()
    queries[0]()
    first = Counter(work)
    queries[1]()  # takes this response's confirmation counts
    for query in queries:
        work.clear()
        query()
        assert not work, f"a repeated query did work: {dict(work)}"
    assert listed(walk(canister, PROBE, canister.get_utxos(PROBE, NET))) == overlay_oracle(
        canister, PROBE
    )
    return response, first


def test_query_work_flat_in_the_unstable_region(monkeypatch):
    # Tree lookups and blocks moved in or out of the overlay index: a
    # one-block response moves that block in and the folded one out, and
    # the first query after it does no upkeep.
    work: Counter = Counter()
    count_calls(monkeypatch, BlockTree, ("has_block", "confirmations"), work)
    count_calls(monkeypatch, OverlayIndex, ("push", "drop_top", "drop_bottom"), work, "index")
    at_20 = overlay_work_of_one_response(20, work)
    at_80 = overlay_work_of_one_response(80, work)
    assert at_20 == at_80 == (Counter({"has_block": 3, "index": 2}), Counter())


class ReadCounting(dict):
    """A dict that counts, under `name` in `reads`, the lookups made
    through its methods."""

    def __init__(self, mapping: dict, reads: Counter, name: str):
        super().__init__(mapping)
        self.reads, self.name = reads, name

    def _read(self, method, *args):
        self.reads[self.name] += 1
        return getattr(super(), method)(*args)

    def get(self, *args):
        return self._read("get", *args)

    def __getitem__(self, key):
        return self._read("__getitem__", key)

    def __contains__(self, key):
        return self._read("__contains__", key)


OTHER_SCRIPT = p2pkh_script(sha256d(b"other")[:20])
OTHER = addr_of(OTHER_SCRIPT)


def test_unfiltered_queries_after_a_response_read_kept_answers(builder, monkeypatch):
    # After a one-block response that pays the probe address, an unfiltered
    # balance reads the kept net sum (no held spend, no net), a walk of an
    # address the block did not touch reads its kept unspent rows, and the
    # probe's rows are scanned once, by its first walk.
    canister = make_canister(builder, delta=4, page_size=2)
    sources = builder.build(4)
    pays = [
        builder.spend(builder.coinbase_outpoint(block), [(100 + i, script) for i in range(3)])
        for block, script in zip(sources, (PROBE_SCRIPT, OTHER_SCRIPT))
    ]
    respond(canister, sources + [builder.extend(extra_txs=tuple(pays))] + builder.build(4))
    assert canister.utxos.by_address.keys() >= {PROBE, OTHER}
    # the overlay spends one materialized output of each and pays each again
    respend = Transaction(
        1,
        tuple(TxIn(OutPoint(pay.txid(), 0), b"sig") for pay in pays),
        (TxOut(50, PROBE_SCRIPT), TxOut(60, OTHER_SCRIPT), TxOut(70, OTHER_SCRIPT)),
    )
    respond(canister, [builder.extend(extra_txs=(respend,)), *builder.build(1)])
    addresses = (PROBE, OTHER)
    for address in addresses:
        canister.get_balance(address, NET)
        walk(canister, address, canister.get_utxos(address, NET))
    index = canister._index
    assert index.held_spent.keys() == {PROBE, OTHER} and index.unspent_rows.keys() == {PROBE, OTHER}
    respond(canister, [builder.extend(extra_txs=(pay_probe(builder, sources[2], 2),))])
    assert canister._index is index and OTHER in index.unspent_rows
    assert any(OTHER in net for net in index.nets)
    reads: Counter = Counter()
    index.held_spent = ReadCounting(index.held_spent, reads, "held_spent")
    index.nets = [ReadCounting(net, reads, "net") for net in index.nets]
    for address in addresses:
        expected = sum(value for _, value, _ in overlay_oracle(canister, address))
        assert canister.get_balance(address, NET) == expected
    assert not reads
    scans: Counter = Counter()
    count_calls(monkeypatch, OverlayIndex, ("_scan",), scans)
    for address, rescans in ((OTHER, 0), (PROBE, 1), (PROBE, 0)):
        scans.clear()
        pages = walk(canister, address, canister.get_utxos(address, NET))
        assert len(pages) > 1 and listed(pages) == overlay_oracle(canister, address)
        assert scans["_scan"] == rescans, address
    canister.check_invariants()


def test_repeated_walks_build_no_utxo_and_only_filtered_balances_scan_the_overlay(
    builder, monkeypatch
):
    # Rows are stored as Utxos, so a walk hands out stored objects and an
    # unfiltered balance reads the overlay index's kept net sum.
    canister = make_canister(builder, delta=2, page_size=3)
    sources = builder.build(4)
    paying = [builder.extend(extra_txs=(pay_probe(builder, block, 4),)) for block in sources[:3]]
    respond(canister, sources + paying + builder.build(2))
    held = sorted(canister.utxos.by_address[PROBE], key=lambda op: (op.txid, op.vout))
    # the overlay pays the probe address and spends one of its held outputs
    respend = Transaction(1, (TxIn(held[0], b"sig"),), (TxOut(77, PROBE_SCRIPT),))
    respond(canister, [builder.extend(extra_txs=(pay_probe(builder, sources[3], 4), respend))])
    expected = overlay_oracle(canister, PROBE)
    assert len(expected) == 16  # four payments of four, one output spent, one paid back
    assert any(height > canister.anchor_height() for _, _, height in expected)
    assert any(height <= canister.anchor_height() for _, _, height in expected)
    cold = Canister.from_snapshot(canister.snapshot_lines())
    calls: Counter = Counter()
    count_calls(monkeypatch, utxoset, ("Utxo", "Listing"), calls)
    count_calls(monkeypatch, overlay, ("Utxo",), calls)
    count_calls(monkeypatch, OverlayIndex, ("changes",), calls)

    def counted(query):
        calls.clear()
        result = query()
        return result, {name: calls[name] for name in ("Utxo", "Listing", "changes")}

    total = sum(value for _, value, _ in expected)
    none = {"Utxo": 0, "Listing": 0, "changes": 0}
    # an unfiltered balance builds the listing once and never scans the overlay
    balance, first = counted(lambda: cold.get_balance(PROBE, NET))
    assert balance == total and first["Listing"] == 1 and first["changes"] == 0
    assert counted(lambda: cold.get_balance(PROBE, NET)) == (total, none)
    # a filtered balance reads the kept nets: it scans no row and builds nothing
    filtered = sum(value for _, value, _ in overlay_oracle(canister, PROBE, 2))
    assert counted(lambda: cold.get_balance(PROBE, NET, 2)) == (filtered, none)
    # a first walk builds the listing once; a repeated walk hands out the
    # stored rows and builds no Utxo
    pages, first = counted(lambda: walk(canister, PROBE, canister.get_utxos(PROBE, NET)))
    assert listed(pages) == expected and len(pages) == math.ceil(len(expected) / 3)
    assert first["Listing"] == 1
    pages, again = counted(lambda: walk(canister, PROBE, canister.get_utxos(PROBE, NET)))
    assert listed(pages) == expected and again == {**none, "changes": len(pages)}
    assert counted(lambda: canister.get_balance(PROBE, NET)) == (total, none)


def test_unfiltered_balance_follows_repeats_same_block_spends_reorgs_and_folds(builder):
    # The kept net sums and nets change only through the index's
    # pushes and drops (or a rebuild); after each kind of change every cut's
    # balance must equal a fresh scan.
    canister = make_canister(builder, delta=4)
    sources = builder.build(4)
    respond(canister, sources)

    def check():
        expected = overlay_oracle(canister, PROBE)
        assert canister.get_balance(PROBE, NET) == sum(value for _, value, _ in expected)
        for k in range(1, canister.delta + 1):
            filtered = overlay_oracle(canister, PROBE, k)
            assert canister.get_balance(PROBE, NET, k) == sum(value for _, value, _ in filtered)
        canister.check_invariants()
        return expected

    assert check() == []
    # a repeated transaction: two copies of its outputs in the overlay
    pay = pay_probe(builder, sources[0], 3)
    respond(canister, [builder.extend(extra_txs=(pay,))])
    check()
    respond(canister, [builder.extend(extra_txs=(pay,))])
    assert len(check()) == 3
    # an output created and spent in one block, the spend paying the probe again
    made = pay_probe(builder, sources[1], 2)
    spend = Transaction(1, (TxIn(OutPoint(made.txid(), 0), b"sig"),), (TxOut(7, PROBE_SCRIPT),))
    fork_point = builder.tip
    respond(canister, [builder.extend(extra_txs=(made, spend))])
    assert OutPoint(made.txid(), 0) not in {op for op, _, _ in check()}
    # a reorganization replaces that block with a heavier branch that
    # spends one copy of the repeated outputs
    respend = Transaction(1, (TxIn(OutPoint(pay.txid(), 1), b"sig"),), (TxOut(9, PROBE_SCRIPT),))
    reorgs = canister.reorgs
    rival = builder.extend(parent=fork_point)
    respond(canister, [rival, builder.extend(parent=rival.header.hash(), extra_txs=(respend,))])
    assert canister.reorgs == reorgs + 1
    check()
    # a block spends an output that the block above it creates
    later = pay_probe(builder, sources[2], 2)
    early = Transaction(1, (TxIn(OutPoint(later.txid(), 0), b"sig"),), (TxOut(5, b"\x51"),))
    respond(canister, [builder.extend(extra_txs=(early,)), builder.extend(extra_txs=(later,))])
    check()
    # folds take the copies into the materialized set one at a time, and
    # the early spend before the output it spends
    anchor = canister.anchor_height()
    for _ in range(7):
        respond(canister, builder.build(1))
        check()
    assert canister.anchor_height() > anchor + 4


def test_fold_rebuilds_the_index_only_while_it_holds_a_repeat(builder, monkeypatch):
    # A fold while the index holds a repeated outpoint rebuilds it; once a
    # reorganization drops the repeating block, folds are incremental again.
    canister = make_canister(builder, delta=20)
    sources = builder.build(3)
    pay = pay_probe(builder, sources[0], 1)
    first = builder.extend(extra_txs=(pay,))
    respond(canister, sources + [first, builder.extend(extra_txs=(pay,))])
    canister.get_balance(PROBE, NET)
    assert canister._index.repeats == [canister.current_tip_height()]
    rival = builder.build(19, parent=first.header.hash())
    respond(canister, rival[:2])  # drops the copy, folds nothing
    canister.get_balance(PROBE, NET)
    assert canister._index.repeats == [] and canister.anchor_height() == 0
    calls: Counter = Counter()
    count_calls(monkeypatch, OverlayIndex, ("push", "drop_bottom"), calls)
    for block in rival[2:]:
        calls.clear()
        respond(canister, [block])
        assert canister.get_balance(PROBE, NET) == 100
        assert calls["push"] == 1  # the new block only, never a rebuild
        canister.check_invariants()
    assert canister.anchor_height() > 0 and calls["drop_bottom"] == 1


def test_block_life_derives_each_address_and_hash_once(builder, monkeypatch):
    # From a block's first query through its fold to the spend of its
    # output: a script's address is derived once per block, when the block
    # joins the overlay, and only when no held output pays the script; every
    # header and transaction object is hashed once.
    canister = make_canister(builder, delta=2)
    sources = builder.build(2)
    paying = builder.extend(extra_txs=(pay_probe(builder, sources[0], 3),))
    later = builder.build(2)
    paid = OutPoint(paying.transactions[1].txid(), 0)
    spend = Transaction(1, (TxIn(paid, b"sig"),), (TxOut(50, PROBE_SCRIPT),))
    spending = builder.extend(extra_txs=(spend,))
    built = sources + [paying] + later + [spending] + builder.build(1)
    addresses = {"calls": 0}
    hashed: dict[bytes, int] = {}
    real_address, real_sha256d = utxoset.script_address, chain_module.sha256d

    def counting_address(script, network):
        addresses["calls"] += 1
        return real_address(script, network)

    def counting_sha256d(data):
        hashed[data] = hashed.get(data, 0) + 1
        return real_sha256d(data)

    monkeypatch.setattr(utxoset, "script_address", counting_address)
    monkeypatch.setattr(chain_module, "sha256d", counting_sha256d)
    # rebuilt from bytes, as blocks arrive off the wire; parsing is part of
    # a block's life (it keeps each transaction's txid)
    blocks = [Block.from_bytes(b.to_bytes()) for b in built]
    unheld = 0  # each block's distinct scripts that no held output paid when it joined the overlay
    for block in blocks:
        respond(canister, [block])
        held = set(canister.utxos.scripts.values())
        scripts = {out.script_pubkey for tx in block.transactions for out in tx.outputs}
        unheld += len(scripts - held)
        canister.get_balance(PROBE, NET)
    assert canister.anchor == spending.header.hash()  # folded, and the paying block before it
    assert paid not in canister.utxos.by_outpoint
    outputs = sum(len(tx.outputs) for b in blocks for tx in b.transactions)
    assert addresses["calls"] == unheld < outputs
    for block in blocks:
        assert hashed[block.header.to_bytes()] == 1
        for tx in block.transactions:
            assert hashed[tx.to_bytes()] == 1
    monkeypatch.undo()
    assert canister.get_balance(PROBE, NET) == sum(v for _, v, _ in overlay_oracle(canister, PROBE))


def test_held_script_address_reused_until_its_last_output_folds_away(builder, monkeypatch):
    # A payment to a script the state holds derives nothing; once the
    # script's last held output is spent and folded, its name is dropped,
    # and the next payment to it derives it again, once.
    canister = make_canister(builder, delta=2)
    derived: Counter = Counter()
    real_address = utxoset.script_address

    def counting_address(script, network):
        derived[script] += 1
        return real_address(script, network)

    monkeypatch.setattr(utxoset, "script_address", counting_address)

    def take(blocks):
        derived.clear()
        for block in blocks:
            respond(canister, [block])
            canister.get_balance(PROBE, NET)
        count = derived[PROBE_SCRIPT]
        canister.check_invariants()  # derives on its own, so not counted
        return count

    sources = builder.build(3)
    first = pay_probe(builder, sources[0], 1)
    assert take(sources + [builder.extend(extra_txs=(first,))] + builder.build(2)) == 1
    assert canister.utxos.names[PROBE_SCRIPT] == PROBE
    second = pay_probe(builder, sources[1], 1)
    assert take([builder.extend(extra_txs=(second,))] + builder.build(2)) == 0
    held = [op for op, (_, address) in canister.utxos.by_outpoint.items() if address == PROBE]
    assert len(held) == 2
    spend = Transaction(1, tuple(TxIn(op, b"sig") for op in held), (TxOut(150, b"\x51"),))
    assert take([builder.extend(extra_txs=(spend,))] + builder.build(2)) == 0
    assert PROBE not in canister.utxos.by_address
    assert PROBE_SCRIPT not in canister.utxos.names
    third = pay_probe(builder, sources[2], 1)
    assert take([builder.extend(extra_txs=(third,))] + builder.build(2)) == 1
    assert canister.utxos.names[PROBE_SCRIPT] == PROBE
    assert canister.get_balance(PROBE, NET) == 100


def test_repeated_transaction_keeps_the_latest_outputs(builder):
    # nothing stops a block from repeating an earlier transaction; its
    # outputs then replace the earlier ones under the same outpoints
    canister = make_canister(builder, delta=3, page_size=2)
    sources = builder.build(2)
    pay = pay_probe(builder, sources[0], 3)
    twice = [builder.extend(extra_txs=(pay,)), builder.extend(extra_txs=(pay,))]
    respond(canister, sources + twice)
    first, second = (canister.tree.height(block.header.hash()) for block in twice)

    def check(heights):
        expected = overlay_oracle(canister, PROBE)
        assert [height for _, _, height in expected] == heights
        assert listed(walk(canister, PROBE, canister.get_utxos(PROBE, NET))) == expected
        assert canister.get_balance(PROBE, NET) == sum(value for _, value, _ in expected)
        canister.check_invariants()

    assert canister.anchor_height() < first
    check([second] * 3)  # both copies overlaid: the later one is listed
    respond(canister, builder.build(1))
    assert canister.anchor_height() == first
    check([second] * 3 + [first] * 3)  # one materialized, one overlaid
    assert PROBE in canister.utxos.listings
    respond(canister, builder.build(1))
    assert canister.anchor_height() == second
    check([second] * 3)  # the kept listing swapped the older copy out


def test_overlay_matches_oracle_over_random_histories(monkeypatch):
    """Forks, reorgs (one at least three blocks deep in every history),
    anchor advances folded by the overlay index and by `apply_block`,
    snapshot round trips, two responses with no query
    between them, walks continued across a one-block extension and kept
    unspent rows both kept and deleted across responses, with
    every balance and page walk checked against a fresh scan and every
    invariant of the state checked after every response and every step."""
    reorgs = advances = round_trips = deep_reorgs = extended_walks = 0
    kept_adds = kept_spends = 0  # writes that updated a kept listing in place
    unqueried_pairs = 0  # second responses with no query since the first
    # kept unspent-row lists that a response left for the next walk, and
    # those that a push, a drop or a rebuild deleted
    rows_kept = rows_dropped = 0
    # anchor folds that the overlay index made, and those `apply_block` made
    # with no index or for a block the index did not hold at its bottom
    folds: Counter = Counter()
    real_fold, real_apply_block = OverlayIndex.fold, UtxoSet.apply_block

    def fold(index, *args):
        folds["inside"] += 1
        anomalies = real_fold(index, *args)
        folds["inside"] -= 1
        folds["index"] += anomalies is not None
        return anomalies

    def apply_block(utxos, *args):
        folds["apply_block"] += not folds["inside"]  # not a fallback of `apply_delta`
        return real_apply_block(utxos, *args)

    monkeypatch.setattr(OverlayIndex, "fold", fold)
    monkeypatch.setattr(UtxoSet, "apply_block", apply_block)
    for seed in range(6):
        rng = random.Random(seed)
        builder = ChainBuilder()
        canister = make_canister(builder, delta=6, page_size=2)
        scripts = [p2pkh_script(sha256d(b"prop%d" % i)[:20]) for i in range(4)]
        addresses = [addr_of(script) for script in scripts]
        outputs: list[OutPoint] = []  # every output built so far, on any branch

        def new_block(parent):
            txs = []
            for _ in range(rng.randrange(4)):
                if not outputs:
                    break
                sources = rng.sample(outputs, min(len(outputs), rng.randrange(1, 3)))
                pays = [
                    TxOut(rng.randrange(1, 10_000), rng.choice(scripts))
                    for _ in range(rng.randrange(1, 4))
                ]
                txs.append(Transaction(1, tuple(TxIn(op, b"sig") for op in sources), tuple(pays)))
            block = builder.extend(parent=parent, extra_txs=tuple(txs))
            for tx in block.transactions:
                outputs.extend(OutPoint(tx.txid(), i) for i in range(len(tx.outputs)))
            return block

        def random_parent():
            held = [canister.anchor] + [
                h for h in canister.tree.hashes() if canister.tree.has_block(h)
            ]
            return rng.choice(held) if rng.random() < 0.3 else None

        def deliver(blocks):
            nonlocal rows_kept, rows_dropped
            index = canister._index
            before = dict(index.unspent_rows) if index is not None else {}
            respond(canister, blocks)
            after = index.unspent_rows if index is not None else {}
            rows_kept += sum(after.get(address) is rows for address, rows in before.items())
            rows_dropped += sum(address not in after for address in before)
            canister.check_invariants()

        for step in range(40):
            roll = rng.random()
            if step == 20:
                # grow the applied chain to four blocks or more, then let a
                # heavier branch from three below its tip replace the top three
                tree = canister.tree
                while tree.height(tree.tip) - canister.anchor_height() < 4:
                    deliver([new_block(tree.tip)])
                    canister.get_balance(addresses[0], NET)
                top = tree.height(tree.tip)
                replaced = [(h, tree.selected_at(h)) for h in range(top - 2, top + 1)]
                branch = [new_block(tree.selected_at(top - 3))]
                branch.extend(new_block(branch[-1].header.hash()) for _ in range(3))
                deliver(branch)
                assert all(canister.tree.selected_at(h) != old for h, old in replaced)
                deep_reorgs += 1
            elif step and roll < 0.1:
                reorgs += canister.reorgs
                canister = Canister.from_snapshot(canister.snapshot_lines())
                round_trips += 1
                deliver([new_block(canister.tree.tip)])  # no index yet: folds by `apply_block`
            elif roll < 0.3:
                # the walk's next page comes after a one-block extension
                address = max(addresses, key=lambda a: len(overlay_oracle(canister, a)))
                expected = overlay_oracle(canister, address)
                first = canister.get_utxos(address, NET)
                deliver([new_block(canister.tree.tip)])
                if first.next_page is not None and first.tip_height >= canister.anchor_height():
                    assert listed(walk(canister, address, first)) == expected
                    extended_walks += 1
            elif roll < 0.45:
                # the index, once built, follows each response on its own
                deliver([new_block(random_parent())])
                deliver([new_block(random_parent())])
                unqueried_pairs += canister._index is not None
            else:
                block = new_block(random_parent())
                before = canister.anchor
                kept = {a: set(listing.rows) for a, listing in canister.utxos.listings.items()}
                deliver([block])
                advances += canister.anchor != before
                for address, rows in kept.items():
                    listing = canister.utxos.listings.get(address)
                    if listing is not None:  # kept through the writes, not rebuilt
                        kept_adds += bool(set(listing.rows) - rows)
                        kept_spends += bool(rows - set(listing.rows))
            assert canister.synced
            canister.check_invariants()
            for address in addresses:
                for min_conf in (None, 1, 2, canister.delta):
                    expected = overlay_oracle(canister, address, min_conf)
                    total = sum(value for _, value, _ in expected)
                    assert canister.get_balance(address, NET, min_conf) == total
                    first = canister.get_utxos(address, NET, min_confirmations=min_conf)
                    assert listed(walk(canister, address, first)) == expected
            canister.check_invariants()
        reorgs += canister.reorgs
    assert reorgs > 0 and advances > 0 and round_trips > 0
    assert deep_reorgs == 6 and extended_walks > 0
    assert kept_adds > 0 and kept_spends > 0 and unqueried_pairs > 0
    assert rows_kept > 0 and rows_dropped > 0
    assert folds["index"] > 0 and folds["apply_block"] > 0


# -- send_transaction -----------------------------------------------------------------


def test_send_transaction_roundtrip(builder):
    canister = make_canister(builder, delta=10)
    blocks = builder.build(1)
    respond(canister, blocks)
    tx = builder.spend(builder.coinbase_outpoint(blocks[0]), [(1, PROBE_SCRIPT)])
    txid = canister.send_transaction(tx.to_bytes(), NET)
    assert txid == tx.txid()
    assert canister.build_request().transactions == (tx.to_bytes(),)


def test_send_transaction_malformed(builder):
    canister = make_canister(builder)
    with pytest.raises(MalformedTransactionError):
        canister.send_transaction(b"\x01\x02\x03", NET)
    tx = Transaction(1, (TxIn(OutPoint.null(), b""),), (TxOut(1, b"\x51"),))
    with pytest.raises(MalformedTransactionError):
        canister.send_transaction(tx.to_bytes() + b"\xff", NET)


def test_send_transaction_value_out_of_range_rejected(builder):
    canister = make_canister(builder)
    too_rich = Transaction(
        1,
        (TxIn(OutPoint(Hash256(sha256d(b"x")), 0), b""),),
        (TxOut(21_000_000 * 100_000_000 + 1, b"\x51"),),
    )
    with pytest.raises(MalformedTransactionError):
        canister.send_transaction(too_rich.to_bytes(), NET)


def test_send_transaction_semantic_nonsense_accepted(builder):
    canister = make_canister(builder)
    ghost = Transaction(
        1,
        (TxIn(OutPoint(Hash256(sha256d(b"void")), 9), b"sig"),),
        (TxOut(1, b"\x51"),),
    )
    canister.send_transaction(ghost.to_bytes(), NET)
    assert len(canister.outbound_txs) == 1


# -- reorg transparency and replay ------------------------------------------------------


def test_reorg_above_anchor_leaves_no_trace(builder):
    canister = make_canister(builder, delta=3)
    trunk = builder.build(3)
    fork_parent = trunk[0].header.hash()
    loser_pay = builder.spend(builder.coinbase_outpoint(trunk[0]), [(4444, PROBE_SCRIPT)])
    losers = [builder.extend(parent=fork_parent, extra_txs=(loser_pay,))]
    respond(canister, trunk + losers)
    # probe balance exists only on the losing branch, which is not current
    assert canister.get_balance(PROBE, NET) == 0
    more = builder.build(5, parent=trunk[-1].header.hash())
    respond(canister, more)
    assert canister.get_balance(PROBE, NET) == 0
    assert canister.get_utxos(PROBE, NET).utxos == ()
    # compare against a canister that never saw the fork
    clean_builder = ChainBuilder()
    clean = make_canister(clean_builder, delta=3)
    respond(clean, trunk + more)
    assert clean.utxos.by_outpoint == canister.utxos.by_outpoint
    assert losers[0].header.hash() not in canister.tree


def test_replay_equivalence_oracle(builder):
    canister = make_canister(builder, delta=2)
    rng = random.Random(77)
    parent = builder.genesis.header.hash()
    all_blocks = []
    for i in range(14):
        extra = ()
        if i > 2 and rng.random() < 0.5:
            source = builder.coinbase_outpoint(all_blocks[rng.randrange(len(all_blocks) - 2)])
            try:
                extra = (builder.spend(source, [(1000 + i, PROBE_SCRIPT)]),)
            except Exception:
                extra = ()
        block = builder.extend(parent=parent, extra_txs=extra)
        all_blocks.append(block)
        parent = block.header.hash()
        if rng.random() < 0.25:
            builder_fork = builder.extend(parent=block.header.prev)
            all_blocks.append(builder_fork)
        respond(canister, all_blocks[-2:])
    respond(canister, all_blocks)
    oracle = replay_utxo_set(
        builder.tree_with_bodies(), canister.tree.current_chain(), NET, canister.anchor
    )
    assert oracle.by_outpoint == canister.utxos.by_outpoint


# -- snapshots ---------------------------------------------------------------------------


def test_snapshot_roundtrip(builder):
    canister = make_canister(builder, delta=2, page_size=5)
    blocks, pay_value = build_probe_chain(builder, canister, pay_in_block=2, total=6)
    tx = builder.spend(builder.coinbase_outpoint(blocks[1]), [(1, PROBE_SCRIPT)])
    canister.send_transaction(tx.to_bytes(), NET)
    lines = canister.snapshot_lines()
    restored = Canister.from_snapshot(lines)
    assert restored.anchor == canister.anchor
    assert restored.utxos.by_outpoint == canister.utxos.by_outpoint
    assert restored.utxos.by_address == canister.utxos.by_address
    assert set(restored.tree.hashes()) == set(canister.tree.hashes())
    assert restored.synced == canister.synced
    assert list(restored.outbound_txs) == list(canister.outbound_txs)
    a = canister.get_utxos(PROBE, NET)
    b = restored.get_utxos(PROBE, NET)
    assert [(u.outpoint, u.value, u.height) for u in a.utxos] == [
        (u.outpoint, u.value, u.height) for u in b.utxos
    ]
    assert restored.snapshot_lines() == lines


# Scripts the production-shape state pays over and over: one of each
# template the address extraction recognizes, and an opaque one.
REUSED_SCRIPTS = (
    p2pkh_script(sha256d(b"fan-p2pkh")[:20]),
    b"\xa9\x14" + sha256d(b"fan-p2sh")[:20] + b"\x87",
    b"\x00\x14" + sha256d(b"fan-p2wpkh")[:20],
    b"\x51",
)


def page_walk(canister, address: str) -> list[Utxo]:
    page = canister.get_utxos(address, NET)
    rows = list(page.utxos)
    while page.next_page is not None:
        page = canister.get_utxos(address, NET, page=page.next_page)
        rows.extend(page.utxos)
    return rows


def test_snapshot_roundtrip_at_production_shape(builder):
    # delta = 144, with as many unstable blocks as the state holds above
    # its anchor; the first twelve blocks and every eighth after them carry
    # a fan-out of 300 outputs (a multi-byte count) paying four reused
    # scripts, below the anchor and above it; a losing rival branch and a
    # queued transaction
    delta = 144
    canister = make_canister(builder, delta=delta)
    blocks = builder.build(2)
    for i in range(delta + 10):
        fan_out = ()
        if i < 12 or i % 8 == 0:
            outputs = [(1_000 + j, REUSED_SCRIPTS[j % 4]) for j in range(300)]
            fan_out = (builder.spend(builder.coinbase_outpoint(blocks[-2]), outputs),)
        blocks.append(builder.extend(extra_txs=fan_out))
    rival = builder.build(2, parent=blocks[-4].header.hash())
    respond(canister, blocks + rival)
    tx = builder.spend(builder.coinbase_outpoint(blocks[-1]), [(1, PROBE_SCRIPT)])
    canister.send_transaction(tx.to_bytes(), NET)
    assert canister.tree.height(canister.tree.tip) - canister.anchor_height() == delta - 1
    lines = canister.snapshot_lines()
    utxo_lines = [line.split() for line in lines if line.startswith("utxo ")]
    assert len(utxo_lines) > 2_000
    assert len({parts[1] for parts in utxo_lines}) < len(utxo_lines) / 100  # shared txids
    assert len({parts[4] for parts in utxo_lines}) < 10  # shared scripts
    restored = Canister.from_snapshot(lines)
    assert restored.snapshot_lines() == lines
    assert restored.utxos.by_outpoint == canister.utxos.by_outpoint
    assert restored.utxos.by_address == canister.utxos.by_address
    assert restored.utxos.scripts == canister.utxos.scripts
    assert restored.utxos.names == canister.utxos.names
    for script in REUSED_SCRIPTS:
        address = addr_of(script)
        assert restored.get_balance(address, NET) == canister.get_balance(address, NET)
        walk = page_walk(restored, address)
        assert len(walk) > restored.page_size
        assert walk == page_walk(canister, address)
    restored.check_invariants()
    assert restored.snapshot_lines() == lines


def test_snapshot_rejects_garbage():
    with pytest.raises(ValueError):
        Canister.from_snapshot(["not a snapshot"])


def snapshot_with(builder, *replacements: str) -> list[str]:
    """A valid snapshot with each replacement in place of the line that
    starts with the same word."""
    canister = make_canister(builder, delta=2)
    respond(canister, builder.build(4))
    lines = canister.snapshot_lines()
    for new in replacements:
        [i] = [i for i, old in enumerate(lines) if old.split()[0] == new.split()[0]]
        lines[i] = new
    return lines


def test_snapshot_cut_off_before_end_rejected(builder):
    lines = snapshot_with(builder)
    assert lines[-1] == "end"
    with pytest.raises(ValueError, match="snapshot cut off before end"):
        Canister.from_snapshot(lines[:-1])
    with pytest.raises(ValueError, match="snapshot cut off before end"):
        Canister.from_snapshot(lines[:7])
    Canister.from_snapshot(lines)


def test_snapshot_version_1_rejected(builder):
    # a version 1 snapshot could ask for a rule this version no longer has
    lines = snapshot_with(builder, "btcstate-snapshot 1")
    lines[1:1] = ["separation 0", "work-policy hash"]
    with pytest.raises(ValueError, match="unsupported snapshot version"):
        Canister.from_snapshot(lines)


def test_snapshot_anchor_missing_from_tree_rejected(builder):
    stray = Hash256(sha256d(b"stray")).rev_hex()
    lines = snapshot_with(builder, f"anchor {stray}")
    with pytest.raises(ValueError, match=stray):
        Canister.from_snapshot(lines)


def test_snapshot_anchor_off_selected_chain_rejected(builder):
    # a heavier branch from genesis, which the state machine would have
    # pruned, puts the selected tip off the anchor's chain
    lines = snapshot_with(builder)
    rival = builder.build(6, parent=builder.genesis.header.hash())
    last_header = max(i for i, line in enumerate(lines) if line.startswith("header "))
    lines[last_header + 1 : last_header + 1] = [f"header {b.header.to_bytes().hex()}" for b in rival]
    with pytest.raises(ValueError, match="not on the snapshot's selected chain"):
        Canister.from_snapshot(lines)


def test_snapshot_errors_name_the_line(builder):
    lines = snapshot_with(builder)
    # a materialized output above the anchor would break the listing order
    i = next(i for i, line in enumerate(lines) if line.startswith("utxo "))
    raised = lines[:i] + [lines[i].rsplit(" ", 1)[0] + " 99"] + lines[i + 1 :]
    with pytest.raises(SnapshotError, match=f"^line {i + 1}: utxo height 99 is above"):
        Canister.from_snapshot(raised)
    # the tip's header is gone but its body is still there
    last = max(i for i, line in enumerate(lines) if line.startswith("header "))
    headless = lines[:last] + lines[last + 1 :]
    header_hex = lines[last].split()[1]
    body = next(i for i, line in enumerate(headless) if line.startswith(f"block {header_hex}"))
    with pytest.raises(SnapshotError, match=f"^line {body + 1}: block .* has no header line"):
        Canister.from_snapshot(headless)
    # a line kind the writer never writes
    unknown = lines[:2] + ["frobnicate 12"] + lines[2:]
    with pytest.raises(SnapshotError, match="^line 3: unknown line kind 'frobnicate'$"):
        Canister.from_snapshot(unknown)
    # a scalar field given twice: the loader would have to pick one
    d = next(i for i, line in enumerate(lines) if line.startswith("delta "))
    twice = lines[: d + 1] + ["delta 5"] + lines[d + 1 :]
    with pytest.raises(SnapshotError, match=f"^line {d + 2}: repeated delta line \\(first on line {d + 1}\\)$"):
        Canister.from_snapshot(twice)
    # the same header or block twice
    for kind in ("header", "block"):
        j = max(i for i, line in enumerate(lines) if line.startswith(f"{kind} "))
        doubled = lines[: j + 1] + [lines[j]] + lines[j + 1 :]
        with pytest.raises(SnapshotError, match=f"^line {j + 2}: {kind} [0-9a-f]{{64}} is listed twice$"):
            Canister.from_snapshot(doubled)
    # two snapshots joined end to end; blank lines and comments after end are fine
    Canister.from_snapshot(lines + ["", "# trailing note", "   "])
    with pytest.raises(SnapshotError, match=f"^line {len(lines) + 1}: content after end$"):
        Canister.from_snapshot(lines + lines)


@pytest.mark.parametrize("text", ["+5", "1_000", "\u0663", "05", "-0"], ids=repr)
def test_snapshot_number_not_written_as_the_writer_writes_it_rejected(builder, text):
    # int() accepts each of these; the writer writes none of them
    lines = snapshot_with(builder)
    d = next(i for i, line in enumerate(lines) if line.startswith("delta "))
    with pytest.raises(SnapshotError, match=f"^line {d + 1}: bad delta .* is not a plain decimal number$"):
        Canister.from_snapshot(lines[:d] + [f"delta {text}"] + lines[d + 1 :])
    u = next(i for i, line in enumerate(lines) if line.startswith("utxo "))
    for field, name in [(2, "vout"), (3, "value"), (5, "height")]:
        parts = lines[u].split()
        parts[field] = text
        tampered = lines[:u] + [" ".join(parts)] + lines[u + 1 :]
        with pytest.raises(
            SnapshotError, match=f"^line {u + 1}: bad utxo line: {name} .* is not a plain decimal number$"
        ):
            Canister.from_snapshot(tampered)


def test_snapshot_queued_tx_may_repeat(builder):
    # the queue may hold one transaction twice, so its lines may repeat
    canister = make_canister(builder, delta=2)
    blocks = builder.build(3)
    respond(canister, blocks)
    tx = builder.spend(builder.coinbase_outpoint(blocks[0]), [(1, PROBE_SCRIPT)])
    canister.send_transaction(tx.to_bytes(), NET)
    canister.send_transaction(tx.to_bytes(), NET)
    lines = canister.snapshot_lines()
    assert lines.count(f"queued-tx {tx.to_bytes().hex()}") == 2
    restored = Canister.from_snapshot(lines)
    assert list(restored.outbound_txs) == [tx.to_bytes()] * 2
    assert restored.snapshot_lines() == lines


@pytest.mark.parametrize(
    "field, value, error",
    [
        (1, "-1", "vout -1 is not in \\[0, 4294967295\\]"),
        (1, str(2**32), "vout 4294967296 is not in"),
        (2, "-5", "value -5 is not in \\[0, 2100000000000000\\]"),
        (2, "99999999999999999999", "value 99999999999999999999 is not in"),
        (4, "-4", "height -4 is not at least 0"),
        (None, None, "utxo [0-9a-f]{64}:0 is listed twice"),
    ],
    ids=[
        "vout-negative",
        "vout-too-large",
        "value-negative",
        "value-above-max-money",
        "height-negative",
        "outpoint-twice",
    ],
)
def test_snapshot_utxo_line_out_of_bounds_rejected(builder, field, value, error):
    lines = snapshot_with(builder)
    i = next(i for i, line in enumerate(lines) if line.startswith("utxo "))
    if field is None:  # the same outpoint again, with another value
        _, txid, vout, amount, *rest = lines[i].split()
        lines.insert(i + 1, " ".join(["utxo", txid, vout, str(int(amount) - 1), *rest]))
        i += 1
    else:
        parts = lines[i].split()
        parts[1 + field] = value
        lines[i] = " ".join(parts)
    with pytest.raises(SnapshotError, match=f"^line {i + 1}: .*{error}"):
        Canister.from_snapshot(lines)


@pytest.mark.parametrize(
    "line, error",
    [
        ("delta 0", "bad delta '0': delta 0 is not at least 1"),
        ("tau -1", "bad tau '-1': tau -1 is not at least 0"),
        ("page-size 0", "bad page-size '0': page size 0 is not at least 1"),
    ],
    ids=["delta", "tau", "page-size"],
)
def test_snapshot_field_the_state_machine_refuses_names_its_line(builder, line, error):
    lines = snapshot_with(builder, line)
    i = lines.index(line)
    with pytest.raises(SnapshotError, match=f"^line {i + 1}: {error}$"):
        Canister.from_snapshot(lines)


def test_snapshot_root_header_without_a_target_names_its_line(builder):
    lines = snapshot_with(builder)
    i = next(i for i, line in enumerate(lines) if line.startswith("header "))
    raw = bytearray.fromhex(lines[i].split()[1])
    raw[72:76] = (0x01800000).to_bytes(4, "little")  # the bits: a negative target
    lines[i] = f"header {raw.hex()}"
    root = BlockHeader.from_bytes(bytes(raw)).hash().rev_hex()
    with pytest.raises(
        SnapshotError, match=f"^line {i + 1}: bad root header {root}: negative compact target$"
    ):
        Canister.from_snapshot(lines)


def test_snapshot_block_that_fails_its_shape_check_rejected(builder):
    lines = snapshot_with(builder)
    i = next(i for i, line in enumerate(lines) if line.startswith("block "))
    block = Block.from_bytes(bytes.fromhex(lines[i].split()[1]))
    coinbase, *rest = block.transactions
    paid = TxOut(coinbase.outputs[0].value - 1, coinbase.outputs[0].script_pubkey)
    forged = Transaction(
        coinbase.version, coinbase.inputs, (paid, *coinbase.outputs[1:]), coinbase.lock_time
    )
    cases = [(Block(block.header, (forged, *rest)), "merkle-mismatch"), (Block(block.header, ()), "malformed")]
    for bad, code in cases:
        tampered = lines[:i] + [f"block {bad.to_bytes().hex()}"] + lines[i + 1 :]
        with pytest.raises(SnapshotError, match=f"^line {i + 1}: bad block .*: {code}: "):
            Canister.from_snapshot(tampered)


def test_snapshot_queued_tx_that_send_transaction_would_refuse_rejected(builder):
    canister = make_canister(builder, delta=2)
    blocks = builder.build(4)
    respond(canister, blocks)
    tx = builder.spend(builder.coinbase_outpoint(blocks[0]), [(1, PROBE_SCRIPT)])
    canister.send_transaction(tx.to_bytes(), NET)
    lines = canister.snapshot_lines()
    i = lines.index(f"queued-tx {tx.to_bytes().hex()}")
    restored = Canister.from_snapshot(lines)
    assert list(restored.outbound_txs) == [tx.to_bytes()]
    assert restored.snapshot_lines() == lines
    no_outputs = Transaction(tx.version, tx.inputs, (), tx.lock_time)
    cases = [
        ("00", "unexpected end of data"),
        (no_outputs.to_bytes().hex(), "lacks inputs or outputs"),
    ]
    for raw, error in cases:
        tampered = lines[:i] + [f"queued-tx {raw}"] + lines[i + 1 :]
        with pytest.raises(SnapshotError, match=f"^line {i + 1}: bad queued-tx line: .*{error}"):
            Canister.from_snapshot(tampered)


def test_snapshot_header_with_bad_pow_rejected(builder):
    lines = snapshot_with(builder)
    last = max(i for i, line in enumerate(lines) if line.startswith("header "))
    tip = BlockHeader.from_bytes(bytes.fromhex(lines[last].split()[1]))
    bad = header_with_bad_pow(tip)
    lines.insert(last + 1, f"header {bad.to_bytes().hex()}")
    with pytest.raises(
        SnapshotError, match=f"^line {last + 2}: bad header {bad.hash().rev_hex()}: bad-pow: "
    ):
        Canister.from_snapshot(lines)


def test_snapshot_bodies_only_above_the_anchor_on_held_parents(builder):
    canister = make_canister(builder, delta=3)
    blocks = builder.build(5)
    respond(canister, blocks)
    assert canister.anchor_height() == 3
    lines = canister.snapshot_lines()
    first_body = next(i for i, line in enumerate(lines) if line.startswith("block "))
    # the anchor's own body, which the fold dropped
    folded = lines[:first_body] + [f"block {blocks[2].to_bytes().hex()}"] + lines[first_body:]
    with pytest.raises(
        SnapshotError, match=f"^line {first_body + 1}: block .* at height 3 is at or below"
    ):
        Canister.from_snapshot(folded)
    # the body right above the anchor is gone, so the next one has no parent to apply on
    assert lines[first_body] == f"block {blocks[3].to_bytes().hex()}"
    gapped = lines[:first_body] + lines[first_body + 1 :]
    with pytest.raises(
        SnapshotError, match=f"^line {first_body + 1}: block .* neither the anchor nor bodied"
    ):
        Canister.from_snapshot(gapped)
    assert Canister.from_snapshot(lines).snapshot_lines() == lines


def synced_and_unsynced_snapshots(builder) -> list[tuple[bool, list[str]]]:
    """The snapshots of one state before and after headers outrun its
    bodies by more than tau, each with its synced flag."""
    canister = make_canister(builder, delta=10)
    respond(canister, builder.build(2))
    states = [(canister.synced, canister.snapshot_lines())]
    respond(canister, headers=builder.build(4))
    states.append((canister.synced, canister.snapshot_lines()))
    assert [synced for synced, _ in states] == [True, False]
    return states


def test_snapshot_synced_line_that_disagrees_with_the_tree_rejected(builder):
    for synced, lines in synced_and_unsynced_snapshots(builder):
        i = lines.index(f"synced {int(synced)}")
        flipped = lines[:i] + [f"synced {int(not synced)}"] + lines[i + 1 :]
        with pytest.raises(SnapshotError, match=f"^line {i + 1}: bad synced '{int(not synced)}'"):
            Canister.from_snapshot(flipped)


def test_snapshot_without_a_synced_line_derives_it(builder):
    for synced, lines in synced_and_unsynced_snapshots(builder):
        restored = Canister.from_snapshot([line for line in lines if not line.startswith("synced")])
        assert restored.synced == synced
        restored.check_invariants()
        assert restored.snapshot_lines() == lines
    with pytest.raises(ApiUnavailableError):  # the unsynced one refuses queries
        restored.get_balance(PROBE, NET)


@pytest.mark.parametrize("line", ["delta -5", "delta 0", "tau -1", "page-size 0"])
def test_snapshot_bad_parameter_rejected(builder, line):
    with pytest.raises(ValueError):
        Canister.from_snapshot(snapshot_with(builder, line))


@pytest.mark.parametrize(
    "kw", [dict(delta=0), dict(delta=-5), dict(tau=-1), dict(page_size=0), dict(page_size=-1)]
)
def test_constructor_rejects_bad_parameters(builder, kw):
    with pytest.raises(ValueError):
        make_canister(builder, **kw)


def test_anchor_advancement_across_retarget_boundary():
    # a retargeting policy with a short window: blocks arrive at double
    # speed, so the target shrinks at the boundary and later blocks carry
    # more work; stability ratios must use the real per-block works
    from btcstate.chain import (
        Block,
        BlockHeader,
        bits_to_target,
        merkle_root,
        target_to_bits,
    )
    from btcstate.netsim import make_coinbase, mine_header
    from btcstate.validation import ChainPolicy, REGTEST_MAX_TARGET, expected_bits
    from btcstate.blocktree import BlockTree, DepthKind

    policy = ChainPolicy(
        NET,
        retarget_interval=6,
        target_spacing=600,
        max_target=REGTEST_MAX_TARGET,
    )
    start_bits = target_to_bits(REGTEST_MAX_TARGET // 2)
    genesis = BlockHeader(
        1, Hash256(sha256d(b"net")), Hash256(sha256d(b"mr")), 50_000, start_bits, 0
    )
    canister = Canister(genesis, NET, delta=3, tau=4, policy=policy)
    build_tree = BlockTree(genesis)
    parent = genesis.hash()
    time = 50_000
    blocks = []
    for height in range(1, 15):
        time += 300  # double speed
        bits = expected_bits(build_tree, parent, policy)
        cb = make_coinbase(height, b"rt%d" % height, PROBE_SCRIPT)
        header = mine_header(parent, merkle_root([cb.txid()]), time, bits)
        block = Block(header, (cb,))
        blocks.append(block)
        parent = build_tree.add_header(header)
        build_tree.set_block(parent, block)
    respond(canister, blocks)

    seen_bits = {b.header.bits for b in blocks}
    assert len(seen_bits) > 1, "difficulty must actually change at the boundary"
    assert bits_to_target(min(seen_bits, key=bits_to_target)) < bits_to_target(start_bits)
    assert canister.anchor_height() >= 10  # advanced well past the boundary
    assert canister.synced
    # under heavier post-boundary blocks the work ratio outruns the block
    # count: the gap between tip and anchor is smaller than delta blocks
    tip_height = canister.current_tip_height()
    assert tip_height - canister.anchor_height() < 3
    oracle = replay_utxo_set(build_tree, canister.tree.current_chain(), NET, canister.anchor)
    assert oracle.by_outpoint == canister.utxos.by_outpoint
    # depth bookkeeping stayed exact under mixed works
    from conftest import brute_depth

    for h in canister.tree.hashes():
        assert canister.tree.depth(h, DepthKind.WORK) == brute_depth(
            canister.tree, h, DepthKind.WORK
        )
    # a snapshot loads under the network's default policy, which would
    # refuse these headers (bad-difficulty), so it is not written
    with pytest.raises(SnapshotError, match="policy other than regtest's default"):
        canister.snapshot_lines()
