"""Header and block validity: parent availability, difficulty schedule,
proof of work, timestamps, merkle commitment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate import validation
from btcstate.blocktree import BlockTree
from btcstate.chain import (
    Block,
    BlockHeader,
    NetworkKind,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    bits_to_target,
    merkle_root,
    sha256d,
    target_to_bits,
    work_from_bits,
)
from btcstate.netsim import make_coinbase, mine_header
from btcstate.validation import (
    ChainPolicy,
    REGTEST_BITS,
    ValidationError,
    ViolationCode,
    check_block,
    check_block_shape,
    check_header,
    expected_bits,
    header_violation,
    median_time_past,
)

from conftest import EASY_BITS, HARDER_BITS, NOW, ChainBuilder, name_hash


def make_regtest():
    builder = ChainBuilder()
    return builder, ChainPolicy.for_network(NetworkKind.REGTEST)


def test_happy_path_child_of_tip(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    block = builder.extend()
    # validate against a fresh tree holding only the parent
    tree = BlockTree(builder.genesis.header)
    assert header_violation(block.header, tree, policy, NOW) is None


def test_orphan_header_rejected(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    b1 = builder.extend()
    b2 = builder.extend()
    tree = BlockTree(builder.genesis.header)
    # b2's parent (b1) is not in the tree
    assert header_violation(b2.header, tree, policy, NOW) is ViolationCode.ORPHAN
    tree.add_header(b1.header)
    assert header_violation(b2.header, tree, policy, NOW) is None


def test_wrong_bits_rejected(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    tree = BlockTree(builder.genesis.header)
    time = median_time_past(tree, tree.root) + 1
    header = mine_header(tree.root, sha256d_hash(b"m"), time, 0x207FFF00)
    assert header_violation(header, tree, policy, NOW) is ViolationCode.BAD_DIFFICULTY


def sha256d_hash(data):
    from btcstate.chain import Hash256

    return Hash256(sha256d(data))


def test_pow_violation():
    # under a hard target, nonces whose hash exceeds it must be named BAD_POW
    hard_bits = 0x1D00FFFF
    genesis = BlockHeader(1, sha256d_hash(b"r"), sha256d_hash(b"m"), 1_000_000, hard_bits, 0)
    tree = BlockTree(genesis)
    policy = ChainPolicy(NetworkKind.REGTEST, constant_bits=hard_bits)
    target = bits_to_target(hard_bits)
    violations = set()
    for nonce in range(8):
        header = BlockHeader(1, genesis.hash(), sha256d_hash(b"m2"), 1_000_001, hard_bits, nonce)
        assert header.hash().as_int() > target  # a 2^-32 target never hits by luck
        violations.add(header_violation(header, tree, policy, NOW))
    assert violations == {ViolationCode.BAD_POW}


def test_time_too_old(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    tree = BlockTree(builder.genesis.header)
    mtp = median_time_past(tree, tree.root)
    header = mine_header(tree.root, sha256d_hash(b"m"), mtp, REGTEST_BITS)
    assert header_violation(header, tree, policy, NOW) is ViolationCode.TIME_TOO_OLD


def test_time_too_new(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    tree = BlockTree(builder.genesis.header)
    far = NOW + 3 * 60 * 60
    header = mine_header(tree.root, sha256d_hash(b"m"), far, REGTEST_BITS)
    assert header_violation(header, tree, policy, NOW) is ViolationCode.TIME_TOO_NEW


def test_median_time_past_uses_eleven_ancestors(builder):
    tree = builder.tree
    times = [builder.genesis.header.time]
    parent = tree.root
    for i in range(14):
        block = builder.extend(parent=parent, time=times[-1] + 10)
        parent = block.header.hash()
        times.append(block.header.time)
    got = median_time_past(builder.tree, parent)
    window = sorted(times[-11:])
    assert got == window[len(window) // 2]


def test_median_time_past_near_the_root_and_without_headers(builder):
    b1 = builder.extend(time=builder.genesis.header.time + 50)
    assert median_time_past(builder.tree, b1.header.hash()) == b1.header.time
    raw = BlockTree((sha256d_hash(b"raw"), REGTEST_BITS))
    with pytest.raises(ValidationError) as err:
        median_time_past(raw, raw.root)
    assert err.value.code is ViolationCode.MALFORMED


def walked_times(tree, h):
    """The header times of `h` and up to ten nearest ancestors, newest
    first, by a walk up the parents; None for a node without a header."""
    times = []
    while h is not None and len(times) < 11:
        header = tree.header(h)
        times.append(None if header is None else header.time)
        h = tree.parent(h)
    return times


def assert_window_and_work_match_walks(tree):
    for h in tree:
        times = walked_times(tree, h)
        if None in times:
            with pytest.raises(ValidationError) as err:
                median_time_past(tree, h)
            assert err.value.code is ViolationCode.MALFORMED
        else:
            assert median_time_past(tree, h) == sorted(times)[len(times) // 2]
        assert tree.node_work(h) == work_from_bits(tree.bits(h))
        parent = tree.parent(h)
        below = tree.chain_work(parent) if parent is not None else 0
        assert tree.chain_work(h) == below + tree.node_work(h)
    assert tree.kept_facts_match_scan()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kept_time_window_and_work_match_a_parent_walk(data):
    # Header times that go back and forth, forks, removals, raw nodes and a
    # raw root, or a retargeting chain whose bits change every four blocks;
    # then the same tree loaded from its dump, where no node has a header.
    retarget = data.draw(st.booleans(), label="retarget")
    policy = ChainPolicy(
        NetworkKind.MAINNET,
        retarget_interval=4,
        target_spacing=600,
        max_target=bits_to_target(EASY_BITS),
    )
    if not retarget and data.draw(st.booleans(), label="raw root"):
        tree = BlockTree((name_hash("raw root"), EASY_BITS))
    else:
        start = target_to_bits(policy.max_target // 4) if retarget else EASY_BITS
        tree = BlockTree(BlockHeader(1, name_hash("pre"), name_hash("m"), 5_000, start, 0))
    nodes = [tree.root]
    for i in range(data.draw(st.integers(1, 40), label="steps")):
        parent = nodes[-1] if data.draw(st.integers(0, 3)) else data.draw(st.sampled_from(nodes))
        step = data.draw(st.integers(0, 9), label="step")
        if step == 0 and len(nodes) > 1:
            tree.remove_subtree(data.draw(st.sampled_from(nodes[1:])))
            nodes = [h for h in nodes if h in tree]
        elif step == 1 and not retarget:
            nodes.append(tree.add_raw(name_hash(f"raw {i}"), parent, EASY_BITS))
        else:
            time = data.draw(st.integers(0, 10_000), label="time")
            if retarget:
                bits = expected_bits(tree, parent, policy)
            else:
                bits = data.draw(st.sampled_from((EASY_BITS, HARDER_BITS)), label="bits")
            nodes.append(tree.add_header(BlockHeader(1, parent, name_hash(f"m{i}"), time, bits, 0)))
    assert_window_and_work_match_walks(tree)
    assert_window_and_work_match_walks(BlockTree.from_dump(tree.dump_lines()))


# -- retargeting -----------------------------------------------------------------


def build_retarget_chain(interval, spacing, seconds_per_block, max_target):
    """A chain crossing one retarget boundary at a controlled pace."""
    policy = ChainPolicy(
        NetworkKind.MAINNET,
        retarget_interval=interval,
        target_spacing=spacing,
        max_target=max_target,
    )
    start_bits = target_to_bits(max_target // 4)
    genesis = BlockHeader(1, sha256d_hash(b"rg"), sha256d_hash(b"rm"), 10_000, start_bits, 0)
    tree = BlockTree(genesis)
    parent = genesis.hash()
    time = 10_000
    for height in range(1, interval):
        time += seconds_per_block
        bits = expected_bits(tree, parent, policy)
        assert bits == start_bits  # no change inside the window
        header = mine_header(parent, sha256d_hash(b"x%d" % height), time, bits)
        parent = tree.add_header(header)
    return tree, policy, parent, start_bits, time


def test_retarget_faster_blocks_shrink_target():
    interval, spacing = 8, 600
    max_target = bits_to_target(0x207FFFFF)
    tree, policy, parent, start_bits, _ = build_retarget_chain(
        interval, spacing, spacing // 2, max_target
    )
    new_bits = expected_bits(tree, parent, policy)
    old_target = bits_to_target(start_bits)
    # blocks at double speed: timespan is half the expected span
    expected_span = interval * spacing
    actual = (interval - 1) * (spacing // 2)
    want = target_to_bits(old_target * max(expected_span // 4, actual) // expected_span)
    assert new_bits == want
    assert bits_to_target(new_bits) < old_target


def test_retarget_slower_blocks_grow_target_capped():
    interval, spacing = 8, 600
    max_target = bits_to_target(0x207FFFFF)
    tree, policy, parent, start_bits, _ = build_retarget_chain(
        interval, spacing, spacing * 10, max_target
    )
    new_bits = expected_bits(tree, parent, policy)
    old_target = bits_to_target(start_bits)
    # clamped at 4x the expected span
    want = target_to_bits(min(old_target * 4, max_target))
    assert new_bits == want


def test_retarget_clamp_upper_bound_is_max_target():
    interval, spacing = 4, 600
    max_target = bits_to_target(0x207FFFFF)
    policy = ChainPolicy(
        NetworkKind.MAINNET,
        retarget_interval=interval,
        target_spacing=spacing,
        max_target=max_target,
    )
    start_bits = target_to_bits(max_target // 2)
    genesis = BlockHeader(1, sha256d_hash(b"cg"), sha256d_hash(b"cm"), 10_000, start_bits, 0)
    tree = BlockTree(genesis)
    parent = genesis.hash()
    time = 10_000
    for height in range(1, interval):
        time += spacing * 8
        header = mine_header(parent, sha256d_hash(b"c%d" % height), time, start_bits)
        parent = tree.add_header(header)
    assert bits_to_target(expected_bits(tree, parent, policy)) == max_target


def test_regtest_constant_difficulty(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    tree = BlockTree(builder.genesis.header)
    assert expected_bits(tree, tree.root, policy) == REGTEST_BITS


# -- blocks ----------------------------------------------------------------------


def test_block_ok(builder):
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    block = builder.extend()
    tree = BlockTree(builder.genesis.header)
    check_header(block.header, tree, policy, NOW)
    check_block(block, tree, tree.root)


def test_block_merkle_mismatch(builder):
    block = builder.extend()
    # perturb the coinbase so its txid changes but the header commitment stays
    cb = block.transactions[0]
    perturbed = Transaction(cb.version, cb.inputs, cb.outputs, cb.lock_time + 1)
    bad = Block(block.header, (perturbed,) + block.transactions[1:])
    tree = BlockTree(builder.genesis.header)
    with pytest.raises(ValidationError) as err:
        check_block(bad, tree, tree.root)
    assert err.value.code is ViolationCode.MERKLE_MISMATCH


def test_block_with_invalid_spend_is_ok_by_design(builder):
    # spending a nonexistent output is NOT checked; only structure and PoW
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    bogus = Transaction(
        1,
        (TxIn(OutPoint(sha256d_hash(b"ghost"), 0), b"sig"),),
        (TxOut(1, b"\x51"),),
    )
    block = builder.extend(extra_txs=(bogus,))
    tree = BlockTree(builder.genesis.header)
    check_header(block.header, tree, policy, NOW)
    check_block(block, tree, tree.root)


def test_block_missing_parent_body(builder):
    b1 = builder.extend()
    b2 = builder.extend()
    tree = BlockTree(builder.genesis.header)
    tree.add_header(b1.header)
    with pytest.raises(ValidationError) as err:
        check_block(b2, tree, tree.root)
    assert err.value.code is ViolationCode.MISSING_PARENT_BODY
    # a parent that is the anchor needs no body; any other needs one held
    check_block(b2, tree, b1.header.hash())
    tree.set_block(b1.header.hash(), b1)
    check_block(b2, tree, tree.root)


def test_block_shape_rules():
    cb = make_coinbase(1, b"t", b"\x51")
    plain = Transaction(
        1, (TxIn(OutPoint(sha256d_hash(b"p"), 0), b""),), (TxOut(1, b"\x51"),)
    )
    header = BlockHeader(1, sha256d_hash(b"p"), merkle_root([plain.txid()]), 0, REGTEST_BITS, 0)
    with pytest.raises(ValidationError) as err:
        check_block_shape(Block(header, (plain,)))
    assert err.value.code is ViolationCode.BAD_COINBASE

    header2 = BlockHeader(
        1, sha256d_hash(b"p"), merkle_root([cb.txid(), cb.txid()]), 0, REGTEST_BITS, 0
    )
    with pytest.raises(ValidationError) as err:
        check_block_shape(Block(header2, (cb, cb)))
    assert err.value.code is ViolationCode.BAD_COINBASE  # second coinbase

    empty_header = BlockHeader(1, sha256d_hash(b"p"), sha256d_hash(b"m"), 0, REGTEST_BITS, 0)
    with pytest.raises(ValidationError) as err:
        check_block_shape(Block(empty_header, ()))
    assert err.value.code is ViolationCode.MALFORMED


def test_a_passed_shape_check_is_kept_on_the_block_object(builder, monkeypatch):
    source = builder.extend()
    spend = builder.spend(builder.coinbase_outpoint(source), [(1, b"\x51")])
    block = builder.extend(extra_txs=(spend,))
    reads = []
    real_shape, real_txid = validation.check_transaction_shape, Transaction.txid
    monkeypatch.setattr(
        validation,
        "check_transaction_shape",
        lambda tx, name="transaction": reads.append(name) or real_shape(tx, name),
    )
    monkeypatch.setattr(Transaction, "txid", lambda tx: reads.append("txid") or real_txid(tx))
    check_block_shape(block)
    assert reads.count("txid") >= 2 and "tx 1" in reads
    reads.clear()
    check_block_shape(block)
    assert reads == []  # the kept verdict, as CBlock::fChecked
    copy = Block.from_bytes(block.to_bytes())
    assert copy == block and copy is not block
    reads.clear()
    check_block_shape(copy)
    assert "tx 0" in reads and "tx 1" in reads  # a decoded copy is checked again
    cb = block.transactions[0]
    perturbed = Transaction(cb.version, cb.inputs, cb.outputs, cb.lock_time + 1)
    twice = (cb, spend, spend)
    twice_header = BlockHeader(
        1, block.header.prev, merkle_root([tx.txid() for tx in twice]), 0, REGTEST_BITS, 0
    )
    bad = {
        ViolationCode.MERKLE_MISMATCH: Block(block.header, (perturbed, spend)),
        ViolationCode.DUPLICATE_TX: Block(twice_header, twice),
    }
    for code, refused in bad.items():
        for _ in range(3):
            with pytest.raises(ValidationError) as err:
                check_block_shape(refused)
            assert err.value.code is code


def test_pow_check_iff_hash_at_most_target(builder):
    # the validator's PoW verdict must agree with the raw comparison
    policy = ChainPolicy.for_network(NetworkKind.REGTEST)
    tree = BlockTree(builder.genesis.header)
    target = bits_to_target(REGTEST_BITS)
    time = median_time_past(tree, tree.root) + 1
    agree = 0
    for nonce in range(40):
        header = BlockHeader(2, tree.root, sha256d_hash(b"pw"), time, REGTEST_BITS, nonce)
        ok = header.hash().as_int() <= target
        verdict = header_violation(header, tree, policy, NOW)
        assert (verdict is None) == ok or verdict is not ViolationCode.BAD_POW
        if (verdict is None) == ok:
            agree += 1
    assert agree == 40
