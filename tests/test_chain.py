"""Chain data types: serialization, hashing, merkle roots, targets, work,
and address extraction."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate import chain as chain_module
from btcstate.blocktree import BlockTree
from btcstate.chain import (
    Block,
    BlockHeader,
    CompactBitsError,
    Hash256,
    HASH_SPACE,
    MAX_MONEY,
    NetworkKind,
    OutPoint,
    SerializationError,
    Transaction,
    TxIn,
    TxOut,
    ZERO_HASH,
    bits_to_target,
    merkle_root,
    p2pkh_script,
    script_address,
    sha256d,
    target_to_bits,
    work_from_bits,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_bytes(name: str) -> bytes:
    return bytes.fromhex((FIXTURES / name).read_text().strip())


# -- Hash256 ------------------------------------------------------------------


def test_hash256_requires_32_bytes():
    with pytest.raises(ValueError):
        Hash256(b"\x01" * 31)
    with pytest.raises(ValueError):
        Hash256(b"\x01" * 33)


def test_hash256_rev_hex_roundtrip():
    h = Hash256(sha256d(b"x"))
    assert Hash256.from_rev_hex(h.rev_hex()) == h
    assert len(h.rev_hex()) == 64


# -- header serialization -------------------------------------------------------


def zero_header(**overrides) -> BlockHeader:
    fields = dict(version=0, prev=ZERO_HASH, merkle_root=ZERO_HASH, time=0, bits=0, nonce=0)
    fields.update(overrides)
    return BlockHeader(**fields)


def test_zero_header_is_80_zero_bytes():
    assert zero_header().to_bytes() == b"\x00" * 80


def test_header_field_offsets():
    base = zero_header().to_bytes()
    tweaked = zero_header(time=1, nonce=2).to_bytes()
    diffs = [i for i in range(80) if base[i] != tweaked[i]]
    # time occupies bytes 68..71, nonce bytes 76..79
    assert diffs == [68, 76]
    assert tweaked[68] == 1 and tweaked[76] == 2


def test_genesis_fixture_roundtrip_and_hash():
    raw = fixture_bytes("genesis_header.hex")
    header = BlockHeader.from_bytes(raw)
    assert header.to_bytes() == raw
    # independent double-SHA256 oracle over the fixture bytes
    oracle = hashlib.sha256(hashlib.sha256(raw).digest()).digest()
    assert header.hash() == Hash256(oracle)
    assert header.hash().rev_hex() == (
        "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"
    )


def test_genesis_block_fixture_parses():
    raw = fixture_bytes("genesis_block.hex")
    block = Block.from_bytes(raw)
    assert block.to_bytes() == raw
    assert len(block.transactions) == 1
    assert block.transactions[0].is_coinbase()
    assert block.computed_merkle_root() == block.header.merkle_root


def test_header_hash_distinct_for_distinct_nonce():
    a = zero_header(nonce=1)
    b = zero_header(nonce=2)
    assert a.hash() != b.hash()
    assert a.hash() == a.hash()


def test_header_wrong_size_rejected():
    with pytest.raises(SerializationError):
        BlockHeader.from_bytes(b"\x00" * 79)


# -- transactions ----------------------------------------------------------------


def sample_tx() -> Transaction:
    return Transaction(
        version=2,
        inputs=(TxIn(OutPoint(Hash256(sha256d(b"prev")), 1), b"\x51", 0xFFFFFFFE),),
        outputs=(TxOut(50_000, p2pkh_script(b"\x11" * 20)), TxOut(0, b"\x6a")),
        lock_time=101,
    )


def test_transaction_roundtrip():
    tx = sample_tx()
    assert Transaction.from_bytes(tx.to_bytes()) == tx


def test_transaction_trailing_bytes_rejected():
    raw = sample_tx().to_bytes() + b"\x00"
    with pytest.raises(SerializationError):
        Transaction.from_bytes(raw)


def test_transaction_truncation_rejected():
    raw = sample_tx().to_bytes()
    with pytest.raises(SerializationError):
        Transaction.from_bytes(raw[:-3])


def test_coinbase_detection():
    cb = Transaction(1, (TxIn(OutPoint.null(), b"h"),), (TxOut(1, b"\x51"),))
    assert cb.is_coinbase()
    assert not sample_tx().is_coinbase()


hash_strategy = st.binary(min_size=32, max_size=32).map(Hash256)
txin_strategy = st.builds(
    TxIn,
    st.builds(OutPoint, hash_strategy, st.integers(0, 0xFFFFFFFF)),
    st.binary(max_size=64),
    st.integers(0, 0xFFFFFFFF),
)
txout_strategy = st.builds(TxOut, st.integers(0, MAX_MONEY), st.binary(max_size=64))
tx_strategy = st.builds(
    Transaction,
    st.integers(-(2**31), 2**31 - 1),
    st.lists(txin_strategy, min_size=1, max_size=4).map(tuple),
    st.lists(txout_strategy, min_size=1, max_size=4).map(tuple),
    st.integers(0, 0xFFFFFFFF),
)
header_strategy = st.builds(
    BlockHeader,
    st.integers(-(2**31), 2**31 - 1),
    hash_strategy,
    hash_strategy,
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
)


@given(header_strategy)
def test_header_roundtrip_property(header):
    assert BlockHeader.from_bytes(header.to_bytes()) == header
    assert len(header.to_bytes()) == 80


@given(tx_strategy)
@settings(max_examples=60)
def test_transaction_roundtrip_property(tx):
    parsed = Transaction.from_bytes(tx.to_bytes())
    assert parsed == tx
    # the parser keeps the txid and length of the bytes it read
    assert (parsed._txid, parsed._size) == (tx.txid(), len(tx.to_bytes()))


@given(header_strategy, st.lists(tx_strategy, min_size=1, max_size=3))
@settings(max_examples=30)
def test_block_roundtrip_property(header, txs):
    block = Block(header, tuple(txs))
    assert Block.from_bytes(block.to_bytes()) == block


@given(header_strategy, st.lists(tx_strategy, min_size=1, max_size=3), st.booleans())
@settings(max_examples=30)
def test_block_size_is_the_serialized_length(header, txs, hashed_first):
    # Sizes come from each transaction's kept length, whether or not its
    # txid was taken before; 253 transactions or more need a longer count.
    if hashed_first:
        for tx in txs:
            tx.txid()
    for block in (Block(header, tuple(txs)), Block(header, tuple(txs) * 253)):
        assert block.size() == len(block.to_bytes())
    assert [tx.size() for tx in txs] == [len(tx.to_bytes()) for tx in txs]


# -- merkle ---------------------------------------------------------------------


def test_merkle_single_tx_equals_txid():
    tx = sample_tx()
    assert merkle_root([tx.txid()]) == tx.txid()


def test_merkle_pair_matches_manual():
    a, b = Hash256(sha256d(b"a")), Hash256(sha256d(b"b"))
    assert merkle_root([a, b]) == Hash256(sha256d(a + b))


def test_merkle_odd_duplicates_last():
    a, b, c = (Hash256(sha256d(x)) for x in (b"a", b"b", b"c"))
    left = sha256d(a + b)
    right = sha256d(c + c)
    assert merkle_root([a, b, c]) == Hash256(sha256d(left + right))


def test_merkle_empty_rejected():
    with pytest.raises(ValueError):
        merkle_root([])


# -- compact targets and work ------------------------------------------------------


def test_bits_to_target_known_value():
    # the classic difficulty-1 target
    assert bits_to_target(0x1D00FFFF) == 0xFFFF * 2 ** (8 * (0x1D - 3))


def test_bits_roundtrip_through_compact():
    for bits in (0x1D00FFFF, 0x207FFFFF, 0x1B0404CB, 0x181BC330):
        assert target_to_bits(bits_to_target(bits)) == bits


def test_bits_malformed_rejected():
    with pytest.raises(CompactBitsError):
        bits_to_target(0x00800000 | 0x1D000001)  # negative flag
    with pytest.raises(CompactBitsError):
        bits_to_target(0x1D000000)  # zero mantissa
    with pytest.raises(CompactBitsError):
        bits_to_target(0xFF123456)  # overflows 256 bits


def test_work_boundary_maximum_target():
    # conceptual maximum target: exactly one expected attempt
    assert HASH_SPACE // ((HASH_SPACE - 1) + 1) == 1
    target = bits_to_target(0x207FFFFF)
    assert work_from_bits(0x207FFFFF) == HASH_SPACE // (target + 1)


def test_work_halving_target_doubles_work():
    # big-integer oracle: halving the target doubles the work within floor error
    target = bits_to_target(0x1D00FFFF)
    w1 = HASH_SPACE // (target + 1)
    w2 = HASH_SPACE // (target // 2 + 1)
    assert abs(w2 - 2 * w1) <= 2
    assert work_from_bits(0x1D00FFFF) == w1


def test_work_deterministic():
    assert work_from_bits(0x1B0404CB) == work_from_bits(0x1B0404CB)


def test_work_monotone_in_target():
    smaller = bits_to_target(0x1B0404CB)
    larger = bits_to_target(0x1D00FFFF)
    assert smaller < larger
    assert work_from_bits(0x1B0404CB) > work_from_bits(0x1D00FFFF)


@given(st.integers(1, HASH_SPACE - 1), st.integers(1, HASH_SPACE - 1))
@settings(max_examples=80)
def test_work_monotone_over_all_targets(a, b):
    if a < b:
        assert HASH_SPACE // (a + 1) >= HASH_SPACE // (b + 1)


@given(
    st.integers(0x008000, 0x7FFFFF),
    st.integers(4, 0x1D),
    st.integers(0x008000, 0x7FFFFF),
    st.integers(4, 0x1D),
)
@settings(max_examples=120)
def test_work_strictly_monotone_in_production_range(m1, e1, m2, e2):
    # across the production difficulty band, a strictly smaller expanded
    # target always earns strictly more work (floor error cannot tie here)
    bits1 = (e1 << 24) | m1
    bits2 = (e2 << 24) | m2
    t1, t2 = bits_to_target(bits1), bits_to_target(bits2)
    if t1 < t2:
        assert work_from_bits(bits1) > work_from_bits(bits2)
    elif t1 == t2:
        assert work_from_bits(bits1) == work_from_bits(bits2)


@given(st.binary(max_size=300))
@settings(max_examples=150)
def test_deserializers_reject_garbage_cleanly(data):
    # arbitrary bytes either parse or raise the serialization error,
    # never anything else
    for parser in (BlockHeader.from_bytes, Transaction.from_bytes, Block.from_bytes):
        try:
            parser(data)
        except SerializationError:
            pass


def test_header_work_policies_differ():
    # a node is credited the work its target implies, never the larger
    # work its achieved (below-target) hash would suggest
    target = bits_to_target(0x207FFFFF)
    header = next(
        hd
        for hd in (zero_header(bits=0x207FFFFF, nonce=n) for n in range(64))
        if hd.hash().as_int() < target
    )
    h = header.hash()
    tree = BlockTree(header)
    assert tree.node_work(h) == work_from_bits(0x207FFFFF)
    assert tree.node_work(h) < HASH_SPACE // (h.as_int() + 1)
    child = zero_header(prev=h, bits=0x1D00FFFF)
    tree.add_header(child)
    assert tree.node_work(child.hash()) == work_from_bits(0x1D00FFFF)


# -- addresses ----------------------------------------------------------------------


def test_p2pkh_address_mainnet_known_vector():
    # all-zero pubkey hash has the well-known burn address form
    script = p2pkh_script(b"\x00" * 20)
    assert script_address(script, NetworkKind.MAINNET) == (
        "1111111111111111111114oLvT2"
    )


def reference_base58check(payload: bytes) -> str:
    """Base58Check one digit per division, with one '1' per leading zero byte."""
    data = payload + sha256d(payload)[:4]
    n = int.from_bytes(data, "big")
    digits = []
    while n:
        n, rem = divmod(n, 58)
        digits.append(chain_module._B58_ALPHABET[rem])
    pad = 0
    for byte in data:
        if byte != 0:
            break
        pad += 1
    return "1" * pad + "".join(reversed(digits))


def test_base58check_matches_the_digit_by_digit_encoding():
    rng = random.Random(58)
    payloads = [b"", b"\x00", b"\x00" * 21]
    for zeros in range(6):
        for length in (1, 2, 20, 21, 33):
            for _ in range(40):
                payloads.append(b"\x00" * zeros + rng.randbytes(length))
    parities = set()
    for payload in payloads:
        want = reference_base58check(payload)
        assert chain_module._base58check(payload) == want, payload.hex()
        # an odd digit count puts a zero digit atop the top pair
        parities.add(len(want.lstrip("1")) % 2)
    assert parities == {0, 1}


def test_p2sh_address_shape():
    script = b"\xa9\x14" + b"\x07" * 20 + b"\x87"
    addr = script_address(script, NetworkKind.MAINNET)
    assert addr.startswith("3")


def test_p2wpkh_address_known_vector():
    # BIP-173 example: witness v0 program of the all-zeros... use the
    # published test vector for hash160(0279be...) instead.
    program = bytes.fromhex("751e76e8199196d454941c45d1b3a323f1433bd6")
    script = b"\x00\x14" + program
    assert script_address(script, NetworkKind.MAINNET) == (
        "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4"
    )


def test_unknown_script_gets_opaque_address():
    script = b"\x6a\x04test"
    addr = script_address(script, NetworkKind.MAINNET)
    assert addr == "script-" + sha256d(script).hex()


def test_addresses_differ_across_networks():
    script = p2pkh_script(b"\x05" * 20)
    assert script_address(script, NetworkKind.MAINNET) != script_address(
        script, NetworkKind.TESTNET
    )
    assert script_address(script, NetworkKind.TESTNET) == script_address(
        script, NetworkKind.REGTEST
    )
