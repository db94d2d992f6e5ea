"""Header and block validity rules.

A header is accepted only when its parent is locally known, its compact
difficulty matches the policy's expected target at that height, its hash
satisfies that target, and its timestamp lies strictly after the median
of the previous eleven ancestors and at most two hours past current time.
Blocks additionally need a matching merkle root, no txid twice and an
available parent body. Transaction spending conditions are deliberately
never verified; the system trusts proof of work and the upstream
network's vetting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from btcstate.blocktree import BlockTree
from btcstate.chain import (
    Block,
    BlockHeader,
    CompactBitsError,
    Hash256,
    MAX_MONEY,
    NetworkKind,
    Transaction,
    bits_to_target,
    target_to_bits,
)

MAX_FUTURE_DRIFT = 2 * 60 * 60  # seconds

MAINNET_MAX_TARGET = 0x00000000FFFF0000000000000000000000000000000000000000000000000000
REGTEST_MAX_TARGET = 0x7FFFFF0000000000000000000000000000000000000000000000000000000000

REGTEST_BITS = 0x207FFFFF


class ViolationCode(Enum):
    MALFORMED = "malformed"
    ORPHAN = "orphan"
    BAD_DIFFICULTY = "bad-difficulty"
    BAD_POW = "bad-pow"
    TIME_TOO_OLD = "time-too-old"
    TIME_TOO_NEW = "time-too-new"
    MERKLE_MISMATCH = "merkle-mismatch"
    MISSING_PARENT_BODY = "missing-parent-body"
    BAD_COINBASE = "bad-coinbase"
    DUPLICATE_TX = "bad-txns-duplicate"


class ValidationError(Exception):
    def __init__(self, code: ViolationCode, message: str = ""):
        super().__init__(f"{code.value}: {message}" if message else code.value)
        self.code = code


@dataclass(frozen=True)
class ChainPolicy:
    """Difficulty schedule for one network.

    constant_bits pins every block to a fixed target (regtest style);
    otherwise the target retargets every `retarget_interval` blocks from
    the timespan of the previous window, clamped to a factor of 4.
    """

    network: NetworkKind
    constant_bits: Optional[int] = None
    retarget_interval: int = 2016
    target_spacing: int = 600
    max_target: int = MAINNET_MAX_TARGET

    @classmethod
    def for_network(cls, network: NetworkKind) -> "ChainPolicy":
        if network is NetworkKind.REGTEST:
            return cls(network, constant_bits=REGTEST_BITS, max_target=REGTEST_MAX_TARGET)
        return cls(network)


def expected_bits(tree: BlockTree, prev_hash: Hash256, policy: ChainPolicy) -> int:
    """Compact target a child of `prev_hash` must carry under `policy`."""
    if policy.constant_bits is not None:
        return policy.constant_bits
    height = tree.height(prev_hash) + 1
    parent_bits = tree.bits(prev_hash)
    if height % policy.retarget_interval != 0:
        return parent_bits
    parent_header = tree.header(prev_hash)
    first = prev_hash
    for _ in range(policy.retarget_interval - 1):
        up = tree.parent(first)
        if up is None:
            break
        first = up
    first_header = tree.header(first)
    if parent_header is None or first_header is None:
        raise ValidationError(ViolationCode.MALFORMED, "retargeting needs full headers")
    expected_span = policy.retarget_interval * policy.target_spacing
    actual = parent_header.time - first_header.time
    actual = max(expected_span // 4, min(expected_span * 4, actual))
    new_target = bits_to_target(parent_bits) * actual // expected_span
    new_target = min(new_target, policy.max_target)
    return target_to_bits(new_target)


def median_time_past(tree: BlockTree, prev_hash: Hash256) -> int:
    """Median of the times of up to the last eleven blocks ending at prev:
    the time window the tree keeps on prev's node."""
    window = tree.time_window(prev_hash)
    if None in window:
        raise ValidationError(ViolationCode.MALFORMED, "timestamp check needs full headers")
    times = sorted(window)
    return times[len(times) // 2]


def check_header(header: BlockHeader, tree: BlockTree, policy: ChainPolicy, now: float) -> None:
    """Raise ValidationError naming the first violated condition."""
    if header.prev not in tree:
        raise ValidationError(ViolationCode.ORPHAN, "parent header not locally available")
    want_bits = expected_bits(tree, header.prev, policy)
    if header.bits != want_bits:
        raise ValidationError(
            ViolationCode.BAD_DIFFICULTY,
            f"bits {header.bits:#010x}, expected {want_bits:#010x}",
        )
    try:
        target = bits_to_target(header.bits)
    except CompactBitsError as exc:
        raise ValidationError(ViolationCode.BAD_DIFFICULTY, str(exc)) from None
    if header.hash().as_int() > target:
        raise ValidationError(ViolationCode.BAD_POW, "header hash exceeds target")
    if header.time <= median_time_past(tree, header.prev):
        raise ValidationError(ViolationCode.TIME_TOO_OLD, "time not past ancestor median")
    if header.time > now + MAX_FUTURE_DRIFT:
        raise ValidationError(ViolationCode.TIME_TOO_NEW, "time too far in the future")


def header_violation(
    header: BlockHeader, tree: BlockTree, policy: ChainPolicy, now: float
) -> Optional[ViolationCode]:
    """Non-raising form of check_header."""
    try:
        check_header(header, tree, policy, now)
    except ValidationError as exc:
        return exc.code
    return None


def check_transaction_shape(tx: Transaction, name: str = "transaction") -> None:
    """The one transaction-shape rule: inputs and outputs, and every
    output value in [0, MAX_MONEY]. `name` names the transaction in the
    error."""
    if not tx.inputs or not tx.outputs:
        raise ValidationError(ViolationCode.MALFORMED, f"{name} lacks inputs or outputs")
    if not all(0 <= txout.value <= MAX_MONEY for txout in tx.outputs):
        raise ValidationError(ViolationCode.MALFORMED, f"{name} output value out of range")


def check_block_shape(block: Block) -> None:
    """Structural block checks that need no chain context.

    The merkle root must commit to the transactions, and no txid may occur
    twice: a repeated subtree leaves the root unchanged (CVE-2012-2459), so
    a root that matches does not on its own pin the body. The first
    transaction must be the only coinbase. Spend validity is out of scope
    by design.

    A block that passes is marked (`Block._checked`, Bitcoin Core's
    `CBlock::fChecked`) and a marked block returns at once: a block is
    immutable, so its verdict is too. A block that fails keeps nothing and
    is refused again on every call; a decoded copy is a new object and is
    checked again.
    """
    if block._checked:
        return
    if not block.transactions:
        raise ValidationError(ViolationCode.MALFORMED, "block has no transactions")
    for i, tx in enumerate(block.transactions):
        check_transaction_shape(tx, f"tx {i}")
    if not block.transactions[0].is_coinbase():
        raise ValidationError(ViolationCode.BAD_COINBASE, "first transaction is not a coinbase")
    for i, tx in enumerate(block.transactions[1:], start=1):
        if any(txin.outpoint.is_null() for txin in tx.inputs):
            raise ValidationError(ViolationCode.BAD_COINBASE, f"tx {i} has a null previous output")
    if block.computed_merkle_root() != block.header.merkle_root:
        raise ValidationError(ViolationCode.MERKLE_MISMATCH, "merkle root does not match header")
    if len(set(block.txids())) != len(block.transactions):
        raise ValidationError(ViolationCode.DUPLICATE_TX, "block holds one txid twice")
    object.__setattr__(block, "_checked", True)


def check_block(block: Block, tree: BlockTree, anchor: Hash256) -> None:
    """Block shape, then the parent-body rule: the parent must be the anchor
    or hold its body in the tree, so blocks replay in chain order."""
    check_block_shape(block)
    prev = block.header.prev
    if prev != anchor and not (prev in tree and tree.has_block(prev)):
        raise ValidationError(ViolationCode.MISSING_PARENT_BODY, "parent block not available")
