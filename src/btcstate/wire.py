"""In-memory wire records: the update protocol between the state machine
and its sync endpoint, and the messages exchanged between sync endpoints
and simulated peers. These stand in for the real transports; a trace hook
renders a peer message as a single text line for debugging."""

from __future__ import annotations

from dataclasses import dataclass

from btcstate.chain import Block, BlockHeader, Hash256, Transaction

BLOCK_ITEM = "block"
TX_ITEM = "tx"
# Most headers one `headers` reply carries (Bitcoin Core's MAX_HEADERS_RESULTS).
MAX_HEADERS_RESULTS = 2000


@dataclass(frozen=True)
class GetSuccessorsRequest:
    """Update request: the requester's anchor header, the hashes above it
    for which it already holds bodies, and transactions to relay."""

    anchor: BlockHeader
    processed: frozenset[Hash256]
    transactions: tuple[bytes, ...] = ()


@dataclass(frozen=True)
class GetSuccessorsResponse:
    blocks: tuple[tuple[Block, BlockHeader], ...]
    next_headers: tuple[BlockHeader, ...]


@dataclass(frozen=True)
class InvItem:
    kind: str  # BLOCK_ITEM or TX_ITEM
    hash: Hash256


@dataclass(frozen=True)
class Inv:
    items: tuple[InvItem, ...]


@dataclass(frozen=True)
class GetData:
    items: tuple[InvItem, ...]


@dataclass(frozen=True)
class HeadersMsg:
    headers: tuple[BlockHeader, ...]


@dataclass(frozen=True)
class GetHeaders:
    have: frozenset[Hash256]


@dataclass(frozen=True)
class BlockMsg:
    block: Block


@dataclass(frozen=True)
class TxMsg:
    tx: Transaction


@dataclass(frozen=True)
class Malformed:
    note: str = ""


Message = Inv | GetData | HeadersMsg | GetHeaders | BlockMsg | TxMsg | Malformed


def describe(msg: Message) -> str:
    if isinstance(msg, Inv):
        return "inv " + " ".join(f"{i.kind}:{i.hash.rev_hex()[:12]}" for i in msg.items)
    if isinstance(msg, GetData):
        return "getdata " + " ".join(f"{i.kind}:{i.hash.rev_hex()[:12]}" for i in msg.items)
    if isinstance(msg, HeadersMsg):
        return f"headers n={len(msg.headers)}"
    if isinstance(msg, GetHeaders):
        return f"getheaders have={len(msg.have)}"
    if isinstance(msg, BlockMsg):
        return f"block {msg.block.header.hash().rev_hex()[:12]}"
    if isinstance(msg, TxMsg):
        return f"tx {msg.tx.txid().rev_hex()[:12]}"
    return f"malformed {msg.note}"
