"""The state machine's text snapshot: writer and loader.

`Canister` binds both as its own methods (`snapshot_lines` and the class
method `from_snapshot`); this module imports nothing from `canister`, so
the loader takes the class it builds as its first argument. The format is
described in README's Data formats section.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from btcstate.chain import (
    Block,
    BlockHeader,
    CompactBitsError,
    Hash256,
    MAX_MONEY,
    NetworkKind,
    OutPoint,
    Transaction,
    TxOut,
)
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    check_block_shape,
    check_header,
    check_transaction_shape,
)

SNAPSHOT_MAGIC = "btcstate-snapshot 2"


class SnapshotError(ValueError):
    """A state snapshot that cannot be loaded; the message names the
    offending line or field."""


def snapshot_lines(self) -> list[str]:
    """The state as snapshot text. A snapshot carries no difficulty policy
    and loads under its network's, so a state under any other policy is
    refused with SnapshotError rather than written unloadable."""
    if self.policy != ChainPolicy.for_network(self.network):
        raise SnapshotError(
            "cannot snapshot a state under a difficulty policy other than "
            f"{self.network.value}'s default: a snapshot loads under the default"
        )
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
                        OutPoint(
                            Hash256.from_rev_hex(txid_hex), _bounded("vout", vout, 2**32 - 1)
                        ),
                        TxOut(_bounded("value", amount, MAX_MONEY), bytes.fromhex(script_hex)),
                        _bounded("height", height),
                    )
                )
            elif key == "queued-tx":
                # Parsed and shape-checked as send_transaction does; the
                # raw bytes are kept, so the round trip is byte-identical.
                tx_bytes = bytes.fromhex(value)
                check_transaction_shape(Transaction.from_bytes(tx_bytes))
                queued.append(tx_bytes)
            else:
                fields[key] = (lineno, value)
        except (ValueError, ValidationError) as exc:
            raise SnapshotError(f"line {lineno}: bad {key} line: {exc}") from None
    else:
        raise SnapshotError("snapshot cut off before end")
    if not headers:
        raise SnapshotError("snapshot has no headers")
    # The bounds the state machine's constructor sets, checked here so
    # that a rejection names the field's line.
    network = _snapshot_field(fields, "network", NetworkKind.from_str)
    delta = _snapshot_field(fields, "delta", partial(_bounded, "delta", low=1))
    tau = _snapshot_field(fields, "tau", partial(_bounded, "tau"))
    page_size = _snapshot_field(fields, "page-size", partial(_bounded, "page size", low=1))
    root_line, root = headers[0]
    try:
        state = cls(root, network, delta=delta, tau=tau, page_size=page_size)
    except CompactBitsError as exc:
        raise SnapshotError(
            f"line {root_line}: bad root header {root.hash().rev_hex()}: {exc}"
        ) from None
    # Every header below the root passes the check ingest applies. A
    # snapshot carries no clock, so the clock is its latest header time:
    # the future-time bound never rejects, every other header rule can.
    now = max(header.time for _, header in headers)
    for lineno, header in headers[1:]:
        if header.prev not in state.tree:
            raise SnapshotError(
                f"line {lineno}: header {header.hash().rev_hex()} has unknown parent "
                f"{header.prev.rev_hex()}"
            )
        try:
            check_header(header, state.tree, state.policy, now)
            state.tree.add_header(header)
        except ValidationError as exc:
            raise SnapshotError(
                f"line {lineno}: bad header {header.hash().rev_hex()}: {exc}"
            ) from None
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
    # them; the overlay and the anchor fold rely on both. Each body also
    # passes the shape check ingest applies, so its transactions are the
    # ones its header commits to.
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
        try:
            check_block_shape(block)
        except ValidationError as exc:
            raise SnapshotError(f"line {lineno}: bad block {h.rev_hex()}: {exc}") from None
        state.tree.set_block(h, block)
    # Queries list materialized outputs after the overlay's, which
    # holds only if none of them lies above the anchor.
    for lineno, outpoint, txout, height in utxo_lines:
        if height > top:
            raise SnapshotError(
                f"line {lineno}: utxo height {height} is above the anchor's height {top}"
            )
        if outpoint in state.utxos.by_outpoint:
            raise SnapshotError(
                f"line {lineno}: utxo {outpoint.txid.rev_hex()}:{outpoint.vout} is listed twice"
            )
        state.utxos.add(outpoint, txout, height, state.utxos.address_of(txout.script_pubkey))
    state.synced = state._bodies_within_tau()
    if "synced" in fields:
        lineno, value = fields["synced"]
        if value != str(int(state.synced)):
            raise SnapshotError(
                f"line {lineno}: bad synced {value!r}: the loaded tree says {int(state.synced)}"
            )
    state.outbound_txs.extend(queued)
    return state


def _bounded(name: str, text: str, high: Optional[int] = None, low: int = 0) -> int:
    """A snapshot number that must lie in [low, high]; ValueError names it
    when it does not."""
    value = int(text)
    if value < low or (high is not None and value > high):
        limit = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} {value} is not {limit}")
    return value


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
