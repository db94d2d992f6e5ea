"""The state machine's text snapshot: writer and loader.

`Canister` binds both as its own methods (`snapshot_lines` and the class
method `from_snapshot`); this module imports nothing from `canister`, so
the loader takes the class it builds as its first argument. The format is
described in README's Data formats section.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NoReturn, Optional

from btcstate.chain import (
    Block,
    BlockHeader,
    CompactBitsError,
    Hash256,
    MAX_MONEY,
    NetworkKind,
    OutPoint,
    Transaction,
)
from btcstate.utxoset import Utxo
from btcstate.validation import (
    ChainPolicy,
    ValidationError,
    check_block_shape,
    check_header,
    check_transaction_shape,
)

SNAPSHOT_MAGIC = "btcstate-snapshot 2"
_SCALAR_FIELDS = frozenset(("network", "delta", "tau", "page-size", "anchor", "synced"))
_LISTED_KINDS = frozenset(("header", "block", "utxo", "queued-tx"))  # one line per item
_UINT32_MAX = 2**32 - 1


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
    # Outpoints sort by txid bytes, then output index. Each distinct txid
    # and each held address's kept script is formatted once.
    by_outpoint = self.utxos.by_outpoint
    script_texts = {address: script.hex() for address, script in self.utxos.scripts.items()}
    txid_texts: dict[bytes, str] = {}
    for outpoint in sorted(by_outpoint):
        row, address = by_outpoint[outpoint]
        txid = outpoint.txid
        txid_text = txid_texts.get(txid)
        if txid_text is None:
            txid_text = txid_texts[txid] = txid.rev_hex()
        script_text = script_texts[address]
        lines.append(f"utxo {txid_text} {outpoint.vout} {row.value} {script_text} {row.height}")
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
    utxos: list[tuple[Utxo, bytes]] = []
    utxo_linenos: list[int] = []
    # Each distinct txid and script text is decoded once and shared.
    txids: dict[str, Hash256] = {}
    scripts: dict[str, bytes] = {}
    queued: list[bytes] = []
    for lineno, raw in numbered:
        parts = raw.split()
        if len(parts) == 6 and parts[0] == "utxo":
            _, txid_hex, vout, amount, script_hex, height = parts
            try:
                txid = txids.get(txid_hex)
                if txid is None:
                    txid = txids[txid_hex] = Hash256.from_rev_hex(txid_hex)
                # Each check is _bounded's, inlined; on a failure _bounded raises
                # the message.
                n_vout = int(vout)
                if not 0 <= n_vout <= _UINT32_MAX or str(n_vout) != vout:
                    _bounded("vout", vout, _UINT32_MAX)
                n_value = int(amount)
                if not 0 <= n_value <= MAX_MONEY or str(n_value) != amount:
                    _bounded("value", amount, MAX_MONEY)
                script = scripts.get(script_hex)
                if script is None:
                    script = scripts[script_hex] = bytes.fromhex(script_hex)
                n_height = int(height)
                if n_height < 0 or str(n_height) != height:
                    _bounded("height", height)
            except ValueError as exc:
                raise SnapshotError(f"line {lineno}: bad utxo line: {exc}") from None
            utxos.append((Utxo(OutPoint(txid, n_vout), n_value, n_height), script))
            utxo_linenos.append(lineno)
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "end":
            break
        key, _, value = line.partition(" ")
        if key in _SCALAR_FIELDS:
            if key in fields:
                raise SnapshotError(
                    f"line {lineno}: repeated {key} line (first on line {fields[key][0]})"
                )
            fields[key] = (lineno, value)
            continue
        if key not in _LISTED_KINDS:
            raise SnapshotError(f"line {lineno}: unknown line kind {key!r}")
        try:
            if key == "header":
                headers.append((lineno, BlockHeader.from_bytes(bytes.fromhex(value))))
            elif key == "block":
                blocks.append((lineno, Block.from_bytes(bytes.fromhex(value))))
            elif key == "utxo":
                raise ValueError(f"needs 5 fields, got {len(parts) - 1}")
            else:
                # Parsed and shape-checked as send_transaction does; the
                # raw bytes are kept, so the round trip is byte-identical.
                tx_bytes = bytes.fromhex(value)
                check_transaction_shape(Transaction.from_bytes(tx_bytes))
                queued.append(tx_bytes)
        except (ValueError, ValidationError) as exc:
            raise SnapshotError(f"line {lineno}: bad {key} line: {exc}") from None
    else:
        raise SnapshotError("snapshot cut off before end")
    for lineno, raw in numbered:
        line = raw.strip()
        if line and not line.startswith("#"):
            raise SnapshotError(f"line {lineno}: content after end")
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
        held = len(state.tree)
        try:
            check_header(header, state.tree, state.policy, now)
            state.tree.add_header(header)
        except ValidationError as exc:
            raise SnapshotError(
                f"line {lineno}: bad header {header.hash().rev_hex()}: {exc}"
            ) from None
        except ValueError as exc:
            raise SnapshotError(f"line {lineno}: bad header line: {exc}") from None
        if len(state.tree) == held:  # adding a header the tree holds does nothing
            raise SnapshotError(f"line {lineno}: header {header.hash().rev_hex()} is listed twice")
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
        if state.tree.has_block(h):
            raise SnapshotError(f"line {lineno}: block {h.rev_hex()} is listed twice")
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
    if utxos and max(row.height for row, _ in utxos) > top:
        _refuse_utxos(utxos, utxo_linenos, top)
    state.utxos.load(utxos)
    if len(state.utxos) != len(utxos):
        _refuse_utxos(utxos, utxo_linenos, top)
    state.synced = state._bodies_within_tau()
    if "synced" in fields:
        lineno, value = fields["synced"]
        if value != str(int(state.synced)):
            raise SnapshotError(
                f"line {lineno}: bad synced {value!r}: the loaded tree says {int(state.synced)}"
            )
    state.outbound_txs.extend(queued)
    return state


def _refuse_utxos(utxos: list[tuple[Utxo, bytes]], linenos: list[int], top: int) -> NoReturn:
    """Name the first utxo line that lies above the anchor's height `top` or
    repeats an earlier line's outpoint."""
    seen: set[OutPoint] = set()
    for lineno, ((outpoint, _, height), _) in zip(linenos, utxos):
        if height > top:
            raise SnapshotError(
                f"line {lineno}: utxo height {height} is above the anchor's height {top}"
            )
        if outpoint in seen:
            raise SnapshotError(
                f"line {lineno}: utxo {outpoint.txid.rev_hex()}:{outpoint.vout} is listed twice"
            )
        seen.add(outpoint)
    raise AssertionError("no utxo line to refuse")


def _bounded(name: str, text: str, high: Optional[int] = None, low: int = 0) -> int:
    """A snapshot number that must lie in [low, high] and be written as the
    writer writes it (no `+`, leading zero, `_` or non-ASCII digit, all of
    which int() takes); ValueError names it when it is not."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{name} {text!r} is not a plain decimal number")
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
