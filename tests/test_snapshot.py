"""The snapshot loader, fuzzed on its own: every mutation of a valid
snapshot either raises SnapshotError or loads a state whose invariants
hold, before and after a query."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate.adapter import GetSuccessorsResponse
from btcstate.canister import Canister
from btcstate.chain import NetworkKind, p2pkh_script, script_address, sha256d
from btcstate.snapshot import SnapshotError

from conftest import NOW, ChainBuilder

NET = NetworkKind.REGTEST
PAYEE = p2pkh_script(sha256d(b"payee")[:20])
HEX = "0123456789abcdef"
ODD_VALUES = ["-1", "0", "1", "99999999999999999999999999", "x", "0x10", "", " "]


@pytest.fixture(scope="module")
def snapshot() -> list[str]:
    """A snapshot with every kind of line: folded blocks under the anchor,
    bodied blocks above it on two branches, materialized outputs, a header
    without a body and a queued transaction."""
    builder = ChainBuilder()
    state = Canister(builder.genesis.header, NET, delta=3, tau=2)
    main = builder.build(3)
    payment = builder.spend(builder.coinbase_outpoint(main[0]), [(5, PAYEE), (6, PAYEE)])
    paying = builder.extend(extra_txs=(payment,))
    rival = builder.extend(parent=main[-1].header.hash())
    later = builder.build(3, parent=paying.header.hash())
    blocks = main + [paying, rival] + later[:-1]
    state.handle_response(
        GetSuccessorsResponse(tuple((b, b.header) for b in blocks), (later[-1].header,)), NOW
    )
    queued = builder.spend(builder.coinbase_outpoint(main[1]), [(7, PAYEE)])
    state.send_transaction(queued.to_bytes(), NET)
    lines = state.snapshot_lines()
    kinds = {line.split()[0] for line in lines}
    assert {"header", "block", "utxo", "queued-tx", "anchor", "synced"} <= kinds
    assert state.anchor_height() > 0 and state.current_tip_height() > state.anchor_height() + 1
    return lines


@st.composite
def mutated(draw, lines: list[str]) -> list[str]:
    """The snapshot after one to three random edits."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))  # the magic line only through a swap
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "flip", "field", "truncate"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "flip":
            digits = [k for k, c in enumerate(lines[i]) if c in HEX and k > lines[i].find(" ")]
            if digits:
                k = draw(st.sampled_from(digits))
                new = draw(st.sampled_from([c for c in HEX if c != lines[i][k]]))
                lines[i] = lines[i][:k] + new + lines[i][k + 1 :]
        elif edit == "field":
            parts = lines[i].split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(ODD_VALUES) | st.integers(-(2**70), 2**70).map(str))
            lines[i] = " ".join(parts)
        else:
            if draw(st.booleans()):
                lines = lines[:i]
            else:
                lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return lines


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_snapshot_fails_closed_or_loads_a_sound_state(snapshot, data):
    lines = data.draw(mutated(snapshot))
    try:
        state = Canister.from_snapshot(lines)
    except SnapshotError:
        return
    state.check_invariants()
    if state.synced:
        state.get_balance(script_address(PAYEE, state.network), state.network)
        state.check_invariants()
