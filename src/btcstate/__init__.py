"""Bitcoin chain-state tracking: SPV-style syncing, stability-based fork
resolution, UTXO-set maintenance, and a deterministic network simulator.

The package is organized around the data flow of the system it models:

- :mod:`btcstate.chain`: chain data types with bit-exact Bitcoin serialization.
- :mod:`btcstate.blocktree`: block trees, depth functions, stability scores.
- :mod:`btcstate.validation`: header and block validity policies.
- :mod:`btcstate.adapter`: the lightweight peer-facing sync endpoint.
- :mod:`btcstate.canister`: the replicated state machine holding the UTXO set.
- :mod:`btcstate.utxoset`: the materialized UTXO set and its kept listings.
- :mod:`btcstate.overlay`: the overlay index over the unstable blocks.
- :mod:`btcstate.snapshot`: the state machine's text snapshot format.
- :mod:`btcstate.netsim`: seeded discrete-event simulation of the network.
- :mod:`btcstate.montecarlo`: Monte Carlo experiments for the security
  properties.
- :mod:`btcstate.scenario` / :mod:`btcstate.cli`: scenario harness and CLI.
"""

from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    NetworkKind,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
)
from btcstate.blocktree import BlockTree, DepthKind

__all__ = [
    "Block",
    "BlockHeader",
    "BlockTree",
    "DepthKind",
    "Hash256",
    "NetworkKind",
    "OutPoint",
    "Transaction",
    "TxIn",
    "TxOut",
]

__version__ = "0.1.0"
