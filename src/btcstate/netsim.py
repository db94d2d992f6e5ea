"""Seeded discrete-event simulation of the surrounding network.

One world holds: a population of simulated Bitcoin peers (a fraction of
which may be corrupted), honest miners sharing one chain view, an
adversary with a private fork and a bounded hash budget, a subnet of n
replica nodes (each running a sync adapter, f of them malicious), and the
chain state machine the subnet replicates. Every source of randomness
flows from a single seeded generator drawn in event order, so a (seed,
params) pair fully determines every observation.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from btcstate import wire
from btcstate.adapter import Adapter, AdapterConfig, UnknownAnchorError
from btcstate.blocktree import BlockTree
from btcstate.canister import Canister
from btcstate.chain import (
    Block,
    BlockHeader,
    Hash256,
    NetworkKind,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    ZERO_HASH,
    bits_to_target,
    merkle_root,
    p2pkh_script,
    sha256d,
    work_from_bits,
)
from btcstate.utxoset import UtxoSet
from btcstate.validation import REGTEST_BITS, ChainPolicy, median_time_past

COINBASE_VALUE = 50 * 100_000_000

REGTEST_GENESIS_TIME = 1296688602

# The canonical first coinbase, reused as the regtest genesis body.
_GENESIS_COINBASE_HEX = (
    "01000000010000000000000000000000000000000000000000000000000000000000000000"
    "ffffffff4d04ffff001d0104455468652054696d65732030332f4a616e2f32303039204368"
    "616e63656c6c6f72206f6e206272696e6b206f66207365636f6e64206261696c6f75742066"
    "6f722062616e6b73ffffffff0100f2052a01000000434104678afdb0fe5548271967f1a671"
    "30b7105cd6a828e03909a67962e0ea1f61deb649f6bc3f4cef38c4f35504e51ec112de5c38"
    "4df7ba0b8d578a4c702b6bf11d5fac00000000"
)


def regtest_genesis_block() -> Block:
    coinbase = Transaction.from_bytes(bytes.fromhex(_GENESIS_COINBASE_HEX))
    header = BlockHeader(
        version=1,
        prev=ZERO_HASH,
        merkle_root=coinbase.txid(),
        time=REGTEST_GENESIS_TIME,
        bits=REGTEST_BITS,
        nonce=2,
    )
    return Block(header, (coinbase,))


def mine_header(
    prev: Hash256, merkle: Hash256, time: int, bits: int, version: int = 2
) -> BlockHeader:
    """Grind the nonce until the header hash meets its target."""
    target = bits_to_target(bits)
    nonce = 0
    while True:
        header = BlockHeader(version, prev, merkle, time, bits, nonce)
        if header.hash().as_int() <= target:
            return header
        nonce += 1


def make_coinbase(height: int, tag: bytes, script_pubkey: bytes, extra_outputs=()) -> Transaction:
    script_sig = height.to_bytes(4, "little") + tag
    outputs = (TxOut(COINBASE_VALUE, script_pubkey),) + tuple(extra_outputs)
    return Transaction(1, (TxIn(OutPoint.null(), script_sig),), outputs, 0)


class AdversaryStrategy(Enum):
    NONE = "none"
    WITHHOLD_RELEASE = "withhold-release"
    FEED_DURING_DOWNTIME = "feed-downtime"


@dataclass
class SimParams:
    n: int = 4  # subnet size
    f: int = 0  # malicious subnet nodes, f < n/3
    ell: int = 2  # peer links per adapter
    phi: float = 0.0  # corrupted fraction of the peer population
    peer_count: int = 12
    honest_block_interval: float = 600.0  # mean seconds per honest block
    adversary_hash: float = 0.0  # adversary's share of total hash power
    c_star: int = 3  # confirmation requirement critical actions use
    latency_min: float = 0.05
    latency_max: float = 2.0
    round_interval: float = 30.0
    tick_interval: float = 60.0
    # Guarantee each adapter at least one honest peer (the connectivity
    # property the eclipse analysis shows holds with overwhelming
    # probability); attack-property runs assume it by construction.
    ensure_honest_peer: bool = False

    def validate(self) -> None:
        if self.n < 1 or self.ell < 1 or self.peer_count < 1:
            raise ValueError("n, ell, and peer_count must be positive")
        if self.f and 3 * self.f >= self.n:
            raise ValueError("malicious subnet nodes must satisfy f < n/3")
        if not 0.0 <= self.phi < 1.0:
            raise ValueError("phi must be in [0, 1)")
        if not 0.0 <= self.adversary_hash < 1.0:
            raise ValueError("adversary hash share must be in [0, 1)")
        if self.ell > self.peer_count:
            raise ValueError("cannot link to more peers than exist")
        if self.c_star < 1:
            raise ValueError("c_star must be at least 1")
        if self.latency_min < 0 or self.latency_max < self.latency_min:
            raise ValueError("latency window is inverted")


@dataclass
class AdversaryConfig:
    strategy: AdversaryStrategy = AdversaryStrategy.NONE
    budget_enforced: bool = True
    with_corrupting_tx: bool = True


class BudgetViolation(AssertionError):
    """The adversary's fork exceeded its declared hash budget."""


class SimPeer:
    """A simulated Bitcoin node. Honest peers serve the honest miners'
    chain; corrupted peers serve the adversary's released fork instead."""

    def __init__(self, peer_id: int, corrupted: bool, world: "SimWorld"):
        self.peer_id = peer_id
        self.corrupted = corrupted
        self.world = world

    def handle(self, adapter_id: int, msg: wire.Message) -> list[wire.Message]:
        world = self.world
        served = world.adv_served if self.corrupted else world.honest_tree
        if isinstance(msg, wire.GetHeaders):
            missing = [h for h in served if h not in msg.have]
            missing.sort(key=lambda h: (world.tree.height(h), h))
            headers = tuple(world.tree.header(h) for h in missing[: wire.MAX_HEADERS_RESULTS])
            return [wire.HeadersMsg(headers)] if headers else []
        if isinstance(msg, wire.GetData):
            replies: list[wire.Message] = []
            for item in msg.items:
                if item.kind == wire.BLOCK_ITEM and item.hash in served:
                    block = world.tree.block(item.hash)
                    if block is not None:
                        replies.append(wire.BlockMsg(block))
            return replies
        if isinstance(msg, wire.Inv):
            if self.corrupted:
                return []  # never pulls; relay dies with expiry
            wanted = tuple(i for i in msg.items if i.kind == wire.TX_ITEM)
            return [wire.GetData(wanted)] if wanted else []
        if isinstance(msg, wire.TxMsg):
            if not self.corrupted:
                self.world.submit_to_miners(msg.tx)
            return []
        return []


class Adversary:
    """Private fork builder constrained (by construction) to never hold a
    chain that is both c_star ahead in height and ahead in total work."""

    def __init__(self, config: AdversaryConfig, world: "SimWorld"):
        self.config = config
        self.world = world
        self.fork_base: Optional[Hash256] = None
        self.fork: list[Hash256] = []
        self.released = 0
        self.corrupting_txid: Optional[Hash256] = None
        self.budget_holds = 0

    def active(self) -> bool:
        return self.config.strategy is not AdversaryStrategy.NONE

    def start_fork(self) -> None:
        if self.fork_base is None:
            self.fork_base = self.world.honest_tip

    def fork_tip(self) -> Hash256:
        if self.fork:
            return self.fork[-1]
        assert self.fork_base is not None
        return self.fork_base

    def within_budget(self, new_height: int, new_work: int) -> bool:
        world = self.world
        honest_height = world.tree.height(world.honest_tip)
        honest_work = world.tree.chain_work(world.honest_tip)
        return new_height < honest_height + world.params.c_star or new_work < honest_work

    def mine(self) -> Optional[Hash256]:
        """Extend the private fork unless the budget forbids it."""
        world = self.world
        self.start_fork()
        parent = self.fork_tip()
        new_height = world.tree.height(parent) + 1
        bits = REGTEST_BITS
        tag = b"adv" + len(self.fork).to_bytes(4, "big")
        txs = [make_coinbase(new_height, tag, world.attacker_script)]
        if not self.fork and self.config.with_corrupting_tx:
            corrupting = Transaction(
                1,
                (TxIn(OutPoint(Hash256(sha256d(b"no-such-output")), 0), b"forged"),),
                (TxOut(COINBASE_VALUE, world.attacker_script),),
            )
            txs.append(corrupting)
            self.corrupting_txid = corrupting.txid()
        new_work = world.tree.chain_work(parent) + work_from_bits(bits)
        if self.config.budget_enforced and not self.within_budget(new_height, new_work):
            self.budget_holds += 1
            return None
        block = world.build_block(parent, txs)
        h = world.add_block(block, honest=False)
        self.fork.append(h)
        return h

    def check_budget_invariant(self) -> None:
        """Raise BudgetViolation if the fork's tip is over the budget.

        Only fork growth can break the budget, so the world checks it after
        each `mine_adv` event alone. Every block in the world is mined at
        REGTEST_BITS, so chain work grows with height, and the honest tip's
        height and work never fall: the honest tree only grows, and its tip
        is its most-work block. Honest progress therefore only loosens the
        budget."""
        if not self.config.budget_enforced or not self.fork:
            return
        world = self.world
        tip = self.fork_tip()
        if not self.within_budget(world.tree.height(tip), world.tree.chain_work(tip)):
            raise BudgetViolation("adversary fork exceeds Definition-style budget")

    def release_all(self) -> list[Hash256]:
        fresh = self.fork[self.released :]
        self.released = len(self.fork)
        return fresh

    def next_feedable(
        self, processed: frozenset[Hash256], anchor: Hash256, anchor_height: int
    ) -> Optional[Hash256]:
        """Lowest fork block the state machine could accept right now."""
        for h in self.fork:
            if h in processed or self.world.tree.height(h) <= anchor_height:
                continue
            prev = self.world.tree.parent(h)
            if prev == anchor or prev in processed:
                return h
            return None
        return None


class SimWorld:
    """Deterministic event-driven world around one replicated state machine."""

    def __init__(
        self,
        params: SimParams,
        seed: int,
        delta: int = 6,
        tau: int = 2,
        page_size: int = 1000,
        checkpoint_height: int = 1 << 31,
        adversary: Optional[AdversaryConfig] = None,
        trace_wire: bool = False,
    ):
        params.validate()
        self.params = params
        self.seed = seed
        self.rng = random.Random(seed)
        self.network = NetworkKind.REGTEST
        self.policy = ChainPolicy.for_network(self.network)

        genesis = regtest_genesis_block()
        self.genesis = genesis
        self.tree = BlockTree(genesis.header)
        self.tree.set_block(genesis.header.hash(), genesis)
        # The honest blocks alone; honest miners extend its selected chain.
        self.honest_tree = BlockTree(genesis.header)
        self.adv_served: set[Hash256] = {genesis.header.hash()}

        self.clock: float = float(REGTEST_GENESIS_TIME)
        self._queue: list[tuple[float, int, tuple]] = []
        self._seq = 0

        corrupted_count = round(params.phi * params.peer_count)
        self.peers = [
            SimPeer(i, i < corrupted_count, self) for i in range(params.peer_count)
        ]

        self.canister = Canister(
            genesis.header,
            self.network,
            delta=delta,
            tau=tau,
            policy=self.policy,
            page_size=page_size,
        )

        self.adapters: list[Adapter] = []
        self.peer_links: dict[int, list[int]] = {i: [] for i in range(params.peer_count)}
        for adapter_id in range(params.n):
            chosen = self.sample_adapter_peers(adapter_id)
            cfg = AdapterConfig.for_network(
                self.network,
                checkpoint_height=checkpoint_height,
                preset_peers=tuple(sorted(chosen)),
            )
            adapter = Adapter(cfg, genesis.header, self.policy, self.rng)
            adapter.store_block(genesis)
            self.adapters.append(adapter)
            adapter.connect_peers()
            for peer in chosen:
                self.peer_links[peer].append(adapter_id)
            self._drain_adapter(adapter_id)

        self.adversary = Adversary(adversary or AdversaryConfig(), self)
        self.malicious_makers = set(range(params.f))
        self.round_no = 0
        self.downtime_active = False
        self.mempool: list[Transaction] = []
        self._mempool_txids: set[Hash256] = set()
        self._mined_txids: set[Hash256] = set()
        self.spendable: list[tuple[OutPoint, int]] = []  # honest coinbases, a wallet for scenarios
        self.attacker_script = p2pkh_script(sha256d(b"attacker")[:20])
        self._fork_counter = 0

        self.observations: list[tuple[float, str, str, str]] = []
        self.trace_wire = trace_wire
        self.corrupting_max_conf = -1
        self.corrupting_max_conf_synced = -1
        self.state_corrupted = False
        self.anchor_divergence = False
        self.rounds_failed = 0

        self._schedule_honest_mine()
        if self.adversary.active() and params.adversary_hash > 0:
            self._schedule_adv_mine()
        self.schedule(params.round_interval, ("round",))
        self.schedule(params.tick_interval, ("tick",))

    # -- event machinery -----------------------------------------------------

    def schedule(self, dt: float, event: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.clock + dt, self._seq, event))

    def observe(self, event: str, subject: str, detail: str = "") -> None:
        self.observations.append((self.clock, event, subject, detail))

    def step(self) -> None:
        """Run the next event, its kinds tested most frequent first. The
        adversary's budget is checked after its mining only; see
        `Adversary.check_budget_invariant`."""
        when, _, event = heapq.heappop(self._queue)
        assert when >= self.clock, "event time went backwards"
        self.clock = when
        kind = event[0]
        if kind == "to_adapter":
            self._on_to_adapter(event[1], event[2], event[3])
        elif kind == "to_peer":
            self._on_to_peer(event[1], event[2], event[3])
        elif kind == "tick":
            self._on_tick()
        elif kind == "round":
            self._on_round()
        elif kind == "mine_honest":
            self._on_mine_honest()
        elif kind == "mine_adv":
            self._on_mine_adv()
            self.adversary.check_budget_invariant()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown event {kind}")

    def run_for(self, duration: float) -> None:
        deadline = self.clock + duration
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self.clock = deadline

    def run_until(self, predicate: Callable[[], bool], max_duration: float = 1e9) -> bool:
        deadline = self.clock + max_duration
        while not predicate():
            if not self._queue or self._queue[0][0] > deadline:
                return False
            self.step()
        return True

    # -- chain building --------------------------------------------------------

    def _latency(self) -> float:
        return self.rng.uniform(self.params.latency_min, self.params.latency_max)

    def build_block(self, parent: Hash256, txs: list[Transaction]) -> Block:
        time = max(int(self.clock), median_time_past(self.tree, parent) + 1)
        root = merkle_root([tx.txid() for tx in txs])
        header = mine_header(parent, root, time, REGTEST_BITS)
        return Block(header, tuple(txs))

    def add_block(self, block: Block, honest: bool) -> Hash256:
        h = self.tree.add_header(block.header)
        self.tree.set_block(h, block)
        if honest:
            self.honest_tree.add_header(block.header)
        return h

    @property
    def honest_tip(self) -> Hash256:
        """The tip of the honest tree, chosen by the replicas' rule."""
        return self.honest_tree.tip

    def submit_to_miners(self, tx: Transaction) -> None:
        txid = tx.txid()
        if txid in self._mempool_txids or txid in self._mined_txids:
            return
        self._mempool_txids.add(txid)
        self.mempool.append(tx)
        self.observe("mempool", "add", txid.rev_hex()[:16])

    def _on_mine_honest(self) -> None:
        parent = self.honest_tip
        height = self.tree.height(parent) + 1
        miner = self.rng.randrange(max(1, self.params.peer_count))
        tag = b"h" + miner.to_bytes(2, "big") + height.to_bytes(4, "big")
        script = p2pkh_script(sha256d(b"miner%d" % miner)[:20])
        txs = [make_coinbase(height, tag, script)]
        if self.mempool:
            batch, self.mempool = self.mempool[:50], self.mempool[50:]
            for tx in batch:
                self._mempool_txids.discard(tx.txid())
                self._mined_txids.add(tx.txid())
            txs.extend(batch)
        block = self.build_block(parent, txs)
        h = self.add_block(block, honest=True)
        self.spendable.append((OutPoint(txs[0].txid(), 0), COINBASE_VALUE))
        self.observe("mine", "honest", f"{h.rev_hex()[:16]} height={height}")
        self._announce(h, corrupted_side=False)
        self._schedule_honest_mine()

    def _on_mine_adv(self) -> None:
        if (
            self.adversary.config.strategy is AdversaryStrategy.FEED_DURING_DOWNTIME
            and self.adversary.fork_base is None
            and not self.downtime_active
        ):
            # This attacker only starts building once the victim is down.
            self._schedule_adv_mine()
            return
        mined = self.adversary.mine()
        if mined is not None:
            height = self.tree.height(mined)
            self.observe("mine", "adversary", f"{mined.rev_hex()[:16]} height={height}")
            if self.adversary.config.strategy is AdversaryStrategy.WITHHOLD_RELEASE:
                tip = self.adversary.fork_tip()
                if self.tree.chain_work(tip) >= self.tree.chain_work(self.honest_tip):
                    for h in self.adversary.release_all():
                        self.adv_served.add(h)
                        self._announce(h, corrupted_side=True)
                        self.observe("release", "adversary", h.rev_hex()[:16])
        else:
            self.observe("mine", "adversary", "budget-hold")
        self._schedule_adv_mine()

    def _schedule_honest_mine(self) -> None:
        rate = (1.0 - self.params.adversary_hash) / self.params.honest_block_interval
        self.schedule(self.rng.expovariate(rate), ("mine_honest",))

    def _schedule_adv_mine(self) -> None:
        share = self.params.adversary_hash
        if share <= 0:
            return
        rate = share / self.params.honest_block_interval
        self.schedule(self.rng.expovariate(rate), ("mine_adv",))

    def _announce(self, block_hash: Hash256, corrupted_side: bool) -> None:
        header = self.tree.header(block_hash)
        assert header is not None
        for peer in self.peers:
            if peer.corrupted != corrupted_side:
                continue
            for adapter_id in self.peer_links[peer.peer_id]:
                self.schedule(
                    self._latency(),
                    ("to_adapter", adapter_id, peer.peer_id, wire.HeadersMsg((header,))),
                )

    # -- fork injection (scenario tool) --------------------------------------------

    def inject_fork(self, branch_height: int, length: int) -> list[Hash256]:
        """Mine a competing honest-side branch off the current chain at the
        given height, modeling a natural reorganization race."""
        parent = self.honest_tree.selected_at(branch_height)
        if parent is None:
            top = self.honest_height()
            raise ValueError(f"branch height {branch_height} outside the honest chain (0..{top})")
        self._fork_counter += 1
        made = []
        for i in range(length):
            height = self.tree.height(parent) + 1
            tag = b"f" + self._fork_counter.to_bytes(2, "big") + i.to_bytes(4, "big")
            script = p2pkh_script(sha256d(tag)[:20])
            block = self.build_block(parent, [make_coinbase(height, tag, script)])
            parent = self.add_block(block, honest=True)
            made.append(parent)
            self.observe("mine", "fork", f"{parent.rev_hex()[:16]} height={height}")
            self._announce(parent, corrupted_side=False)
        return made

    # -- subnet rounds ------------------------------------------------------------

    def _on_round(self) -> None:
        self.round_no += 1
        self.schedule(self.params.round_interval, ("round",))
        if self.downtime_active:
            self.observe("round", "skipped", "downtime")
            return
        maker = self.rng.randrange(self.params.n)
        if maker in self.malicious_makers and self.adversary.active():
            self._malicious_round(maker)
        else:
            self._honest_round(maker)
        self._update_attack_metrics()
        self._check_anchor_divergence()

    def _honest_round(self, maker: int) -> None:
        adapter = self.adapters[maker]
        req = self.canister.build_request()
        try:
            resp = adapter.handle_request(req, self.clock)
        except UnknownAnchorError:
            self.canister.requeue_transactions(req.transactions)
            self.rounds_failed += 1
            self.observe("round", f"maker={maker}", "anchor-unknown")
            return
        self._drain_adapter(maker)
        self.canister.handle_response(resp, self.clock)
        self.observe(
            "round",
            f"maker={maker}",
            f"blocks={len(resp.blocks)} headers={len(resp.next_headers)} "
            f"anchor={self.canister.anchor_height()} synced={int(self.canister.synced)}",
        )

    def _malicious_round(self, maker: int) -> None:
        # A malicious maker forwards one adversary block per round and claims
        # there are no further headers.
        req = self.canister.build_request()  # outbound transactions are dropped
        feed = self.adversary.next_feedable(
            req.processed, self.canister.anchor, self.canister.anchor_height()
        )
        if feed is None:
            self.canister.handle_response(wire.GetSuccessorsResponse((), ()), self.clock)
            self.observe("round", f"maker={maker}", "malicious-empty")
            return
        block = self.tree.block(feed)
        header = self.tree.header(feed)
        assert block is not None and header is not None
        self.canister.handle_response(
            wire.GetSuccessorsResponse(((block, header),), ()), self.clock
        )
        self.observe("round", f"maker={maker}", f"malicious-feed {feed.rev_hex()[:16]}")

    def _update_attack_metrics(self) -> None:
        txid = self.adversary.corrupting_txid
        if txid is None:
            return
        conf = self.canister.confirmations_of_tx(txid)
        if conf is not None:
            self.corrupting_max_conf = max(self.corrupting_max_conf, conf)
            if self.canister.synced:
                self.corrupting_max_conf_synced = max(
                    self.corrupting_max_conf_synced, conf
                )
        if OutPoint(txid, 0) in self.canister.utxos.by_outpoint:
            self.state_corrupted = True

    def _check_anchor_divergence(self) -> None:
        """A materialized prefix off the miners' chain cannot be repaired;
        it is surfaced as a fatal scenario event, never patched over."""
        if self.anchor_divergence:
            return
        anchor_height = self.canister.anchor_height()
        honest = self.honest_tree.selected_at(anchor_height)
        if honest is not None and honest != self.canister.anchor:
            self.anchor_divergence = True
            self.observe(
                "fatal",
                "anchor-divergence",
                f"anchor {self.canister.anchor.rev_hex()[:16]} off the honest chain "
                f"at height {anchor_height}; state reset required",
            )

    # -- downtime ---------------------------------------------------------------

    def start_downtime(self) -> None:
        self.downtime_active = True
        self.observe("downtime", "start")
        if self.adversary.config.strategy is AdversaryStrategy.FEED_DURING_DOWNTIME:
            self.adversary.start_fork()

    def stop_downtime(self) -> None:
        self.downtime_active = False
        self.observe("downtime", "stop")

    # -- message plumbing ---------------------------------------------------------

    def _drain_adapter(self, adapter_id: int) -> None:
        adapter = self.adapters[adapter_id]
        if not adapter.outbox:
            return
        for peer_id, msg in adapter.take_outbox():
            self.schedule(self._latency(), ("to_peer", peer_id, adapter_id, msg))

    def _on_to_peer(self, peer_id: int, adapter_id: int, msg: wire.Message) -> None:
        if self.trace_wire:
            self.observe("wire", f"adapter{adapter_id}->peer{peer_id}", wire.describe(msg))
        for reply in self.peers[peer_id].handle(adapter_id, msg):
            self.schedule(self._latency(), ("to_adapter", adapter_id, peer_id, reply))

    def _on_to_adapter(self, adapter_id: int, peer_id: int, msg: wire.Message) -> None:
        if self.trace_wire:
            self.observe("wire", f"peer{peer_id}->adapter{adapter_id}", wire.describe(msg))
        self.adapters[adapter_id].on_peer_message(peer_id, msg, self.clock)
        self._drain_adapter(adapter_id)

    def _on_tick(self) -> None:
        """Tick every adapter's transaction cache, in id order. An empty
        cache is skipped: its tick expires nothing and sends nothing, and
        its outbox was drained by the event that last filled it."""
        for adapter_id, adapter in enumerate(self.adapters):
            if adapter.tx_cache:
                adapter.tick_tx_cache(self.clock)
                self._drain_adapter(adapter_id)
        self.schedule(self.params.tick_interval, ("tick",))

    # -- sampling -------------------------------------------------------------------

    def sample_adapter_peers(self, adapter_id: int) -> list[int]:
        """Draw the adapter's peers uniformly without replacement."""
        if self.params.ell > self.params.peer_count:
            raise ValueError("not enough peers to sample")
        corrupted_count = round(self.params.phi * self.params.peer_count)
        while True:
            chosen = self.rng.sample(range(self.params.peer_count), self.params.ell)
            if not self.params.ensure_honest_peer:
                return chosen
            if any(peer >= corrupted_count for peer in chosen):
                return chosen

    # -- reporting --------------------------------------------------------------------

    def honest_height(self) -> int:
        return self.honest_tree.height(self.honest_tree.tip)

    def metrics(self) -> dict[str, float]:
        canister = self.canister
        return {
            "clock": self.clock - REGTEST_GENESIS_TIME,
            "honest_height": self.honest_height(),
            "anchor_height": canister.anchor_height(),
            "canister_tip_height": canister.current_tip_height(),
            "canister_max_header_height": canister.tree.max_height(),
            "synced": int(canister.synced),
            "blocks_ingested": canister.blocks_ingested,
            "reorgs": canister.reorgs,
            "anomalies": canister.anomaly_count,
            "rounds": self.round_no,
            "rounds_failed": self.rounds_failed,
            "corrupting_tx_max_conf": self.corrupting_max_conf,
            "corrupting_tx_max_conf_synced": self.corrupting_max_conf_synced,
            "state_corrupted": int(self.state_corrupted),
            "anchor_divergence": int(self.anchor_divergence),
            "below_anchor_rejects": canister.below_anchor_rejects,
            "adv_fork_length": len(self.adversary.fork),
            "adv_budget_holds": self.adversary.budget_holds,
            "c_star": self.params.c_star,
        }

    def observation_lines(self) -> list[str]:
        lines = ["time,event,subject,detail"]
        for when, event, subject, detail in self.observations:
            lines.append(f"{when - REGTEST_GENESIS_TIME:.6f},{event},{subject},{detail}")
        return lines


# -- oracle-style replay -------------------------------------------------------


def replay_utxo_set(
    tree: BlockTree, chain: list[Hash256], network: NetworkKind, stop_at: Hash256
) -> UtxoSet:
    """Single-pass replay of a chain's blocks into a fresh UTXO set, up to
    and including `stop_at`. Used as the independent cross-check for the
    incrementally maintained state."""
    utxos = UtxoSet(network)
    for h in chain[1:]:  # genesis body is not part of the tracked set
        block = tree.block(h)
        if block is None:
            raise ValueError(f"replay needs a body for {h.rev_hex()}")
        utxos.apply_block(block, tree.height(h))
        if h == stop_at:
            return utxos
    if stop_at == chain[0]:
        return utxos
    raise ValueError("stop block not on the chain")
