"""The three benchmark workloads.

Each workload is a closed loop with a single client in one thread: the next
call is sent only after the previous one returns. A workload either runs
for a wall-clock budget (untraced runs) or for a fixed amount of work
(traced runs, so that their counts repeat exactly for a seed). Every answer
is checked against an independent oracle outside the timed sections.
Between timed sections the run measures the machine's speed (`speed.py`),
so that every timing can also be read at the machine's quiet speed.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Optional

from btcstate.adapter import Adapter, AdapterConfig
from btcstate.canister import ApiError, Canister
from btcstate.netsim import SimParams, SimWorld, replay_utxo_set
from btcstate.validation import ChainPolicy

import gen
from gen import DELTA, NETWORK, ChainGen, Party
from speed import Speed

clock = time.perf_counter

# sync-sim: the bundled scenarios' network shape, honest miners only.
SYNC_PARAMS = dict(
    n=4, f=0, ell=2, phi=0.0, peer_count=8, honest_block_interval=120.0, round_interval=40.0
)
SYNC_HEIGHT = 800  # chain length N an episode mines and syncs; set-up mines the first delta
SYNC_WAIT = 50 * SYNC_PARAMS["round_interval"]  # simulated seconds allowed to catch up
# Worlds per seed. A run goes through them in whole cycles, so every run
# with one seed measures the same worlds in the same proportions, however
# many cycles the machine's speed lets it finish.
SYNC_WORLDS = 5

# The mix is fixed per cycle and runs stop on a cycle boundary, so every run
# sees the same proportions. The slots are chosen so that the median and the
# 90th percentile fall inside a group of like calls (mid-class balances;
# multi-page walks), today and once query cost follows the answer size,
# never on the edge between two groups.
STATIC_CYCLE = (  # (call, address class, min_confirmations)
    ("balance", "mid", None),
    ("walk", "big", None),
    ("balance", "mid", 6),
    ("balance", "absent", None),
    ("walk", "mid", None),
    ("balance", "mid", None),
    ("walk", "big", None),
    ("balance", "big", None),
    ("balance", "mid", None),
    ("walk", "mid", 6),
    ("balance", "mid", 72),
    ("walk", "big", None),
    ("balance", "mid", None),
    ("walk", "absent", None),
    ("balance", "mid", 6),
    ("balance", "mid", None),
    ("balance", "big", None),
    ("walk", "big", None),
    ("balance", "mid", None),
    ("balance", "mid", None),
)
# Per step: the two queries after the round. Today every query scans the
# whole overlay, so the multi-page walk step is the slowest fifth; once cost
# follows the answer size, the absent step is the fastest fifth and the two
# all-mid steps hold the median.
CHURN_CYCLE = (
    (("balance", "mid", None), ("walk", "mid", None)),
    (("balance", "mid", 6), ("walk", "mid", 6)),
    (("balance", "absent", None), ("walk", "absent", None)),
    (("balance", "mid", None), ("walk", "big", None)),
    (("balance", "big", None), ("walk", "mid", None)),
)
CHURN_STEPS = 300  # generated update rounds; a run that uses them all starts over
CHURN_REORG_EVERY = 8  # mean steps between reorgs

# Set-ups timed per run (query workloads) and per episode (sync-sim).
QUERY_SETUPS = 9
SYNC_SETUPS = 3

TRACE_CYCLES = 1
TRACE_STATIC_CYCLES = 3
TRACE_CHURN_CYCLES = 10

POLICY = ChainPolicy.for_network(NETWORK)


class Run:
    """What one workload run measured and counted."""

    def __init__(self) -> None:
        # Per kind of timed piece ("setup", "op", ...): (midpoint, seconds).
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # answers that disagree with the oracle
        self.work_s = 0.0  # time inside timed sections, set-up included
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []

    def sample(self, kind: str, seconds: float) -> None:
        """Record a piece that ended just now, then check the machine's speed."""
        self.samples.setdefault(kind, []).append((clock() - seconds / 2, seconds))
        self.speed.tick()

    def raw(self, kind: str) -> list[float]:
        return [dt for _, dt in self.samples.get(kind, ())]

    def quiet(self, kind: str) -> list[float]:
        """The kind's times at the machine's quiet speed."""
        return [dt * self.speed.scale(t) for t, dt in self.samples.get(kind, ())]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


class Budget:
    """Wall-clock budget, or a fixed number of units when `fixed` is set."""

    def __init__(self, seconds: float, fixed: Optional[int]):
        self.seconds = seconds
        self.fixed = fixed
        self.start = clock()

    def repeats(self, n: int) -> int:
        """`n`, or 1 in a fixed-work (traced) run: how many times to set up,
        and how many worlds a sync-sim cycle goes through."""
        return n if self.fixed is None else 1

    def restart(self) -> None:
        """Start the window now, after set-up."""
        self.start = clock()

    def more(self, done: int, next_cost: float = 0.0) -> bool:
        if self.fixed is not None:
            return done < self.fixed
        return done == 0 or clock() - self.start + next_cost <= self.seconds


# -- sync-sim ----------------------------------------------------------------------


def new_world(world_seed: int) -> SimWorld:
    return SimWorld(SimParams(**SYNC_PARAMS), world_seed, delta=DELTA)


def mine_and_sync(
    world: SimWorld, height: int, record: Optional[Callable[[float], None]] = None
) -> tuple[list[float], float, bool]:
    """Mine block by block up to `height`, then wait at most SYNC_WAIT of
    simulated time for the state machine to catch up. Returns the wall
    seconds per mined block, the wall seconds of the wait, and whether it
    caught up. `record`, if given, gets each block's seconds as it is mined."""
    canister = world.canister
    per_block = []
    for target in range(world.honest_height() + 1, height + 1):
        t0 = clock()
        world.run_until(lambda: world.honest_height() >= target)
        per_block.append(clock() - t0)
        if record is not None:
            record(per_block[-1])

    def caught_up() -> bool:
        top = world.honest_height()
        return (
            canister.tree.max_height() == top
            and canister.max_body_height() == top
            and canister.synced
        )

    t0 = clock()
    caught = world.run_until(caught_up, max_duration=SYNC_WAIT)
    return per_block, clock() - t0, caught


def stuck_adapters(world: SimWorld) -> int:
    """Adapters more than one block behind the honest chain."""
    return sum(1 for a in world.adapters if a.tree.max_height() < world.honest_height() - 1)


def sync_sim(seed: int, budget: Budget, run: Run, tracer=None) -> None:
    """Episodes of "mine N, sync, check replay" in a simulated network,
    one per world, in cycles over SYNC_WORLDS worlds.

    Set-up runs the world until its anchor first leaves genesis, so the
    state has its production shape (delta unstable blocks). The timed part
    mines on to SYNC_HEIGHT blocks, one timed sample per block, then waits a
    bounded simulated time for the state machine to catch up. Blocks it has
    not received by then are failed operations (a stall); a state that
    disagrees with the replay oracle fails all of the episode's blocks.
    A traced run does one episode, in the first world.
    """
    cycles = 0
    last = 0.0
    while budget.more(cycles, last):
        started = clock()
        for world_no in range(budget.repeats(SYNC_WORLDS)):
            _episode(seed * 1000 + world_no, budget, run, tracer)
        cycles += 1
        last = clock() - started


def _episode(world_seed: int, budget: Budget, run: Run, tracer) -> None:
    """One world: set up (SYNC_SETUPS times, timed), mine and sync, check."""
    if tracer is not None:
        tracer.install()
    for _ in range(budget.repeats(SYNC_SETUPS)):  # the same world each time
        world = None
        gc.collect()  # the previous world is cyclic garbage; free it before timing
        t0 = clock()
        world = new_world(world_seed)
        world.run_until(lambda: world.canister.anchor_height() >= 1)
        setup = clock() - t0
        run.sample("setup", setup)
        run.work_s += setup
    canister = world.canister

    blocks = SYNC_HEIGHT - world.honest_height()
    per_block, waited, caught = mine_and_sync(world, SYNC_HEIGHT, lambda dt: run.sample("op", dt))
    run.sample("sync_wait", waited)
    if tracer is not None:
        tracer.uninstall()  # the checks below are not the program's work
    run.work_s += sum(per_block) + waited

    synced_to = canister.max_body_height()
    state_ok = _sync_state_ok(world, synced_to)
    stuck = stuck_adapters(world)
    run.count("adapter.stuck", stuck)
    run.count("netsim.rounds", world.round_no)
    run.count("netsim.rounds_failed", world.rounds_failed)
    run.count("canister.blocks_ingested", canister.blocks_ingested)
    run.count("canister.anchor_advances", canister.anchor_height())
    run.count("canister.reorgs", canister.reorgs)
    run.counters["blocktree.nodes.canister"] = len(canister.tree)
    run.counters["blocktree.nodes.adapter_max"] = max(len(a.tree) for a in world.adapters)

    # A block the state machine never received is a failed operation;
    # a state that disagrees with the replay oracle fails every block.
    failed = blocks if not state_ok else max(0, SYNC_HEIGHT - synced_to)
    run.attempted += blocks
    run.failed += failed
    if not state_ok:
        run.wrong += 1
        run.notes.append(f"world seed {world_seed}: state disagrees with replay")
    if not caught:
        run.notes.append(
            f"world seed {world_seed}: stalled at height {synced_to} "
            f"of {world.honest_height()} after {SYNC_WAIT:.0f} s simulated; "
            f"{stuck} of {len(world.adapters)} adapters stuck"
        )


def _sync_state_ok(world: SimWorld, synced_to: int) -> bool:
    """The anchor sits delta - 1 blocks below the synced tip, and the UTXO
    set equals a fresh replay of the network's chain up to the anchor."""
    canister = world.canister
    if canister.anchor_height() != synced_to - DELTA + 1:
        return False
    oracle = replay_utxo_set(world.tree, world.tree.current_chain(), NETWORK, canister.anchor)
    return oracle.by_outpoint == canister.utxos.by_outpoint


# -- query workloads: shared state -------------------------------------------------


def _now_at(g: ChainGen, tip) -> float:
    """A clock just past the tip's timestamp, as the network would see it."""
    return gen.REGTEST_GENESIS_TIME + 600 * (g.height[tip] + 2)


def _round(adapter: Adapter, canister: Canister, now: float):
    req = canister.build_request()
    resp = adapter.handle_request(req, now)
    canister.handle_response(resp, now)
    return resp


def _feed(adapter: Adapter, g: ChainGen, hashes, now: float) -> bool:
    ok = True
    for h in hashes:
        block = g.blocks[h]
        ok &= adapter.accept_header(block.header, now) is None
        ok &= adapter.store_block(block)
    return ok


def build_state(g: ChainGen, blocks: list, seed: int, run: Run):
    """The program's set-up: an adapter learns the blocks, update rounds
    carry them into a fresh state machine, and the state is round-tripped
    through its snapshot text (the `btcstate api` path)."""
    now = _now_at(g, g.tip)
    adapter = Adapter(AdapterConfig.for_network(NETWORK), g.genesis.header, POLICY, random.Random(seed))
    adapter.store_block(g.genesis)
    if not _feed(adapter, g, blocks, now):
        raise RuntimeError("adapter rejected a generated block")
    canister = Canister(g.genesis.header, NETWORK, delta=DELTA, policy=POLICY)
    while True:
        resp = _round(adapter, canister, now)
        if not resp.blocks and not resp.next_headers:
            break
    restored = Canister.from_snapshot(canister.snapshot_lines())
    run.count("canister.blocks_ingested", canister.blocks_ingested)
    run.count("canister.anchor_advances", canister.anchor_height())
    run.count("canister.reorgs", canister.reorgs)
    return adapter, restored


def _settle_inputs(tracer) -> None:
    """Keep the generator's own objects out of the program's garbage
    collections: they are inputs, not program state. The tracer goes on
    only now, so that it records the program's work, not the generator's."""
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()


def _timed_setups(g: ChainGen, blocks: list, seed: int, run: Run, repeats: int):
    """Run the set-up `repeats` times (each from scratch) and keep the last."""
    state = None
    for _ in range(repeats):
        state = None  # free the previous state before building the next
        gc.collect()
        t0 = clock()
        state = build_state(g, blocks, seed, run)
        dt = clock() - t0
        run.sample("setup", dt)
        run.work_s += dt
    return state


class Querier:
    """Issues one query, times it, and checks it against the ledger."""

    def __init__(self, g: ChainGen, seed: int):
        self.g = g
        rng = random.Random(seed)
        self.classes: dict[str, list[Party]] = {}
        for name in ("mid", "big", "absent"):
            members = list(getattr(g, name))
            rng.shuffle(members)
            self.classes[name] = members
        self.cursor = {name: 0 for name in self.classes}

    def _next(self, cls: str) -> Party:
        members = self.classes[cls]
        party = members[self.cursor[cls] % len(members)]
        self.cursor[cls] += 1
        return party

    def query(self, canister: Canister, known: set, tip, spec, run: Run, op_kind: str) -> tuple[float, bool]:
        call, cls, min_conf = spec
        party = self._next(cls)
        pages = []
        t0 = clock()
        try:
            if call == "balance":
                answer = canister.get_balance(party.address, NETWORK, min_conf)
            else:
                page = canister.get_utxos(party.address, NETWORK, min_confirmations=min_conf)
                pages.append(page)
                while page.next_page is not None:
                    page = canister.get_utxos(party.address, NETWORK, page=page.next_page)
                    pages.append(page)
        except ApiError as exc:
            run.notes.append(f"{call} {party.name}: {exc.__class__.__name__}: {exc}")
            return clock() - t0, False
        dt = clock() - t0
        prefix = self.g.selected_prefix(tip, known, min_conf)
        expected = self.g.expected_utxos(party, prefix)
        if call == "balance":
            ok = answer == sum(value for _, value, _ in expected)
        else:
            ok = _walk_ok(pages, expected, prefix[-1])
            run.count("canister.walk.pages", len(pages))
        run.count("canister.query.answers")
        run.count("canister.query.overlay_blocks", self.g.height[prefix[-1]] - canister.anchor_height())
        if not ok:
            run.wrong += 1
            run.notes.append(f"wrong {call} for {party.name} (min_conf {min_conf}) in {op_kind}")
        run.sample(call, dt)
        return dt, ok


def _walk_ok(pages, expected, tip) -> bool:
    got = [u for page in pages for u in page.utxos]
    keys = [(-u.height, bytes(u.outpoint.txid), u.outpoint.vout) for u in got]
    return (
        keys == sorted(keys)
        and len(set(keys)) == len(keys)
        and [(u.outpoint, u.value, u.height) for u in got] == expected
        and all(page.tip_hash == tip for page in pages)
    )


# -- query-static --------------------------------------------------------------------


def query_static(seed: int, budget: Budget, run: Run, tracer=None) -> None:
    """Read-only queries against delta - 1 unstable blocks plus losing rivals.

    One operation is one `get_balance` call or one full `get_utxos` page
    walk; STATIC_CYCLE fixes the mix and the run stops on a cycle boundary,
    so every run sees the same proportions.
    """
    g = ChainGen(seed)
    g.build_static()
    _settle_inputs(tracer)
    adapter, canister = _timed_setups(g, g.order, seed, run, budget.repeats(QUERY_SETUPS))
    known = set(g.blocks)
    querier = Querier(g, seed)
    cycles = 0
    budget.restart()
    while budget.more(cycles):
        for spec in STATIC_CYCLE:
            dt, ok = querier.query(canister, known, g.tip, spec, run, "query")
            run.samples.setdefault("op", []).append(run.samples[spec[0]][-1])  # the same piece
            run.work_s += dt
            run.attempted += 1
            run.failed += not ok
        cycles += 1
    run.counters["blocktree.nodes.canister"] = len(canister.tree)
    run.counters["blocktree.nodes.adapter_max"] = len(adapter.tree)


# -- query-churn ---------------------------------------------------------------------


def query_churn(seed: int, budget: Budget, run: Run, tracer=None) -> None:
    """Update rounds that each deliver the next block, each followed by two
    queries. Every few rounds a rival branch overtakes the tip (a reorg
    above the anchor). Walks finish between rounds, never across one.

    One operation is one step: the round plus its two queries.
    """
    g = ChainGen(seed)
    g.build_static()
    initial = list(g.order)
    stream = []  # (blocks delivered, the selected tip once they are)
    for _ in range(CHURN_STEPS):
        blocks = g.churn_step(CHURN_REORG_EVERY)
        stream.append((blocks, g.tip))
    _settle_inputs(tracer)

    adapter, canister = _timed_setups(g, initial, seed, run, budget.repeats(QUERY_SETUPS))
    known = set(initial)
    querier = Querier(g, seed)
    pos = 0
    cycles = 0
    budget.restart()
    while budget.more(cycles):
        for specs in CHURN_CYCLE:
            if pos == len(stream):  # start the stream over from the set-up state
                _churn_counters(canister, adapter, run)
                adapter, canister = build_state(g, initial, seed, run)
                known = set(initial)
                pos = 0
            blocks, tip = stream[pos]
            pos += 1
            now = _now_at(g, tip)
            ok = _feed(adapter, g, blocks, now)
            known.update(blocks)
            before = canister.anchor_height()
            t0 = clock()
            _round(adapter, canister, now)
            dt = clock() - t0
            run.count("canister.anchor_advances", canister.anchor_height() - before)
            run.sample("round", dt)
            for spec in specs:
                qdt, qok = querier.query(canister, known, tip, spec, run, "step")
                dt += qdt
                ok &= qok
            run.sample("op", dt)
            run.work_s += dt
            run.attempted += 1
            run.failed += not ok
        cycles += 1
    _churn_counters(canister, adapter, run)


def _churn_counters(canister: Canister, adapter: Adapter, run: Run) -> None:
    run.count("canister.blocks_ingested", canister.blocks_ingested)
    run.count("canister.reorgs", canister.reorgs)
    run.counters["blocktree.nodes.canister"] = len(canister.tree)
    run.counters["blocktree.nodes.adapter_max"] = max(
        run.counters.get("blocktree.nodes.adapter_max", 0), len(adapter.tree)
    )


WORKLOADS = {
    "sync-sim": (sync_sim, TRACE_CYCLES),
    "query-static": (query_static, TRACE_STATIC_CYCLES),
    "query-churn": (query_churn, TRACE_CHURN_CYCLES),
}

