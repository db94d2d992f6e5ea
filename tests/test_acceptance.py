"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values. Run with `pytest -s` (or read
pytest's own verdict lines) to see the per-criterion summary.

Criteria and tolerances are pinned here; nothing is deferred to later
calibration. Every expected value is either computed by an independent
oracle in this file or derived from a closed-form reference evaluated
here.
"""

import random
import time

import pytest

from btcstate.adapter import Adapter, AdapterConfig
from btcstate.blocktree import BlockTree, DepthKind, WorkRatio
from btcstate.canister import (
    ApiUnavailableError,
    Canister,
    FilterRejectedError,
)
from btcstate.chain import NetworkKind, TxOut, p2pkh_script, sha256d, script_address
from btcstate.montecarlo import run_downtime_trials, run_eclipse_trials, run_fork_attack
from btcstate.netsim import SimParams, SimWorld, replay_utxo_set
from btcstate.scenario import parse_scenario, ScenarioRunner
from btcstate.validation import ChainPolicy
from btcstate.wire import GetSuccessorsRequest, GetSuccessorsResponse

from conftest import EASY_BITS, HARDER_BITS, NOW, ChainBuilder, random_tree

CONF = DepthKind.CONFIRMATION
WORK = DepthKind.WORK
NET = NetworkKind.REGTEST


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def fresh_depths(tree: BlockTree, kind: DepthKind) -> dict:
    """Oracle: a from-scratch bottom-up pass, independent of the tree's
    incremental memoization."""
    depths: dict = {}
    order = []
    stack = [tree.root]
    while stack:
        h = stack.pop()
        order.append(h)
        stack.extend(tree.children(h))
    for h in reversed(order):
        cost = 1 if kind is CONF else tree.node_work(h)
        kids = tree.children(h)
        depths[h] = cost + (max(depths[c] for c in kids) if kids else 0)
    return depths


def oracle_stability(tree: BlockTree, depths: dict, h) -> int:
    d = depths[h]
    score = d
    for rival in tree.at_height(tree.height(h)):
        if rival != h:
            score = min(score, d - depths[rival])
    return score


CORPUS_SEEDS = range(1000)


def corpus_tree(seed: int) -> BlockTree:
    return random_tree(
        random.Random(seed),
        max_nodes=200,
        max_fanout=4,
        bits_choices=(EASY_BITS, HARDER_BITS),
    )


def test_c1_stability_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for seed in CORPUS_SEEDS:
        tree = corpus_tree(seed)
        for kind in (CONF, WORK):
            oracle = fresh_depths(tree, kind)
            for h in tree.hashes():
                assert tree.depth(h, kind) == oracle[h]
                want = oracle_stability(tree, oracle, h)
                got = tree.stability(h, kind)
                if kind is CONF:
                    assert got == want
                else:
                    assert isinstance(got, WorkRatio)
                    assert got.num == want
                    assert got.den == tree.node_work(tree.root)
                checked += 1
    elapsed = time.monotonic() - started
    report(
        "C1 stability-oracle-equivalence",
        elapsed < 30.0,
        f"{checked} node checks over 1000 trees, exact, {elapsed:.1f}s < 30s",
    )


def test_c2_delta_stable_uniqueness():
    started = time.monotonic()
    heights_checked = 0
    for seed in CORPUS_SEEDS:
        tree = corpus_tree(seed)
        for height in tree.heights():
            nodes = tree.at_height(height)
            heights_checked += 1
            for delta in range(1, 11):
                stable_conf = sum(
                    1 for h in nodes if tree.is_delta_stable(h, delta, CONF)
                )
                assert stable_conf <= 1, f"seed {seed} height {height} delta {delta}"
                stable_work = sum(
                    1 for h in nodes if tree.is_delta_stable(h, delta, WORK)
                )
                assert stable_work <= 1
    elapsed = time.monotonic() - started
    report(
        "C2 delta-stable-uniqueness",
        True,
        f"deltas 1..10 over {heights_checked} heights, both depth kinds, {elapsed:.1f}s",
    )


def test_c3_anchor_utxo_replay_equivalence():
    started = time.monotonic()
    params_base = dict(
        n=3,
        f=0,
        ell=2,
        phi=0.0,
        peer_count=6,
        honest_block_interval=100.0,
        round_interval=35.0,
        latency_min=0.05,
        latency_max=0.8,
    )
    anchored = 0
    for seed in range(200):
        rng = random.Random(seed * 7919 + 1)
        world = SimWorld(SimParams(**params_base), seed, delta=6)
        world.run_until(lambda: world.honest_height() >= 8, max_duration=1e7)
        # seeded spends into the chain
        for _ in range(rng.randrange(1, 3)):
            if world.spendable:
                outpoint, value = world.spendable.pop(0)
                from btcstate.chain import Transaction, TxIn

                script = p2pkh_script(sha256d(b"rcpt%d" % rng.randrange(40))[:20])
                world.submit_to_miners(
                    Transaction(
                        1, (TxIn(outpoint, b"s"),), (TxOut(value - 500, script),)
                    )
                )
        # mixed forks above the anchor
        world.inject_fork(world.honest_height() - rng.randrange(1, 3), rng.randrange(1, 3))
        target = 20
        world.run_until(lambda: world.honest_height() >= target, max_duration=1e7)
        if rng.random() < 0.4:
            world.inject_fork(world.honest_height() - 1, 2)
        world.run_for(world.params.round_interval * 10)

        canister = world.canister
        assert canister.anchor_height() > 0
        anchored += canister.anchor_height()
        chain = canister.tree.current_chain()
        oracle = replay_utxo_set(world.tree, chain, NET, canister.anchor)
        assert oracle.by_outpoint == canister.utxos.by_outpoint, f"seed {seed}"
        for height in range(canister.anchor_height() + 1):
            assert len(canister.tree.at_height(height)) == 1
    elapsed = time.monotonic() - started
    report(
        "C3 anchor-utxo-replay-equivalence",
        elapsed < 120.0,
        f"200 scenarios, exact by_outpoint equality, {elapsed:.1f}s < 120s",
    )


def test_c4_eclipse_monte_carlo():
    n, ell, phi, trials = 13, 5, 0.3, 100_000
    per_ref = phi**ell
    any_ref = 1.0 - (1.0 - per_ref) ** n
    assert per_ref == pytest.approx(0.00243, abs=1e-5)
    assert any_ref == pytest.approx(0.0311, abs=1e-3)
    est = run_eclipse_trials(n, ell, phi, trials, seed=2024)
    per_rel = abs(est.per_adapter - per_ref) / per_ref
    any_rel = abs(est.any_adapter - any_ref) / any_ref
    report(
        "C4 eclipse-monte-carlo",
        per_rel <= 0.10 and any_rel <= 0.10,
        f"per={est.per_adapter:.5f} (ref {per_ref:.5f}, rel {per_rel:.1%}), "
        f"any={est.any_adapter:.5f} (ref {any_ref:.5f}, rel {any_rel:.1%}), "
        f"{trials} trials",
    )


def test_c5_downtime_monte_carlo():
    started = time.monotonic()
    n, f, c_star, trials = 13, 4, 3, 1_000_000
    ref = (f / n) ** c_star
    bound = 3.0**-c_star
    assert ref == pytest.approx(0.02914, abs=1e-5)
    assert bound == pytest.approx(0.03704, abs=1e-5)
    est = run_downtime_trials(n, f, c_star, trials, seed=2024)
    rel = abs(est.success - ref) / ref
    elapsed = time.monotonic() - started
    report(
        "C5 downtime-monte-carlo",
        rel <= 0.05 and est.success < bound and elapsed < 60.0,
        f"est={est.success:.5f} (ref {ref:.5f}, rel {rel:.1%}), "
        f"bound {bound:.5f}, {elapsed:.1f}s < 60s",
    )


def test_c6_fork_attack_property():
    worst = -(10**9)
    corrupted = 0
    for seed in range(1000):
        metrics = run_fork_attack(
            seed, honest_blocks=18, budget_enforced=True, adversary_hash=0.35, c_star=4
        )
        worst = max(worst, metrics["corrupting_tx_max_conf"])
        corrupted += int(metrics["state_corrupted"])
    bounded = worst < 4 and corrupted == 0

    # necessity: with the budget disabled at 60% hash share, some run corrupts
    broke = False
    breaking_seed = None
    for seed in range(12):
        metrics = run_fork_attack(
            seed, honest_blocks=14, budget_enforced=False, adversary_hash=0.6, c_star=4
        )
        if metrics["corrupting_tx_max_conf"] >= 4 or metrics["state_corrupted"]:
            broke = True
            breaking_seed = seed
            break
    report(
        "C6 fork-attack-property",
        bounded and broke,
        f"1000 budgeted runs: max conf {worst} < 4, corruptions {corrupted}; "
        f"unbudgeted 60% adversary corrupts at seed {breaking_seed}",
    )


def test_c7_api_contract():
    rng = random.Random(314)
    builder = ChainBuilder()
    canister = Canister(builder.genesis.header, NET, delta=30, tau=2, page_size=4)
    scripts = [p2pkh_script(sha256d(b"acct%d" % i)[:20]) for i in range(100)]
    plan: dict[int, int] = {}
    for i in range(100):
        plan[i] = rng.choice((0, 0, 1, 2, 3, 5, 8))
    for heavy in rng.sample(range(100), 12):
        plan[heavy] = 13 + rng.randrange(10)  # forces > 3 pages at page size 4

    blocks = [builder.extend() for _ in range(14)]
    pending: list[tuple[int, int]] = [
        (i, count) for i, count in plan.items() for _ in range(1)
    ]
    block_batch = []
    for i, count in pending:
        if count == 0:
            continue
        source = builder.coinbase_outpoint(blocks[len(block_batch) % len(blocks)])
        outs = [(1_000 + 7 * i + k, scripts[i]) for k in range(count)]
        # split across several transactions/blocks for height variety
        half = max(1, len(outs) // 2)
        tx1 = builder.spend(source, outs[:half])
        block_batch.append(builder.extend(extra_txs=(tx1,)))
        if outs[half:]:
            source2 = builder.coinbase_outpoint(block_batch[-1])
            tx2 = builder.spend(source2, outs[half:])
            block_batch.append(builder.extend(extra_txs=(tx2,)))
    all_blocks = blocks + block_batch
    canister.handle_response(
        GetSuccessorsResponse(tuple((b, b.header) for b in all_blocks), ()), NOW
    )
    assert canister.synced

    max_pages = 0
    for i, script in enumerate(scripts):
        address = script_address(script, NET)
        token = None
        pages = 0
        collected = []
        while True:
            page = canister.get_utxos(address, NET, page=token)
            pages += 1
            collected.extend(page.utxos)
            if page.next_page is None:
                break
            token = page.next_page
        max_pages = max(max_pages, pages)
        saved = canister.page_size
        canister.page_size = 10_000
        whole = canister.get_utxos(address, NET)
        canister.page_size = saved
        assert [(u.outpoint, u.value, u.height) for u in collected] == [
            (u.outpoint, u.value, u.height) for u in whole.utxos
        ], f"address {i}: page union differs from unpaginated oracle"
        assert len(collected) == plan[i]
        heights = [u.height for u in collected]
        assert heights == sorted(heights, reverse=True)
        assert canister.get_balance(address, NET) == sum(u.value for u in collected)
    assert max_pages > 3

    with pytest.raises(FilterRejectedError):
        canister.get_utxos(script_address(scripts[0], NET), NET, min_confirmations=31)

    # synced=false makes every call error; restoring flips availability back
    ghost_headers = [b.header for b in builder.build(4)]
    canister.handle_response(GetSuccessorsResponse((), tuple(ghost_headers)), NOW)
    assert not canister.synced
    address0 = script_address(scripts[0], NET)
    for call in (
        lambda: canister.get_utxos(address0, NET),
        lambda: canister.get_balance(address0, NET),
        lambda: canister.send_transaction(b"\x00", NET),
    ):
        with pytest.raises(ApiUnavailableError):
            call()
    report(
        "C7 api-contract",
        True,
        f"100 addresses exact page-union/order/balance, max pages {max_pages}, "
        "filter cap and unavailability enforced",
    )


def test_c8_request_limits():
    rng = random.Random(99)
    builder = ChainBuilder()
    cfg = AdapterConfig.for_network(NetworkKind.REGTEST, checkpoint_height=40)
    adapter = Adapter(
        cfg, builder.genesis.header, ChainPolicy.for_network(NetworkKind.REGTEST), rng
    )
    # trunk of 60 blocks; every fourth block is ~400 KiB so cumulative size
    # crosses the 2 MiB soft limit well inside the tree
    pad_script = b"\x6a" + b"\x51" * (400 * 1024)
    trunk = []
    parent = None
    for i in range(60):
        extra = ()
        if i % 4 == 0 and builder.blocks:
            tip_block = builder.blocks[builder.tip]
            source = builder.coinbase_outpoint(tip_block)
            extra = (builder.spend(source, [(1000, pad_script)]),)
        block = builder.extend(parent=parent, extra_txs=extra)
        trunk.append(block)
        parent = block.header.hash()
    forks = []
    for branch_at in (10, 25, 41, 52):
        fork = builder.build(3, parent=trunk[branch_at].header.hash())
        forks.extend(fork)
    everything = trunk + forks
    for block in everything:
        assert adapter.accept_header(block.header, NOW) is None
        assert adapter.store_block(block)
    headers_by_hash = {b.header.hash(): b.header for b in everything}
    headers_by_hash[builder.genesis.header.hash()] = builder.genesis.header
    all_hashes = list(headers_by_hash)

    soft_limit = cfg.max_response_bytes
    oversize_total = 0
    for trial in range(10_000):
        anchor = headers_by_hash[all_hashes[rng.randrange(len(all_hashes))]]
        processed = frozenset(
            h for h in all_hashes if rng.random() < rng.choice((0.05, 0.3, 0.8))
        )
        resp = adapter.handle_request(GetSuccessorsRequest(anchor, processed, ()), NOW)
        assert len(resp.next_headers) <= 100
        sizes = [b.size() for b, _ in resp.blocks]
        if sizes:
            assert sum(sizes[:-1]) < soft_limit, "only the final block may overflow"
        if sum(sizes) > soft_limit:
            oversize_total += 1
        anchor_height = adapter.tree.height(anchor.hash())
        if anchor_height >= 40:
            assert len(resp.blocks) <= 1
    report(
        "C8 request-limits",
        True,
        f"10000 fuzzed requests: headers<=100, {oversize_total} soft-limit "
        "overflows all via a single final block, checkpoint cap held",
    )


def test_c9_determinism(tmp_path):
    from btcstate.cli import load_scenario_text

    text = load_scenario_text("sync-linear")
    outputs = []
    for run_dir in ("a", "b"):
        scenario = parse_scenario(text)
        runner = ScenarioRunner(scenario, out_dir=tmp_path / run_dir)
        result = runner.run()
        assert result.ok
        outputs.append(
            (
                (tmp_path / run_dir / "report.csv").read_bytes(),
                (tmp_path / run_dir / "observations.csv").read_bytes(),
            )
        )
    identical = outputs[0] == outputs[1]
    report(
        "C9 determinism",
        identical,
        f"re-run byte-identical: report {len(outputs[0][0])}B, "
        f"observations {len(outputs[0][1])}B",
    )
