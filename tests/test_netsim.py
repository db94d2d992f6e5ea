"""The simulated world: determinism, adversary budget, Monte Carlo
experiments, and end-to-end sync liveness."""

import pytest

from btcstate.blocktree import BlockTree, DepthKind
from btcstate.netsim import (
    AdversaryConfig,
    AdversaryStrategy,
    SimParams,
    SimWorld,
    downtime_analytic,
    downtime_bound,
    eclipse_analytic,
    regtest_genesis_block,
    run_downtime_trials,
    run_eclipse_trials,
    run_fork_attack,
)

from conftest import brute_best_path


def small_params(**overrides) -> SimParams:
    base = dict(
        n=3,
        f=0,
        ell=2,
        phi=0.0,
        peer_count=6,
        honest_block_interval=100.0,
        round_interval=30.0,
        latency_min=0.05,
        latency_max=0.8,
    )
    base.update(overrides)
    return SimParams(**base)


def test_regtest_genesis_is_self_consistent():
    block = regtest_genesis_block()
    assert block.computed_merkle_root() == block.header.merkle_root
    assert block.header.hash().rev_hex() == (
        "0f9188f13cb7b2c71f2a335e3a4fc328bf5beb436012afca590b1a11466e2206"
    )


def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(n=3, f=1).validate()  # 3f >= n
    with pytest.raises(ValueError):
        SimParams(phi=1.0).validate()
    with pytest.raises(ValueError):
        SimParams(ell=5, peer_count=3).validate()
    with pytest.raises(ValueError):
        SimParams(adversary_hash=1.0).validate()
    SimParams(n=4, f=1).validate()


def test_liveness_sync_smoke():
    world = SimWorld(small_params(), seed=3, delta=4)
    assert world.run_until(lambda: world.honest_height() >= 10, max_duration=1e7)
    world.run_for(world.params.round_interval * 10)
    canister = world.canister
    # the replica's chain is a prefix of (or equal to) the miners' chain
    chain = canister.tree.current_chain()
    honest = world.honest_tree.current_chain()
    assert chain == honest[: len(chain)]
    assert world.honest_height() - canister.current_tip_height() <= canister.tau + 1
    assert canister.synced


def test_same_seed_identical_observations():
    logs = []
    metrics = []
    for _ in range(2):
        world = SimWorld(small_params(), seed=42, delta=3)
        world.run_until(lambda: world.honest_height() >= 6, max_duration=1e7)
        world.run_for(200.0)
        logs.append("\n".join(world.observation_lines()))
        metrics.append(world.metrics())
    assert logs[0] == logs[1]
    assert metrics[0] == metrics[1]


def test_different_seed_different_trace():
    traces = []
    for seed in (1, 2):
        world = SimWorld(small_params(), seed=seed, delta=3)
        world.run_until(lambda: world.honest_height() >= 4, max_duration=1e7)
        traces.append("\n".join(world.observation_lines()))
    assert traces[0] != traces[1]


def test_event_times_never_regress():
    world = SimWorld(small_params(), seed=9, delta=3)
    last = world.clock
    for _ in range(2000):
        world.step()
        assert world.clock >= last
        last = world.clock


def test_zero_adversary_hash_never_forks():
    params = small_params(adversary_hash=0.0)
    world = SimWorld(
        params,
        seed=5,
        adversary=AdversaryConfig(strategy=AdversaryStrategy.WITHHOLD_RELEASE),
    )
    world.run_until(lambda: world.honest_height() >= 8, max_duration=1e7)
    assert world.adversary.fork == []


def test_downtime_freezes_state_machine():
    world = SimWorld(small_params(), seed=8, delta=3)
    world.run_until(lambda: world.honest_height() >= 5, max_duration=1e7)
    world.run_for(world.params.round_interval * 6)
    world.start_downtime()
    frozen_ingested = world.canister.blocks_ingested
    world.run_until(lambda: world.honest_height() >= 9, max_duration=1e7)
    world.run_for(world.params.round_interval * 4)
    assert world.canister.blocks_ingested == frozen_ingested
    world.stop_downtime()
    world.run_for(world.params.round_interval * 6)
    assert world.canister.blocks_ingested > frozen_ingested


def test_budget_invariant_checked_during_run():
    params = small_params(adversary_hash=0.45, c_star=2, phi=0.34, ensure_honest_peer=True)
    world = SimWorld(
        params,
        seed=13,
        delta=6,
        adversary=AdversaryConfig(strategy=AdversaryStrategy.WITHHOLD_RELEASE),
    )
    # the invariant assertion runs inside step(); a violation would raise
    world.run_until(lambda: world.honest_height() >= 10, max_duration=1e7)
    adv = world.adversary
    assert adv.fork, "adversary at 45% hash share should have mined"
    honest_h = world.honest_height()
    fork_h = world.tree.height(adv.fork_tip())
    assert fork_h < honest_h + params.c_star or (
        world.tree.chain_work(adv.fork_tip()) < world.tree.chain_work(world.honest_tip)
    )


def test_honest_tip_is_heaviest_honest_block_after_every_block():
    params = small_params(adversary_hash=0.3, c_star=2, phi=0.34, ensure_honest_peer=True)
    world = SimWorld(
        params,
        seed=17,
        delta=3,
        adversary=AdversaryConfig(strategy=AdversaryStrategy.WITHHOLD_RELEASE),
    )
    add_block = world.add_block
    added = []
    # The honest blocks alone, collected from add_block's flag.
    honest_blocks = BlockTree((world.tree.root, world.tree.bits(world.tree.root)))

    def add_and_check(block, honest):
        h = add_block(block, honest)
        added.append(honest)
        if honest:
            honest_blocks.add_raw(h, block.header.prev, block.header.bits)
        best = brute_best_path(honest_blocks)
        assert world.honest_tip == best[-1]
        assert world.honest_height() == len(best) - 1
        assert world.honest_tree.current_chain() == best
        return h

    world.add_block = add_and_check
    world.run_until(lambda: world.honest_height() >= 8, max_duration=1e7)
    world.inject_fork(world.honest_height() - 1, 1)  # a rival of the tip's height
    world.inject_fork(world.honest_height() - 2, 2)  # an equal-work branch
    world.inject_fork(world.honest_height() - 2, 3)  # a longer branch lower down
    world.run_until(lambda: world.honest_height() >= 14, max_duration=1e7)
    assert added.count(True) >= 14 and False in added


def test_miners_break_equal_work_ties_as_the_state_machine_does():
    # Two equal-work honest branches of two blocks each. On this seed the
    # smaller tip hash and the smaller hash where the branches split pick
    # different branches; the miners must extend the one the replicas select.
    world = SimWorld(small_params(), seed=12, delta=6)
    world.run_until(lambda: world.honest_height() >= 8, max_duration=1e7)
    top = world.honest_height()
    rival = world.inject_fork(top - 2, 2)[-1]
    tips = world.tree.at_height(top)
    canister = world.canister
    assert world.run_until(
        lambda: all(h in canister.tree and canister.tree.has_block(h) for h in tips),
        max_duration=1e5,
    )
    assert len(tips) == 2 and rival in tips and world.honest_height() == top
    assert world.honest_tip == canister.tree.tip
    tip = world.honest_tip
    assert world.run_until(lambda: world.honest_height() > top, max_duration=1e7)
    assert world.tree.parent(world.honest_tip) == tip


# -- peer sampling ---------------------------------------------------------------


def test_sample_peers_all_honest_when_phi_zero():
    world = SimWorld(small_params(phi=0.0), seed=2)
    corrupted = {p.peer_id for p in world.peers if p.corrupted}
    assert corrupted == set()
    sample = world.sample_adapter_peers(0)
    assert len(sample) == world.params.ell
    assert len(set(sample)) == len(sample)


def test_sample_peers_reproducible():
    samples = []
    for _ in range(2):
        world = SimWorld(small_params(phi=0.5 - 1e-9), seed=77)
        samples.append([a.config.preset_peers for a in world.adapters])
    assert samples[0] == samples[1]


def test_adapters_connect_exactly_their_drawn_peers():
    world = SimWorld(small_params(n=4, ell=3, peer_count=8), seed=5)
    for adapter_id, adapter in enumerate(world.adapters):
        assert len(adapter.config.preset_peers) == 3
        assert adapter.peers == set(adapter.config.preset_peers)
        linked = {peer for peer, ids in world.peer_links.items() if adapter_id in ids}
        assert linked == adapter.peers


def test_sample_peers_insufficient_population():
    world = SimWorld(small_params(), seed=1)
    world.params.ell = 99
    with pytest.raises(ValueError):
        world.sample_adapter_peers(0)


def test_ensure_honest_peer_flag():
    params = small_params(phi=0.49, ell=2, peer_count=6, ensure_honest_peer=True)
    for seed in range(10):
        world = SimWorld(params, seed=seed)
        corrupted = {p.peer_id for p in world.peers if p.corrupted}
        for adapter in world.adapters:
            assert not set(adapter.config.preset_peers) <= corrupted


# -- Monte Carlo ------------------------------------------------------------------


def test_eclipse_phi_zero_exact():
    est = run_eclipse_trials(4, 3, 0.0, trials=500, seed=1)
    assert est.per_adapter == 0.0
    assert est.any_adapter == 0.0


def test_eclipse_single_link_matches_bernoulli():
    est = run_eclipse_trials(1, 1, 0.5, trials=40_000, seed=6)
    assert abs(est.per_adapter - 0.5) < 0.02
    assert est.any_adapter == est.per_adapter


def test_eclipse_analytic_values():
    per, any_ = eclipse_analytic(13, 5, 0.3)
    assert per == pytest.approx(0.00243, rel=1e-3)
    assert any_ == pytest.approx(0.0311, rel=1e-2)


def test_eclipse_estimate_tracks_analytic():
    est = run_eclipse_trials(13, 5, 0.3, trials=30_000, seed=4)
    per, any_ = eclipse_analytic(13, 5, 0.3)
    assert est.per_adapter == pytest.approx(per, rel=0.2)
    assert est.any_adapter == pytest.approx(any_, rel=0.2)


def test_eclipse_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_eclipse_trials(4, 2, 0.1, trials=0, seed=1)


def test_downtime_zero_f_never_succeeds():
    est = run_downtime_trials(13, 0, 3, trials=2_000, seed=3)
    assert est.success == 0.0


def test_downtime_single_round_matches_ratio():
    est = run_downtime_trials(13, 4, 1, trials=60_000, seed=5)
    assert est.success == pytest.approx(4 / 13, rel=0.05)


def test_downtime_tracks_analytic_and_bound():
    est = run_downtime_trials(13, 4, 3, trials=120_000, seed=8)
    assert est.success == pytest.approx(downtime_analytic(13, 4, 3), rel=0.2)
    assert est.success < downtime_bound(3)


def test_downtime_rejects_bad_params():
    with pytest.raises(ValueError):
        run_downtime_trials(13, 5, 3, trials=10, seed=1)
    with pytest.raises(ValueError):
        run_downtime_trials(13, 4, 3, trials=0, seed=1)


# -- fork attack ---------------------------------------------------------------------


def test_fork_attack_budget_on_bounded():
    m = run_fork_attack(0, honest_blocks=12)
    assert m["corrupting_tx_max_conf"] < m["c_star"]
    assert m["state_corrupted"] == 0


def test_fork_attack_budget_off_can_corrupt():
    hit = False
    for seed in range(6):
        m = run_fork_attack(
            seed, honest_blocks=12, budget_enforced=False, adversary_hash=0.6
        )
        if m["corrupting_tx_max_conf"] >= m["c_star"] or m["state_corrupted"]:
            hit = True
            break
    assert hit, "an unbounded 60% adversary should corrupt at least one run"


def test_deep_reorg_below_anchor_is_fatal_diagnostic():
    # seed chosen so the unbounded adversary drags the anchor onto its fork
    # while honest miners keep their own chain
    m = run_fork_attack(1, honest_blocks=14, budget_enforced=False, adversary_hash=0.6)
    assert m["state_corrupted"] == 1
    assert m["anchor_divergence"] == 1


def test_fork_injection_reorgs_state():
    world = SimWorld(small_params(), seed=21, delta=3)
    world.run_until(lambda: world.honest_height() >= 6, max_duration=1e7)
    world.run_for(world.params.round_interval * 6)
    base_tip = world.canister.current_tip_height()
    world.inject_fork(world.honest_height() - 1, 3)
    world.run_for(world.params.round_interval * 8)
    assert world.canister.reorgs >= 1
    assert world.canister.current_tip_height() >= base_tip
    # the replica follows the heavier branch
    assert world.canister.tree.current_chain()[-1] == world.honest_tip or (
        world.honest_height() > world.canister.current_tip_height()
    )


def test_transaction_relay_path():
    world = SimWorld(small_params(), seed=33, delta=3)
    world.run_until(lambda: world.honest_height() >= 3, max_duration=1e7)
    world.run_for(world.params.round_interval * 4)
    outpoint, value = world.spendable[0]
    from btcstate.chain import Transaction, TxIn, TxOut

    tx = Transaction(1, (TxIn(outpoint, b"w"),), (TxOut(value - 1000, world.attacker_script),))
    world.canister.send_transaction(tx.to_bytes(), world.network)
    start_height = world.honest_height()
    world.run_until(lambda: world.honest_height() >= start_height + 3, max_duration=1e7)
    assert tx.txid() in world._mined_txids


# -- sync at production depth (delta 144, the benchmark's network shape) -----------


def production_world(seed: int) -> SimWorld:
    params = SimParams(
        n=4, f=0, ell=2, phi=0.0, peer_count=8, honest_block_interval=120.0, round_interval=40.0
    )
    return SimWorld(params, seed, delta=144)


def test_out_of_order_headers_do_not_stall_sync():
    # Without recovery from unconnecting headers this world stalls at height
    # 353 with all four adapters behind and 432 failed rounds.
    world = production_world(2004)
    world.run_until(lambda: world.honest_height() >= 400)
    canister = world.canister
    top = world.honest_height()
    assert world.run_until(
        lambda: canister.max_body_height() == top and canister.synced, max_duration=2000
    )
    assert all(a.tree.max_height() == top for a in world.adapters)
    assert world.rounds_failed == 0


def test_sync_tree_work_per_block_flat_in_chain_length(monkeypatch):
    """Tree work per mined block follows the unstable region, not the chain:
    no root-to-tip walk and no whole-subtree walk on the update path, and
    depth and stability calls, and at_height and has_block calls, per block
    from N = 400 to 800 within 1.3x of those from 200 to 400."""
    calls = {"depth": 0, "stability": 0, "current_chain": 0, "at_height": 0, "has_block": 0}
    for name in calls:
        real = getattr(BlockTree, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(BlockTree, name, counted)
    real_bfs = BlockTree.bfs
    whole_walks = []

    def counted_bfs(self, start=None, skip=frozenset()):
        if not skip:
            whole_walks.append(start)
        return real_bfs(self, start, skip)

    monkeypatch.setattr(BlockTree, "bfs", counted_bfs)
    world = production_world(1000)

    def mine_to(height: int) -> dict[str, float]:
        start = world.honest_height()
        for name in calls:
            calls[name] = 0
        assert world.run_until(lambda: world.honest_height() >= height)
        return {name: n / (height - start) for name, n in calls.items()}

    mine_to(200)
    whole_walks.clear()
    first = mine_to(400)
    second = mine_to(800)
    assert first["current_chain"] == second["current_chain"] == 0
    assert whole_walks == []  # every walk skips the requester's bodies
    assert world.canister.anchor_height() > 400
    assert second["depth"] + second["stability"] <= 1.3 * (first["depth"] + first["stability"])
    lookups = [part["at_height"] + part["has_block"] for part in (first, second)]
    assert lookups[1] <= 1.3 * lookups[0]
