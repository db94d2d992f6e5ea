"""Monte Carlo experiments for the security properties: eclipse
probability of random peer sampling, the post-downtime block-maker race,
and the bounded-adversary fork attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from btcstate.netsim import AdversaryConfig, AdversaryStrategy, SimParams, SimWorld


@dataclass
class EclipseEstimate:
    per_adapter: float
    any_adapter: float
    trials: int
    seed: int


def eclipse_analytic(n: int, ell: int, phi: float) -> tuple[float, float]:
    per = phi**ell
    return per, 1.0 - (1.0 - per) ** n


def run_eclipse_trials(
    n: int, ell: int, phi: float, trials: int, seed: int, population: int = 10_000
) -> EclipseEstimate:
    """Estimate per-adapter and any-adapter eclipse probabilities by drawing
    each adapter's peers without replacement from a large population with a
    phi fraction corrupted."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1 or ell < 1:
        raise ValueError("n and ell must be positive")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1)")
    rng = random.Random(seed)
    corrupted = round(phi * population)
    eclipsed_adapters = 0
    trials_with_any = 0
    for _ in range(trials):
        any_hit = False
        for _ in range(n):
            remaining_corrupt = corrupted
            remaining = population
            eclipsed = True
            for _ in range(ell):
                if rng.randrange(remaining) < remaining_corrupt:
                    remaining_corrupt -= 1
                    remaining -= 1
                else:
                    eclipsed = False
                    break
            if eclipsed:
                eclipsed_adapters += 1
                any_hit = True
        if any_hit:
            trials_with_any += 1
    return EclipseEstimate(
        eclipsed_adapters / (n * trials), trials_with_any / trials, trials, seed
    )


@dataclass
class DowntimeEstimate:
    success: float
    trials: int
    seed: int


def downtime_analytic(n: int, f: int, c_star: int) -> float:
    return (f / n) ** c_star


def downtime_bound(c_star: int) -> float:
    return 3.0 ** (-c_star)


def run_downtime_trials(n: int, f: int, c_star: int, trials: int, seed: int) -> DowntimeEstimate:
    """Post-downtime race: the attack succeeds only when the first c_star
    uniformly drawn block makers are all malicious; a single honest maker
    reveals the real headers and ends the attempt."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if f < 0 or 3 * f >= n:
        raise ValueError("f must satisfy 0 <= f < n/3")
    if c_star < 1:
        raise ValueError("c_star must be at least 1")
    rng = random.Random(seed)
    wins = 0
    for _ in range(trials):
        for _ in range(c_star):
            if rng.randrange(n) >= f:
                break
        else:
            wins += 1
    return DowntimeEstimate(wins / trials, trials, seed)


def run_fork_attack(
    seed: int,
    honest_blocks: int = 20,
    budget_enforced: bool = True,
    adversary_hash: float = 0.35,
    c_star: int = 4,
    delta: int = 6,
    n: int = 4,
    f: int = 0,
    ell: int = 2,
    phi: float = 0.25,
    peer_count: int = 8,
) -> dict[str, float]:
    """One seeded fork-attack run; returns the world's final metrics,
    including the highest confirmation count ever observed for the
    adversary's corrupting transaction."""
    params = SimParams(
        n=n,
        f=f,
        ell=ell,
        phi=phi,
        peer_count=peer_count,
        honest_block_interval=120.0,
        adversary_hash=adversary_hash,
        c_star=c_star,
        round_interval=40.0,
        latency_min=0.05,
        latency_max=1.0,
        ensure_honest_peer=True,
    )
    world = SimWorld(
        params,
        seed,
        delta=delta,
        adversary=AdversaryConfig(
            strategy=AdversaryStrategy.WITHHOLD_RELEASE,
            budget_enforced=budget_enforced,
        ),
    )
    target = honest_blocks
    world.run_until(lambda: world.honest_height() >= target, max_duration=1e7)
    world.run_for(params.round_interval * 8)  # let the subnet catch up
    return world.metrics()
