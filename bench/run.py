"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sync-sim --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
With `--trace 0` the workload runs for `--seconds` of wall time untraced
and the end-to-end metrics are reported, every timing at the machine's
quiet speed (see speed.py). With `--trace 1` it runs a fixed
amount of work twice, untraced and then traced, and the per-layer metrics
are reported with the tracing overhead. A readable table goes first; the
last line of standard output is one JSON object with the results.
Exit code 2 means the benchmark could not run (for example, no program).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

from speed import REF_QUIET_S

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "ops_per_s": "1/s",
    "op.p50_ms": "ms",
    "op.p90_ms": "ms",
}

# Per-layer metrics: (name, unit), in the order they are printed.
LAYER_METRICS = [
    ("chain.header_hash.calls", "count"),
    ("chain.txid.calls", "count"),
    ("chain.script_address.calls", "count"),
    ("chain.script_address.self_s", "s"),
    ("blocktree.current_chain.calls", "count"),
    ("blocktree.current_chain.self_s", "s"),
    ("blocktree.add_header.self_s", "s"),
    ("blocktree.depth.self_s", "s"),
    ("blocktree.nodes.canister", "count"),
    ("blocktree.nodes.adapter_max", "count"),
    ("validation.check_header.calls", "count"),
    ("validation.check_header.self_s", "s"),
    ("adapter.handle_request.calls", "count"),
    ("adapter.handle_request.self_s", "s"),
    ("adapter.on_peer_message.self_s", "s"),
    ("adapter.response.blocks", "count"),
    ("adapter.response.headers", "count"),
    ("adapter.stuck", "count"),
    ("canister.handle_response.self_s", "s"),
    ("canister.build_request.self_s", "s"),
    ("canister.blocks_ingested", "count"),
    ("canister.anchor_advances", "count"),
    ("canister.reorgs", "count"),
    ("canister.get_balance.self_s", "s"),
    ("canister.get_utxos.self_s", "s"),
    ("canister.query.overlay_blocks", "blocks"),
    ("canister.walk.pages", "count"),
    ("canister.snapshot_lines.self_s", "s"),
    ("canister.from_snapshot.self_s", "s"),
    ("netsim.step.calls", "count"),
    ("netsim.step.self_s", "s"),
    ("netsim.add_block.self_s", "s"),
    ("netsim.rounds", "count"),
    ("netsim.rounds_failed", "count"),
    ("netsim.rounds_useful_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

QUERY_SPANS = ("canister.get_balance", "canister.get_utxos")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _line(name: str, value: float, unit: str, n: int | None = None) -> str:
    count = f"  (n={n})" if n is not None else ""
    return f"  {name:<34} {value:>14.6g} {unit}{count}"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run) -> tuple[dict, list[str]]:
    """Every timing at the machine's quiet speed (see speed.py); the table
    also shows the times as they were measured."""
    setups = run.quiet("setup")
    ops = run.quiet("op")
    busy = sum(ops) + sum(run.quiet("sync_wait"))  # sync-sim's catch-up waits count as busy
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
        "ops_per_s": run.attempted / busy,
        "op.p50_ms": statistics.median(ops) * 1000.0,
        "op.p90_ms": p90(ops) * 1000.0,
    }
    counts = {
        "setup_s": len(setups),
        "ops_per_s": run.attempted,
        "op.p50_ms": len(ops),
        "op.p90_ms": len(ops),
    }
    lines = [_line(k, v, E2E_UNITS[k], counts.get(k)) for k, v in values.items()]
    speed = run.speed
    lines.append(
        f"  machine: {len(speed.took)} reference loops, median {statistics.median(speed.took) * 1000:.3f} ms "
        f"(quiet speed {REF_QUIET_S * 1000:.3f} ms), {speed.quiet_share():.0%} of them at quiet speed"
    )
    lines.append(f"  {'by call':<34} {'quiet p50':>14} {'p90':>10} {'measured p50':>14} {'p90':>10}")
    for kind in sorted(run.samples):
        quiet, raw = run.quiet(kind), run.raw(kind)
        tail = len(raw) >= 10
        lines.append(
            f"  {kind + '_ms':<34} {statistics.median(quiet) * 1000:>14.6g} "
            f"{p90(quiet) * 1000 if tail else float('nan'):>10.6g} "
            f"{statistics.median(raw) * 1000:>14.6g} {p90(raw) * 1000 if tail else float('nan'):>10.6g}"
            f"  (n={len(raw)})"
        )
    return values, lines


def per_layer(tracer, run, untraced_s: float) -> tuple[dict, list[str]]:
    summary = tracer.summary()
    c = run.counters
    values: dict[str, float] = {}
    for name, (calls, own) in summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
    values.update(
        {
            "adapter.stuck": c.get("adapter.stuck", 0),
            "adapter.response.blocks": c.get("adapter.response.blocks", 0),
            "adapter.response.headers": c.get("adapter.response.headers", 0),
            "blocktree.nodes.canister": c.get("blocktree.nodes.canister", 0),
            "blocktree.nodes.adapter_max": c.get("blocktree.nodes.adapter_max", 0),
            "canister.blocks_ingested": c.get("canister.blocks_ingested", 0),
            "canister.anchor_advances": c.get("canister.anchor_advances", 0),
            "canister.reorgs": c.get("canister.reorgs", 0),
            "canister.walk.pages": c.get("canister.walk.pages", 0),
            "canister.query.overlay_blocks": (
                c.get("canister.query.overlay_blocks", 0) / c["canister.query.answers"]
                if c.get("canister.query.answers")
                else 0.0
            ),
            "netsim.rounds": c.get("netsim.rounds", 0),
            "netsim.rounds_failed": c.get("netsim.rounds_failed", 0),
            "netsim.rounds_useful_frac": (
                c.get("netsim.useful_rounds", 0) / c["netsim.rounds"] if c.get("netsim.rounds") else 0.0
            ),
            "trace.overhead_frac": run.work_s / untraced_s - 1.0,
        }
    )
    metrics = {name: values[name] for name, _ in LAYER_METRICS}
    return metrics, _trace_summary(tracer, summary, run, untraced_s)


def _trace_summary(tracer, summary, run, untraced_s: float) -> list[str]:
    from spans import LAYERS

    total_self = sum(own for _, own in summary.values()) or 1.0
    lines = [
        f"  traced work {run.work_s:.3f} s, untraced {untraced_s:.3f} s, "
        f"overhead {run.work_s / untraced_s - 1.0:+.1%}",
        f"  {'layer / call':<34} {'calls':>10} {'self_s':>10} {'share':>7}",
    ]
    for layer in LAYERS:
        rows = [(n, v) for n, v in summary.items() if n.split(".")[0] == layer]
        calls = sum(v[0] for _, v in rows)
        own = sum(v[1] for _, v in rows)
        lines.append(f"  {layer:<34} {calls:>10} {own:>10.4f} {own / total_self:>7.1%}")
        for name, (n, s) in rows:
            if n:
                lines.append(f"    {name:<32} {n:>10} {s:>10.4f} {s / total_self:>7.1%}")
    query_self = tracer.self_under(QUERY_SPANS)
    lines.append(
        f"  query calls and everything they call: {query_self:.4f} s self, "
        f"{query_self / total_self:.1%} of traced self time"
    )
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "btcstate" / "__init__.py").is_file():
        print(f"bench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    fn, fixed_units = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")

    if args.trace == 0:
        run = workloads.Run()
        fn(args.seed, workloads.Budget(args.seconds, None), run)
        metrics, lines = end_to_end(run)
        units = E2E_UNITS
    else:
        baseline = workloads.Run()
        fn(args.seed, workloads.Budget(args.seconds, fixed_units), baseline)
        run = workloads.Run()
        tracer = Tracer()
        tracer.on_return["adapter.handle_request"] = lambda resp: _count_response(run, resp)
        try:  # the workload installs the tracer once its inputs are built
            fn(args.seed, workloads.Budget(args.seconds, fixed_units), run, tracer)
        finally:
            tracer.uninstall()
        metrics, lines = per_layer(tracer, run, baseline.work_s)
        units = dict(LAYER_METRICS)
        if baseline.failed != run.failed or baseline.wrong != run.wrong:
            run.notes.append("traced and untraced passes disagree on failures")
            run.wrong += 1

    print("\n".join(lines))
    print(f"  attempted {run.attempted}  failed {run.failed}  wrong answers {run.wrong}")
    for note in run.notes:
        print(f"  note: {note}")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _count_response(run, resp) -> None:
    run.count("adapter.response.blocks", len(resp.blocks))
    run.count("adapter.response.headers", len(resp.next_headers))
    if resp.blocks:
        run.count("netsim.useful_rounds")


if __name__ == "__main__":
    sys.exit(main())
