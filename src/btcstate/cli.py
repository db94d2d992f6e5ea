"""Command-line harness.

Subcommands:
  run         execute a scenario file (or a bundled scenario by name)
  montecarlo  eclipse / downtime probability experiments
  inspect     per-block depth/stability table for a tree dump
  api         one-shot queries against a saved state snapshot

Exit codes: 0 success, 1 assertion failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

from btcstate.blocktree import BlockTree, DepthKind, TreeStructureError, WorkRatio
from btcstate.canister import ApiError, Canister
from btcstate.chain import NetworkKind
from btcstate.montecarlo import (
    downtime_analytic,
    downtime_bound,
    eclipse_analytic,
    run_downtime_trials,
    run_eclipse_trials,
)
from btcstate.scenario import (
    ScenarioParseError,
    ScenarioRunner,
    format_metric,
    parse_scenario,
)
from btcstate.snapshot import SnapshotError

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def bundled_scenario_names() -> list[str]:
    root = resources.files("btcstate") / "scenarios"
    return sorted(p.name[: -len(".scn")] for p in root.iterdir() if p.name.endswith(".scn"))


def load_scenario_text(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return path.read_text()
    candidate = resources.files("btcstate") / "scenarios" / f"{spec}.scn"
    if candidate.is_file():
        return candidate.read_text()
    raise FileNotFoundError(
        f"no scenario file {spec!r}; bundled: {', '.join(bundled_scenario_names())}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        text = load_scenario_text(args.scenario)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.delta is not None:
        scenario.delta = args.delta
    if args.tau is not None:
        scenario.tau = args.tau
    if args.page_size is not None:
        scenario.page_size = args.page_size
    out_dir = Path(args.out) if args.out else None
    try:
        runner = ScenarioRunner(scenario, seed=args.seed, out_dir=out_dir)
        result = runner.run()
    except ValueError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"scenario {result.scenario} seed={result.seed}")
    for key in sorted(result.metrics):
        print(f"  {key} = {format_metric(result.metrics[key])}")
    if result.failures:
        for failure in result.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return EXIT_ASSERTION
    print("all assertions passed")
    return EXIT_OK


def _append_csv_rows(out: str, header: list[str], rows: list[list]) -> None:
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerows(rows)


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    try:
        if args.experiment == "eclipse":
            estimate = run_eclipse_trials(args.n, args.ell, args.phi, args.trials, args.seed)
        else:
            estimate = run_downtime_trials(args.n, args.f, args.c_star, args.trials, args.seed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.experiment == "eclipse":
        one_ref, any_ref = eclipse_analytic(args.n, args.ell, args.phi)
        header = ["experiment", "metric", "estimate", "analytic", "trials", "seed"]
        rows = []
        for label, est, ref in (
            ("per-adapter", estimate.per_adapter, one_ref),
            ("any-adapter", estimate.any_adapter, any_ref),
        ):
            rel = abs(est - ref) / ref if ref else 0.0
            print(f"eclipse {label}: estimate={est:.6g} analytic={ref:.6g} rel-err={rel:.3%}")
            rows.append(["eclipse", label, f"{est:.8g}", f"{ref:.8g}", args.trials, args.seed])
    else:
        ref = downtime_analytic(args.n, args.f, args.c_star)
        bound = downtime_bound(args.c_star)
        rel = abs(estimate.success - ref) / ref if ref else 0.0
        print(
            f"downtime success: estimate={estimate.success:.6g} analytic={ref:.6g} "
            f"bound={bound:.6g} rel-err={rel:.3%}"
        )
        header = ["experiment", "metric", "estimate", "analytic", "bound", "trials", "seed"]
        rows = [
            ["downtime", "success", f"{estimate.success:.8g}", f"{ref:.8g}", f"{bound:.8g}", args.trials, args.seed]
        ]
    if args.out:
        try:
            _append_csv_rows(args.out, header, rows)
        except OSError as exc:
            print(f"cannot write --out {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _format_stability(value) -> str:
    if isinstance(value, WorkRatio):
        return f"{float(value):.4g}"
    return str(value)


def _cmd_inspect(args: argparse.Namespace) -> int:
    if args.delta < 0:
        print("delta must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    path = Path(args.dump)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tree = BlockTree.from_dump(path.read_text().splitlines())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TreeStructureError as exc:
        print(f"bad tree dump: {exc}", file=sys.stderr)
        return EXIT_USAGE
    kind = DepthKind.CONFIRMATION if args.kind == "confirmation" else DepthKind.WORK
    chain = set(tree.current_chain())
    print(f"{'hash':16} {'height':>6} {'depth':>8} {'stability':>10} {'stable':>7} chain")
    order = sorted(tree.hashes(), key=lambda h: (tree.height(h), h))
    for h in order:
        depth = tree.depth(h, kind)
        if kind is DepthKind.WORK:
            depth_text = f"{depth / tree.node_work(tree.root):.4g}"
        else:
            depth_text = str(depth)
        stability = tree.stability(h, kind)
        stable = tree.is_delta_stable(h, args.delta, kind)
        marker = "*" if h in chain else ""
        print(
            f"{h.rev_hex()[:16]} {tree.height(h):>6} {depth_text:>8} "
            f"{_format_stability(stability):>10} {str(stable):>7} {marker}"
        )
    return EXIT_OK


def _cmd_api(args: argparse.Namespace) -> int:
    path = Path(args.snapshot)
    if not path.exists():
        print(f"no such snapshot: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        state = Canister.from_snapshot(path.read_text().splitlines())
    except (OSError, SnapshotError, UnicodeDecodeError) as exc:
        print(f"bad snapshot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        network = NetworkKind.from_str(args.network) if args.network else state.network
        if args.call == "get_utxos":
            page = state.get_utxos(
                args.address, network, min_confirmations=args.min_conf, page=args.page
            )
            print(f"tip {page.tip_hash.rev_hex()} height {page.tip_height}")
            for utxo in page.utxos:
                print(
                    f"{utxo.outpoint.txid.rev_hex()}:{utxo.outpoint.vout} "
                    f"value={utxo.value} height={utxo.height}"
                )
            if page.next_page:
                print(f"next-page {page.next_page}")
        elif args.call == "get_balance":
            balance = state.get_balance(args.address, network, args.min_conf)
            print(balance)
        else:
            txid = state.send_transaction(bytes.fromhex(args.address), network)
            print(f"accepted {txid.rev_hex()}")
            print(f"queued {len(state.outbound_txs)} transaction(s)")
    except ApiError as exc:
        print(f"api error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="btcstate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for report/observation CSVs")
    p_run.add_argument("--delta", type=int, default=None, help="override stability threshold")
    p_run.add_argument("--tau", type=int, default=None, help="override sync gap bound")
    p_run.add_argument("--page-size", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_mc = sub.add_parser("montecarlo", help="run a probability experiment")
    p_mc.add_argument("experiment", choices=["eclipse", "downtime"])
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=1)
    p_mc.add_argument("--n", type=int, default=13, help="subnet size")
    p_mc.add_argument("--ell", type=int, default=5, help="peer links per adapter")
    p_mc.add_argument("--phi", type=float, default=0.3, help="corrupted peer fraction")
    p_mc.add_argument("--f", type=int, default=4, help="malicious subnet nodes")
    p_mc.add_argument("--c-star", type=int, default=3, dest="c_star")
    p_mc.add_argument("--out", default=None, help="CSV file to append results to")
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_inspect = sub.add_parser("inspect", help="stability table for a tree dump")
    p_inspect.add_argument("dump")
    p_inspect.add_argument("--delta", type=int, default=6)
    p_inspect.add_argument("--kind", choices=["confirmation", "work"], default="confirmation")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_api = sub.add_parser("api", help="query a state snapshot")
    p_api.add_argument("snapshot")
    p_api.add_argument("call", choices=["get_utxos", "get_balance", "send_transaction"])
    p_api.add_argument("address", help="address (or raw tx hex for send_transaction)")
    p_api.add_argument("--min-conf", type=int, default=None, dest="min_conf")
    p_api.add_argument("--page", default=None)
    p_api.add_argument("--network", default=None)
    p_api.set_defaults(func=_cmd_api)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
