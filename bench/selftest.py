"""Self-test for the benchmark itself.

    python3 bench/selftest.py

Checks three things and exits 1 if any fails:

1. Two traced runs with one seed give identical counts on every workload.
2. A second seed runs clean: exit 0, every answer right, every check made.
3. A corrupted expected balance makes the run report a wrong answer.

Along the way it checks that each run reports exactly the metrics, with
the units, that BENCHMARK.json lists.

Takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sync-sim", "query-static", "query-churn")
SEED = 1
OTHER_SEED = 2
# Counts that must repeat exactly for a seed.
EXACT = (
    "canister.blocks_ingested",
    "canister.reorgs",
    "canister.anchor_advances",
    "chain.header_hash.calls",
    "chain.txid.calls",
    "chain.script_address.calls",
    "netsim.rounds",
)


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
    if result and {k: v["unit"] for k, v in result["metrics"].items()} != declared(trace):
        print(f"FAIL: {workload} --trace {trace} metrics differ from BENCHMARK.json")
        return 1, result
    return out.returncode, result


def check_repeatable(problems: list[str]) -> None:
    for workload in WORKLOADS:
        runs = [bench(workload, SEED, 5, 1) for _ in range(2)]
        if any(code != 0 for code, _ in runs):
            problems.append(f"{workload}: traced run exited non-zero")
            continue
        first, second = (r["metrics"] for _, r in runs)
        for key in EXACT:
            a, b = first[key]["value"], second[key]["value"]
            status = "same" if a == b else "DIFFERENT"
            print(f"  {workload:<13} {key:<28} {a:>10} {b:>10}  {status}")
            if a != b:
                problems.append(f"{workload}: {key} differs between runs ({a} vs {b})")


def check_second_seed(problems: list[str]) -> None:
    for workload in WORKLOADS:
        code, result = bench(workload, OTHER_SEED, 5, 0)
        if code != 0 or not result.get("correct"):
            problems.append(f"{workload}: seed {OTHER_SEED} did not run clean (exit {code})")
            continue
        print(
            f"  {workload:<13} seed {OTHER_SEED}: correct, attempted {result['attempted']}, "
            f"failed {result['failed']}"
        )
        if result["failed"] and workload != "sync-sim":
            problems.append(f"{workload}: seed {OTHER_SEED} had failed operations")
        elif result["failed"]:
            # A stall is the adapter liveness defect, counted and reported, not hidden.
            print("    (failed blocks are stalls from the known adapter liveness defect)")


def check_corrupted_oracle(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gen
    import run

    original = gen.ChainGen.expected_utxos

    def corrupted(self, party, prefix):
        entries = original(self, party, prefix)
        if entries:
            outpoint, value, height = entries[0]
            entries[0] = (outpoint, value + 1, height)
        return entries

    gen.ChainGen.expected_utxos = corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "query-static", "--seed", str(SEED), "--seconds", "1"])
    finally:
        gen.ChainGen.expected_utxos = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    print(f"  corrupted ledger: exit {code}, correct {result['correct']}, failed {result['failed']}")
    if code != 0 or result["correct"] or not result["failed"]:
        problems.append("a corrupted expected balance was not reported as a failure")


def main() -> int:
    problems: list[str] = []
    print("1. traced runs repeat their counts")
    check_repeatable(problems)
    print("2. a second seed runs clean")
    check_second_seed(problems)
    print("3. a corrupted expected balance fails the run")
    check_corrupted_oracle(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
