"""Scenario files and the harness that executes them.

A scenario is a structured text file: top-level keys, a few bracketed
sections for simulation parameters, state-machine overrides, and the
adversary, then a [script] section of ordered actions. Scripts drive the
world (mining, time, forks, downtime), call the public API, run Monte
Carlo experiments, and assert on named metrics. Assertion failures are
collected rather than aborting, so one run reports every broken claim.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from btcstate.canister import (
    ApiError,
    ApiUnavailableError,
    FilterRejectedError,
    MalformedTransactionError,
    NetworkMismatchError,
)
from btcstate.chain import (
    Transaction,
    TxIn,
    TxOut,
    p2pkh_script,
    script_address,
    sha256d,
)
from btcstate.montecarlo import (
    downtime_analytic,
    downtime_bound,
    eclipse_analytic,
    run_downtime_trials,
    run_eclipse_trials,
)
from btcstate.netsim import (
    AdversaryConfig,
    AdversaryStrategy,
    SimParams,
    SimWorld,
    replay_utxo_set,
)

API_OK = 0
API_UNAVAILABLE = 1
API_FILTER_REJECTED = 2
API_NETWORK_MISMATCH = 3
API_MALFORMED = 4


def format_metric(value: float) -> str:
    """Lossless text form: integral values print as integers, the rest as
    full-precision floats."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


class ScenarioParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Action:
    lineno: int
    op: str
    args: list[str]


@dataclass
class Scenario:
    name: str = "unnamed"
    seed: int = 1
    trace_wire: bool = False
    params: SimParams = field(default_factory=SimParams)
    delta: int = 6
    tau: int = 2
    page_size: int = 1000
    checkpoint_height: int = 1 << 31
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    script: list[Action] = field(default_factory=list)


def _parse_bool(value: str) -> bool:
    if value in ("on", "1", "true", "yes"):
        return True
    if value in ("off", "0", "false", "no"):
        return False
    raise ValueError(f"expected on/off, got {value!r}")


_PARAM_KEYS = {
    "n": ("n", int),
    "f": ("f", int),
    "ell": ("ell", int),
    "phi": ("phi", float),
    "peers": ("peer_count", int),
    "honest-interval": ("honest_block_interval", float),
    "adversary-hash": ("adversary_hash", float),
    "c-star": ("c_star", int),
    "latency-min": ("latency_min", float),
    "latency-max": ("latency_max", float),
    "round-interval": ("round_interval", float),
    "tick-interval": ("tick_interval", float),
    "ensure-honest-peer": ("ensure_honest_peer", _parse_bool),
}

# op -> (min args, max args, types for the leading args, as far as they are given)
_SCRIPT_OPS: dict[str, tuple[int, Optional[int], tuple[type, ...]]] = {
    "mine": (1, 1, (int,)),
    "advance": (1, 1, (float,)),
    "settle": (1, 1, (float,)),
    "sync": (0, 0, ()),
    "inject-fork": (2, 2, (int, int)),
    "start-downtime": (0, 0, ()),
    "stop-downtime": (0, 0, ()),
    "pay": (3, 3, (str, int, int)),
    "send-tx": (3, 3, (str, int, int)),
    "api": (2, 3, (str, str, int)),
    "mc-eclipse": (1, 1, (int,)),
    "mc-downtime": (1, 1, (int,)),
    "check-replay": (0, 0, ()),
    "snapshot": (1, 1, ()),
    "assert": (3, None, ()),
    "assert-close": (3, 3, (str, str, float)),
}


def _check_action(op: str, args: list[str], lineno: int) -> None:
    low, high, types = _SCRIPT_OPS[op]
    if len(args) < low or (high is not None and len(args) > high):
        if high is None:
            expected = f"at least {low}"
        elif high == low:
            expected = str(low)
        else:
            expected = f"{low}..{high}"
        raise ScenarioParseError(lineno, f"{op} takes {expected} argument(s), got {len(args)}")
    for value, cast in zip(args, types):
        try:
            cast(value)
        except ValueError:
            raise ScenarioParseError(
                lineno, f"{op}: expected {cast.__name__}, got {value!r}"
            ) from None
    if op == "api" and args[0] not in ("get_balance", "get_utxos"):
        raise ScenarioParseError(lineno, f"unknown api call {args[0]!r}")


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("params", "canister", "adversary", "script"):
                raise ScenarioParseError(lineno, f"unknown section [{section}]")
            continue
        if section == "script":
            parts = line.split()
            op, args = parts[0], parts[1:]
            if op not in _SCRIPT_OPS:
                raise ScenarioParseError(lineno, f"unknown action {op!r}")
            _check_action(op, args, lineno)
            scenario.script.append(Action(lineno, op, args))
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if not value:
            raise ScenarioParseError(lineno, f"key {key!r} needs a value")
        try:
            if section is None:
                if key == "name":
                    scenario.name = value
                elif key == "seed":
                    scenario.seed = int(value)
                elif key == "trace":
                    scenario.trace_wire = _parse_bool(value)
                else:
                    raise ScenarioParseError(lineno, f"unknown top-level key {key!r}")
            elif section == "params":
                if key not in _PARAM_KEYS:
                    raise ScenarioParseError(lineno, f"unknown parameter {key!r}")
                attr, cast = _PARAM_KEYS[key]
                setattr(scenario.params, attr, cast(value))
            elif section == "canister":
                if key == "delta":
                    scenario.delta = int(value)
                elif key == "tau":
                    scenario.tau = int(value)
                elif key == "page-size":
                    scenario.page_size = int(value)
                elif key == "checkpoint-height":
                    scenario.checkpoint_height = int(value)
                else:
                    raise ScenarioParseError(lineno, f"unknown canister key {key!r}")
            elif section == "adversary":
                if key == "strategy":
                    try:
                        scenario.adversary.strategy = AdversaryStrategy(value)
                    except ValueError:
                        raise ScenarioParseError(lineno, f"unknown strategy {value!r}") from None
                elif key == "budget":
                    scenario.adversary.budget_enforced = _parse_bool(value)
                elif key == "corrupting-tx":
                    scenario.adversary.with_corrupting_tx = _parse_bool(value)
                else:
                    raise ScenarioParseError(lineno, f"unknown adversary key {key!r}")
        except ScenarioParseError:
            raise
        except ValueError as exc:
            raise ScenarioParseError(lineno, f"bad value for {key!r}: {exc}") from None
    try:
        scenario.params.validate()
    except ValueError as exc:
        raise ScenarioParseError(0, f"invalid parameters: {exc}") from None
    return scenario


# -- assertion expressions ----------------------------------------------------

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


def _eval_terms(tokens: list[str], metrics: dict[str, float], lineno: int) -> float:
    """Evaluate `atom (+|- atom)*` where an atom is a number or metric name."""
    if not tokens:
        raise ScenarioParseError(lineno, "empty expression side")
    total = _atom(tokens[0], metrics, lineno)
    i = 1
    while i < len(tokens):
        op = tokens[i]
        if op not in ("+", "-") or i + 1 >= len(tokens):
            raise ScenarioParseError(lineno, f"bad expression near {op!r}")
        value = _atom(tokens[i + 1], metrics, lineno)
        total = total + value if op == "+" else total - value
        i += 2
    return total


def _atom(token: str, metrics: dict[str, float], lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        pass
    if token in metrics:
        return float(metrics[token])
    raise ScenarioParseError(lineno, f"unknown metric {token!r}")


def eval_assertion(args: list[str], metrics: dict[str, float], lineno: int) -> tuple[bool, str]:
    op_index = None
    for i, token in enumerate(args):
        if token in _CMP_OPS:
            op_index = i
            break
    if op_index is None:
        raise ScenarioParseError(lineno, "assertion needs a comparison operator")
    lhs = _eval_terms(args[:op_index], metrics, lineno)
    rhs = _eval_terms(args[op_index + 1 :], metrics, lineno)
    op = args[op_index]
    ok = {
        "==": lhs == rhs,
        "!=": lhs != rhs,
        "<=": lhs <= rhs,
        ">=": lhs >= rhs,
        "<": lhs < rhs,
        ">": lhs > rhs,
    }[op]
    return ok, f"{' '.join(args)}  [lhs={lhs:g} rhs={rhs:g}]"


# -- the runner -----------------------------------------------------------------


@dataclass
class RunResult:
    scenario: str
    seed: int
    metrics: dict[str, float]
    failures: list[str]
    observation_lines: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def report_lines(self) -> list[str]:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["scenario", "seed", "metric", "value"])
        for key in sorted(self.metrics):
            writer.writerow([self.scenario, self.seed, key, format_metric(self.metrics[key])])
        return out.getvalue().splitlines()


class ScenarioRunner:
    def __init__(self, scenario: Scenario, seed: Optional[int] = None, out_dir: Optional[Path] = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.out_dir = out_dir
        self.world = SimWorld(
            scenario.params,
            self.seed,
            delta=scenario.delta,
            tau=scenario.tau,
            page_size=scenario.page_size,
            checkpoint_height=scenario.checkpoint_height,
            adversary=scenario.adversary,
            trace_wire=scenario.trace_wire,
        )
        self.extra_metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.api_calls = 0

    # Named parties get deterministic pay-to-pubkey-hash scripts.
    def _script_for(self, name: str) -> bytes:
        return p2pkh_script(sha256d(b"party:" + name.encode())[:20])

    def address_for(self, name: str) -> str:
        return script_address(self._script_for(name), self.world.network)

    def _metrics(self) -> dict[str, float]:
        merged = dict(self.world.metrics())
        merged.update(self.extra_metrics)
        merged["api_calls"] = self.api_calls
        merged["delta"] = self.scenario.delta
        merged["tau"] = self.scenario.tau
        return merged

    def run(self) -> RunResult:
        for action in self.scenario.script:
            self._apply(action)
        if self.world.anchor_divergence:
            self.failures.append(
                "fatal: materialized state diverged from the network chain below "
                "the anchor; a state reset would be required"
            )
        result = RunResult(
            self.scenario.name,
            self.seed,
            self._metrics(),
            self.failures,
            self.world.observation_lines(),
        )
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "report.csv").write_text("\n".join(result.report_lines()) + "\n")
            (self.out_dir / "observations.csv").write_text(
                "\n".join(result.observation_lines) + "\n"
            )
        return result

    def _apply(self, action: Action) -> None:
        op, args, lineno = action.op, action.args, action.lineno
        world = self.world
        if op == "mine":
            target = world.honest_height() + int(args[0])
            world.run_until(lambda: world.honest_height() >= target, max_duration=1e9)
        elif op == "advance":
            world.run_for(float(args[0]))
        elif op == "settle":
            world.run_for(float(args[0]) * world.params.round_interval)
        elif op == "sync":
            caught_up = world.run_until(self._fully_synced, max_duration=1e6)
            if not caught_up:
                self.failures.append(f"line {lineno}: sync never caught up")
        elif op == "inject-fork":
            branch = int(args[0])
            if branch < 0:  # relative to the current honest tip
                branch = world.honest_height() + branch
            try:
                world.inject_fork(branch, int(args[1]))
            except ValueError as exc:
                raise ScenarioParseError(lineno, str(exc)) from None
        elif op == "start-downtime":
            world.start_downtime()
        elif op == "stop-downtime":
            world.stop_downtime()
        elif op == "pay":
            self._pay(args, lineno, via_api=False)
        elif op == "send-tx":
            self._pay(args, lineno, via_api=True)
        elif op == "api":
            self._api(args)
        elif op == "mc-eclipse":
            self._mc_eclipse(int(args[0]))
        elif op == "mc-downtime":
            self._mc_downtime(int(args[0]))
        elif op == "check-replay":
            self._check_replay()
        elif op == "snapshot":
            target = Path(args[0])
            if self.out_dir is not None:
                target = self.out_dir / target
                target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("\n".join(world.canister.snapshot_lines()) + "\n")
        elif op == "assert":
            ok, detail = eval_assertion(args, self._metrics(), lineno)
            if not ok:
                self.failures.append(f"line {lineno}: assert {detail}")
        elif op == "assert-close":
            self._assert_close(args, lineno)
        else:  # pragma: no cover - parser rejects unknown ops
            raise ScenarioParseError(lineno, f"unhandled action {op}")

    def _fully_synced(self) -> bool:
        canister = self.world.canister
        top = self.world.honest_height()
        return (
            canister.tree.max_height() == top
            and canister.max_body_height() == top
            and canister.synced
        )

    def _assert_close(self, args: list[str], lineno: int) -> None:
        metrics = self._metrics()
        value = _atom(args[0], metrics, lineno)
        reference = _atom(args[1], metrics, lineno)
        tol = float(args[2])
        if reference == 0:
            ok = value == 0
        else:
            ok = abs(value - reference) / abs(reference) <= tol
        if not ok:
            self.failures.append(
                f"line {lineno}: assert-close {args[0]}={value:g} vs {reference:g} rel-tol {tol:g}"
            )

    def _pay(self, args: list[str], lineno: int, via_api: bool) -> None:
        name, value, count = args[0], int(args[1]), int(args[2])
        tx = self._build_payment(name, value, count, lineno)
        if via_api:
            try:
                self.world.canister.send_transaction(tx.to_bytes(), self.world.network)
                self.extra_metrics["last_api_status"] = API_OK
            except ApiError as exc:
                self.extra_metrics["last_api_status"] = _api_status(exc)
            self.api_calls += 1
        else:
            self.world.submit_to_miners(tx)

    def _build_payment(self, name: str, value: int, count: int, lineno: int) -> Transaction:
        world = self.world
        if not world.spendable:
            raise ScenarioParseError(lineno, "no spendable outputs yet; mine first")
        outpoint, available = world.spendable.pop(0)
        needed = value * count
        if needed > available:
            raise ScenarioParseError(lineno, f"payment needs {needed} but input has {available}")
        outputs = [TxOut(value, self._script_for(name)) for _ in range(count)]
        change = available - needed
        if change > 0:
            outputs.append(TxOut(change, p2pkh_script(sha256d(b"change")[:20])))
        return Transaction(1, (TxIn(outpoint, b"sim"),), tuple(outputs), 0)

    def _api(self, args: list[str]) -> None:
        call, name = args[0], args[1]
        min_conf = int(args[2]) if len(args) > 2 else None
        self.api_calls += 1
        self.world.observe("api", call, " ".join(args[1:]))
        try:
            if call == "get_balance":
                balance = self.world.canister.get_balance(
                    self.address_for(name), self.world.network, min_conf
                )
                self.extra_metrics[f"balance_{name}"] = balance
            else:
                self._paged_utxos(name, min_conf)
            self.extra_metrics["last_api_status"] = API_OK
        except ApiError as exc:
            self.extra_metrics["last_api_status"] = _api_status(exc)

    def _paged_utxos(self, name: str, min_conf: Optional[int]) -> None:
        canister = self.world.canister
        address = self.address_for(name)
        network = self.world.network
        pages = 0
        collected = []
        token = None
        while True:
            page = canister.get_utxos(
                address,
                network,
                min_confirmations=min_conf if token is None else None,
                page=token,
            )
            pages += 1
            collected.extend(page.utxos)
            if page.next_page is None:
                break
            token = page.next_page
        whole = canister.list_utxos(address, network, min_confirmations=min_conf)
        keys = [(-u.height, bytes(u.outpoint.txid), u.outpoint.vout) for u in collected]
        paging_ok = (
            keys == sorted(keys)
            and len(set(keys)) == len(keys)
            and [(u.outpoint, u.value, u.height) for u in collected]
            == [(u.outpoint, u.value, u.height) for u in whole]
        )
        self.extra_metrics[f"utxos_{name}"] = len(collected)
        self.extra_metrics[f"utxo_pages_{name}"] = pages
        self.extra_metrics[f"utxo_paging_ok_{name}"] = int(paging_ok)
        self.extra_metrics[f"utxo_value_sum_{name}"] = sum(u.value for u in collected)

    def _mc_eclipse(self, trials: int) -> None:
        p = self.world.params
        estimate = run_eclipse_trials(p.n, p.ell, p.phi, trials, self.seed)
        one_ref, any_ref = eclipse_analytic(p.n, p.ell, p.phi)
        self.extra_metrics.update(
            {
                "eclipse_one": estimate.per_adapter,
                "eclipse_any": estimate.any_adapter,
                "eclipse_one_ref": one_ref,
                "eclipse_any_ref": any_ref,
                "eclipse_trials": trials,
            }
        )
        self.world.observe("montecarlo", "eclipse", f"trials={trials}")

    def _mc_downtime(self, trials: int) -> None:
        p = self.world.params
        estimate = run_downtime_trials(p.n, p.f, p.c_star, trials, self.seed)
        self.extra_metrics.update(
            {
                "downtime_est": estimate.success,
                "downtime_ref": downtime_analytic(p.n, p.f, p.c_star),
                "downtime_bound": downtime_bound(p.c_star),
                "downtime_trials": trials,
            }
        )
        self.world.observe("montecarlo", "downtime", f"trials={trials}")

    def _check_replay(self) -> None:
        canister = self.world.canister
        chain = canister.tree.current_chain()
        oracle = replay_utxo_set(self.world.tree, chain, self.world.network, canister.anchor)
        match = oracle.by_outpoint == canister.utxos.by_outpoint
        self.extra_metrics["replay_match"] = int(match)
        self.extra_metrics["replay_entries"] = len(oracle.by_outpoint)


def _api_status(exc: ApiError) -> int:
    if isinstance(exc, ApiUnavailableError):
        return API_UNAVAILABLE
    if isinstance(exc, FilterRejectedError):
        return API_FILTER_REJECTED
    if isinstance(exc, NetworkMismatchError):
        return API_NETWORK_MISMATCH
    if isinstance(exc, MalformedTransactionError):
        return API_MALFORMED
    return 99


def run_scenario_text(
    text: str, seed: Optional[int] = None, out_dir: Optional[Path] = None
) -> RunResult:
    scenario = parse_scenario(text)
    return ScenarioRunner(scenario, seed=seed, out_dir=out_dir).run()
