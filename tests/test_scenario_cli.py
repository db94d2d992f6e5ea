"""Scenario parsing, the runner, and the command-line interface."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcstate.chain import BlockHeader
from btcstate.cli import bundled_scenario_names, load_scenario_text, main
from btcstate.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioRunner,
    eval_assertion,
    parse_scenario,
    run_scenario_text,
)

from conftest import header_with_bad_pow

FIXTURES = Path(__file__).parent / "fixtures"

FAST_SCENARIO = """
name quick
seed 3

[params]
n 3
f 0
ell 2
phi 0.0
peers 6
honest-interval 60
round-interval 20

[canister]
delta 3
tau 2

[script]
mine 8
sync
assert anchor_height == honest_height - 3 + 1
assert synced == 1
"""


# -- parsing -----------------------------------------------------------------------


def test_parse_full_scenario():
    s = parse_scenario(FAST_SCENARIO)
    assert s.name == "quick"
    assert s.seed == 3
    assert s.params.n == 3
    assert s.delta == 3
    assert [a.op for a in s.script] == ["mine", "sync", "assert", "assert"]


def test_parse_error_reports_line_number():
    bad = "name x\n[params]\nbogus-key 3\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(bad)
    assert err.value.lineno == 3
    # every on/off key accepts only the on/off words
    with pytest.raises(ScenarioParseError, match="line 2: .*ensure-honest-peer.*'maybe'"):
        parse_scenario("[params]\nensure-honest-peer maybe\n")
    assert not parse_scenario("[params]\nensure-honest-peer off\n").params.ensure_honest_peer


def test_parse_unknown_section():
    with pytest.raises(ScenarioParseError):
        parse_scenario("[nonsense]\n")


def test_parse_unknown_action():
    with pytest.raises(ScenarioParseError):
        parse_scenario("[script]\nlaunch-missiles now\n")


def test_parse_action_arity_and_types():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario("[script]\nmine\n")
    assert err.value.lineno == 2
    with pytest.raises(ScenarioParseError):
        parse_scenario("[script]\nmine lots\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("[script]\ninject-fork 3\n")
    with pytest.raises(ScenarioParseError):
        parse_scenario("[script]\npay bob many 4\n")
    with pytest.raises(ScenarioParseError, match="line 3: unknown api call 'get_balanse'"):
        parse_scenario("[script]\nmine 1\napi get_balanse alice\n")
    with pytest.raises(ScenarioParseError, match="line 2: api: expected int, got 'many'"):
        parse_scenario("[script]\napi get_balance alice many\n")
    with pytest.raises(ScenarioParseError, match="line 2: assert-close: expected float"):
        parse_scenario("[script]\nassert-close a b loose\n")
    # valid forms
    parse_scenario("[script]\nadvance 3.5\ninject-fork -1 2\napi get_utxos bob 2\n")


def test_parse_invalid_params_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("[params]\nn 3\nf 1\n")  # f >= n/3


def test_parse_separation_key_is_unknown():
    # the rival lead of the stability rule is always required
    with pytest.raises(ScenarioParseError, match="line 3: unknown canister key 'separation'"):
        parse_scenario("[canister]\ndelta 3\nseparation off\n")


SCENARIO_ODD_TOKENS = [
    "-1", "0", "0.5", "nan", "inf", "-inf", "1e400", "99999999999999999999", "x", "on", "",
    "[script]", "[params]", "[nowhere]", "[", "#", "mine", "assert", "==", "<",
]


@st.composite
def mutated_scenario(draw) -> str:
    """A bundled scenario after one to three random edits."""
    lines = load_scenario_text(draw(st.sampled_from(bundled_scenario_names()))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "insert", "truncate"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            parts = lines[i].split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.sampled_from(SCENARIO_ODD_TOKENS) | st.integers().map(str))
            lines[i] = " ".join(parts)
        elif edit == "insert":
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(SCENARIO_ODD_TOKENS), max_size=4))))
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=mutated_scenario())
def test_mutated_scenario_fails_closed_or_parses(text):
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError:
        return
    assert isinstance(scenario, Scenario)
    scenario.params.validate()


def test_assertion_arithmetic():
    metrics = {"a": 10, "b": 4}
    ok, _ = eval_assertion(["a", "-", "b", "==", "6"], metrics, 1)
    assert ok
    ok, _ = eval_assertion(["a", ">=", "b", "+", "7"], metrics, 1)
    assert not ok
    with pytest.raises(ScenarioParseError):
        eval_assertion(["a", "==", "missing"], metrics, 1)
    with pytest.raises(ScenarioParseError):
        eval_assertion(["a", "b"], metrics, 1)


# -- runner ------------------------------------------------------------------------


def test_fast_scenario_runs_green(tmp_path):
    result = run_scenario_text(FAST_SCENARIO, out_dir=tmp_path / "out")
    assert result.ok
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "observations.csv").exists()
    header = (tmp_path / "out" / "report.csv").read_text().splitlines()[0]
    assert header == "scenario,seed,metric,value"


def test_failing_assertion_collected():
    text = FAST_SCENARIO + "assert anchor_height == 0\n"
    result = run_scenario_text(text)
    assert not result.ok
    assert any("anchor_height" in f for f in result.failures)


def test_seed_override_changes_run():
    a = run_scenario_text(FAST_SCENARIO, seed=3)
    b = run_scenario_text(FAST_SCENARIO, seed=4)
    assert a.metrics["clock"] != b.metrics["clock"]


def test_rerun_identical(tmp_path):
    r1 = run_scenario_text(FAST_SCENARIO, out_dir=tmp_path / "a")
    r2 = run_scenario_text(FAST_SCENARIO, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "observations.csv").read_bytes() == (
        tmp_path / "b" / "observations.csv"
    ).read_bytes()
    assert r1.metrics == r2.metrics


# -- CLI ----------------------------------------------------------------------------


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    for expected in (
        "sync-linear",
        "fork-above-anchor",
        "fork-attack",
        "downtime-attack",
        "pagination-stress",
        "eclipse-mc",
        "downtime-mc",
    ):
        assert expected in names


# SHA-256 of each bundled scenario's report.csv and observations.csv at its
# default seed. A refactor must leave both byte-identical; an intended
# output format change updates these with a CHANGES.md entry saying why.
BUNDLED_OUTPUT_SHA256 = {
    "sync-linear": (
        "c69edfa15efac8ed7819a85572b0228177c2bfc9441a826b352828375cc564ce",
        "a3e6f1d99028e432d6ed548e6c05443c74c813363e2aa0a0c55026daa69236e9",
    ),
    "fork-above-anchor": (
        "370cff98435199051fb7360239d5b204752a3416fa2998abcef74f5574e18433",
        "ef3c8a3a35088eb6b5ec6a242c01f0aa40804c5d8b5122fdece7091be1822532",
    ),
    "fork-attack": (
        "a891cd88a159efca23e1b214c475df1bcd019cf5854f04278f979dfc90d712a2",
        "4dca655ab45cdaa6cb591af012d55df7c023c8efb1c39fdf8e7c8978fc30ba3b",
    ),
    "downtime-attack": (
        "5775aeb0a47ffc1bcd89fa0f0ef8491adc0973de8e3acb94a5dc3d3ecfc6e4a1",
        "4b9fdf731b98fb079ab1e5cc2f9364d1458047cfc57cd5f1a8e727bf68029391",
    ),
    "pagination-stress": (
        "be08c0b181185d3683049de46ec7a3af29753cc0fd895e7d1f2c85abf8e57d84",
        "99a477039a333918147fc34e7212d70ed6e2ac1c81cc734e3602e68e403e4648",
    ),
    "eclipse-mc": (
        "2bcd61f265771eb4804b8c872f12130e0823d0910e35360136c93295277c8e6b",
        "eb1b4b9e249843751f7ba537f2a72c6c68c3da484395a6742c8e1074a97da5fb",
    ),
    "downtime-mc": (
        "63c808f944d4312ba5061c1eb1e859ff04596ce93f3b1c87fe7e7e2f6621859d",
        "4004b575506982fedfca20472d37c6917033aac8803a765b27b542525b4f4be0",
    ),
}


@pytest.mark.parametrize("name", list(BUNDLED_OUTPUT_SHA256))
def test_every_bundled_scenario_green_within_budget(name, tmp_path):
    import time

    started = time.monotonic()
    result = run_scenario_text(load_scenario_text(name), out_dir=tmp_path)
    elapsed = time.monotonic() - started
    assert result.ok, result.failures
    assert elapsed < 120.0
    digests = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("report.csv", "observations.csv")
    )
    assert digests == BUNDLED_OUTPUT_SHA256[name]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_bundled_outputs_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    # Sets of hashes and strings iterate in an order the hash seed picks;
    # no output may follow that order. Each run takes a fraction of a second.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
    probe = "import sys; from btcstate.cli import main; sys.exit(main(sys.argv[1:]))"
    for name in ("fork-attack", "pagination-stress"):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-c", probe, "run", name, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("report.csv", "observations.csv")
        )
        assert digests == BUNDLED_OUTPUT_SHA256[name], name


def test_malicious_maker_feeds_fork_blocks_that_the_budget_keeps_harmless(monkeypatch):
    # The bundled downtime-attack seed finds nothing to feed in any malicious
    # round; on seed 28 the malicious maker feeds fork blocks after the
    # downtime. Each fed block is ingested, the corrupting transaction's block
    # is counted while held, and the budgeted fork never folds.
    runner = ScenarioRunner(parse_scenario(load_scenario_text("downtime-attack")), seed=28)
    world = runner.world
    tree, fork = world.canister.tree, world.adversary.fork
    fed = []
    real_round = world._malicious_round

    def malicious_round(maker):
        real_round(maker)
        detail = world.observations[-1][3]
        if detail.startswith("malicious-feed "):
            (h,) = [h for h in fork if h.rev_hex().startswith(detail.split()[1])]
            assert tree.has_block(h)
            fed.append(h)

    monkeypatch.setattr(world, "_malicious_round", malicious_round)
    result = runner.run()
    assert result.ok, result.failures
    assert fed and fed[0] == fork[0]
    assert result.metrics["corrupting_tx_max_conf"] >= 0
    assert result.metrics["state_corrupted"] == 0


def test_wire_trace_flag():
    text = FAST_SCENARIO.replace("seed 3", "seed 3\ntrace on")
    result = run_scenario_text(text)
    assert result.ok
    wire_rows = [l for l in result.observation_lines if l.startswith("0") and ",wire," in l]
    assert wire_rows, "trace on should record wire messages"
    untraced = run_scenario_text(FAST_SCENARIO)
    assert not any(",wire," in l for l in untraced.observation_lines)


def test_cli_run_exit_codes(tmp_path, capsys):
    scn = tmp_path / "quick.scn"
    scn.write_text(FAST_SCENARIO)
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 0

    failing = tmp_path / "fail.scn"
    failing.write_text(FAST_SCENARIO + "assert synced == 0\n")
    assert main(["run", str(failing)]) == 1

    malformed = tmp_path / "broken.scn"
    malformed.write_text("[script]\nexplode\n")
    assert main(["run", str(malformed)]) == 2
    assert not (tmp_path / "broken-out").exists()

    assert main(["run", str(tmp_path / "missing.scn")]) == 2
    capsys.readouterr()
    binary = tmp_path / "binary.scn"
    binary.write_bytes(b"\xff\xfe[script]\n")
    assert main(["run", str(binary)]) == 2
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 2 and all(l.startswith("cannot read scenario ") for l in lines)
    assert "Traceback" not in err

    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(scn), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"cannot write --out {taken}: ")

    # a bad api action is refused when the scenario is parsed, naming its
    # line, before any of the script runs
    for action, message in (
        ("api get_balanse alice", "unknown api call 'get_balanse'"),
        ("api get_balance alice many", "api: expected int, got 'many'"),
    ):
        text = FAST_SCENARIO + action + "\n"
        bad_api = tmp_path / "bad-api.scn"
        bad_api.write_text(text)
        assert main(["run", str(bad_api), "--out", str(tmp_path / "bad-api-out")]) == 2
        assert not (tmp_path / "bad-api-out").exists()
        captured = capsys.readouterr()
        lineno = len(text.splitlines())
        assert captured.err == f"scenario parse error: line {lineno}: {message}\n"


def test_cli_run_bad_parameters_are_scenario_errors(tmp_path, capsys):
    # invalid values found while building or running the scenario: one
    # line on stderr and the usage exit code, never a traceback
    assert main(["run", "pagination-stress", "--page-size", "0"]) == 2
    assert main(["run", "pagination-stress", "--delta", "0"]) == 2
    far_fork = tmp_path / "far-fork.scn"
    far_fork.write_text(FAST_SCENARIO.replace("mine 8\n", "mine 8\ninject-fork 99 1\n"))
    assert main(["run", str(far_fork)]) == 2
    before_genesis = tmp_path / "before-genesis.scn"
    before_genesis.write_text(FAST_SCENARIO.replace("mine 8\n", "mine 8\ninject-fork -99 1\n"))
    assert main(["run", str(before_genesis)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 4 and all(l.startswith("scenario error: ") for l in lines)
    assert "page size" in lines[0] and "delta" in lines[1]
    assert "branch height 99 outside the honest chain" in lines[2]
    assert "Traceback" not in err


def test_cli_run_bundled_by_name(capsys):
    assert main(["run", "pagination-stress"]) == 0
    out = capsys.readouterr().out
    assert "all assertions passed" in out


def test_cli_montecarlo_eclipse(capsys, tmp_path):
    out_csv = tmp_path / "mc.csv"
    rc = main(
        [
            "montecarlo",
            "eclipse",
            "--trials",
            "2000",
            "--n",
            "13",
            "--ell",
            "5",
            "--phi",
            "0.3",
            "--seed",
            "9",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "analytic" in shown and "rel-err" in shown
    rows = out_csv.read_text().splitlines()
    assert rows[0].startswith("experiment,")
    assert len(rows) == 3  # header + per-adapter + any-adapter


def test_cli_montecarlo_downtime(capsys):
    rc = main(
        ["montecarlo", "downtime", "--trials", "5000", "--n", "13", "--f", "4", "--c-star", "3"]
    )
    assert rc == 0
    assert "bound=" in capsys.readouterr().out


def test_cli_montecarlo_usage_errors(capsys, tmp_path):
    cases = [
        ["eclipse", "--trials", "0"],
        ["downtime", "--trials", "10", "--n", "12", "--f", "4"],
        ["eclipse", "--trials", "10", "--phi", "1.0"],
        ["eclipse", "--trials", "10", "--n", "0"],
        ["eclipse", "--trials", "10", "--ell", "0"],
        ["downtime", "--trials", "10", "--c-star", "0"],
        ["downtime", "--trials", "10", "--n", "0", "--f", "0"],
        ["downtime", "--trials", "10", "--f", "-1"],
    ]
    for argv in cases:
        assert main(["montecarlo", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1, argv
        assert "Traceback" not in captured.err
    # the estimates are printed before the output path fails
    assert main(["montecarlo", "eclipse", "--trials", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"cannot write --out {tmp_path}: ")


def test_cli_inspect_fixture(capsys):
    rc = main(["inspect", str(FIXTURES / "two_fork_tree.txt"), "--delta", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line for line in out.splitlines()[1:] if line.strip()}
    a1 = lines["320b6da522afde1b"]
    b1 = lines["cfd0a133b7d4b5f9"]
    assert " 2 " in a1 and "True" in a1 and a1.rstrip().endswith("*")
    assert " -2 " in b1 and "False" in b1 and not b1.rstrip().endswith("*")


def test_cli_inspect_single_node(tmp_path, capsys):
    dump = tmp_path / "one.txt"
    dump.write_text(
        "blocktree 1\n"
        "node f68ccb004cc0d921f49688292f77ec3a617f89b81daf9bb0d2f60a82559cbb9a - 0 207fffff 0\n"
    )
    assert main(["inspect", str(dump), "--delta", "1"]) == 0
    out = capsys.readouterr().out
    assert " 1 " in out


def test_cli_inspect_negative_delta_is_usage_error(capsys):
    assert main(["inspect", str(FIXTURES / "two_fork_tree.txt"), "--delta", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "delta must be non-negative"
    assert "Traceback" not in captured.err
    assert main(["inspect", str(FIXTURES / "two_fork_tree.txt"), "--delta", "0"]) == 0


def test_cli_inspect_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "absent.txt")]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["inspect", str(empty)]) == 2
    cyclic = tmp_path / "orphan.txt"
    cyclic.write_text(
        "blocktree 1\n"
        "node f68ccb004cc0d921f49688292f77ec3a617f89b81daf9bb0d2f60a82559cbb9a - 0 207fffff 0\n"
        "node 0aea736a68362a34e6e215af5e367fe5d5c0e96b0432150261bce5be06a63695 "
        "1111111111111111111111111111111111111111111111111111111111111111 1 207fffff 0\n"
    )
    assert main(["inspect", str(cyclic)]) == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfeblocktree 1\n")
    capsys.readouterr()
    assert main(["inspect", str(binary)]) == 2
    assert main(["inspect", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 2 and all(l.startswith("cannot read ") for l in lines)
    assert "Traceback" not in err


def test_cli_inspect_bits_without_a_target_is_usage_error(tmp_path, capsys):
    dump = tmp_path / "zero_bits.txt"
    dump.write_text(
        "blocktree 1\n"
        "node f68ccb004cc0d921f49688292f77ec3a617f89b81daf9bb0d2f60a82559cbb9a - 0 00000000 0\n"
    )
    assert main(["inspect", str(dump)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["bad tree dump: line 2: bad bits 00000000: zero target"]


SNAPSHOT_SCENARIO = """
name snapmaker
seed 6

[params]
n 3
f 0
ell 2
phi 0.0
peers 6
honest-interval 60
round-interval 20

[canister]
delta 3
tau 2
page-size 4

[script]
mine 4
pay alice 1500 9
mine 2
sync
snapshot snap.txt
"""


def test_cli_api_against_snapshot(tmp_path, capsys):
    from btcstate.scenario import ScenarioRunner, parse_scenario

    scenario = parse_scenario(SNAPSHOT_SCENARIO)
    runner = ScenarioRunner(scenario, out_dir=tmp_path)
    result = runner.run()
    assert result.ok
    snap = tmp_path / "snap.txt"
    assert snap.exists()
    alice = runner.address_for("alice")

    rc = main(["api", str(snap), "get_balance", alice])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(9 * 1500)

    rc = main(["api", str(snap), "get_utxos", alice])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("value=1500") == 4  # page-size from the snapshot
    assert "next-page" in out

    token = [l for l in out.splitlines() if l.startswith("next-page ")][0].split(" ", 1)[1]
    rc = main(["api", str(snap), "get_utxos", alice, "--page", token])
    assert rc == 0
    assert capsys.readouterr().out.count("value=1500") == 4

    # filter above the stability threshold is an API error: exit 1
    rc = main(["api", str(snap), "get_utxos", alice, "--min-conf", "99"])
    assert rc == 1
    capsys.readouterr()

    # send_transaction round-trip: hex of a structurally valid transaction
    from btcstate.chain import OutPoint, Transaction, TxIn, TxOut, Hash256, sha256d

    tx = Transaction(
        1,
        (TxIn(OutPoint(Hash256(sha256d(b"seed")), 0), b"s"),),
        (TxOut(1, b"\x51"),),
    )
    rc = main(["api", str(snap), "send_transaction", tx.to_bytes().hex()])
    assert rc == 0
    assert "accepted" in capsys.readouterr().out

    rc = main(["api", str(snap), "send_transaction", "deadbeef"])
    assert rc == 1

    rc = main(["api", str(tmp_path / "nope.snap"), "get_balance", alice])
    assert rc == 2

    # a snapshot whose anchor is not in its tree, or of the old version
    capsys.readouterr()
    text = snap.read_text()
    stray = "ab" * 32
    anchor_line = [l for l in text.splitlines() if l.startswith("anchor ")][0]
    (tmp_path / "stray.txt").write_text(text.replace(anchor_line, f"anchor {stray}"))
    assert main(["api", str(tmp_path / "stray.txt"), "get_balance", alice]) == 2
    (tmp_path / "v1.txt").write_text(text.replace("btcstate-snapshot 2", "btcstate-snapshot 1"))
    assert main(["api", str(tmp_path / "v1.txt"), "get_balance", alice]) == 2
    assert text.endswith("end\n")
    (tmp_path / "cut.txt").write_text(text[: -len("end\n")])
    assert main(["api", str(tmp_path / "cut.txt"), "get_balance", alice]) == 2
    assert main(["api", str(tmp_path), "get_balance", alice]) == 2
    assert main(["api", str(snap), "get_balance", alice, "--network", "foo"]) == 2
    err = capsys.readouterr().err
    assert f"bad snapshot: anchor {stray}" in err
    assert "bad snapshot: unsupported snapshot version" in err
    assert "bad snapshot: snapshot cut off before end" in err
    assert "bad snapshot: [Errno 21] Is a directory" in err
    assert "usage error: unknown network 'foo'" in err
    assert len(err.splitlines()) == 5 and "Traceback" not in err


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    """The snapshot text SNAPSHOT_SCENARIO saves, and alice's address."""
    from btcstate.scenario import ScenarioRunner

    out = tmp_path_factory.mktemp("saved")
    runner = ScenarioRunner(parse_scenario(SNAPSHOT_SCENARIO), out_dir=out)
    assert runner.run().ok
    return (out / "snap.txt").read_text().splitlines(), runner.address_for("alice")


def api_on_broken(tmp_path, capsys, address, lines) -> str:
    """Run `btcstate api get_balance` on a broken snapshot; it must be a
    usage error with no traceback. Returns the error output."""
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["api", str(path), "get_balance", address]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_cli_api_snapshot_missing_field(saved_state, tmp_path, capsys):
    lines, alice = saved_state
    lines = [line for line in lines if not line.startswith("delta ")]
    err = api_on_broken(tmp_path, capsys, alice, lines)
    assert "bad snapshot: missing delta line" in err


def test_cli_api_snapshot_short_utxo_line(saved_state, tmp_path, capsys):
    lines, alice = saved_state
    lines = list(lines)
    i = next(i for i, line in enumerate(lines) if line.startswith("utxo "))
    lines[i] = lines[i].rsplit(" ", 1)[0]
    err = api_on_broken(tmp_path, capsys, alice, lines)
    assert f"bad snapshot: line {i + 1}: bad utxo line: needs 5 fields, got 4" in err


def test_cli_api_snapshot_header_with_unknown_parent(saved_state, tmp_path, capsys):
    lines, alice = saved_state
    lines = list(lines)
    # drop the second header: the third then names a parent the file lacks
    second, third = [i for i, line in enumerate(lines) if line.startswith("header ")][1:3]
    assert third == second + 1
    del lines[second]
    err = api_on_broken(tmp_path, capsys, alice, lines)
    assert f"bad snapshot: line {second + 1}: header " in err
    assert "has unknown parent" in err


def test_cli_api_snapshot_header_with_bad_pow(saved_state, tmp_path, capsys):
    lines, alice = saved_state
    lines = list(lines)
    last = max(i for i, line in enumerate(lines) if line.startswith("header "))
    bad = header_with_bad_pow(BlockHeader.from_bytes(bytes.fromhex(lines[last].split()[1])))
    lines.insert(last + 1, f"header {bad.to_bytes().hex()}")
    err = api_on_broken(tmp_path, capsys, alice, lines)
    assert f"bad snapshot: line {last + 2}: bad header {bad.hash().rev_hex()}: bad-pow: " in err
