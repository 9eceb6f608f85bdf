"""Command-line driver: exit codes, config handling, output files."""

import builtins
import configparser
import csv
import dataclasses
import inspect
import io
import os
import subprocess
import sys

import pytest

from shardsim.analysis import (
    IteratedBinsResult,
    StaticBinsResult,
    bound_table,
    mc_iterated_lazy,
    mc_static_failure_rate,
)
from shardsim.cli import (
    _BINS_MODES,
    EXIT_BREACH,
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    BinsConfig,
    main,
)
from shardsim.membership import golden_vector_text
from shardsim.simulation import DEFAULT_GENESIS_SEED

TIGHT_INI = """\
[run]
n = 40
seed = 7
rounds = 120

[workload]
initial_balance = 150
max_amount = 100
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _summary(path):
    return {key: value for key, value in _rows(path)[1:]}


# -- simulate -----------------------------------------------------------------


def test_simulate_minimal(tmp_path):
    cfg = _write(tmp_path, "[run]\nn = 40\nm = 2\nrounds = 10\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK

    rounds = _rows(out / "rounds.csv")
    assert rounds[0] == [
        "round", "shard", "members", "certified", "byzantine",
        "sub_block_size", "status",
    ]
    assert len(rounds) == 1 + 10 * 2
    assert all(row[6] == "ok" for row in rounds[1:])

    assert _rows(out / "breaches.csv") == [["round", "shard", "kind", "detail"]]

    summary = _summary(out / "summary.csv")
    assert summary["rounds_completed"] == "10"
    assert summary["halted_round"] == ""
    assert int(summary["admitted_txs"]) > 0
    assert "local_state_fraction_shard_1" in summary
    assert "local_state_fraction_shard_2" in summary

    echo = configparser.ConfigParser()
    echo.read(out / "effective_config.ini")
    assert echo["run"]["n"] == "40"
    assert echo["run"]["sync"] == "eager"
    assert echo["run"]["negative_mode"] == "none"
    assert echo["monitor"]["self_containment_samples"] == "0"
    assert echo["membership"]["genesis_seed"] == DEFAULT_GENESIS_SEED.hex()


def test_simulate_without_config_uses_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), "--rounds", "3"]) == EXIT_OK
    assert len(_rows(out / "rounds.csv")) == 1 + 3 * 2


def test_simulate_lazy_monitor_echo(tmp_path):
    cfg = _write(tmp_path, "[run]\nsync = lazy\nt_lease = 3\nrounds = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    echo = configparser.ConfigParser()
    echo.read(out / "effective_config.ini")
    assert echo["monitor"]["self_containment_samples"] == "20"


def test_simulate_overrides_win(tmp_path):
    cfg = _write(tmp_path, "[run]\nseed = 3\nrounds = 50\n")
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--seed", "99", "--rounds", "2"]
    )
    assert code == EXIT_OK
    echo = configparser.ConfigParser()
    echo.read(out / "effective_config.ini")
    assert echo["run"]["seed"] == "99"
    assert echo["run"]["rounds"] == "2"
    assert len(_rows(out / "rounds.csv")) == 1 + 2 * 2


def test_simulate_is_replayable(tmp_path):
    cfg = _write(tmp_path, "[run]\nn = 30\nm = 4\nrounds = 5\nseed = 13\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("rounds.csv", "summary.csv", "effective_config.ini"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_breach_exit(tmp_path):
    cfg = _write(
        tmp_path, TIGHT_INI.replace("[run]\n", "[run]\nsync = lazy\nt_lease = 3\n")
    )
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", cfg, "--out", str(out), "--negative-mode", "broken-sync"]
    )
    assert code == EXIT_BREACH
    breaches = _rows(out / "breaches.csv")
    assert len(breaches) > 1
    assert any(row[2] == "self-containment" for row in breaches[1:])
    assert _summary(out / "summary.csv")["halted_round"] != ""


def test_simulate_colliding_adversary_blocks_is_a_breach(tmp_path, capsys):
    # Two shards compromised in round 1 both mint ds-r000001a and -b.
    cfg = _write(
        tmp_path,
        "[run]\nn = 40\nm = 4\nrounds = 20\nseed = 0\n"
        "byzantine_fraction = 0.5\nadversary = double-spend\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_BREACH
    kinds = {row[2] for row in _rows(out / "breaches.csv")[1:]}
    assert {"honest-majority", "global-admissibility"} <= kinds
    assert len(_rows(out / "rounds.csv")) == 1 + 4
    assert _summary(out / "summary.csv")["halted_round"] == "1"
    assert "halted at round 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "[run]\nwarp = 9\n",            # unknown key
        "[propulsion]\nn = 4\n",        # unknown section
        "[run]\nn = a lot\n",           # uncastable value
        "[run]\nsync = gossip\n",       # rejected by validation
        "[run]\nsync = eager\nt_lease = 4\n",
        "[membership]\ngenesis_seed = not-hex\n",
        # t_takeover is not a [run] key: the simulator plays no adaptive adversary.
        "[run]\nadversary = adaptive-greedy\nt_takeover = 3\nt_lease = 5\nsync = lazy\n",
        "[run]\nadversary = adaptive-greedy\nt_lease = 5\nsync = lazy\n",
        "[run]\nn = 1\n",
        "[run]\nn = 2\nadversary = double-spend\nbyzantine_fraction = 0.5\n",
    ],
)
def test_simulate_config_rejection(tmp_path, text, capsys):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_percent_sign_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\nadversary = 5%\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.ini"
    cfg.write_bytes(b"# caf\xe9\n[run]\nn = 40\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: cannot parse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[DEFAULT]\nwarp = 9\n", "[DEFAULT]\nm = 4\n[run]\n"])
def test_default_section_is_a_config_error(tmp_path, capsys, text):
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "[DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "recorded, flag, expect",
    [
        ("broken-sync", None, EXIT_CONFIG),
        ("none", "broken-sync", EXIT_CONFIG),
        ("broken-sync", "broken-sync", EXIT_BREACH),
        ("none", None, EXIT_OK),
    ],
)
def test_negative_mode_in_file_only_records_the_flag(tmp_path, recorded, flag, expect):
    cfg = _write(
        tmp_path,
        f"[run]\nsync = lazy\nt_lease = 3\nrounds = 20\nnegative_mode = {recorded}\n",
    )
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
    if flag is not None:
        argv += ["--negative-mode", flag]
    assert main(argv) == expect


@pytest.mark.parametrize("command", ["simulate", "oracle-compare", "bins-mc"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(tmp_path / "absent.ini"), "--out", str(out)]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    ("case", "message"),
    [
        ("missing", "does not exist"),
        ("directory", "does not exist"),
        ("unreadable", "Permission denied"),
    ],
)
def test_unusable_config_file_is_a_config_error(tmp_path, monkeypatch, capsys, case, message):
    path = tmp_path / "run.ini"
    if case == "directory":
        path.mkdir()
    elif case == "unreadable":
        # chmod cannot deny root a read, so refuse the open itself, under
        # both of its names, whichever one the reader calls.
        path.write_text("[run]\nm = 4\nrounds = 3\n")
        real_open = io.open

        def deny(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", deny)
        monkeypatch.setattr(io, "open", deny)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize(
    "command", ["simulate", "oracle-compare", "bins-mc", "bound-table", "golden-vectors"]
)
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "out" if below else taken
    assert main([command, "--out", str(out)]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert "config error: cannot make output directory" in printed.err
    # Rejected before any run: bins-mc prints no Monte Carlo summary.
    assert printed.out == ""
    assert taken.read_text() == "keep"


# -- oracle-compare -----------------------------------------------------------


def test_oracle_compare_honest_match(tmp_path):
    cfg = _write(tmp_path, "[run]\nn = 40\nm = 4\nrounds = 5\nseed = 1\n")
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _rows(out / "compare.csv")
    assert rows[0] == ["round", "sharded_txs", "oracle_txs", "equal"]
    assert len(rows) == 1 + 6  # genesis plus five rounds
    assert all(row[3] == "True" for row in rows[1:])
    assert all(row[1] == row[2] for row in rows[1:])


def test_oracle_compare_divergence(tmp_path, capsys):
    cfg = _write(tmp_path, TIGHT_INI)
    out = tmp_path / "out"
    code = main(
        [
            "oracle-compare", "--config", cfg, "--out", str(out),
            "--negative-mode", "conflict-partition",
        ]
    )
    assert code == EXIT_MISMATCH
    rows = _rows(out / "compare.csv")
    assert rows[1][3] == "True"   # genesis agrees
    assert rows[2][3] == "False"  # first played round diverges
    # Every committee is seated, so the line names no empty shard.
    assert capsys.readouterr().out.endswith(" only oracle\n")


def test_oracle_compare_breach_exit(tmp_path, capsys):
    cfg = _write(
        tmp_path, TIGHT_INI.replace("[run]\n", "[run]\nm = 3\nsync = lazy\nt_lease = 3\n")
    )
    out = tmp_path / "out"
    code = main(
        ["oracle-compare", "--config", cfg, "--out", str(out), "--negative-mode", "broken-sync"]
    )
    assert code == EXIT_BREACH
    assert capsys.readouterr().out.startswith("halted at round 1: self-containment (shard 1): ")


EMPTY_COMMITTEE_INI = """\
[run]
n = 15
m = 8
rounds = 5
seed = 254825

[workload]
tx_rate = 31
max_amount = 33
initial_balance = 23
"""


def test_empty_committee_is_reported_not_halted(tmp_path, capsys):
    # Shard 6 seats no certified member in round 2: its pending transactions
    # are dropped, so the run diverges from the oracle without a breach.
    cfg = _write(tmp_path, EMPTY_COMMITTEE_INI)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "completed 5 rounds, 49 transactions admitted\n"
    rounds = _rows(out / "rounds.csv")[1:]
    assert ["2", "6", "0", "0", "0", "0", "no-committee"] in rounds
    assert all((row[3] == "0") == (row[6] == "no-committee") for row in rounds)
    assert _summary(out / "summary.csv")["halted_round"] == ""

    out = tmp_path / "cmp"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == EXIT_MISMATCH
    line = capsys.readouterr().out
    assert line.startswith("mismatch at round 2: [] only sharded, ")
    assert line.endswith(" only oracle; no committee in shards [6]\n")


def test_oracle_compare_rejects_adversarial_config(tmp_path):
    cfg = _write(tmp_path, "[run]\nbyzantine_fraction = 0.2\nadversary = double-spend\n")
    out = tmp_path / "out"
    code = main(["oracle-compare", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


# -- bins-mc ------------------------------------------------------------------


def test_bins_mc_static_matches_library(tmp_path):
    cfg = _write(
        tmp_path,
        "[bins]\nmode = static\nn = 400\nm = 4\ntrials = 2000\nseed = 5\n",
    )
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _rows(out / "stats.csv")
    res = mc_static_failure_rate(400, 4, 0.25, 2000, 5)
    got = dict(zip(rows[0], rows[1]))
    assert int(got["failures"]) == res.failures
    assert float(got["rate"]) == pytest.approx(res.rate)
    assert float(got["wilson_high"]) == pytest.approx(res.wilson_high)
    assert float(got["analytic_bound"]) == pytest.approx(res.analytic_bound)


def test_bins_mc_iterated_matches_library(tmp_path):
    cfg = _write(
        tmp_path,
        "[bins]\nmode = iterated\nn = 400\nm = 4\nt_lease = 5\n"
        "rounds = 500\nstrategy = static\nseed = 6\n",
    )
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    res = mc_iterated_lazy(400, 4, 5, 500, strategy="static", seed=6, stats_every=1)
    stats = dict(zip(*_rows(out / "stats.csv")[:2]))
    assert int(stats["failures"]) == res.failures
    assert stats["strategy"] == "static"
    failures = _rows(out / "failures.csv")
    assert failures[0] == ["round"]
    assert [int(row[0]) for row in failures[1:]] == res.failure_rounds


def test_bins_mc_adaptive(tmp_path):
    cfg = _write(
        tmp_path,
        "[bins]\nmode = iterated\nn = 400\nm = 4\nt_lease = 5\nrounds = 200\n"
        "strategy = adaptive-greedy\nt_takeover = 5\nseed = 7\n",
    )
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stats = dict(zip(*_rows(out / "stats.csv")[:2]))
    assert int(stats["attacks_launched"]) > 0
    assert int(stats["peak_capacity_used"]) == int(stats["capacity"])


def test_bins_modes_read_their_functions_arguments(tmp_path):
    # A mode's [bins] keys are its function's arguments, and the two modes'
    # keys with `mode` are the whole config.
    read = {"mode"}
    for function, keys in _BINS_MODES.values():
        assert set(keys) <= set(inspect.signature(function).parameters)
        read |= set(keys)
    assert read == {f.name for f in dataclasses.fields(BinsConfig)}
    # stats.csv holds the result's fields; only `failures` is not one of them.
    extra = set()
    for mode, result in (("static", StaticBinsResult), ("iterated", IteratedBinsResult)):
        cfg = _write(tmp_path, f"[bins]\nmode = {mode}\nn = 100\n", name=f"{mode}.ini")
        out = tmp_path / mode
        assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_OK
        extra |= set(_rows(out / "stats.csv")[0]) - {f.name for f in dataclasses.fields(result)}
    assert extra == {"failures"}


def test_bins_mc_static_rejects_rounds(tmp_path):
    out = tmp_path / "out"
    assert main(["bins-mc", "--out", str(out), "--rounds", "5"]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "mode = static\ntrials = 10\nrounds = 5\n",
        "mode = static\ntrials = 10\nstrategy = adaptive-greedy\n",
        "mode = iterated\nrounds = 20\ntrials = 7\n",
    ],
    ids=["static-rounds", "static-strategy", "iterated-trials"],
)
def test_bins_mc_rejects_keys_of_the_other_mode(tmp_path, text, capsys):
    cfg = _write(tmp_path, "[bins]\nn = 100\nm = 4\n" + text)
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "does not apply to" in capsys.readouterr().err
    assert not out.exists()


def test_bins_mc_bad_mode(tmp_path):
    cfg = _write(tmp_path, "[bins]\nmode = quantum\n")
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_bins_mc_adaptive_needs_takeover(tmp_path):
    cfg = _write(
        tmp_path,
        "[bins]\nmode = iterated\nstrategy = adaptive-greedy\nrounds = 50\n",
    )
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ("strategy = adaptive-greedy\nt_takeover = 10\nattack_size = 0\n", "attack_size"),
        ("strategy = adaptive-greedy\nt_takeover = 10\nattack_size = -3\n", "attack_size"),
        ("strategy = adaptive-greedy\nt_takeover = 0\n", "t_takeover"),
        ("strategy = adaptive-greedy\nt_takeover = -2\n", "t_takeover"),
        ("red_fraction = -0.1\n", "red_fraction"),
        ("red_fraction = 1.0\n", "red_fraction"),
        ("n = 0\n", "must be positive"),
        ("m = 0\n", "must be positive"),
        ("strategy = static\nt_takeover = 5\nattack_size = 3\n", "adaptive strategies only"),
        ("strategy = none\nattack_size = 3\n", "adaptive strategies only"),
        ("seed = -1\n", "seed must be non-negative"),
    ],
    ids=[
        "attack_size=0", "attack_size=-3", "t_takeover=0", "t_takeover=-2",
        "red_fraction=-0.1", "red_fraction=1", "n=0", "m=0",
        "static-takeover-keys", "none-attack_size", "seed=-1",
    ],
)
def test_bins_mc_iterated_rejects_bad_values(tmp_path, bad, message, capsys):
    cfg = _write(tmp_path, "[bins]\nmode = iterated\nrounds = 20\n" + bad)
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_bins_mc_static_rejects_bad_fraction(tmp_path):
    cfg = _write(tmp_path, "[bins]\nmode = static\nn = 100\nred_fraction = -0.1\n")
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ("trials = 0", "must be positive"),
        ("m = 0", "must be positive"),
        ("n = 0", "must be positive"),
        ("seed = -1", "seed must be non-negative"),
    ],
    ids=["trials = 0", "m = 0", "n = 0", "seed = -1"],
)
def test_bins_mc_static_rejects_nonpositive(tmp_path, bad, message, capsys):
    cfg = _write(tmp_path, f"[bins]\nmode = static\n{bad}\n")
    out = tmp_path / "out"
    assert main(["bins-mc", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


# -- bound-table --------------------------------------------------------------


def test_bound_table_default_rows(tmp_path):
    out = tmp_path / "out"
    assert main(["bound-table", "--out", str(out)]) == EXIT_OK
    rows = _rows(out / "bounds.csv")
    table = bound_table([(150_000_000, 10_000), (7_000_000, 700), (6000, 4)])
    assert rows[0] == list(table[0].keys())
    assert len(rows) == 1 + 3
    for row, expect in zip(rows[1:], table):
        assert int(row[0]) == expect["n"]
        assert int(row[1]) == expect["m"]
        got = dict(zip(rows[0], row))
        assert float(got["log10_per_round"]) == pytest.approx(
            expect["log10_per_round"], rel=1e-9
        )


def test_bound_table_custom_rows(tmp_path):
    cfg = _write(tmp_path, "[table]\nrows = 6000:4, 2000:2\n")
    out = tmp_path / "out"
    assert main(["bound-table", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = _rows(out / "bounds.csv")
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(6000, 4), (2000, 2)]


def test_bound_table_skips_blank_items(tmp_path):
    cfg = _write(tmp_path, "[table]\nrows = 6000:4,\n")
    out = tmp_path / "out"
    assert main(["bound-table", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert [(int(r[0]), int(r[1])) for r in _rows(out / "bounds.csv")[1:]] == [(6000, 4)]


def test_bound_table_needs_a_row(tmp_path, capsys):
    cfg = _write(tmp_path, "[table]\nrows = ,\n")
    out = tmp_path / "out"
    assert main(["bound-table", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "bound table needs at least one n:m row" in capsys.readouterr().err
    assert not out.exists()


def test_bound_table_bad_rows(tmp_path):
    cfg = _write(tmp_path, "[table]\nrows = 6000x4\n")
    out = tmp_path / "out"
    assert main(["bound-table", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("rows", ["0:4", "6000:0", "6000:4, -1:2"])
def test_bound_table_rejects_nonpositive_rows(tmp_path, rows, capsys):
    cfg = _write(tmp_path, f"[table]\nrows = {rows}\n")
    out = tmp_path / "out"
    assert main(["bound-table", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


# -- golden-vectors -----------------------------------------------------------


def test_golden_vectors_output(tmp_path):
    cfg = _write(tmp_path, "[vectors]\nm = 4\nt_lease = 5\nnum_keys = 8\nrounds = 10\n")
    out = tmp_path / "out"
    assert main(["golden-vectors", "--config", cfg, "--out", str(out)]) == EXIT_OK
    expect = golden_vector_text(
        DEFAULT_GENESIS_SEED, [f"k{i:02d}" for i in range(8)], 4, 5, 10
    )
    assert (out / "vectors.txt").read_text() == expect


def test_golden_vectors_rounds_flag(tmp_path):
    cfg = _write(tmp_path, "[vectors]\nnum_keys = 3\nrounds = 7\n")
    out = tmp_path / "out"
    code = main(["golden-vectors", "--config", cfg, "--out", str(out), "--rounds", "2"])
    assert code == EXIT_OK
    expect = golden_vector_text(DEFAULT_GENESIS_SEED, ["k00", "k01", "k02"], 4, 5, 2)
    assert (out / "vectors.txt").read_text() == expect


def test_golden_vectors_rejects_nonpositive(tmp_path):
    cfg = _write(tmp_path, "[vectors]\nm = 0\n")
    out = tmp_path / "out"
    assert main(["golden-vectors", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


# -- flags and replay ---------------------------------------------------------


@pytest.mark.parametrize(
    "command, flag",
    [
        ("bins-mc", "--negative-mode"),
        ("bound-table", "--seed"),
        ("bound-table", "--rounds"),
        ("bound-table", "--negative-mode"),
        ("golden-vectors", "--seed"),
        ("golden-vectors", "--negative-mode"),
    ],
)
def test_unused_flags_are_usage_errors(tmp_path, command, flag):
    value = "broken-sync" if flag == "--negative-mode" else "3"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "out"), flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text, flags, replay_flags",
    [
        (
            "simulate",
            "[run]\nn = 30\nm = 4\nrounds = 50\n",
            ["--seed", "13", "--rounds", "5"],
            [],
        ),
        (
            "simulate",
            TIGHT_INI.replace("[run]\n", "[run]\nsync = lazy\nt_lease = 3\n"),
            ["--negative-mode", "broken-sync"],
            ["--negative-mode", "broken-sync"],
        ),
        ("oracle-compare", "[run]\nn = 40\nm = 4\nrounds = 5\nseed = 1\n", [], []),
        ("bins-mc", "[bins]\nn = 400\ntrials = 500\nseed = 5\n", [], []),
        (
            "bins-mc",
            "[bins]\nmode = iterated\nn = 400\nt_lease = 5\nstrategy = adaptive-greedy\n"
            "t_takeover = 5\n",
            ["--seed", "7", "--rounds", "200"],
            [],
        ),
        ("bound-table", "[table]\nrows = 6000:4, 2000:2\n", [], []),
        ("golden-vectors", "[vectors]\nt_lease = 3\nnum_keys = 4\n", [], []),
    ],
    ids=[
        "simulate",
        "simulate-broken-sync",
        "oracle-compare",
        "bins-mc-static",
        "bins-mc-iterated",
        "bound-table",
        "golden-vectors",
    ],
)
def test_effective_config_replays(tmp_path, command, text, flags, replay_flags):
    first, again = tmp_path / "first", tmp_path / "again"
    code = main([command, "--config", _write(tmp_path, text), "--out", str(first), *flags])
    echo = str(first / "effective_config.ini")
    replay = main([command, "--config", echo, "--out", str(again), *replay_flags])
    assert replay == code
    names = sorted(path.name for path in first.iterdir())
    assert "effective_config.ini" in names
    assert sorted(path.name for path in again.iterdir()) == names
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


# -- process-level entry ------------------------------------------------------


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "shardsim.cli",
            "simulate", "--out", str(out), "--rounds", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "completed 2 rounds" in proc.stdout
    assert (out / "rounds.csv").is_file()


@pytest.mark.parametrize(
    "text, code",
    [
        (
            TIGHT_INI.replace("[run]\n", "[run]\nm = 4\n").replace("rounds = 120", "rounds = 15"),
            EXIT_OK,
        ),
        (
            TIGHT_INI.replace("[run]\n", "[run]\nm = 3\nsync = lazy\nt_lease = 3\n").replace(
                "rounds = 120", "rounds = 15"
            ),
            EXIT_OK,
        ),
        (
            "[run]\nn = 40\nm = 4\nrounds = 20\nseed = 0\n"
            "byzantine_fraction = 0.5\nadversary = double-spend\n",
            EXIT_BREACH,
        ),
    ],
    ids=["eager", "lazy", "colliding-double-spend"],
)
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, text, code):
    # Sets of transactions iterate in hash order, and str hashes follow
    # PYTHONHASHSEED; no output may depend on that order. In the colliding
    # double-spend run, two shards mint versions of one id, and the
    # published block and each shard's support keep one version per id.
    cfg = _write(tmp_path, text)
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"seed{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "shardsim.cli", "simulate", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == code, proc.stderr
        outs.append(out)
    names = sorted(path.name for path in outs[0].iterdir())
    assert "rounds.csv" in names
    assert sorted(path.name for path in outs[1].iterdir()) == names
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name
