"""Golden outputs of the command line and of the benchmark's simulation episodes.

A fixed grid of CLI runs, made in-process through ``cli.main``, is pinned by
the SHA-256 of every file each run writes, its standard output and its exit
code. The benchmark's three simulation workloads are pinned by the digest
its correctness gate takes of one episode (global blocks, round records and
local fractions) at two seeds. ``simulate`` writes no transaction ids, so
the ``oracle-compare`` mismatch line and the benchmark digests are what see
a change to which transactions a block holds.

A change that is meant to move an output regenerates the data file and
names the changed entries; the script prints each entry that moved against
the committed file (an added or dropped entry counts as moved) and how many
stayed the same:

    PYTHONPATH=src python tests/test_outputs_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import shardsim
from shardsim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "outputs_golden.json"

TIGHT_INI = """\
[run]
n = 40
seed = 7
rounds = 120

[workload]
initial_balance = 150
max_amount = 100
"""

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

# name -> (subcommand, config text or None for the defaults, extra flags)
CLI_RUNS = {
    "simulate-default": ("simulate", None, []),
    "simulate-lazy": (
        "simulate", "[run]\nn = 60\nm = 4\nsync = lazy\nt_lease = 3\nrounds = 30\n", []
    ),
    "simulate-broken-sync": (
        "simulate",
        TIGHT_INI.replace("[run]\n", "[run]\nsync = lazy\nt_lease = 3\n"),
        ["--negative-mode", "broken-sync"],
    ),
    # Seed 9 halts at round 3 under the sampler's batched draws and halted
    # at round 4 under its former scalar ones, so this entry sees the order
    # in which the sampler reads the monitor stream.
    "simulate-broken-sync-seed9": (
        "simulate",
        TIGHT_INI.replace("[run]\n", "[run]\nsync = lazy\nt_lease = 3\n").replace(
            "seed = 7", "seed = 9"
        ),
        ["--negative-mode", "broken-sync"],
    ),
    "simulate-conflict-partition": (
        "simulate",
        TIGHT_INI.replace("[run]\n", "[run]\nm = 2\n"),
        ["--negative-mode", "conflict-partition"],
    ),
    "simulate-colliding-double-spend": (
        "simulate",
        "[run]\nn = 40\nm = 4\nrounds = 20\nseed = 0\n"
        "byzantine_fraction = 0.5\nadversary = double-spend\n",
        [],
    ),
    "simulate-empty-committee": ("simulate", EMPTY_COMMITTEE_INI, []),
    "oracle-compare-match": ("oracle-compare", "[run]\nn = 40\nm = 4\nrounds = 5\nseed = 1\n", []),
    "oracle-compare-empty-committee": ("oracle-compare", EMPTY_COMMITTEE_INI, []),
    "bins-mc-static": ("bins-mc", "[bins]\nmode = static\nn = 400\ntrials = 2000\nseed = 5\n", []),
    "bins-mc-iterated-adaptive": (
        "bins-mc",
        "[bins]\nmode = iterated\nn = 400\nm = 4\nt_lease = 5\nrounds = 500\n"
        "strategy = adaptive-greedy\nt_takeover = 5\nseed = 7\n",
        [],
    ),
    "bound-table": ("bound-table", None, []),
    "golden-vectors": ("golden-vectors", None, []),
}

# bins-adaptive is left out: its episode has no failing round, capture or
# stats round, so its digest is the same at every seed.
BENCH_RUNS = [
    (name, seed)
    for name in ("eager-light", "eager-heavy", "lazy-lease5")
    for seed in (300, 20191)
]


def record_cli(name: str) -> dict:
    """Exit code, standard output and the SHA-256 of each output file of one run."""
    command, text, flags = CLI_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--out", str(out), *flags]
        if text is not None:
            config = Path(tmp) / "config.ini"
            config.write_text(text)
            argv += ["--config", str(config)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        files = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }
        printed = stdout.getvalue().replace(str(out), "<out>")
        return {"exit": code, "stdout": printed, "files": files}


def record_bench(name: str, seed: int) -> str:
    """The benchmark gate's digest of one episode of workload ``name``."""
    bench = run.SimBench(shardsim, WORKLOADS[name], seed)
    bench.episode()
    (digest,) = bench.gate.digests
    return digest


def _bench_key(name: str, seed: int) -> str:
    return f"{name}/{seed}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_outputs_match_golden(golden, name):
    assert record_cli(name) == golden["cli"][name]


@pytest.mark.parametrize("name, seed", BENCH_RUNS, ids=[_bench_key(*r) for r in BENCH_RUNS])
def test_bench_digests_match_golden(golden, name, seed):
    assert record_bench(name, seed) == golden["bench"][_bench_key(name, seed)]


if __name__ == "__main__":
    data = {
        "cli": {name: record_cli(name) for name in CLI_RUNS},
        "bench": {_bench_key(name, seed): record_bench(name, seed) for name, seed in BENCH_RUNS},
    }
    before = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = [
        (group, key)
        for group in data
        for key in sorted({*data[group], *before.get(group, {})})
    ]
    moved = [
        f"{group}/{key}"
        for group, key in names
        if data[group].get(key) != before.get(group, {}).get(key)
    ]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data['cli'])} CLI runs and {len(data['bench'])} digests to {GOLDEN}")
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(moved)} entries moved, {len(names) - len(moved)} unchanged")
