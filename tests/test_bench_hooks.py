"""The benchmark's hooks into the package still attach.

``perfbench/tracer.py`` wraps functions and methods of ``shardsim`` by
name, and ``perfbench/run.py`` gates each episode on result attributes.
A rename in ``src/`` would otherwise surface only in the slow
``python3 -m pytest perfbench``; this runs both on a few rounds.
"""

import sys
from pathlib import Path

import pytest

import shardsim
from shardsim.analysis import mc_iterated_lazy
from shardsim.simulation import RunConfig, Simulation, run_unsharded_oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from tracer import Stats, Tracer, install_bins, install_simulation  # noqa: E402

SIM_SPANS = {
    "simulation.round",
    "simulation.sampler",
    "simulation.oracle",
    "membership.verify_member",
    "membership.end_of_round",
    "ledger.greedy",
    "ledger.verify.legality",
    "ledger.verify.global",
    "ledger.verify.sampler",
    "ledger.append",
    "sync.collect",
    "workload.round_transactions",
}
SIM_COUNTS = {
    "membership.participations",
    "membership.certified",
    "membership.redrawn",
    "simulation.sampler.candidates",
    "ledger.greedy.pool",
    "ledger.greedy.admitted",
    "ledger.applied_txs",
    "sync.shipped_txs",
    "workload.txs",
}
SIM_TALLIES = {
    "partition.routed_txs",
    "keys.sign.calls",
    "keys.verify.calls",
    "keys.position_of.calls",
    "crypto.sha256.calls",
}
# The self-containment sampler runs only under lazy sync.
SAMPLER_NAMES = {
    "simulation.sampler",
    "ledger.verify.sampler",
    "simulation.sampler.candidates",
}
BINS_SPANS = {
    "analysis.run",
    "adversary.plan_attack",
    "adversary.launch",
    "adversary.complete_due",
}


def _seen(counter, names):
    return {name for name in names if counter[name] > 0}


@pytest.mark.parametrize("sync,t_lease", [("eager", 1), ("lazy", 2)], ids=["eager", "lazy"])
def test_simulation_hooks_attach_and_gate_passes(sync, t_lease):
    cfg = RunConfig(n=40, m=2, rounds=3, sync=sync, t_lease=t_lease)
    dropped = set() if sync == "lazy" else SAMPLER_NAMES
    setup, rounds = Stats(), Stats()
    with Tracer() as tracer:
        current = install_simulation(tracer)
        tracer.stats = setup
        sim = Simulation(cfg)
        current["global_ctx"] = sim.global_ctx
        tracer.stats = rounds
        res = sim.run()
        oracle = tracer.leaf("simulation.oracle", run_unsharded_oracle, cfg)
        tracer.stats = None
        tallies = tracer.tally_values()
    assert setup.calls["membership.init"] == setup.calls["workload.genesis"] == 1
    assert _seen(rounds.calls, SIM_SPANS) == SIM_SPANS - dropped
    assert _seen(rounds.counts, SIM_COUNTS) == SIM_COUNTS - dropped
    assert _seen(tallies, SIM_TALLIES) == SIM_TALLIES
    gate = run.Gate()
    run.check_sim(shardsim, cfg, res, oracle, gate)
    assert gate.correct, gate.problems


def test_bins_hooks_attach_and_gate_passes():
    kwargs = dict(
        n=400, m=4, t_lease=5, rounds=50, strategy="adaptive-greedy", t_takeover=5, seed=1
    )
    stats = Stats()
    with Tracer() as tracer:
        install_bins(tracer)
        tracer.stats = stats
        res = stats.call("analysis.run", mc_iterated_lazy, (), kwargs)
        tracer.stats = None
    assert _seen(stats.calls, BINS_SPANS) == BINS_SPANS
    assert res.attacks_completed > 0
    gate = run.Gate()
    run.check_bins(res, gate)
    assert gate.correct, gate.problems
