"""The benchmark's workloads and what each per-layer metric should move.

Every workload runs in its own process as a sequence of identical episodes:
one episode is one ``Simulation(cfg).run()`` (or one ``mc_iterated_lazy``
call) of ``episode_rounds`` rounds, replayed until the time budget is spent.
Rates are therefore a property of the episode length, not of how many
episodes fit into a run, and the lazy workload's quadratic growth
over history shows the same way in every run.

Why each workload was chosen is in ``BENCHMARK.json``; the comments below
add the cProfile shares (200 rounds) behind that choice.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim": Simulation vs the unsharded oracle; "bins": mc_iterated_lazy
    params: dict  # RunConfig fields or mc_iterated_lazy arguments, minus seed and rounds
    episode_rounds: int
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Every key re-draws every round, so membership does ~75% of the work
        # (end_of_round ~50%, verify_member ~21%); the sampler is off.
        Workload(
            "eager-light",
            "sim",
            dict(n=400, m=8, sync="eager", t_lease=1, tx_rate=20),
            episode_rounds=100,
            stresses=("membership", "keys", "crypto"),
            bypasses=("simulation.sampler", "adversary", "analysis"),
        ),
        # About one payment per key per round: ledger, sync and workload do
        # ~60% and membership ~20%. The only workload where transaction volume
        # dominates, so the only one where a ledger or sync change can show.
        Workload(
            "eager-heavy",
            "sim",
            dict(n=400, m=8, sync="eager", t_lease=1, tx_rate=400),
            episode_rounds=25,
            stresses=("ledger", "sync", "workload", "partition"),
            bypasses=("simulation.sampler", "adversary", "analysis"),
        ),
        # Settings of acceptance criteria 2 and 5. The self-containment sampler
        # (~58% at 200 rounds) rescans all own history, so round time grows
        # with rounds; episodes are long enough for that to show. A fifth of
        # the keys re-draw per round.
        Workload(
            "lazy-lease5",
            "sim",
            dict(n=400, m=4, sync="lazy", t_lease=5, tx_rate=20),
            episode_rounds=200,
            stresses=("simulation.sampler", "ledger.verify", "sync"),
            bypasses=("adversary", "analysis"),
        ),
        # Settings of acceptance criterion 10. An attack launches every round,
        # so adversary does ~70% and the failure check ~21%; no protocol layer
        # runs, and no simulation workload reaches adversary or analysis.
        Workload(
            "bins-adaptive",
            "bins",
            dict(
                n=2000, m=4, t_lease=10, strategy="adaptive-greedy", t_takeover=10
            ),
            episode_rounds=5000,
            stresses=("adversary", "analysis"),
            bypasses=(
                "workload",
                "partition",
                "membership",
                "ledger",
                "sync",
                "simulation",
                "keys",
                "crypto",
            ),
        ),
    )
}

SIM_WORKLOADS = tuple(name for name, w in WORKLOADS.items() if w.kind == "sim")

# Per-layer metric -> (end-to-end metrics it should move, workloads it should
# move them on). Workloads not named should not move, or move less.
LAYER_MAP = {
    **dict.fromkeys(
        (
            "membership.end_of_round.ms",
            "membership.verify_member.ms",
            "membership.verify_member.calls",
            "membership.redrawn",
            "membership.certified_ratio",
        ),
        (("rounds_per_s",), ("eager-light",)),
    ),
    **dict.fromkeys(
        (
            "keys.sign.calls",
            "keys.verify.calls",
            "keys.position_of.calls",
            "crypto.sha256.calls",
        ),
        (("rounds_per_s",), ("eager-light",)),
    ),
    **dict.fromkeys(
        (
            "simulation.sampler.ms",
            "simulation.sampler.candidates",
            "ledger.verify.sampler.ms",
        ),
        (("rounds_per_s",), ("lazy-lease5",)),
    ),
    **dict.fromkeys(
        (
            "ledger.greedy.ms",
            "ledger.greedy.admit_ratio",
            "ledger.verify.legality.ms",
            "ledger.verify.global.ms",
            "ledger.append.ms",
            "sync.collect.ms",
            "workload.round_transactions.ms",
            "workload.txs",
            "partition.routed_txs",
        ),
        (("rounds_per_s",), ("eager-heavy",)),
    ),
    "ledger.applied_txs": (("rounds_per_s", "peak_rss_mb"), ("eager-heavy",)),
    # Shipped support on lazy-lease5 is the 2/m - 1/m^2 storage advantage.
    "sync.shipped_txs": (("rounds_per_s",), ("eager-heavy", "lazy-lease5")),
    **dict.fromkeys(
        ("simulation.round.self_ms", "simulation.oracle.ms"),
        (("rounds_per_s",), SIM_WORKLOADS),
    ),
    **dict.fromkeys(
        ("membership.init.ms", "workload.genesis.ms"),
        (("setup_s",), SIM_WORKLOADS),
    ),
    **dict.fromkeys(
        (
            "adversary.plan_attack.us",
            "adversary.launch.us",
            "adversary.complete_due.us",
            "adversary.attacks_launched",
            "adversary.attacks_completed",
            "analysis.step.self_us",
        ),
        (("rounds_per_s",), ("bins-adaptive",)),
    ),
}
