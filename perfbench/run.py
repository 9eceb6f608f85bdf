#!/usr/bin/env python3
"""shardsim benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload eager-light --seed 1 --seconds 25 --trace 0

The program under test is the shardsim package under ``src/`` of the same
checkout, driven through its public API (``Simulation``,
``run_unsharded_oracle``, ``mc_iterated_lazy``) in this one process, with no
threads or worker pools. Workloads are defined in ``workloads.py``; metric
names and units in ``BENCHMARK.json`` at the checkout root.

End to end: ``rounds_per_s`` is rounds per host second over all measured
episodes, timing ``Simulation.run()`` with the unsharded oracle run that
checks it (or ``mc_iterated_lazy``), ``setup_s`` the median package
import time (each sample in a fresh interpreter) plus, for simulations, the
median ``Simulation(cfg)`` construction time, and ``peak_rss_mb`` the
process's peak RSS. Host times are scaled to a reference host speed by the
kernels in ``calibrate.py``, run between episodes. One unmeasured episode
warms the process up first. Per layer: spans and counts from ``tracer.py``,
in a separate traced run.

Every episode passes a correctness gate. A simulation round fails if it
breaches a monitor, is never completed, or differs from the unsharded
oracle's block; the SHA-256 of the sharded run's global blocks, round
records and local fractions is the behaviour digest. A Monte Carlo episode must keep attacks_completed <=
attacks_launched and peak capacity <= capacity; the SHA-256 of its failure
rounds, captures, mean red ratio and attack counters is the digest. All episodes of a run replay the
same seed, so they must also agree on the digest.

The last line of standard output is the result object. The line before it
is a JSON record of the run: workload config, digest, episode count,
episode and set-up host times, unscaled metrics, kernel times and the
host-speed factor; for a traced run, trace coverage and the traced
rounds_per_s; nproc, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

from calibrate import KERNELS
from tracer import Stats, Tracer, install_bins, install_simulation
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

# Set-up is sampled this many times per run and reported as a median.
SETUP_SAMPLES = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shardsim; "
    "print(time.perf_counter() - t)"
)
COVERAGE_TOLERANCE = 0.05


class Gate:
    """Correctness over every episode of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, digest: str, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.digests.add(digest)
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and len(self.digests) == 1


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_sim(sh, cfg, res, oracle: list, gate: Gate) -> None:
    blocks = res.global_blocks
    breached = {b.round for b in res.breaches}
    failed = sum(
        1
        for r in range(1, cfg.rounds + 1)
        if r > res.rounds_completed
        or r in breached
        or r >= min(len(blocks), len(oracle))
        or blocks[r] != oracle[r]
    )
    problems = []
    div = sh.first_divergence(blocks, oracle)
    if div is not None:
        problems.append(f"sharded run diverges from the oracle at round {div}")
    # Transaction ids are sequential, so the global blocks alone read the
    # same for every seed on which all transactions are admitted; the round
    # records and local fractions carry the seed's committees and routing.
    outputs = (blocks, res.records, res.local_fractions, res.rounds_completed)
    gate.add(cfg.rounds, failed, sha256_hex(repr(outputs)), problems)


def check_bins(res, gate: Gate) -> None:
    problems = []
    if res.attacks_completed > res.attacks_launched:
        problems.append("more attacks completed than launched")
    if res.peak_capacity_used > res.capacity:
        problems.append("adversary exceeded its capacity")
    outputs = (
        res.failure_rounds,
        sorted(res.captures.items()),
        res.mean_red_ratio,
        res.attacks_launched,
        res.attacks_completed,
        res.peak_capacity_used,
        res.capacity,
    )
    gate.add(res.rounds, res.rounds if problems else 0, sha256_hex(repr(outputs)), problems)


def timed(kernel, seconds: float, episode, at_least: int = 1) -> tuple[list, list[float]]:
    """Run ``episode`` at least ``at_least`` times, then until the next one
    would overrun ``seconds``.

    The host-speed kernel runs before the first episode and after each one,
    so never while an episode's objects are alive. Returns the episodes'
    results and the kernel times.
    """
    start = perf_counter_ns()
    kernel_ms = kernel.time_ms()
    results = []
    while True:
        results.append(episode())
        kernel_ms += kernel.time_ms()
        elapsed = (perf_counter_ns() - start) / 1e9
        n = len(results)
        if n >= at_least and elapsed * (n + 1) / n > seconds:
            return results, kernel_ms


def warm_up(episode) -> float:
    """Run one unmeasured episode; returns its host seconds.

    The first episode in a process is slower while the heap grows, and
    runs fit different numbers of episodes, so measuring it adds noise.
    """
    start = perf_counter_ns()
    episode()
    return (perf_counter_ns() - start) / 1e9


def import_ns() -> int:
    """Package import time, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return round(float(proc.stdout) * 1e9)


def end_to_end(bench, seconds: float) -> tuple[dict, dict]:
    """Set-up time, then rounds per second over repeated untraced episodes.

    ``bench.episode()`` returns the host ns of the episode's rounds, and
    ``bench.setup()`` the host ns of each set-up step. Set-up is sampled
    several times and each step counts with its median. Set-up and rounds
    are each scaled by one factor from the kernel times around them.
    """
    setup, setup_kernel_ms = timed(bench.kernel, 0, bench.setup, SETUP_SAMPLES)
    setup_factor = bench.kernel.factor(setup_kernel_ms)
    setup_ns = sum(statistics.median(step) for step in zip(*setup))
    seconds -= warm_up(bench.episode)
    run_ns, kernel_ms = timed(bench.kernel, seconds, bench.episode)
    factor = bench.kernel.factor(kernel_ms)
    rounds_per_s = bench.rounds * len(run_ns) / (sum(run_ns) / 1e9)
    metrics = {
        "rounds_per_s": rounds_per_s / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_ns * setup_factor / 1e9,
    }
    info = {
        "episodes": len(run_ns),
        "episode_ns": run_ns,
        "setup_ns": setup,
        "kernel_ms": kernel_ms,
        "setup_kernel_ms": setup_kernel_ms,
        "speed_factor": factor,
        "setup_speed_factor": setup_factor,
        "unscaled": {"rounds_per_s": rounds_per_s, "setup_s": setup_ns / 1e9},
    }
    return metrics, info


def coverage_check(stats: Stats, wall_ns: int) -> float:
    """Share of traced wall time covered by the sum of all span self times."""
    if any(v < 0 for v in stats.self_ns.values()):
        raise SystemExit("perfbench: a span's children outlast it; spans are mis-nested")
    coverage = sum(stats.self_ns.values()) / wall_ns
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        raise SystemExit(f"perfbench: span self times cover {coverage:.3f} of traced wall time")
    return coverage


# -- simulation workloads ------------------------------------------------------


class SimBench:
    def __init__(self, sh, wl, seed: int) -> None:
        self.sh = sh
        self.rounds = wl.episode_rounds
        genesis = hashlib.sha256(f"perfbench/genesis/{seed}".encode()).digest()
        self.cfg = sh.RunConfig(rounds=self.rounds, seed=seed, genesis_seed=genesis, **wl.params)
        self.kernel = KERNELS["sim"]
        self.gate = Gate()

    def episode(self) -> int:
        """One gated run; returns the host time of ``run()`` and the oracle."""
        sim = self.sh.Simulation(self.cfg)
        start = perf_counter_ns()
        res = sim.run()
        oracle = self.sh.run_unsharded_oracle(self.cfg)
        run_ns = perf_counter_ns() - start
        check_sim(self.sh, self.cfg, res, oracle, self.gate)
        return run_ns

    def setup(self) -> tuple[int, int]:
        """Host ns of the package import and of ``Simulation(cfg)``."""
        start = perf_counter_ns()
        self.sh.Simulation(self.cfg)
        construct_ns = perf_counter_ns() - start
        return import_ns(), construct_ns

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        seconds -= warm_up(self.episode)
        setup, rounds = Stats(), Stats()
        wall_ns = 0
        with Tracer() as tracer:
            current = install_simulation(tracer)

            def episode() -> int:
                nonlocal wall_ns
                tracer.stats = setup
                sim = self.sh.Simulation(self.cfg)
                current["global_ctx"] = sim.global_ctx
                tracer.stats = rounds
                before = tracer.tally_values()
                start = perf_counter_ns()
                res = sim.run()
                rounds.counts.update(tracer.tally_values() - before)
                oracle = tracer.leaf("simulation.oracle", self.sh.run_unsharded_oracle, self.cfg)
                run_ns = perf_counter_ns() - start
                tracer.stats = None
                # The gate runs inside the wall window but outside every span,
                # so the coverage check fails if it grows large.
                check_sim(self.sh, self.cfg, res, oracle, self.gate)
                wall_ns += perf_counter_ns() - start
                return run_ns

            run_ns, kernel_ms = timed(self.kernel, seconds, episode)

        scale = self.kernel.factor(kernel_ms)
        n_rounds = rounds.calls["simulation.round"]
        constructions = setup.calls["membership.init"]
        c = rounds.counts

        def ms(label: str) -> float:
            return rounds.self_ns[label] * scale / n_rounds / 1e6

        def setup_ms(label: str) -> float:
            return setup.total_ns[label] * scale / constructions / 1e6

        def per_round(label: str) -> float:
            return c[label] / n_rounds

        metrics = {
            "membership.end_of_round.ms": ms("membership.end_of_round"),
            "membership.verify_member.ms": ms("membership.verify_member"),
            "membership.verify_member.calls": rounds.calls["membership.verify_member"] / n_rounds,
            "membership.redrawn": per_round("membership.redrawn"),
            "membership.certified_ratio": ratio(c["membership.certified"], c["membership.participations"]),
            "membership.init.ms": setup_ms("membership.init"),
            "keys.sign.calls": per_round("keys.sign.calls"),
            "keys.verify.calls": per_round("keys.verify.calls"),
            "keys.position_of.calls": per_round("keys.position_of.calls"),
            "crypto.sha256.calls": per_round("crypto.sha256.calls"),
            "simulation.round.self_ms": ms("simulation.round"),
            "simulation.sampler.ms": ms("simulation.sampler"),
            "simulation.sampler.candidates": per_round("simulation.sampler.candidates"),
            "simulation.oracle.ms": ms("simulation.oracle"),
            "ledger.greedy.ms": ms("ledger.greedy"),
            "ledger.greedy.admit_ratio": ratio(c["ledger.greedy.admitted"], c["ledger.greedy.pool"]),
            "ledger.verify.legality.ms": ms("ledger.verify.legality"),
            "ledger.verify.global.ms": ms("ledger.verify.global"),
            "ledger.verify.sampler.ms": ms("ledger.verify.sampler"),
            "ledger.append.ms": ms("ledger.append"),
            "ledger.applied_txs": per_round("ledger.applied_txs"),
            "sync.collect.ms": ms("sync.collect"),
            "sync.shipped_txs": per_round("sync.shipped_txs") / self.cfg.m,
            "workload.round_transactions.ms": ms("workload.round_transactions"),
            "workload.txs": per_round("workload.txs"),
            "workload.genesis.ms": setup_ms("workload.genesis"),
            "partition.routed_txs": per_round("partition.routed_txs"),
        }
        info = {
            "episodes": len(run_ns),
            "traced_rounds": n_rounds,
            "speed_factor": scale,
            "coverage": coverage_check(rounds, wall_ns),
            # Against the untraced run's rounds_per_s, this is the tracing overhead.
            "rounds_per_s": self.rounds * len(run_ns) / (sum(run_ns) / 1e9) / scale,
        }
        return metrics, info


# -- Monte Carlo workload ------------------------------------------------------


class BinsBench:
    def __init__(self, sh, wl, seed: int) -> None:
        self.sh = sh
        self.rounds = wl.episode_rounds
        self.kwargs = dict(wl.params, rounds=self.rounds, seed=seed)
        self.kernel = KERNELS["bins"]
        self.gate = Gate()

    def episode(self) -> int:
        start = perf_counter_ns()
        res = self.sh.mc_iterated_lazy(**self.kwargs)
        run_ns = perf_counter_ns() - start
        check_bins(res, self.gate)
        return run_ns

    def setup(self) -> tuple[int]:
        """Host ns of the package import."""
        return (import_ns(),)

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        seconds -= warm_up(self.episode)
        stats = Stats()
        totals = {"wall_ns": 0, "rounds": 0, "launched": 0, "completed": 0}
        with Tracer() as tracer:
            install_bins(tracer)

            def episode() -> int:
                tracer.stats = stats
                start = perf_counter_ns()
                res = stats.call("analysis.run", self.sh.mc_iterated_lazy, (), self.kwargs)
                run_ns = perf_counter_ns() - start
                tracer.stats = None
                totals["rounds"] += res.rounds
                totals["launched"] += res.attacks_launched
                totals["completed"] += res.attacks_completed
                # As for simulations, the gate is in the wall window only.
                check_bins(res, self.gate)
                totals["wall_ns"] += perf_counter_ns() - start
                return run_ns

            run_ns, kernel_ms = timed(self.kernel, seconds, episode)

        scale = self.kernel.factor(kernel_ms)
        n_rounds = totals["rounds"]

        def us(label: str) -> float:
            return stats.self_ns[label] * scale / n_rounds / 1e3

        metrics = {
            "adversary.plan_attack.us": us("adversary.plan_attack"),
            "adversary.launch.us": us("adversary.launch"),
            "adversary.complete_due.us": us("adversary.complete_due"),
            "adversary.attacks_launched": totals["launched"] / n_rounds,
            "adversary.attacks_completed": totals["completed"] / n_rounds,
            "analysis.step.self_us": us("analysis.run"),
        }
        info = {
            "episodes": len(run_ns),
            "traced_rounds": n_rounds,
            "speed_factor": scale,
            "coverage": coverage_check(stats, totals["wall_ns"]),
            # Against the untraced run's rounds_per_s, this is the tracing overhead.
            "rounds_per_s": self.rounds * len(run_ns) / (sum(run_ns) / 1e9) / scale,
        }
        return metrics, info


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_shardsim():
    if not (SRC / "shardsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shardsim sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import shardsim

    if Path(shardsim.__file__).resolve().parent != SRC / "shardsim":
        raise SystemExit(f"perfbench: imported shardsim from {shardsim.__file__}, not {SRC}")
    return shardsim


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SPEC_PATH.is_file():
        raise SystemExit(f"perfbench: {SPEC_PATH} is missing")
    spec = json.loads(SPEC_PATH.read_text())
    sh = load_shardsim()
    import numpy

    wl = WORKLOADS[args.workload]
    bench = (SimBench if wl.kind == "sim" else BinsBench)(sh, wl, args.seed)
    if args.trace:
        values, info = bench.per_layer(args.seconds)
        section = "per_layer"
    else:
        values, info = end_to_end(bench, args.seconds)
        section = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[section]}
    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not args.trace and set(values) != set(units):
        raise SystemExit(f"perfbench: end-to-end metrics not measured: {sorted(set(units) - set(values))}")
    # Per-layer metrics of layers this workload never calls read 0.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    gate = bench.gate
    info.update(
        workload=wl.name,
        kind=wl.kind,
        config=dict(wl.params, episode_rounds=wl.episode_rounds),
        seed=args.seed,
        trace=args.trace,
        digest=sorted(gate.digests)[0] if len(gate.digests) == 1 else sorted(gate.digests),
        problems=gate.problems,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
