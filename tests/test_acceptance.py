"""Release gate: the properties this package promises, one line each.

Every test here prints one ``ACCEPTANCE <k> <name>: PASS/FAIL`` line in the
terminal summary (see conftest). Tolerances and sample sizes are pinned;
a failing criterion is reported, never weakened.
"""

import functools
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest
import scipy.stats

from conftest import make_clients, record_acceptance
from conftest import competing_pairs as make_competing_pairs
from shardsim.analysis import (
    ROUNDS_PER_MILLION_YEARS,
    bound_table,
    mc_iterated_lazy,
    mc_static_failure_rate,
)
from shardsim.keys import SignatureScheme
from shardsim.ledger import is_competing
from shardsim.membership import golden_vector_text
from shardsim.partition import PartitionSpec
from shardsim.simulation import (
    RunConfig,
    Simulation,
    first_divergence,
    run_unsharded_oracle,
)
from vectorlib import DATA_DIR, load_vector_file, replay_verifier

pytestmark = pytest.mark.acceptance


def criterion(index: int, name: str):
    """Record exactly one verdict line, even if the test body blows up."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                passed, detail = fn()
            except Exception as exc:
                record_acceptance(index, name, False, f"error: {exc!r}")
                raise
            record_acceptance(index, name, passed, detail)
            assert passed, f"criterion {index} ({name}): {detail}"

        return wrapper

    return deco


@criterion(1, "sharded blocks equal unsharded oracle")
def test_criterion_01_oracle_equivalence():
    problems = []
    worst = 0.0
    for m in (1, 2, 4, 8):
        t0 = time.perf_counter()
        for seed in range(5):
            cfg = RunConfig(n=400, m=m, rounds=1000, seed=seed)
            res = Simulation(cfg).run()
            oracle = run_unsharded_oracle(cfg)
            div = first_divergence(res.global_blocks, oracle)
            if res.halted:
                problems.append(f"m={m} seed={seed} halted {res.breaches[:1]}")
            if div is not None or len(res.global_blocks) != 1001:
                problems.append(f"m={m} seed={seed} diverges at {div}")
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if elapsed >= 60:
            problems.append(f"m={m} config took {elapsed:.0f}s")
    detail = f"4 shard counts x 5 seeds x 1000 rounds, slowest config {worst:.1f}s"
    return not problems, "; ".join(problems) or detail


@criterion(2, "lazy self-containment monitor clean")
def test_criterion_02_self_containment():
    problems = []
    sampled = 0
    for m in (2, 4):
        cfg = RunConfig(n=400, m=m, rounds=1000, seed=1, sync="lazy", t_lease=5)
        assert cfg.containment_samples == 20
        res = Simulation(cfg).run()
        sampled += 20 * m * res.rounds_completed
        if res.halted or res.breaches:
            problems.append(f"m={m}: {res.breaches[:2]}")
        if res.rounds_completed != 1000:
            problems.append(f"m={m}: only {res.rounds_completed} rounds")
    detail = f"{sampled} candidate blocks over m=2 and m=4, 0 disagreements"
    return not problems, "; ".join(problems) or detail


@criterion(3, "eager sync replicates the full ledger")
def test_criterion_03_eager_full_replication():
    cfg = RunConfig(n=200, m=4, rounds=500, seed=2)
    sim = Simulation(cfg)
    res = sim.run()
    if res.halted:
        return False, f"halted: {res.breaches[:1]}"

    def by_round(ctx):
        acc: dict[int, set[str]] = {}
        for entry in ctx.entries:
            acc.setdefault(entry.round, set()).update(
                tx.tx_id for tx in entry.block
            )
        return acc

    reference = by_round(sim.global_ctx)
    checked = 0
    for shard, ctx in enumerate(sim.local_ctx, start=1):
        local = by_round(ctx)
        if local != reference:
            bad = [r for r in reference if local.get(r) != reference[r]][:3]
            return False, f"shard {shard} differs at rounds {bad}"
        checked += len(local)
    return True, f"4 shards x {len(reference)} per-round transaction sets equal"


@criterion(4, "competing transactions land in one shard")
def test_criterion_04_conflict_preservation():
    scheme = SignatureScheme()
    mint = scheme.keygen("mint")
    pairs = make_competing_pairs(scheme, mint, 10_000, seed=4)
    specs = {m: PartitionSpec(m) for m in (2, 4, 8)}
    not_competing = 0
    split = 0
    for tx1, tx2, ctx, background in pairs:
        if not is_competing(tx1, tx2, ctx, background):
            not_competing += 1
        for spec in specs.values():
            if spec.which_part(tx1) != spec.which_part(tx2):
                split += 1
    passed = not_competing == 0 and split == 0
    detail = (
        f"{len(pairs)} pairs x m in (2,4,8): {split} split, "
        f"{not_competing} non-competing"
    )
    return passed, detail


@criterion(5, "lazy footprint matches 2/m - 1/m^2")
def test_criterion_05_lazy_footprint():
    problems = []
    measured = []
    for m in (2, 4, 8):
        cfg = RunConfig(n=400, m=m, rounds=520, seed=5, sync="lazy", t_lease=5)
        res = Simulation(cfg).run()
        if res.halted:
            problems.append(f"m={m} halted")
            continue
        if res.admitted < 10_000:
            problems.append(f"m={m}: only {res.admitted} transactions")
        expect = 2 / m - 1 / m**2
        frac = sum(res.local_fractions) / m
        measured.append(f"m={m}: {frac:.4f} vs {expect:.4f}")
        if abs(frac - expect) / expect > 0.10:
            problems.append(
                f"m={m}: fraction {frac:.4f} off {expect:.4f} by "
                f"{abs(frac - expect) / expect:.1%}"
            )
    return not problems, "; ".join(problems or measured)


@criterion(6, "analytic failure bound table")
def test_criterion_06_bound_table():
    getcontext().prec = 60
    rows = bound_table([(150_000_000, 10_000), (7_000_000, 700)])
    log_e10 = Decimal(10).ln()

    problems = []
    for row in rows:
        n, m = row["n"], row["m"]
        dec_per_round = ((2 * Decimal(m)).ln() - Decimal(n) / (144 * Decimal(m))) / log_e10
        dec_million = dec_per_round + Decimal("5.26e11").log10()
        for key, dec in (("log10_per_round", dec_per_round), ("log10_million_year", dec_million)):
            rel = abs(Decimal(repr(row[key])) - dec) / abs(dec)
            if rel > Decimal("1e-6"):
                problems.append(f"n={n} m={m} {key} off by {float(rel):.2e}")
        if row["log10_million_year"] >= -15:
            problems.append(f"n={n} m={m} million-year 1e{row['log10_million_year']:.2f}")
    if rows[0]["log10_per_round"] >= -40:
        problems.append(f"headline per-round 1e{rows[0]['log10_per_round']:.2f}")

    detail = (
        f"per-round 1e{rows[0]['log10_per_round']:.2f} and "
        f"1e{rows[1]['log10_per_round']:.2f}; million-year "
        f"1e{rows[0]['log10_million_year']:.2f} and 1e{rows[1]['log10_million_year']:.2f}"
    )
    return not problems, "; ".join(problems) or detail


@criterion(7, "static Monte Carlo under the analytic bound")
def test_criterion_07_mc_dominance():
    t0 = time.perf_counter()
    res = mc_static_failure_rate(6000, 4, trials=10**6, seed=0)
    elapsed = time.perf_counter() - t0
    problems = []
    if res.wilson_high > 2.4e-4:
        problems.append(f"wilson upper {res.wilson_high:.3e} > 2.4e-4")
    if res.wilson_high > res.analytic_bound:
        problems.append(
            f"wilson upper {res.wilson_high:.3e} > bound {res.analytic_bound:.3e}"
        )
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s")
    detail = (
        f"{res.failures} failures in 1e6 trials, wilson upper "
        f"{res.wilson_high:.2e} <= bound {res.analytic_bound:.2e}, {elapsed:.1f}s"
    )
    return not problems, "; ".join(problems) or detail


@criterion(8, "iterated lazy endurance")
def test_criterion_08_endurance():
    t0 = time.perf_counter()
    res = mc_iterated_lazy(6000, 4, 10, 10**6, strategy="static", seed=0)
    elapsed = time.perf_counter() - t0
    problems = []
    if res.failures != 0:
        problems.append(f"{res.failures} failures at rounds {res.failure_rounds[:5]}")
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s")
    detail = f"0 failures in 1e6 rounds (n=6000, m=4, lease 10), {elapsed:.1f}s"
    return not problems, "; ".join(problems) or detail


@criterion(9, "shard distribution is stationary")
def test_criterion_09_stationary_distribution():
    res = mc_iterated_lazy(
        10_000, 4, 10, 1000, strategy="static", seed=0, capture_rounds=(1, 1000)
    )
    first = np.bincount(res.captures[1], minlength=4)
    later = np.bincount(res.captures[1000], minlength=4)
    _, pvalue, _, _ = scipy.stats.chi2_contingency(np.stack([first, later]))
    detail = (
        f"chi-square p={pvalue:.3f} between round-1 {first.tolist()} "
        f"and round-1000 {later.tolist()}"
    )
    return pvalue > 0.01, detail


@criterion(10, "adaptive takeover gains nothing")
def test_criterion_10_adaptive_futility():
    adaptive = mc_iterated_lazy(
        2000, 4, 10, 10**6, strategy="adaptive-greedy", t_takeover=10, seed=0
    )
    static = mc_iterated_lazy(2000, 4, 10, 10**6, strategy="static", seed=0)
    # Exact conditional test on the two failure counts: under no advantage
    # each failing round is equally likely to come from either process.
    higher, lower = adaptive.failures, static.failures
    pvalue = 1.0
    if higher + lower:
        pvalue = scipy.stats.binomtest(
            higher, higher + lower, 0.5, alternative="greater"
        ).pvalue
    detail = (
        f"adaptive {adaptive.failures} vs static {static.failures} failing "
        f"rounds in 1e6 each, one-sided p={pvalue:.3f}"
    )
    return pvalue > 0.05, detail


@criterion(11, "membership golden vectors")
def test_criterion_11_golden_vectors():
    problems = []
    round_trips = 0
    for name in ("vectors_m4_lease1.txt", "vectors_m4_lease5.txt"):
        path = DATA_DIR / name
        vf = load_vector_file(path)
        regenerated = golden_vector_text(
            vf.genesis_seed, vf.key_ids, vf.m, vf.t_lease, vf.rounds
        )
        if regenerated != path.read_text():
            problems.append(f"{name} not byte-identical")
            continue

        failures = []

        def check(mem, kps, r):
            for key_id in vf.key_ids:
                shard, sigma = vf.certs[(r, key_id)]
                if not mem.verify_member(kps[key_id].pk, sigma, shard, r):
                    failures.append((r, key_id))

        replay_verifier(vf, check)
        round_trips += len(vf.certs)
        if failures:
            problems.append(f"{name}: {len(failures)} round-trip rejections")

    # Mutations against the staggered-lease transcript.
    vf = load_vector_file(DATA_DIR / "vectors_m4_lease5.txt")
    rng = np.random.default_rng(11)
    specs: dict[int, list[tuple[str, int]]] = {}
    for k in range(1000):
        r = int(rng.integers(1, vf.rounds + 1))
        key_idx = int(rng.integers(len(vf.key_ids)))
        specs.setdefault(r, []).append((vf.key_ids[key_idx], k % 3))
    accepted = []

    def mutate(mem, kps, r):
        for key_id, kind in specs.get(r, ()):
            shard, sigma = vf.certs[(r, key_id)]
            pk = kps[key_id].pk
            if kind == 0:
                bad = bytearray(sigma)
                bad[int(rng.integers(len(sigma)))] ^= 1 + int(rng.integers(255))
                ok = mem.verify_member(pk, bytes(bad), shard, r)
            elif kind == 1:
                ok = mem.verify_member(pk, sigma, shard % vf.m + 1, r)
            else:
                other = vf.key_ids[
                    (vf.key_ids.index(key_id) + 1) % len(vf.key_ids)
                ]
                o_shard, o_sigma = vf.certs[(r, other)]
                ok = mem.verify_member(pk, o_sigma, o_shard, r)
            if ok:
                accepted.append((r, key_id, kind))

    replay_verifier(vf, mutate)
    if accepted:
        problems.append(f"{len(accepted)} of 1000 mutations accepted")

    detail = f"2 transcripts byte-identical, {round_trips} round-trips, 1000 mutations rejected"
    return not problems, "; ".join(problems) or detail
