"""Round-loop driver: bootstrap, lock-step rounds, monitors, oracle runner.

Each round has two phases. Phase one: every shard's certified members run
idealized consensus over the shard's slice of the pending stream; an
honest-majority shard emits the deterministic greedy admissible block, a
compromised one lets the adversary choose. Phase two: the sub-blocks are
published as one global block, every shard ingests its remote support, and
only then does membership evolve the seeds from the round's leaders and
re-draw keys for the next round.

Safety is watched, not assumed: monitors check per-shard legality, global
admissibility against an independently maintained full ledger, lazy
self-containment (sampled candidate blocks must verify identically under
the local and the global context), and the per-shard honest-majority
condition. A monitor breach is recorded and halts the run; it is an
observable outcome, not a crash.

The unsharded oracle replays the identical workload through the identical
greedy rule against a single full ledger; an all-honest sharded run must
reproduce its block sequence exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .crypto import oracle_hash
from .keys import KeyPair, PublicKey, SignatureScheme
from .ledger import (
    Block,
    LedgerContext,
    Transaction,
    build_transaction,
    greedy_admissible_block,
    verify,
)
from .membership import Membership, MembershipCertificate, committee_fails
from .partition import PartitionSpec, shard_index
from .sync import eager_collect_support, lazy_collect_support
from .workload import genesis_block, round_transactions

DEFAULT_GENESIS_SEED = oracle_hash(b"shardsim/default-genesis")

_ADVERSARY_STREAM = 2
_MONITOR_STREAM = 3

SYNC_VARIANTS = ("eager", "lazy")
NEGATIVE_MODES = ("none", "conflict-partition", "broken-sync")
SIMULATOR_ADVERSARIES = ("none", "double-spend")


class ConfigError(Exception):
    """Rejected run configuration."""


@dataclass
class RunConfig:
    n: int = 40
    m: int = 2
    rounds: int = 10
    seed: int = 0
    sync: str = "eager"
    t_lease: int = 1
    byzantine_fraction: float = 0.0
    adversary: str = "none"
    tx_rate: int = 20
    max_amount: int = 50
    initial_balance: int = 1000
    genesis_seed: bytes = DEFAULT_GENESIS_SEED
    # None means the variant default: 20 samples per shard per round under
    # lazy sync (the monitor must run every round there), 0 under eager.
    self_containment_samples: Optional[int] = None
    negative_mode: str = "none"

    @property
    def containment_samples(self) -> int:
        if self.self_containment_samples is not None:
            return self.self_containment_samples
        return 20 if self.sync == "lazy" else 0

    def validate(self) -> None:
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.m < 1:
            raise ConfigError("m must be at least 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be non-negative")
        if self.sync not in SYNC_VARIANTS:
            raise ConfigError(f"unknown sync variant {self.sync!r}")
        if self.t_lease < 1:
            raise ConfigError("t_lease must be at least 1")
        if self.sync == "eager" and self.t_lease != 1:
            raise ConfigError("eager sync means a one-round lease; set t_lease = 1")
        if not 0.0 <= self.byzantine_fraction < 1.0:
            raise ConfigError("byzantine_fraction must lie in [0, 1)")
        if self.adversary not in SIMULATOR_ADVERSARIES:
            raise ConfigError(
                f"adversary {self.adversary!r} is not playable in the protocol "
                "simulator; adaptive strategies live in the bins analyses"
            )
        if self.adversary == "double-spend" and self.n < 3:
            raise ConfigError("the double-spend adversary needs n of at least 3")
        if self.tx_rate < 0:
            raise ConfigError("tx_rate must be non-negative")
        if self.max_amount < 1:
            raise ConfigError("max_amount must be at least 1")
        if self.initial_balance < 0:
            raise ConfigError("initial_balance must be non-negative")
        if self.self_containment_samples is not None and self.self_containment_samples < 0:
            raise ConfigError("self_containment_samples must be non-negative")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ConfigError(f"unknown negative mode {self.negative_mode!r}")


@dataclass(frozen=True)
class MonitorBreach:
    round: int
    shard: int  # 0 means the global ledger
    kind: str
    detail: str


@dataclass(frozen=True)
class RoundRecord:
    round: int
    shard: int
    members: int
    certified: int
    byzantine: int
    sub_block_size: int
    status: str


@dataclass
class RunResult:
    config: RunConfig
    records: list[RoundRecord] = field(default_factory=list)
    breaches: list[MonitorBreach] = field(default_factory=list)
    global_blocks: list[tuple[str, ...]] = field(default_factory=list)
    halted_round: Optional[int] = None
    local_fractions: list[float] = field(default_factory=list)
    rounds_completed: int = 0

    @property
    def admitted(self) -> int:
        return sum(len(ids) for ids in self.global_blocks[1:])

    @property
    def halted(self) -> bool:
        return self.halted_round is not None


class Simulation:
    """One sharded run. Construction bootstraps; ``run`` plays the rounds."""

    def __init__(self, cfg: RunConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.scheme = SignatureScheme()
        self.mint = self.scheme.keygen("mint")
        self.clients = [self.scheme.keygen(f"u{i:05d}") for i in range(cfg.n)]
        self.by_id = {kp.pk.id: kp for kp in self.clients}
        self.spec = PartitionSpec(cfg.m)
        self.intervals = [self.spec.interval(i) for i in range(1, cfg.m + 1)]
        self.route = self._make_router()

        adv_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _ADVERSARY_STREAM])
        )
        n_red = int(cfg.byzantine_fraction * cfg.n)
        red_idx = adv_rng.choice(cfg.n, size=n_red, replace=False) if n_red else []
        self.red: set[str] = {self.clients[int(i)].pk.id for i in red_idx}
        self._monitor_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _MONITOR_STREAM])
        )

        self.membership = Membership.init(
            cfg.m,
            [kp.pk for kp in self.clients],
            cfg.genesis_seed,
            cfg.t_lease,
            self.scheme,
        )
        self.global_ctx = LedgerContext(self.scheme, self.mint.pk)
        self.local_ctx = [
            LedgerContext(self.scheme, self.mint.pk) for _ in range(cfg.m)
        ]
        # Transactions of each shard's own (non-remote) entries, in entry order.
        self._own_txs: list[list[Transaction]] = [[] for _ in range(cfg.m)]
        self._clients_by_shard = [
            [kp for kp in self.clients if interval.contains(kp.pk)]
            for interval in self.intervals
        ]
        self.result = RunResult(cfg)
        self._candidate_counter = 0
        self._bootstrap()

    # -- construction --------------------------------------------------------

    def _make_router(self) -> Callable[[Transaction], int]:
        if self.cfg.negative_mode == "conflict-partition":
            # Deliberately broken: routes by first recipient, so two
            # transactions from one sender can land in different shards.
            return lambda tx: shard_index(tx.outputs[0].to.position, self.cfg.m)
        return self.spec.which_part

    def _collect_support(self, published: Block, shard: int, r: int) -> Block:
        if self.cfg.negative_mode == "broken-sync" and r > 0:
            return Block.empty()
        if self.cfg.sync == "eager":
            return eager_collect_support(published, self.intervals[shard - 1])
        return lazy_collect_support(published, self.intervals[shard - 1])

    def _bootstrap(self) -> None:
        # Bootstrap is always honest, even in negative modes: every shard
        # starts from a correctly partitioned and fully supported genesis
        # state, so an injected defect manifests through round behaviour
        # rather than through a corrupted initial distribution.
        b0 = genesis_block(
            self.scheme, self.mint, self.clients, self.cfg.initial_balance
        )
        self.global_ctx.append(b0, round=0)
        for i, part in enumerate(self.spec.part(b0), start=1):
            self._append_local(Block.of(part), b0, i, 0)
        self.result.global_blocks.append(tuple(sorted(tx.tx_id for tx in b0)))

    def _append_local(self, own: Block, published: Block, shard: int, r: int) -> None:
        """Append the shard's own sub-block, then its remote support."""
        self.local_ctx[shard - 1].append(own, round=r)
        self._own_txs[shard - 1].extend(own)
        self.local_ctx[shard - 1].append(
            self._collect_support(published, shard, r), round=r, remote=True
        )

    # -- per-round machinery -------------------------------------------------

    def decide_sub_block(
        self,
        shard: int,
        participations: list[MembershipCertificate],
        pool: set[Transaction],
        r: int,
    ) -> tuple[Block, list[PublicKey], int, Optional[MonitorBreach]]:
        """Phase-one outcome for one shard.

        Returns the sub-block, the certified member list, the Byzantine
        count among them, and an honest-majority breach if one occurred.
        Messages with invalid certificates are discarded; a shard with no
        certified members decides the empty block by default.
        """
        ctx = self.local_ctx[shard - 1]
        certified = [
            p.pk
            for p in participations
            if self.membership.verify_member(p.pk, p.sigma, p.shard, r)
            and p.shard == shard
        ]
        byz = sum(1 for pk in certified if pk.id in self.red)
        if not certified:
            return Block.empty(), [], 0, None
        breach = None
        if committee_fails(byz, len(certified)):
            breach = MonitorBreach(
                r,
                shard,
                "honest-majority",
                f"{byz} of {len(certified)} certified members are Byzantine",
            )
            block = self._adversary_block(shard, pool, ctx, r)
        else:
            block = greedy_admissible_block(pool, ctx)
        return block, certified, byz, breach

    def _adversary_block(
        self, shard: int, pool: set[Transaction], ctx: LedgerContext, r: int
    ) -> Block:
        """A compromised shard's output under the double-spend strategy."""
        if self.cfg.adversary != "double-spend":
            return greedy_admissible_block(pool, ctx)
        interval = self.intervals[shard - 1]
        reds_here = [
            self.by_id[key_id]
            for key_id in sorted(self.red)
            if interval.contains(self.by_id[key_id].pk)
        ]
        victims = [
            kp for kp in reds_here if self.global_ctx.balance(kp.pk) >= 1
        ]
        base = greedy_admissible_block(pool, ctx)
        if not victims:
            return base
        spender = victims[0]
        bal = self.global_ctx.balance(spender.pk)
        others = [kp for kp in self.clients if kp.pk != spender.pk]
        pair = [
            build_transaction(
                self.scheme, spender, [(others[0].pk, bal)], f"ds-r{r:06d}a"
            ),
            build_transaction(
                self.scheme, spender, [(others[1].pk, bal)], f"ds-r{r:06d}b"
            ),
        ]
        kept = [tx for tx in base if tx.sender != spender.pk]
        return Block.of(kept + pair)

    def _sample_candidate(self, shard: int, r: int) -> Optional[Block]:
        """Random candidate block drawn from the shard's own senders."""
        rng = self._monitor_rng
        senders = self._clients_by_shard[shard - 1]
        if not senders:
            return None
        own = self._own_txs[shard - 1]
        if own and rng.random() < 0.25:
            # Replay: already-recorded transactions must fail identically.
            return Block.of([own[int(rng.integers(len(own)))]])
        txs = []
        for _ in range(int(rng.integers(1, 4))):
            kp = senders[int(rng.integers(len(senders)))]
            bal = self.global_ctx.balance(kp.pk)
            amount = int(rng.integers(1, max(2, 2 * bal + 1)))
            to = self.clients[int(rng.integers(len(self.clients)))].pk
            self._candidate_counter += 1
            txs.append(
                build_transaction(
                    self.scheme,
                    kp,
                    [(to, amount)],
                    f"cand{self._candidate_counter:08d}",
                )
            )
        return Block.of(txs)

    def _self_containment_breaches(self, r: int) -> list[MonitorBreach]:
        breaches = []
        for shard in range(1, self.cfg.m + 1):
            for _ in range(self.cfg.containment_samples):
                candidate = self._sample_candidate(shard, r)
                if candidate is None:
                    continue
                local = verify(candidate, self.local_ctx[shard - 1])
                globally = verify(candidate, self.global_ctx)
                if local != globally:
                    breaches.append(
                        MonitorBreach(
                            r,
                            shard,
                            "self-containment",
                            f"candidate verifies {local} locally, "
                            f"{globally} globally",
                        )
                    )
                    break
        return breaches

    def run_round(self, r: int) -> list[MonitorBreach]:
        cfg = self.cfg
        breaches: list[MonitorBreach] = []
        pending = round_transactions(
            self.scheme, self.clients, cfg.tx_rate, cfg.max_amount, cfg.seed, r
        )
        parts = self.spec.part(pending, self.route)

        sub_blocks: list[Block] = []
        leaders: list[Optional[KeyPair]] = []
        for shard in range(1, cfg.m + 1):
            # Certificates the shard's members present, in key-id order.
            participations = self.membership.by_shard[shard - 1]
            block, certified, byz, breach = self.decide_sub_block(
                shard, participations, parts[shard - 1], r
            )
            sub_blocks.append(block)
            # The first certified member leads; an empty sub-block has no leader.
            leaders.append(self.by_id[certified[0].id] if block else None)
            status = "ok"
            if breach is not None:
                breaches.append(breach)
                status = breach.kind
            if not verify(block, self.local_ctx[shard - 1]):
                breaches.append(
                    MonitorBreach(
                        r, shard, "shard-legality", "sub-block fails local verify"
                    )
                )
                status = "shard-legality"
            self.result.records.append(
                RoundRecord(
                    r, shard, len(participations), len(certified), byz, len(block), status
                )
            )

        # The published block keeps one transaction per tx_id; sub-blocks
        # that collide on an id fail the disjointness check below.
        published = Block.of({tx.tx_id: tx for sub in sub_blocks for tx in sub}.values())
        collided = len(published) < sum(map(len, sub_blocks))
        if collided or not verify(published, self.global_ctx):
            breaches.append(
                MonitorBreach(
                    r, 0, "global-admissibility", "global block fails full-ledger verify"
                )
            )
        self.global_ctx.append(published, round=r)
        self.result.global_blocks.append(tuple(sorted(tx.tx_id for tx in published)))

        for shard, own in enumerate(sub_blocks, start=1):
            source = published
            if collided:
                # Keep the shard's own version of every id it minted.
                ids = {tx.tx_id for tx in own}
                source = Block.of(tx for tx in published if tx.tx_id not in ids)
            self._append_local(own, source, shard, r)

        if cfg.containment_samples > 0:
            breaches.extend(self._self_containment_breaches(r))

        self.membership.end_of_round(r, leaders)
        return breaches

    def run(self) -> RunResult:
        for r in range(1, self.cfg.rounds + 1):
            breaches = self.run_round(r)
            self.result.rounds_completed = r
            if breaches:
                self.result.breaches.extend(breaches)
                self.result.halted_round = r
                break
        total = self.global_ctx.tx_count(min_round=1)
        self.result.local_fractions = [
            (ctx.tx_count(min_round=1) / total) if total else 0.0
            for ctx in self.local_ctx
        ]
        return self.result


def run_unsharded_oracle(cfg: RunConfig) -> list[tuple[str, ...]]:
    """Reference run: same workload, same greedy rule, one full ledger.

    Kept deliberately independent of the sharded driver; it shares only
    the ledger primitives and the workload generator.
    """
    cfg.validate()
    scheme = SignatureScheme()
    mint = scheme.keygen("mint")
    clients = [scheme.keygen(f"u{i:05d}") for i in range(cfg.n)]
    ctx = LedgerContext(scheme, mint.pk)
    b0 = genesis_block(scheme, mint, clients, cfg.initial_balance)
    ctx.append(b0, round=0)
    blocks = [tuple(sorted(tx.tx_id for tx in b0))]
    for r in range(1, cfg.rounds + 1):
        pool = round_transactions(scheme, clients, cfg.tx_rate, cfg.max_amount, cfg.seed, r)
        block = greedy_admissible_block(pool, ctx)
        ctx.append(block, round=r)
        blocks.append(tuple(sorted(tx.tx_id for tx in block)))
    return blocks


def first_divergence(
    a: list[tuple[str, ...]], b: list[tuple[str, ...]]
) -> Optional[int]:
    """Index of the first differing round over the common prefix, else None."""
    for idx in range(min(len(a), len(b))):
        if a[idx] != b[idx]:
            return idx
    return None
