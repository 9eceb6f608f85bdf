"""Sharded-ledger simulator with pluggable partition, sync, and membership."""

from .adversary import AdversaryState, Attack, AttackError
from .analysis import (
    IteratedBinsResult,
    StaticBinsResult,
    analytic_failure_bound,
    bound_table,
    mc_iterated_lazy,
    mc_static_failure_rate,
    million_year_bound,
    wilson_interval,
)
from .crypto import oracle_hash, unit_hash
from .keys import KeyPair, PublicKey, SignatureScheme
from .ledger import (
    Block,
    LedgerContext,
    LedgerError,
    Transaction,
    TxOutput,
    build_transaction,
    greedy_admissible_block,
    is_competing,
    verify,
)
from .membership import (
    EligibilityError,
    Membership,
    MembershipCertificate,
    MembershipError,
    NodeRecord,
    evolve_shard_seed,
)
from .partition import KeyInterval, PartitionSpec, shard_index
from .simulation import (
    ConfigError,
    MonitorBreach,
    RunConfig,
    RunResult,
    Simulation,
    first_divergence,
    run_unsharded_oracle,
)
from .sync import eager_collect_support, lazy_collect_support
from .workload import genesis_block, round_transactions

__version__ = "0.1.0"
