"""Sharded-ledger simulator with pluggable partition, sync, and membership."""

from .analysis import mc_iterated_lazy
from .simulation import RunConfig, Simulation, first_divergence, run_unsharded_oracle

__version__ = "0.1.0"
