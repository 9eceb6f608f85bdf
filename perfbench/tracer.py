"""Spans and counts around the calls the benchmark makes into shardsim.

Nothing in ``src/`` is instrumented. A ``Tracer`` replaces module functions
and class methods of the imported package with wrappers for as long as it is
open, and puts the originals back on close. Layer boundaries get spans (host
time, with self time = duration minus the time of child spans); functions
that run thousands of times per round (keys, crypto, partition) only get
counters, to keep tracing overhead low.

Spans are aggregated in memory per name as they close, into the ``Stats``
object the tracer currently points at; with no ``Stats`` set, span wrappers
pass straight through. Hot counters always count, and the caller reads them
around the phase it measures.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from time import perf_counter_ns


class Stats:
    """Aggregated spans (nanoseconds) and counts for one phase of a run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [label, child_ns] per open span

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, label: str, fn, args, kwargs):
        """Run ``fn`` as one span named ``label``."""
        frame = [label, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter_ns() - start
            self._stack.pop()
            self.calls[label] += 1
            self.total_ns[label] += duration
            self.self_ns[label] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration


class Tally:
    """Call counter for functions run thousands of times per round.

    Ticking an ``itertools.count`` costs a quarter of a ``dict`` increment
    in a Python wrapper; reading it advances it once, which ``value``
    subtracts.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self.tick = self._counter.__next__
        self._reads = 0

    def value(self) -> int:
        ticks = next(self._counter) - self._reads
        self._reads += 1
        return ticks


class Tracer:
    """Context manager that installs wrappers and removes them on exit."""

    def __init__(self) -> None:
        self.stats: Stats | None = None
        self.tallies: dict[str, Tally] = {}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.stats = None

    def leaf(self, label: str, fn, *args):
        """Time ``fn`` as one span, without tracing the calls it makes."""
        stats = self.stats
        self.stats = None
        try:
            return stats.call(label, fn, args, {})
        finally:
            self.stats = stats

    # -- installing wrappers -------------------------------------------------

    def patch_method(self, cls: type, attr: str, make) -> None:
        original = cls.__dict__[attr]
        wrapper = make(getattr(cls, attr))
        if isinstance(original, classmethod):
            wrapper = staticmethod(wrapper)  # wraps the bound classmethod
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def patch_function(self, fn, make) -> None:
        """Wrap ``fn`` in every shardsim module that binds it by name."""
        wrapper = make(fn)
        name = fn.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "shardsim":
                continue
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapper)
                self._undo.append((module, name, fn))

    def span(self, label: str, after=None):
        """Wrapper factory: a span, then ``after(counts, args, result)``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                stats = self.stats
                if stats is None:
                    return fn(*args, **kwargs)
                result = stats.call(label, fn, args, kwargs)
                if after is not None:
                    after(stats.counts, args, result)
                return result

            return wrapper

        return make

    def count(self, after):
        """Wrapper factory: no span, then ``after(counts, args, result)``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                stats = self.stats
                if stats is not None:
                    after(stats.counts, args, result)
                return result

            return wrapper

        return make

    def tally(self, label: str):
        """Wrapper factory for hot functions: tick the ``label`` tally."""
        tick = self.tallies.setdefault(label, Tally()).tick

        def make(fn):
            def wrapper(*args):
                tick()
                return fn(*args)

            return wrapper

        return make

    def tally_values(self) -> Counter[str]:
        return Counter({label: t.value() for label, t in self.tallies.items()})


def install_simulation(tracer: Tracer) -> dict:
    """Wrap the protocol layers a ``Simulation`` round calls into.

    Returns a dict whose ``"global_ctx"`` entry the caller sets to the
    running simulation's global ledger, so that ledger verifies can be told
    apart: inside the sampler, against the global ledger, or against a
    shard's own ledger (legality).
    """
    from shardsim import crypto, keys, ledger, sync, workload
    from shardsim.membership import Membership
    from shardsim.partition import PartitionSpec
    from shardsim.simulation import Simulation

    span, count = tracer.span, tracer.count
    current = {"global_ctx": None}

    def add(label, amount):
        return lambda counts, args, result: counts.update({label: amount(args, result)})

    tracer.patch_method(Simulation, "run_round", span("simulation.round"))
    tracer.patch_method(
        Simulation, "_self_containment_breaches", span("simulation.sampler")
    )
    tracer.patch_method(
        Simulation,
        "_sample_candidate",
        count(after=add("simulation.sampler.candidates", lambda a, r: r is not None)),
    )

    def certified(counts, args, result):
        counts["membership.participations"] += len(args[2])
        counts["membership.certified"] += len(result[1])

    tracer.patch_method(Simulation, "decide_sub_block", count(after=certified))
    tracer.patch_method(Membership, "init", span("membership.init"))
    tracer.patch_method(Membership, "verify_member", span("membership.verify_member"))
    tracer.patch_method(
        Membership,
        "end_of_round",
        span("membership.end_of_round", add("membership.redrawn", lambda a, r: len(r[1]))),
    )

    tracer.patch_function(
        ledger.greedy_admissible_block,
        span(
            "ledger.greedy",
            lambda counts, args, result: counts.update(
                {"ledger.greedy.pool": len(args[0]), "ledger.greedy.admitted": len(result)}
            ),
        ),
    )

    def make_verify(fn):
        def wrapper(block, ctx):
            stats = tracer.stats
            if stats is None:
                return fn(block, ctx)
            if stats.parent == "simulation.sampler":
                label = "ledger.verify.sampler"
            elif ctx is current["global_ctx"]:
                label = "ledger.verify.global"
            else:
                label = "ledger.verify.legality"
            return stats.call(label, fn, (block, ctx), {})

        return wrapper

    tracer.patch_function(ledger.verify, make_verify)
    tracer.patch_method(
        ledger.LedgerContext,
        "append",
        span("ledger.append", add("ledger.applied_txs", lambda a, r: len(a[1]))),
    )

    shipped = add("sync.shipped_txs", lambda a, r: len(r.txs))
    tracer.patch_function(sync.eager_collect_support, span("sync.collect", shipped))
    tracer.patch_function(sync.lazy_collect_support, span("sync.collect", shipped))

    tracer.patch_function(
        workload.round_transactions,
        span("workload.round_transactions", add("workload.txs", lambda a, r: len(r))),
    )
    tracer.patch_function(workload.genesis_block, span("workload.genesis"))
    tally = tracer.tally
    tracer.patch_method(PartitionSpec, "which_part", tally("partition.routed_txs"))
    tracer.patch_method(keys.SignatureScheme, "sign", tally("keys.sign.calls"))
    tracer.patch_method(keys.SignatureScheme, "verify", tally("keys.verify.calls"))
    tracer.patch_function(keys.position_of, tally("keys.position_of.calls"))
    tracer.patch_function(crypto.oracle_hash, tally("crypto.sha256.calls"))
    return current


def install_bins(tracer: Tracer) -> None:
    """Wrap the adversary calls ``mc_iterated_lazy`` makes each round."""
    from shardsim import adversary

    tracer.patch_function(adversary.plan_attack, tracer.span("adversary.plan_attack"))
    tracer.patch_method(
        adversary.AdversaryState, "launch", tracer.span("adversary.launch")
    )
    tracer.patch_method(
        adversary.AdversaryState, "complete_due", tracer.span("adversary.complete_due")
    )
