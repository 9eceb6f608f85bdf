"""Command-line front end.

Subcommands: simulate, oracle-compare, bins-mc, bound-table,
golden-vectors. Configuration comes from an INI file with one flat
key=value section per concern. Each subcommand's config is a dataclass,
and one loader and one writer, driven by its fields and their types, read
the file and echo every effective value back to the output directory as
``effective_config.ini``; passing that file to ``--config`` replays the run.

Exit codes: 0 success, 2 configuration or usage error, 3 monitor breach,
4 comparison mismatch.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .analysis import (
    bound_table,
    mc_iterated_lazy,
    mc_static_failure_rate,
)
from .membership import golden_vector_text
from .simulation import (
    DEFAULT_GENESIS_SEED,
    NEGATIVE_MODES,
    ConfigError,
    MonitorBreach,
    RoundRecord,
    RunConfig,
    Simulation,
    first_divergence,
    run_unsharded_oracle,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREACH = 3
EXIT_MISMATCH = 4


@dataclass
class BinsConfig:
    mode: str = "static"
    n: int = 6000
    m: int = 4
    red_fraction: float = 0.25
    trials: int = 10_000
    t_lease: int = 10
    rounds: int = 10_000
    strategy: str = "static"
    t_takeover: Optional[int] = None
    attack_size: Optional[int] = None
    seed: int = 0


# Fields that only one bins mode reads; the other mode neither uses nor echoes them.
_STATIC_ONLY = ("trials",)
_ITERATED_ONLY = ("t_lease", "rounds", "strategy", "t_takeover", "attack_size")


@dataclass
class TableConfig:
    rows: str = "150000000:10000,7000000:700,6000:4"  # n:m pairs


@dataclass
class VectorsConfig:
    genesis_seed: bytes = DEFAULT_GENESIS_SEED
    m: int = 4
    t_lease: int = 5
    num_keys: int = 16
    rounds: Optional[int] = None  # unset means 3 * t_lease

    def __post_init__(self) -> None:
        if self.rounds is None:
            self.rounds = 3 * self.t_lease


def _layout(cls, section: str, placed: Optional[dict[str, str]] = None) -> dict[str, str]:
    """Field name -> INI section; fields not in ``placed`` go to ``section``."""
    placed = placed or {}
    return {f.name: placed.get(f.name, section) for f in dataclasses.fields(cls)}


_LAYOUT = {
    RunConfig: _layout(
        RunConfig,
        "run",
        {
            "tx_rate": "workload",
            "max_amount": "workload",
            "initial_balance": "workload",
            "genesis_seed": "membership",
            "self_containment_samples": "monitor",
        },
    ),
    BinsConfig: _layout(BinsConfig, "bins"),
    TableConfig: _layout(TableConfig, "table"),
    VectorsConfig: _layout(VectorsConfig, "vectors"),
}


def _read_ini(path: Optional[str]) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        target = Path(path)
        if not target.is_file():
            raise ConfigError(f"config file {path!r} does not exist")
        try:
            cp.read(target)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"{path!r}: [DEFAULT] is not a config section")
    return cp


def _parse(kind, raw: str):
    if kind == Optional[int]:
        return None if raw == "" else int(raw)
    if kind is bytes:
        return bytes.fromhex(raw)
    return kind(raw)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _load(cls, cp: configparser.ConfigParser, **overrides):
    """Build ``cls`` from its INI sections; overrides that are not None win."""
    layout = _LAYOUT[cls]
    types = typing.get_type_hints(cls)
    values = {}
    for section in cp.sections():
        if section not in layout.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if layout.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = _parse(types[key], raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return cls(**values)


def _dump(cfg, out: Path, omit: tuple[str, ...] = ()) -> None:
    """Echo every field of ``cfg`` but ``omit`` to ``effective_config.ini``."""
    layout = _LAYOUT[type(cfg)]
    sections: dict[str, dict[str, str]] = {}
    for f in dataclasses.fields(cfg):
        if f.name not in omit:
            sections.setdefault(layout[f.name], {})[f.name] = _format(getattr(cfg, f.name))
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    with open(out / "effective_config.ini", "w") as fh:
        cp.write(fh)


def _run_config(args) -> RunConfig:
    """The run's config; ``[run] negative_mode`` may only record the flag."""
    cp = _read_ini(args.config)
    in_force = args.negative_mode or "none"
    recorded = cp.get("run", "negative_mode", fallback=in_force)
    if recorded != in_force:
        raise ConfigError(
            f"[run] negative_mode = {recorded} disagrees with --negative-mode "
            f"{in_force}; defects are injected from the command line only"
        )
    cfg = _load(RunConfig, cp, seed=args.seed, rounds=args.rounds, negative_mode=in_force)
    cfg.validate()
    # The echo records the sample count in force, not "variant default".
    cfg.self_containment_samples = cfg.containment_samples
    return cfg


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    out = _out_dir(args)
    _dump(cfg, out)
    sim = Simulation(cfg)
    result = sim.run()
    for name, cls, rows in (
        ("rounds.csv", RoundRecord, result.records),
        ("breaches.csv", MonitorBreach, result.breaches),
    ):
        header = [f.name for f in dataclasses.fields(cls)]
        _write_csv(out / name, header, map(dataclasses.astuple, rows))
    summary = [
        ("rounds_completed", result.rounds_completed),
        ("halted_round", "" if result.halted_round is None else result.halted_round),
        ("admitted_txs", result.admitted),
        (
            "throughput_per_round",
            result.admitted / result.rounds_completed if result.rounds_completed else 0,
        ),
    ]
    summary.extend(
        (f"local_state_fraction_shard_{i + 1}", frac)
        for i, frac in enumerate(result.local_fractions)
    )
    _write_csv(out / "summary.csv", ["key", "value"], summary)
    if result.halted:
        breach = result.breaches[0]
        print(
            f"halted at round {breach.round}: {breach.kind} "
            f"(shard {breach.shard}): {breach.detail}"
        )
        return EXIT_BREACH
    print(
        f"completed {result.rounds_completed} rounds, "
        f"{result.admitted} transactions admitted"
    )
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    cfg = _run_config(args)
    if cfg.byzantine_fraction > 0 or cfg.adversary != "none":
        raise ConfigError("oracle-compare requires an all-honest configuration")
    out = _out_dir(args)
    _dump(cfg, out)
    sim = Simulation(cfg)
    result = sim.run()
    oracle_blocks = run_unsharded_oracle(cfg)
    divergence = first_divergence(result.global_blocks, oracle_blocks)
    rows = []
    for idx in range(min(len(result.global_blocks), len(oracle_blocks))):
        rows.append(
            (
                idx,
                len(result.global_blocks[idx]),
                len(oracle_blocks[idx]),
                result.global_blocks[idx] == oracle_blocks[idx],
            )
        )
    _write_csv(out / "compare.csv", ["round", "sharded_txs", "oracle_txs", "equal"], rows)
    if divergence is not None:
        sharded = set(result.global_blocks[divergence])
        oracle = set(oracle_blocks[divergence])
        print(
            f"mismatch at round {divergence}: "
            f"{sorted(sharded - oracle)} only sharded, "
            f"{sorted(oracle - sharded)} only oracle"
        )
        return EXIT_MISMATCH
    if result.halted:
        breach = result.breaches[0]
        print(f"halted at round {breach.round}: {breach.kind}: {breach.detail}")
        return EXIT_BREACH
    print(f"block sequences identical over {len(result.global_blocks)} rounds")
    return EXIT_OK


def cmd_bins_mc(args) -> int:
    cfg = _load(BinsConfig, _read_ini(args.config), seed=args.seed, rounds=args.rounds)
    if cfg.mode == "static" and args.rounds is not None:
        raise ConfigError("--rounds applies to iterated bins-mc only")
    out = _out_dir(args)
    if cfg.mode == "static":
        try:
            res = mc_static_failure_rate(cfg.n, cfg.m, cfg.red_fraction, cfg.trials, cfg.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unused = _ITERATED_ONLY
        columns = (
            "n",
            "m",
            "trials",
            "failures",
            "rate",
            "wilson_low",
            "wilson_high",
            "analytic_bound",
            "mean_red_ratio",
        )
        print(
            f"{res.failures} failing trials of {res.trials} "
            f"(rate {res.rate:.3g}, bound {res.analytic_bound:.3g})"
        )
    elif cfg.mode == "iterated":
        try:
            res = mc_iterated_lazy(
                cfg.n,
                cfg.m,
                cfg.t_lease,
                cfg.rounds,
                strategy=cfg.strategy,
                red_fraction=cfg.red_fraction,
                t_takeover=cfg.t_takeover,
                attack_size=cfg.attack_size,
                seed=cfg.seed,
                stats_every=max(1, cfg.rounds // 1000),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unused = _STATIC_ONLY
        columns = (
            "n",
            "m",
            "t_lease",
            "rounds",
            "strategy",
            "failures",
            "mean_red_ratio",
            "attacks_launched",
            "attacks_completed",
            "capacity",
            "peak_capacity_used",
        )
        _write_csv(
            out / "failures.csv", ["round"], ((r,) for r in res.failure_rounds)
        )
        print(f"{res.failures} failing rounds of {res.rounds} ({cfg.strategy})")
    else:
        raise ConfigError(f"unknown bins mode {cfg.mode!r}")
    _write_csv(out / "stats.csv", list(columns), [[getattr(res, c) for c in columns]])
    _dump(cfg, out, omit=unused)
    return EXIT_OK


def _parse_table_rows(raw: str) -> list[tuple[int, int]]:
    rows = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            n_text, m_text = item.split(":")
            rows.append((int(n_text), int(m_text)))
        except ValueError as exc:
            raise ConfigError(f"bad table row {item!r}, want n:m") from exc
        if min(rows[-1]) < 1:
            raise ConfigError(f"bad table row {item!r}, n and m must be positive")
    if not rows:
        raise ConfigError("bound table needs at least one n:m row")
    return rows


def cmd_bound_table(args) -> int:
    cfg = _load(TableConfig, _read_ini(args.config))
    rows = _parse_table_rows(cfg.rows)
    out = _out_dir(args)
    table = bound_table(rows)
    header = list(table[0].keys())
    _write_csv(out / "bounds.csv", header, ([row[k] for k in header] for row in table))
    _dump(cfg, out)
    for row in table:
        print(
            f"n={row['n']} m={row['m']}: per-round 1e{row['log10_per_round']:.2f}, "
            f"million-year 1e{row['log10_million_year']:.2f}"
        )
    return EXIT_OK


def cmd_golden_vectors(args) -> int:
    cfg = _load(VectorsConfig, _read_ini(args.config), rounds=args.rounds)
    if cfg.m < 1 or cfg.t_lease < 1 or cfg.num_keys < 1 or cfg.rounds < 1:
        raise ConfigError("vector parameters must be positive")
    out = _out_dir(args)
    key_ids = [f"k{i:02d}" for i in range(cfg.num_keys)]
    text = golden_vector_text(cfg.genesis_seed, key_ids, cfg.m, cfg.t_lease, cfg.rounds)
    (out / "vectors.txt").write_text(text)
    _dump(cfg, out)
    print(f"wrote {cfg.num_keys} keys x {cfg.rounds} rounds to {out / 'vectors.txt'}")
    return EXIT_OK


_FLAGS = {
    "--seed": dict(type=int, help="override rng seed"),
    "--rounds": dict(type=int, help="override round count"),
    "--negative-mode": dict(choices=NEGATIVE_MODES, help="inject a deliberate defect"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardsim",
        description="sharded-ledger simulator and failure analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the override flags it uses.
    for name, handler, flags in (
        ("simulate", cmd_simulate, ("--seed", "--rounds", "--negative-mode")),
        ("oracle-compare", cmd_oracle_compare, ("--seed", "--rounds", "--negative-mode")),
        ("bins-mc", cmd_bins_mc, ("--seed", "--rounds")),
        ("bound-table", cmd_bound_table, ()),
        ("golden-vectors", cmd_golden_vectors, ("--rounds",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
