"""Parsing and replay helpers for the membership certificate transcripts."""

from dataclasses import dataclass
from pathlib import Path

from shardsim.keys import SignatureScheme
from shardsim.membership import Membership

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class VectorFile:
    genesis_seed: bytes
    m: int
    t_lease: int
    rounds: int
    key_ids: list[str]
    # (round, key id) -> (shard, sigma)
    certs: dict[tuple[int, str], tuple[int, bytes]]


def load_vector_file(path: Path) -> VectorFile:
    header: dict[str, str] = {}
    certs: dict[tuple[int, str], tuple[int, bytes]] = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("round="):
            fields = dict(part.split("=", 1) for part in line.split())
            certs[(int(fields["round"]), fields["key"])] = (
                int(fields["shard"]),
                bytes.fromhex(fields["sigma"]),
            )
        else:
            key, _, value = line.partition(" = ")
            header[key] = value
    return VectorFile(
        genesis_seed=bytes.fromhex(header["genesis_seed"]),
        m=int(header["m"]),
        t_lease=int(header["t_lease"]),
        rounds=int(header["rounds"]),
        key_ids=header["keys"].split(","),
        certs=certs,
    )


def replay_verifier(vf: VectorFile, check):
    """Walk rounds 1..rounds; call ``check(mem, keypairs, r)`` inside each.

    The verifier membership follows the same leaderless seed path as the
    transcript generator, so epoch seeds line up round for round.
    """
    scheme = SignatureScheme()
    kps = {key_id: scheme.keygen(key_id) for key_id in vf.key_ids}
    mem = Membership.init(
        vf.m, [kp.pk for kp in kps.values()], vf.genesis_seed, vf.t_lease, scheme
    )
    for r in range(1, vf.rounds + 1):
        check(mem, kps, r)
        mem.end_of_round(r, [None] * mem.m)
