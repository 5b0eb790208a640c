"""Golden digests: the onion wrap's bytes, pinned against recorded values.

The byte-identity suite compares paths of the *current* code with each other
(serial vs batch, swarm vs per-client, in-process vs TCP).  A change to the
shared X25519 kernel underneath all of them would move every path together
and pass those checks.  These digests were recorded from the wrap before the
fused ephemeral-key kernel existed, so they pin today's bytes to the earlier
implementation's: seeded ``wrap_request_batch`` output (large enough to take
the numpy kernel on the pure-Python backend), seeded per-client
``wrap_request`` output, and two rounds of a 64-client swarm (whose idle
clients exercise the base-point batch).  Every backend must reproduce them.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

from repro import VuvuzelaConfig
from repro.crypto import DeterministicRandom, KeyPair, wrap_request, wrap_request_batch
from repro.crypto.backend import available_backends, set_backend
from repro.simulation import ClientSwarm, WorkloadSpec

BATCH_DIGEST = "a319ab6d12ad03f352d12bb28a60784da9a48e98aec5933e557b9b31db12af0b"
PER_CLIENT_DIGEST = "2f1113f57b55bd565cb8a7615b944b0bd69bf8ad4426fd927a2ad40b7aea253c"
SWARM_ROUND_DIGESTS = (
    "630960fe44c476cbe0cd71a1562f2b1a58ecda44d423339a5171c863ac951c02",
    "16fa54677a6b7a5d4ba8d6b784524f4fa9018696fc9176d3cb3a4bc0f13997c7",
)


def digest(chunks: Iterable[bytes]) -> str:
    """SHA-256 over length-prefixed chunks, so boundaries count too."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(bytes(chunk))
    return h.hexdigest()


def chain_keys(seed: int):
    rng = DeterministicRandom(seed=seed)
    return [KeyPair.generate(rng).public for _ in range(3)]


@pytest.fixture(params=available_backends())
def backend(request):
    backend = set_backend(request.param)
    yield backend
    set_backend(available_backends()[-1])


def test_batch_wrap_matches_recorded_digest(backend) -> None:
    inners = [bytes([i % 251]) * (40 + i % 5) for i in range(70)]
    wires, contexts = wrap_request_batch(
        inners, chain_keys(7), 5, DeterministicRandom(seed=8)
    )
    keys = [key for context in contexts for key in context.layer_keys]
    assert digest(wires + keys) == BATCH_DIGEST


def test_per_client_wrap_matches_recorded_digest(backend) -> None:
    servers = chain_keys(7)
    rng = DeterministicRandom(seed=9)
    out: list[bytes] = []
    for i in range(4):
        wire, context = wrap_request(b"inner-%d" % i * 10, servers, 11, rng)
        out += [wire, *context.layer_keys]
    assert digest(out) == PER_CLIENT_DIGEST


def test_swarm_rounds_match_recorded_digests(backend) -> None:
    config = VuvuzelaConfig.small(seed=424)
    spec = WorkloadSpec(num_users=64, conversing_fraction=0.5, dialing_fraction=0.0)
    swarm = ClientSwarm.from_spec(config, spec)
    for round_number, expected in enumerate(SWARM_ROUND_DIGESTS):
        assert digest(swarm.build_round(round_number)) == expected
