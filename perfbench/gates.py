"""Correctness gates and failure accounting shared by every workload.

A :class:`Tally` counts attempted operations and failed ones.  Every check
the benchmark makes — a lost response, a refused verdict, a greeting out of
order, a wire that differs from the reference client's — is one attempted
operation, and a failed check is one failure, so ``fail_frac`` and the
result's ``correct`` flag cannot disagree.
"""

from __future__ import annotations

import math
import sys

from repro import VuvuzelaConfig, VuvuzelaSystem
from repro.crypto import DeterministicRandom
from repro.simulation import ClientSwarm, WorkloadSpec, generate_population


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """Record ``attempted`` operations of which ``failed`` went wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.errors.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def report(self) -> None:
        for error in self.errors:
            print(f"perfbench: FAILED {error}", file=sys.stderr)


def fail_upper_bound(failed: int, attempted: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper bound on the failure probability.

    Reported as ``fail_frac`` instead of the raw ratio ``failed/attempted``
    (which the result's ``failed`` and ``attempted`` fields carry exactly):
    the raw ratio is 0 on a correct program, and a metric that is always 0
    has no relative spread or bound.  The bound is positive, fixed for a
    fixed number of attempts, and a single failure raises it by more than
    any bound the benchmark allows.
    """
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - confidence

    def cdf(p: float) -> float:  # P[X <= failed] for X ~ Binomial(attempted, p)
        log_q = math.log1p(-p)
        log_p = math.log(p)
        return sum(
            math.exp(
                math.lgamma(attempted + 1)
                - math.lgamma(k + 1)
                - math.lgamma(attempted - k + 1)
                + k * log_p
                + (attempted - k) * log_q
            )
            for k in range(failed + 1)
        )

    low, high = failed / attempted, 1.0
    for _ in range(100):
        mid = (low + high) / 2
        if mid <= 0.0 or cdf(mid) > alpha:
            low = mid
        else:
            high = mid
    return high


def population(users: int, conversing: float, seed: int):
    """The generated population a workload hands to the program."""
    spec = WorkloadSpec(num_users=users, conversing_fraction=conversing, dialing_fraction=0.0)
    return generate_population(spec, DeterministicRandom(f"perfbench-population-{seed}"))


def gate_swarm_identity(tally: Tally, seed: int, users: int = 64) -> None:
    """Swarm-built wires are byte-identical to per-client reference wires."""
    config = VuvuzelaConfig.small(seed=seed)
    swarm = ClientSwarm(config, population(users, 0.6, seed))
    wires = swarm.build_round(0, chunk_size=17)
    reference = swarm.reference_wires(0)
    tally.check(len(wires) == len(reference) == users, "identity gate: wire count")
    mismatched = sum(1 for got, want in zip(wires, reference) if bytes(got) != bytes(want))
    tally.ops(users, mismatched, "identity gate: swarm wire != reference client wire")


def gate_precompute_identity(tally: Tally, seed: int, users: int = 32, rounds: int = 3) -> None:
    """A session with precompute on delivers what the same session with it
    off delivers: counts, noise, (m1, m2) histograms and plaintexts."""
    config = VuvuzelaConfig.small(seed=seed)

    def observe(precompute: bool) -> list[tuple]:
        swarm = ClientSwarm(config, population(users, 0.6, seed))
        with VuvuzelaSystem(config) as system:
            session = system.run_swarm_session(swarm, rounds, precompute=precompute)
        rows = []
        for report in session.rounds:
            metrics, outcome = report.metrics, report.outcome
            histogram = metrics.histogram
            rows.append(
                (
                    metrics.delivered_responses,
                    metrics.noise_requests,
                    (histogram.singles, histogram.pairs, histogram.collisions),
                    sorted(outcome.messages.items()),
                    outcome.lost,
                    list(outcome.undelivered),
                )
            )
        return rows

    off, on = observe(False), observe(True)
    tally.check(len(off) == len(on) == rounds, "precompute gate: round count")
    for index, (a, b) in enumerate(zip(off, on)):
        tally.check(a == b, f"precompute gate: round {index} differs on vs off")
        tally.check(a[4] == 0 and a[5] == [], f"precompute gate: round {index} lost responses")


# ---------------------------------------------------------- determinism


def check_counts(tally: Tally, first: dict, replay: dict) -> None:
    """Counts that depend only on the seed must repeat exactly.

    ``first`` comes from the traced window, ``replay`` from the same window
    run again in the same process on a freshly built system at the same
    seed; any drift is a failed check.
    """
    for name, value in first.items():
        tally.check(
            replay[name] == value,
            f"determinism: {name} drifted ({value!r} first, {replay[name]!r} on replay)",
        )
