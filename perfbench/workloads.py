"""The benchmark's four workloads and the metrics taken from them.

Every workload is a closed loop: the next round starts when
the previous call returns (the scheduler keeps two rounds in flight on
``clients_dialing``).  The program is driven only through its public entry
points — :class:`~repro.VuvuzelaSystem`, :class:`~repro.simulation.ClientSwarm`
and :class:`~repro.DeploymentLauncher` — and every time is taken here, outside
the program's calls.  README.md says why each workload exists.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

from repro import DeploymentLauncher, VuvuzelaConfig, VuvuzelaSystem
from repro.conversation.server import ConversationProcessor
from repro.crypto import backend as backend_module
from repro.dialing.server import DialingProcessor
from repro.mixnet.shuffle import Permutation
from repro.net import MessageKind
from repro.net.tcp import TcpTransport
from repro.simulation import ClientSwarm

from gates import Tally, population
from spans import SpanRecorder, overlap_seconds, self_seconds, total_count, total_seconds


@dataclass(frozen=True)
class Scale:
    #: Swarm population.  3,000 rather than 5,000 users keeps one run of all
    #: four workloads near 100 s, so the 92 runs a full benchmark pass makes
    #: stay within its time budget on a 2-core host (README.md).
    users: int = 3000
    conversing: float = 0.6
    dialing_clients: int = 64
    greetings: int = 3
    #: Measured calls per window: swarm rounds in process and over TCP,
    #: continuous sessions and their rounds, and scheduled conversation
    #: rounds (p90 needs >= 10 samples beyond it).  Each window takes
    #: 12-18 s on a 2-core host; the counts are fixed, so every run of a
    #: workload attempts the same operations.
    swarm_rounds: int = 4
    tcp_rounds: int = 4
    sessions: int = 1
    session_rounds: int = 2
    dialing_rounds: int = 100
    dialing_interval: int = 4
    idle_dialing_rounds: int = 32
    #: Pause after each idle dialing round, so the ~5 ms samples span seconds
    #: of the run instead of one instant of the host's speed.
    idle_dialing_spacing_s: float = 0.1
    setup_repeats: int = 3
    #: Spawning 4 server processes costs ~2 s, so the TCP setup repeats less;
    #: a per-client setup costs ~0.15 s, so it repeats more.
    tcp_setup_repeats: int = 2
    dialing_setup_repeats: int = 5
    #: Conversation pairs whose plaintexts are checked every round.
    checked_pairs: int = 4


FULL = Scale()
#: A seconds-scale variant for the benchmark's own tests.
TINY = Scale(
    users=64,
    dialing_clients=8,
    swarm_rounds=2,
    tcp_rounds=2,
    dialing_rounds=12,
    idle_dialing_rounds=3,
    idle_dialing_spacing_s=0.0,
    setup_repeats=2,
    tcp_setup_repeats=2,
)

SUBMISSIONS = {
    MessageKind.CONVERSATION_REQUEST,
    MessageKind.DIALING_REQUEST,
    MessageKind.SUBMISSION_BATCH,
}


@dataclass
class Window:
    """One measured window: its calls' wall time, CPU and delivered requests."""

    seconds: float = 0.0
    cpu: float = 0.0
    delivered: int = 0
    spans: list = field(default_factory=list)
    #: Program-reported counts over the window (noise, refusals, bytes, ...).
    counts: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, fn, pids: tuple[int, ...] = ()):
        """Run one measured call.  Its wall time and the process CPU it took
        (plus what the server processes ``pids`` spent meanwhile) join the
        window."""
        children = sum(process_cpu_seconds(pid) for pid in pids)
        cpu = time.process_time()
        started = time.perf_counter()
        result = fn()
        self.seconds += time.perf_counter() - started
        self.cpu += time.process_time() - cpu
        self.cpu += sum(process_cpu_seconds(pid) for pid in pids) - children
        return result

    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    @property
    def msgs_per_s(self) -> float:
        return self.delivered / self.seconds


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live child process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------ instrumentation


def trace_crypto_backend(recorder: SpanRecorder) -> None:
    """Route every X25519 and AEAD entry point of the active backend through
    spans, counting the scalars each X25519 call multiplies.

    The crypto layer looks the backend up at call time, so swapping in a
    recording copy with the same name reaches every caller in this process.
    """
    active = backend_module.active_backend()
    x25519 = {
        "x25519_scalar_mult": lambda k, u: 1,
        "x25519_scalar_base_mult": lambda k: 1,
        "x25519_fixed_scalar_batch": lambda k, us: len(us),
        "x25519_fixed_point_batch": lambda ks, u: len(ks),
    }
    aead = ("aead_encrypt", "aead_decrypt", "aead_seal_batch", "aead_open_batch")
    replaced = {
        attr: recorder.wrap(getattr(active, attr), "crypto.x25519", count)
        for attr, count in x25519.items()
    }
    replaced.update(
        {attr: recorder.wrap(getattr(active, attr), "crypto.aead") for attr in aead}
    )
    backend_module._active = replace(active, **replaced)

    def undo() -> None:
        backend_module._active = active

    recorder.on_undo(undo)


def trace_system(recorder: SpanRecorder, system: VuvuzelaSystem) -> None:
    """Spans on every server-side layer of an in-process deployment."""
    for index, endpoint in enumerate(system.conversation_endpoints):
        recorder.patch(endpoint.mix_server, "process_round", f"chain.hop{index}")
    # Patched on the class, so each processor instance (and its
    # ``begin_attempt``, which the last endpoint looks up) stays in place.
    recorder.patch(ConversationProcessor, "__call__", "deaddrop")
    recorder.patch(DialingProcessor, "__call__", "dialing")
    for attr, name in (
        ("peel_request_chunks", "engine.peel"),
        ("wrap_noise_chunks", "engine.noise_wrap"),
        ("wrap_response_chunks", "engine.resp_wrap"),
    ):
        recorder.patch(system.engine, attr, name)
    recorder.patch(Permutation, "random", "shuffle", static=True)
    recorder.patch(Permutation, "apply", "shuffle")
    recorder.patch(Permutation, "invert", "shuffle")
    recorder.patch(system.coordinator, "close_round", "round.close")
    # The coordinator fronts the entry endpoint; re-registering a recording
    # handler is how admission is timed from outside.
    handle = system.coordinator.handle
    system.network.register(
        system.entry.name,
        recorder.wrap(
            handle,
            lambda envelope: "admission" if envelope.kind in SUBMISSIONS else "entry.other",
        ),
    )
    recorder.on_undo(lambda: system.network.register(system.entry.name, handle))
    if system.precompute is not None:
        recorder.patch(system.precompute, "prepare", "precompute.prepare")
    trace_crypto_backend(recorder)


def trace_swarm(recorder: SpanRecorder, swarm: ClientSwarm) -> None:
    recorder.timed_iter(swarm, "iter_round_chunks", "swarm.wrap")
    recorder.patch(swarm, "prebuild_round", "swarm.prebuild")
    recorder.patch(swarm, "handle_round_responses", "swarm.decode")


def trace_tcp(recorder: SpanRecorder, launcher: DeploymentLauncher) -> None:
    """Spans on the client side of the TCP deployment (the servers run in
    their own processes and are not traced)."""
    recorder.patch(launcher, "entry_control", lambda command: f"control.{command.get('cmd')}")
    recorder.patch(launcher, "wait_round", "tcp.wait_round")
    original = TcpTransport.send

    def send(self, source, destination, payload, kind=MessageKind.CONTROL, round_number=0):
        with recorder.span(f"tcp.{kind.name}") as cell:
            reply = original(self, source, destination, payload, kind, round_number)
            cell[0] = len(payload) + (len(reply) if reply is not None else 0)
            return reply

    TcpTransport.send = send
    recorder.on_undo(lambda: setattr(TcpTransport, "send", original))
    trace_crypto_backend(recorder)


# ------------------------------------------------------------------ workloads


class Workload:
    """Setup, a warm-up round, then measured windows of fixed call counts."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.config_seed = seed % (1 << 63)
        self.scale = scale
        #: Times of dialing rounds measured outside the windows (swarm shapes).
        self.dial_times: list[float] = []

    # One setup repetition: config, population, system construction.
    def build(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        raise NotImplementedError

    def warm_up(self, tally: Tally) -> None:
        raise NotImplementedError

    #: Whether every setup repetition includes its own warm-up round (cheap
    #: workloads) or only the last build gets one (a warm-up swarm round
    #: costs seconds).
    warm_up_each_build = False

    def setup(self, tally: Tally) -> float:
        """Median of several builds plus one warm-up round, in seconds.

        The warm-up absorbs the swarm's lazy per-pair key derivation, so
        measured rounds are steady-state rounds.
        """
        builds = []
        for repeat in range(self.setup_repeats()):
            if repeat:
                self.discard()
            started = time.perf_counter()
            self.build()
            if self.warm_up_each_build:
                self.warm_up(tally)
            builds.append(time.perf_counter() - started)
        if self.warm_up_each_build:
            return statistics.median(builds)
        started = time.perf_counter()
        self.warm_up(tally)
        return statistics.median(builds) + time.perf_counter() - started

    def setup_repeats(self) -> int:
        return self.scale.setup_repeats

    def rebuild(self, tally: Tally) -> None:
        """A fresh system at the same seed, in the state :meth:`setup` left."""
        self.discard()
        self.build()
        self.warm_up(tally)

    #: Whether :data:`DETERMINISTIC` counts depend only on the seed here.
    deterministic = True

    def measure(self, tally: Tally, recorder: SpanRecorder, traced: bool) -> Window:
        raise NotImplementedError

    def layer_counts(self) -> dict:
        """Extra per-layer numbers only the workload knows."""
        return {}

    def final_checks(self, tally: Tally) -> None:
        pass

    def close(self) -> None:
        self.discard()


class SwarmWorkload(Workload):
    """A ClientSwarm driven round by round, in process."""

    name = "conv_swarm"
    noise_per_user: float | None = None  # None: VuvuzelaConfig.small noise
    queued = 0  # rounds whose plaintexts were queued

    def config(self) -> VuvuzelaConfig:
        if self.noise_per_user is None:
            return VuvuzelaConfig.small(seed=self.config_seed)
        return VuvuzelaConfig.small(
            conversation_mu=self.noise_per_user * self.scale.users, seed=self.config_seed
        )

    def build_swarm(self) -> VuvuzelaConfig:
        config = self.config()
        self.population = population(self.scale.users, self.scale.conversing, self.seed)
        self.swarm = ClientSwarm(config, self.population)
        return config

    def build(self) -> None:
        self.system = VuvuzelaSystem(self.build_swarm())

    def discard(self) -> None:
        self.system.close()

    def warm_up(self, tally: Tally) -> None:
        report = self.system.run_swarm_round(self.swarm)
        self.check_round(tally, report.metrics.delivered_responses, report.ingest, report.outcome)

    def queue_messages(self) -> dict:
        """One-shot plaintexts for a few pairs; returns receiver -> expected."""
        self.queued += 1
        expected = {}
        for a, b in self.population.pairs[: self.scale.checked_pairs]:
            for sender, receiver in ((a, b), (b, a)):
                message = f"{self.seed}/{self.queued:06d}/{sender}".encode()
                self.swarm.set_message(sender, message)
                expected[receiver] = message
        return expected

    def check_round(self, tally: Tally, delivered: int, ingest, outcome, expected=None) -> None:
        users = len(self.swarm)
        tally.ops(users, outcome.lost, "swarm round: lost responses")
        tally.ops(self.swarm.conversing, len(outcome.undelivered), "swarm round: undelivered")
        tally.ops(users, ingest.refused + ingest.late, "swarm round: refused or late verdicts")
        tally.check(delivered == users, "swarm round: delivered count")
        for receiver, message in (expected or {}).items():
            tally.check(
                outcome.messages.get(receiver) == message, "swarm round: wrong plaintext"
            )

    def idle_dialing_round(self, tally: Tally) -> None:
        metrics = self.system.run_dialing_round()
        tally.check(
            metrics.client_requests == 0 and metrics.refused_requests == 0, "idle dialing round"
        )

    def time_idle_dialing(self, tally: Tally, rounds: int, first: bool) -> None:
        """The swarm does not dial, so dial_round_p50_s times dialing rounds
        that carry only the servers' noise.  They run in spaced batches
        between the measured calls (never inside them), so their samples span
        the run the way the conversation rounds do; the very first one is
        not timed."""
        for index in range(rounds + first):
            started = time.perf_counter()
            self.idle_dialing_round(tally)
            if index or not first:
                self.dial_times.append(time.perf_counter() - started)
            time.sleep(self.idle_dialing_spacing())

    def idle_dialing_spacing(self) -> float:
        return self.scale.idle_dialing_spacing_s

    def instrument(self, recorder: SpanRecorder, traced: bool) -> None:
        recorder.patch(self.system, "run_swarm_round", "round.conversation")
        if traced:
            trace_system(recorder, self.system)
            trace_swarm(recorder, self.swarm)

    def window_calls(self) -> int:
        return self.scale.swarm_rounds

    def measure(self, tally, recorder, traced) -> Window:
        window = Window()
        calls = self.window_calls()
        batch = math.ceil(self.scale.idle_dialing_rounds / (calls + 1))
        self.instrument(recorder, traced)
        try:
            for index in range(calls):
                if not traced:
                    self.time_idle_dialing(tally, batch, first=index == 0)
                self.measured_call(window, tally)
        finally:
            recorder.restore()
        if not traced:
            self.time_idle_dialing(tally, batch, first=False)
        window.spans = recorder.spans
        return window

    def counted_call(self, window: Window, fn):
        """``window.call`` that also counts the in-process network's traffic."""
        network = self.system.network
        sends, moved = network.total_messages(), network.total_bytes()
        result = window.call(fn)
        window.add("net.sends", network.total_messages() - sends)
        window.add("net.bytes", network.total_bytes() - moved)
        return result

    def measured_call(self, window: Window, tally: Tally) -> None:
        expected = self.queue_messages()
        report = self.counted_call(window, lambda: self.system.run_swarm_round(self.swarm))
        self.absorb(window, tally, report, expected)

    def absorb(self, window: Window, tally: Tally, report, expected=None) -> None:
        metrics = report.metrics
        delivered = metrics.delivered_responses
        self.check_round(tally, delivered, report.ingest, report.outcome, expected)
        window.delivered += delivered
        window.add("noise", metrics.noise_requests)
        window.add("refused", metrics.refused_requests)
        window.add("late", metrics.late_requests)


class PaperNoiseWorkload(SwarmWorkload):
    """The swarm at the paper's noise-to-user ratio, as a continuous session
    with the cross-round precompute pipeline on."""

    name = "conv_swarm_papernoise"
    noise_per_user = 0.3  # mu = 300k against 1M users in the paper

    def instrument(self, recorder: SpanRecorder, traced: bool) -> None:
        if traced:
            self.system.enable_precompute()
        super().instrument(recorder, traced)

    def window_calls(self) -> int:
        return self.scale.sessions

    def measured_call(self, window: Window, tally: Tally) -> None:
        # The session call is the measured call: priming round one's
        # material happens inside it, so it is inside the window.
        session = self.counted_call(
            window,
            lambda: self.system.run_swarm_session(
                self.swarm, self.scale.session_rounds, precompute=True
            ),
        )
        for report in session.rounds:
            self.absorb(window, tally, report)
        stats = session.precompute or {}
        for key in ("hits", "misses"):
            window.add(
                f"precompute.{key}",
                stats.get("conversation", {}).get(key, 0) + stats.get("swarm", {}).get(key, 0),
            )


class TcpSwarmWorkload(SwarmWorkload):
    """The conv_swarm population through an entry and 3 chain processes on
    loopback, over the swarm batch path."""

    name = "conv_swarm_tcp"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.spawns: list[float] = []

    def build(self) -> None:
        self.launcher = DeploymentLauncher(self.build_swarm())
        started = time.perf_counter()
        self.launcher.start()
        self.spawns.append(time.perf_counter() - started)

    def discard(self) -> None:
        self.launcher.stop()

    def setup_repeats(self) -> int:
        return self.scale.tcp_setup_repeats

    def warm_up(self, tally: Tally) -> None:
        result, ingest, outcome = self.launcher.run_swarm_round(self.swarm)
        self.check_tcp_round(tally, result, outcome)

    def check_tcp_round(self, tally: Tally, result, outcome, expected=None) -> None:
        self.check_round(tally, result.responded, result, outcome, expected)
        tally.check(outcome.delivered == result.responded, "tcp round: decoded count")

    def idle_dialing_spacing(self) -> float:
        # Paused, the four server processes go idle, and waking them would
        # dominate a ~14 ms round.
        return 0.0

    def idle_dialing_round(self, tally: Tally) -> None:
        number = self.launcher.open_round("dialing")
        self.launcher.entry_control({"cmd": "close-round", "protocol": "dialing", "round": number})
        result = self.launcher.wait_round("dialing", number)
        tally.check(result["accepted"] == 0 and result["refused"] == 0, "idle dialing round")

    def instrument(self, recorder: SpanRecorder, traced: bool) -> None:
        recorder.patch(self.launcher, "run_swarm_round", "round.conversation")
        if traced:
            trace_tcp(recorder, self.launcher)
            trace_swarm(recorder, self.swarm)

    def window_calls(self) -> int:
        return self.scale.tcp_rounds

    def measured_call(self, window: Window, tally: Tally) -> None:
        expected = self.queue_messages()
        servers = [*self.launcher.servers, self.launcher.entry_process]
        result, ingest, outcome = window.call(
            lambda: self.launcher.run_swarm_round(self.swarm),
            tuple(server.process.pid for server in servers),
        )
        self.check_tcp_round(tally, result, outcome, expected)
        window.delivered += outcome.delivered
        window.add("refused", result.refused)
        window.add("late", result.late)
        window.add("noise", self.launcher.chain_noise("conversation", result.round_number))

    def layer_counts(self) -> dict:
        return {"deploy.spawn_s": statistics.median(self.spawns)}


class DialingWorkload(Workload):
    """64 per-client sessions in 32 pairs under the continuous scheduler."""

    name = "clients_dialing"
    warm_up_each_build = True
    #: Under overlap the byte counts depend on timing
    #: (``VuvuzelaSystem.drive_scheduled_round`` documents ``bytes_moved``).
    deterministic = False

    def setup_repeats(self) -> int:
        return self.scale.dialing_setup_repeats

    def build(self) -> None:
        config = VuvuzelaConfig.small(seed=self.config_seed)
        self.population = population(self.scale.dialing_clients, 1.0, self.seed)
        self.system = VuvuzelaSystem(config)
        self.greetings = {
            name: [f"{self.seed}:{name}:greeting-{i}".encode() for i in range(self.scale.greetings)]
            for name in self.population.names
        }
        self.sessions = {
            name: self.system.add_session(name, greetings=list(self.greetings[name]))
            for name in self.population.names
        }
        for caller, callee in self.population.pairs:
            self.sessions[caller].dial(self.sessions[callee].client.public_key)

    def discard(self) -> None:
        self.system.close()

    def warm_up(self, tally: Tally) -> None:
        # A conversation round only: the pending dials wait for the schedule.
        self.check_conversation(tally, self.system.run_conversation_round())

    def check_conversation(self, tally: Tally, metrics) -> None:
        clients = len(self.sessions)
        tally.ops(clients, metrics.lost_requests, "conversation round: lost responses")
        tally.ops(
            clients,
            metrics.refused_requests + metrics.late_requests,
            "conversation round: refused or late",
        )
        tally.check(metrics.delivered_responses == clients, "conversation round: delivered")

    def measure(self, tally, recorder, traced) -> Window:
        window = Window()
        recorder.patch(
            self.system, "drive_scheduled_round", lambda protocol, opened: f"round.{protocol.name}"
        )
        if traced:
            trace_system(recorder, self.system)
            for protocol in self.system.protocols.values():
                recorder.patch(protocol, "build_wires", "client.build")
                recorder.patch(protocol, "handle_responses", "client.handle")
            for client in self.system.clients.values():
                recorder.patch(client, "poll_invitations", "client.poll")
        network = self.system.network
        sends, moved = network.total_messages(), network.total_bytes()
        rounds = self.scale.dialing_rounds
        try:
            report = window.call(
                lambda: self.system.run_continuous(
                    rounds, dialing_interval=self.scale.dialing_interval, pipeline_depth=2
                )
            )
        finally:
            recorder.restore()
        window.spans = recorder.spans
        window.add("net.sends", network.total_messages() - sends)
        window.add("net.bytes", network.total_bytes() - moved)
        clients = len(self.sessions)
        for metrics in report.conversation:
            self.check_conversation(tally, metrics)
            window.delivered += metrics.delivered_responses
            window.add("noise", metrics.noise_requests)
            window.add("refused", metrics.refused_requests)
            window.add("late", metrics.late_requests)
        for metrics in report.dialing:
            failed = metrics.refused_requests + metrics.late_requests
            tally.ops(clients, failed, "dialing round: refused or late")
            tally.check(metrics.client_requests == clients, "dialing round: request count")
            window.delivered += metrics.client_requests - failed
            window.add("invitations", metrics.real_invitations + metrics.noise_invitations)
            window.add("refused", metrics.refused_requests)
            window.add("late", metrics.late_requests)
        tally.check(len(report.conversation) == rounds, "schedule: conversation rounds")
        return window

    def final_checks(self, tally: Tally) -> None:
        for caller, callee in self.population.pairs:
            a, b = self.sessions[caller], self.sessions[callee]
            tally.check(b.invitations_received == 1, "dialing: callee invitations != 1")
            tally.check(a.invitations_received == 0, "dialing: caller got an invitation")
            tally.check(
                b.client.messages_from(a.client.public_key) == self.greetings[caller],
                "dialing: caller greetings not received in order",
            )
            tally.check(
                a.client.messages_from(b.client.public_key) == self.greetings[callee],
                "dialing: callee greetings not received in order",
            )
        lost = sum(session.client.rounds_lost for session in self.sessions.values())
        tally.ops(len(self.sessions), lost, "clients: rounds lost")


WORKLOADS = {
    cls.name: cls
    for cls in (SwarmWorkload, PaperNoiseWorkload, DialingWorkload, TcpSwarmWorkload)
}


# -------------------------------------------------------------------- metrics


def end_to_end(setup_s: float, window: Window, idle_dialing: list[float], fail_frac: float) -> dict:
    conversation = window.durations("round.conversation")
    dialing = window.durations("round.dialing") or idle_dialing
    return {
        "setup_s": (setup_s, "s"),
        "msgs_per_s": (window.msgs_per_s, "msgs/s"),
        "conv_round_p50_s": (statistics.median(conversation), "s"),
        "conv_round_p90_s": (percentile(conversation, 0.9), "s"),
        "dial_round_p50_s": (statistics.median(dialing), "s"),
        "cpu_ms_per_msg": (1000.0 * window.cpu / window.delivered, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (fail_frac, "ratio"),
    }


#: The counts that depend only on the seed on the swarm workloads.
DETERMINISTIC = ("noise.wires_per_round", "crypto.x25519_ops_per_msg", "net.bytes_per_msg")


def per_layer(window: Window, extra: dict, overhead: float) -> dict:
    """Per-layer metrics from a traced window.  Times are seconds per
    conversation round (``dialing.s`` and ``client.poll_s``: per dialing
    round); layers a workload does not run read 0."""
    spans = window.spans
    rounds = len(window.durations("round.conversation"))
    dial_rounds = max(len(window.durations("round.dialing")), 1)
    delivered = window.delivered

    def per_round(name: str, cpu: bool = False) -> float:
        return total_seconds(spans, name, cpu=cpu) / rounds

    def hop_self(index: int) -> float:
        downstream = lambda span: span.name.startswith("chain.hop") or span.name == "deaddrop"
        return self_seconds(spans, f"chain.hop{index}", downstream) / rounds

    x25519 = total_seconds(spans, "crypto.x25519")
    conversation_self = self_seconds(spans, "round.conversation")
    driver_self = conversation_self + self_seconds(spans, "round.dialing")
    in_flight = [
        (span.start, span.end)
        for span in spans
        if span.name in ("round.conversation", "round.dialing")
    ]
    # Only round traffic: the noise-count RPCs between rounds do not count.
    tcp_bytes = sum(
        span.count
        for span in spans
        if span.name.startswith("tcp.")
        and any(start <= span.start <= end for start, end in in_flight)
    )
    counts = window.counts
    wrap_cpu = per_round("swarm.wrap", cpu=True) + per_round("swarm.prebuild", cpu=True)
    return {
        "swarm.wrap_s": (per_round("swarm.wrap"), "s"),
        "swarm.wrap_cpu_s": (wrap_cpu, "s"),
        "swarm.decode_s": (per_round("swarm.decode"), "s"),
        "crypto.x25519_s": (x25519 / rounds, "s"),
        "crypto.x25519_ops_per_msg": (total_count(spans, "crypto.x25519") / delivered, "ops/msg"),
        "crypto.x25519_share": (x25519 / window.seconds, "ratio"),
        "crypto.aead_s": (per_round("crypto.aead"), "s"),
        "swarm.prebuild_s": (per_round("swarm.prebuild"), "s"),
        "precompute.prepare_s": (per_round("precompute.prepare"), "s"),
        "precompute.hits": (counts.get("precompute.hits", 0), "count"),
        "precompute.misses": (counts.get("precompute.misses", 0), "count"),
        "driver.join_wait_s": (conversation_self / rounds, "s"),
        "chain.hop0.self_s": (hop_self(0), "s"),
        "chain.hop1.self_s": (hop_self(1), "s"),
        "chain.hop2.self_s": (hop_self(2), "s"),
        "engine.peel_s": (per_round("engine.peel"), "s"),
        "engine.noise_wrap_s": (per_round("engine.noise_wrap"), "s"),
        "engine.resp_wrap_s": (per_round("engine.resp_wrap"), "s"),
        "shuffle.s": (per_round("shuffle"), "s"),
        "deaddrop.s": (per_round("deaddrop"), "s"),
        "noise.wires_per_round": (counts.get("noise", 0) / rounds, "wires"),
        "admission.s": (per_round("admission"), "s"),
        "admission.refused": (counts.get("refused", 0), "count"),
        "admission.late": (counts.get("late", 0), "count"),
        "driver.self_s": (driver_self / rounds, "s"),
        "client.build_s": (per_round("client.build"), "s"),
        "client.handle_s": (per_round("client.handle"), "s"),
        "scheduler.overlap_frac": (overlap_seconds(in_flight) / window.seconds, "ratio"),
        "dialing.s": (total_seconds(spans, "dialing") / dial_rounds, "s"),
        "client.poll_s": (total_seconds(spans, "client.poll") / dial_rounds, "s"),
        "dialing.invitations_per_round": (counts.get("invitations", 0) / dial_rounds, "count"),
        "net.sends_per_msg": (counts.get("net.sends", 0) / delivered, "sends/msg"),
        "net.bytes_per_msg": (counts.get("net.bytes", 0) / delivered, "B/msg"),
        "tcp.submit_s": (
            per_round("tcp.SUBMISSION_BATCH") + per_round("control.buffered-total"),
            "s",
        ),
        "tcp.chain_s": (per_round("control.close-round") + per_round("tcp.wait_round"), "s"),
        "tcp.collect_s": (per_round("tcp.RESPONSE_COLLECT"), "s"),
        "tcp.bytes_per_msg": (tcp_bytes / delivered, "B/msg"),
        "deploy.spawn_s": (extra.get("deploy.spawn_s", 0.0), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
