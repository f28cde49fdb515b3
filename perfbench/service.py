"""The live-service workload: a ``repro-wigig serve`` subprocess on loopback.

The stock server runs with its default flags (obs counters on), paces
frames at the live interval and is pinned to every CPU but the
benchmark's.  Each run hosts fixed-length paper-config sessions of 8
users one after another: the first runs with the server's caches cold,
the later ones warm.  The benchmark joins 4 users on each of 2 TCP
connections and sends feedback open-loop, one report per user per frame
interval, timing each reply from when its message was due, while a
watcher polls the session's status to see it finish.  Everything is
measured from outside the server; its host slowdown comes from an
:class:`hostspeed.IdleSampler` on its CPUs.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Dict, List, Optional, Set, Tuple

from repro.emulation import build_context
from repro.errors import ServiceError
from repro.service import ReceiverClient, SessionSpec, http_request

import hostspeed
from sessions import PLACEMENT, SessionWorkload, outcome_digest, percentile

USERS = 8
CONNECTIONS = 2
FRAME_INTERVAL_S = 1.0 / 30.0
#: Feedback reports per user per second, sent on schedule (open loop):
#: one per frame interval, the rate at which the pipeline's receivers
#: report reception (Sec 2.7, the ``feedback`` stage of every frame).
FEEDBACK_HZ_PER_USER = 1.0 / FRAME_INTERVAL_S
#: Status poll period of the watcher that sees a session finish.
POLL_S = 0.1
#: Feedback stops this many frames before the session's end, so no report
#: reaches a session that has already finished: the frames one poll
#: period can hold at the live pace, plus the frame in progress.
STOP_MARGIN_FRAMES = round(POLL_S / FRAME_INTERVAL_S) + 1
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 120.0

#: The in-process twin of the served session (same users, placement and
#: paper config), used by the traced run for per-layer numbers.
SERVICE_8U = SessionWorkload("service_8u", USERS)

_PORT_LINES = {
    "receiver": re.compile(r"receiver plane : ([\d.]+):(\d+)"),
    "control": re.compile(r"control plane  : http://([\d.]+):(\d+)"),
}


#: Warm sessions end a run once there are enough feedback replies; this
#: bounds the run when feedback keeps failing.
MAX_WARM_SESSIONS = 8


@dataclass(frozen=True)
class ServicePlan:
    """How much work one run does (the smoke plan shrinks it): warm
    sessions go on until there are ``min_feedback`` replies and the run's
    ``--seconds`` have passed."""

    setup_reps: int = 3
    session_frames: int = 20
    min_feedback: int = 100


FULL_SERVICE_PLAN = ServicePlan()
SMOKE_SERVICE_PLAN = ServicePlan(setup_reps=1, session_frames=12,
                                 min_feedback=1)


class ServerProcess:
    """A ``repro-wigig serve`` child pinned to ``cpus``; its output is
    drained by a thread."""

    def __init__(self, root: Path, cpus: Set[int]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--frame-interval", repr(FRAME_INTERVAL_S)],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        os.sched_setaffinity(self.proc.pid, cpus)
        self.lines: List[str] = []
        self.ports: Dict[str, int] = {}
        self.host = "127.0.0.1"
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            for kind, pattern in _PORT_LINES.items():
                match = pattern.search(line)
                if match:
                    self.host = match.group(1)
                    self.ports[kind] = int(match.group(2))
            if len(self.ports) == len(_PORT_LINES):
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> None:
        if not self._ready.wait(SERVER_START_TIMEOUT_S) or len(self.ports) < 2:
            tail = "\n".join(self.lines[-20:])
            raise ServiceError(f"server did not report its ports:\n{tail}")

    def vm_hwm_mb(self) -> float:
        """Peak resident memory of the server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServiceError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


@dataclass
class _Tally:
    """Control messages sent and failed, and the latencies measured."""

    attempted: int = 0
    failed: int = 0
    feedback_rtt_s: List[float] = field(default_factory=list)
    sender_lag_s: List[float] = field(default_factory=list)
    join_rtt_s: List[float] = field(default_factory=list)


class _LoadGenerator:
    def __init__(self, server: ServerProcess, tally: _Tally) -> None:
        self.server = server
        self.tally = tally
        self.clients: List[ReceiverClient] = []

    async def control(self, method: str, path: str, body=None) -> Dict:
        self.tally.attempted += 1
        try:
            status, reply = await http_request(
                self.server.host, self.server.ports["control"], method, path,
                body, timeout=REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, ServiceError):
            self.tally.failed += 1
            raise
        if status != 200:
            self.tally.failed += 1
            raise ServiceError(f"{method} {path} -> {status}: {reply}")
        return reply

    async def start_and_join(self, spec: Dict) -> str:
        reply = await self.control("POST", "/start", spec)
        session_id = reply["session"]
        if not self.clients:
            self.clients = [
                await ReceiverClient.connect(
                    self.server.host, self.server.ports["receiver"])
                for _ in range(CONNECTIONS)
            ]
        rtts = await asyncio.gather(*[
            self._request(self.client_of(user).join(
                session_id, user, timeout=REQUEST_TIMEOUT_S))
            for user in range(USERS)
        ])
        self.tally.join_rtt_s.extend(r for r in rtts if r is not None)
        return session_id

    def client_of(self, user: int) -> ReceiverClient:
        return self.clients[user * CONNECTIONS // USERS]

    async def _request(self, call) -> Optional[float]:
        self.tally.attempted += 1
        try:
            _, rtt = await call
        except (ServiceError, asyncio.TimeoutError, ConnectionError):
            self.tally.failed += 1
            return None
        return rtt

    async def watch(self, session_id: str, frames: int,
                    started: float) -> float:
        """Feed the session until near its end; return when it ended."""
        stop_feedback = asyncio.Event()
        sender = asyncio.get_running_loop().create_task(
            self._send_feedback(session_id, started, stop_feedback))
        try:
            while True:
                status = await self.control("GET", f"/sessions/{session_id}")
                if status["state"] != "running":
                    ended = monotonic()
                    break
                if status["frames_streamed"] >= frames - STOP_MARGIN_FRAMES:
                    stop_feedback.set()
                await asyncio.sleep(POLL_S)
        finally:
            stop_feedback.set()
            await sender
        return ended

    async def _send_feedback(self, session_id: str, started: float,
                             stop: asyncio.Event) -> None:
        interval = 1.0 / (FEEDBACK_HZ_PER_USER * USERS)
        pending = set()
        index = 0
        while not stop.is_set():
            due = started + index * interval
            delay = due - monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
                if stop.is_set():
                    break
            user = index % USERS
            task = asyncio.get_running_loop().create_task(
                self._feedback(session_id, user, due))
            pending.add(task)
            task.add_done_callback(pending.discard)
            index += 1
        if pending:
            await asyncio.gather(*pending)

    async def _feedback(self, session_id: str, user: int, due: float) -> None:
        self.tally.sender_lag_s.append(monotonic() - due)
        rtt = await self._request(self.client_of(user).feedback(
            session_id, user, 0.9, timeout=REQUEST_TIMEOUT_S))
        if rtt is not None:
            self.tally.feedback_rtt_s.append(monotonic() - due)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []


async def _drive(root: Path, seed: int, seconds: float, plan: ServicePlan,
                 server_cpus: Set[int]) -> Dict:
    spec = SessionSpec(users=USERS, frames=plan.session_frames, seed=seed,
                       placement=PLACEMENT).to_dict()
    tally = _Tally()
    #: (began, server ready, joined) per set-up.
    setups: List[Tuple[float, float, float]] = []
    #: (started, ended, first and end index into tally.feedback_rtt_s).
    windows: List[Tuple[float, float, int, int]] = []
    video_s = plan.session_frames * FRAME_INTERVAL_S
    sampler = hostspeed.IdleSampler(server_cpus)
    server: Optional[ServerProcess] = None

    async def session(load: _LoadGenerator) -> str:
        first = len(tally.feedback_rtt_s)
        started = monotonic()
        session_id = await load.start_and_join(spec)
        ended = await load.watch(session_id, plan.session_frames, started)
        windows.append((started, ended, first, len(tally.feedback_rtt_s)))
        return session_id

    try:
        sampler.wait_first()
        for rep in range(plan.setup_reps):
            began = monotonic()
            server = ServerProcess(root, server_cpus)
            server.wait_ready()
            ready = monotonic()
            load = _LoadGenerator(server, tally)
            if rep < plan.setup_reps - 1:
                await load.start_and_join(spec)
                setups.append((began, ready, monotonic()))
                await load.close()
                server.stop()
        # The last set-up's /start and joins begin the cold session.
        first = len(tally.feedback_rtt_s)
        cold_started = monotonic()
        cold_id = await load.start_and_join(spec)
        setups.append((began, ready, monotonic()))
        cold_ended = await load.watch(cold_id, plan.session_frames,
                                      cold_started)
        windows.append((cold_started, cold_ended, first,
                        len(tally.feedback_rtt_s)))
        warm_ids: List[str] = []
        phase_began = monotonic()
        while not warm_ids or len(warm_ids) < MAX_WARM_SESSIONS and (
                len(tally.feedback_rtt_s) - windows[0][3] < plan.min_feedback
                or monotonic() - phase_began < seconds):
            warm_ids.append(await session(load))
        measured_s = monotonic() - cold_started
        served = {}
        for session_id in [cold_id] + warm_ids:
            served[session_id] = await load.control(
                "GET", f"/sessions/{session_id}")
        peak_rss_mb = server.vm_hwm_mb()
        await load.close()
    finally:
        if server is not None:
            server.stop()
        sampler.stop()

    # Times corrected for the slowdown the sampler saw on the server's
    # CPUs; a session's pacing sleeps (one frame interval per frame, so
    # one second per second of video) are not.
    setup_s, start_s = [], []
    for began, ready, joined in setups:
        slowdown = sampler.slowdown(began, joined)
        setup_s.append((joined - began) / slowdown)
        start_s.append((ready - began) / slowdown)
    walls, rtts, slowdowns = [], [], []
    for started, ended, first, end in windows:
        slowdown = sampler.slowdown(started, ended)
        slowdowns.append(slowdown)
        walls.append(video_s + (ended - started - video_s) / slowdown)
        rtts.append([rtt / slowdown
                     for rtt in tally.feedback_rtt_s[first:end]])
    warm_rtt = [rtt for session_rtts in rtts[1:] for rtt in session_rtts]
    raw_warm_s = sum(ended - started for started, ended, _, _ in windows[1:])
    # A session fails when it did not stream all its frames.
    sessions_failed = sum(
        1 for s in served.values()
        if s["state"] != "finished"
        or s["frames_streamed"] != plan.session_frames)
    return {
        "spec": spec,
        "served": served,
        "cold_id": cold_id,
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "rtf_cold": walls[0] / video_s,
            "rtf": statistics.median(walls[1:]) / video_s,
            "latency_ms_p50": percentile(warm_rtt, 50) * 1e3,
            "latency_ms_p90": percentile(warm_rtt, 90) * 1e3,
            "ssim_mean": statistics.fmean(
                served[i].get("mean_ssim", math.nan) for i in warm_ids),
            "peak_rss_mb": peak_rss_mb,
        },
        "service": {
            "service.start_ms": statistics.median(start_s) * 1e3,
            "service.join_ms_p50": percentile(tally.join_rtt_s, 50) * 1e3,
            "service.control_msgs_per_s": tally.attempted / measured_s,
        },
        "attempted": tally.attempted,
        "failed": tally.failed + sessions_failed,
        "notes": {
            "served_fps": plan.session_frames * len(warm_ids) / raw_warm_s,
            "feedback_msgs_warm": len(warm_rtt),
            "sender_lag_ms_p90": percentile(tally.sender_lag_s, 90) * 1e3,
            "setup_s_all": setup_s,
            "host_slowdown": slowdowns,
            "host_samples": len(sampler.samples),
        },
    }


def drive(root: Path, seed: int, seconds: float, server_cpus: Set[int],
          plan: ServicePlan = FULL_SERVICE_PLAN) -> Dict:
    """Run the served sessions and measure them from outside, with the
    server pinned to ``server_cpus``."""
    return asyncio.run(_drive(root, seed, seconds, plan, server_cpus))


def served_problems(result: Dict) -> Tuple[List[str], str]:
    """Every served session must finish with the fingerprint of the same
    spec streamed in this process.  Also returns that run's outcome
    digest."""
    session = SessionSpec.from_dict(result["spec"]).build(build_context())
    outcome = session.run(result["spec"]["frames"])
    reference = outcome.fingerprint()
    problems = []
    for session_id, status in result["served"].items():
        if status["state"] != "finished":
            problems.append(f"session {session_id} ended {status['state']}")
            continue
        served = status["outcome"]["fingerprint"]
        if served != reference:
            problems.append(
                f"session {session_id} fingerprint {served} != in-process "
                f"{reference}")
    return problems, outcome_digest(outcome)
