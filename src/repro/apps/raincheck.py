"""RAINCheck — distributed checkpointing with rollback/recovery (Sec. 5.3).

Jobs run on cluster nodes under a leader (elected per connected
component, ref. [29]).  Each job periodically encodes its state with the
storage building block and writes it to all accessible nodes with a
distributed store; when a node fails or becomes inaccessible, the leader
reassigns its jobs, and the new worker restores the last checkpoint with
a distributed retrieve and resumes.  As long as a connected component of
k nodes survives, every job runs to completion — the paper's claim,
measurable through :class:`JobStatus`.

The leader's assignment table rides the membership token (an
attachment), so any newly elected leader inherits it without a separate
recovery protocol — the "confine the hard parts to the building blocks"
philosophy of Sec. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..election import LeaderElection
from ..membership import MembershipNode, Token
from ..sim import Interrupt, Simulator
from ..storage import DistributedStore, RetrieveError
from .workload import synthetic_block

__all__ = ["JobSpec", "JobStatus", "RainCheckNode"]

_ASSIGN_KEY = "raincheck.assign"  # token attachment: {job_id: node}
_DONE_KEY = "raincheck.done"  # token attachment: tuple of finished job ids


@dataclass(frozen=True)
class JobSpec:
    """A restartable compute job."""

    job_id: str
    total_steps: int
    step_time: float = 0.05  # simulated compute per step
    checkpoint_every: int = 5  # steps between checkpoints
    state_bytes: int = 4 * 1024

    def state_at(self, step: int) -> bytes:
        """Deterministic job state after ``step`` steps (verifiable)."""
        return synthetic_block(f"{self.job_id}@{step}", self.state_bytes)


@dataclass
class JobStatus:
    """Execution record of one job on one node."""

    job_id: str
    steps_done: int = 0
    restarts: int = 0
    resumed_from: list[int] = field(default_factory=list)
    finished_at: Optional[float] = None


class RainCheckNode:
    """Per-node RAINCheck agent: leader duties + local workers."""

    def __init__(
        self,
        membership: MembershipNode,
        election: LeaderElection,
        store: DistributedStore,
        jobs: list[JobSpec],
    ):
        self.membership = membership
        self.election = election
        self.store = store
        self.sim: Simulator = membership.sim
        self.name = membership.name
        self.jobs = {j.job_id: j for j in jobs}
        self.status: dict[str, JobStatus] = {}
        self._workers: dict[str, object] = {}  # job_id -> Process
        metrics = self.sim.obs.metrics
        self._f_checkpoints = metrics.counter(
            "apps.raincheck.checkpoints", help="checkpoints written"
        )
        self._f_restarts = metrics.counter(
            "apps.raincheck.restarts", help="worker (re)starts, first run included"
        )
        # This node's series of each family, bound on first observation.
        self._m_checkpoints = self._m_restarts = None
        membership.on_hold(self._on_token)

    # -- leader + worker logic, all inside the token hook -----------------

    def _on_token(self, token: Token) -> None:
        assign: dict[str, str] = dict(token.attachments.get(_ASSIGN_KEY, {}))
        done: set[str] = set(token.attachments.get(_DONE_KEY, ()))
        members = set(token.ring)
        # mark our finished jobs
        for job_id, st in self.status.items():
            if st.finished_at is not None and job_id not in done:
                done.add(job_id)
                assign.pop(job_id, None)
        if self.election.is_leader:
            # (re)assign: every unfinished job must sit on a live member
            live = sorted(members)
            loads = {m: 0 for m in live}
            for job_id, node in assign.items():
                if node in loads:
                    loads[node] += 1
            for job_id in sorted(self.jobs):
                if job_id in done:
                    continue
                node = assign.get(job_id)
                if node not in members:
                    target = min(live, key=lambda m: (loads[m], m))
                    assign[job_id] = target
                    loads[target] += 1
        token.attachments[_ASSIGN_KEY] = dict(assign)
        token.attachments[_DONE_KEY] = tuple(sorted(done))
        # worker management: run exactly the jobs assigned to us
        mine = {j for j, node in assign.items() if node == self.name and j not in done}
        for job_id in list(self._workers):
            if job_id not in mine:
                proc = self._workers.pop(job_id)
                if proc.is_alive:
                    proc.interrupt("reassigned")
        for job_id in sorted(mine):
            if job_id not in self._workers or not self._workers[job_id].is_alive:
                self._workers[job_id] = self.sim.process(
                    self._worker(self.jobs[job_id]), name=f"job:{job_id}@{self.name}"
                )

    # -- the worker loop: compute, checkpoint, recover -----------------------

    def _worker(self, job: JobSpec):
        st = self.status.setdefault(job.job_id, JobStatus(job_id=job.job_id))
        st.restarts += 1
        if self._m_restarts is None:
            self._m_restarts = self._f_restarts.labels(node=self.name)
        self._m_restarts.inc()
        try:
            # roll back to the last checkpoint, if any
            step = 0
            try:
                data = yield from self.store.retrieve(f"ckpt:{job.job_id}")
                step = int.from_bytes(data[:4], "little")
                payload = data[4:]
                if payload != job.state_at(step):
                    step = 0  # corrupt checkpoint: restart from scratch
            except RetrieveError:
                step = 0
            st.resumed_from.append(step)
            st.steps_done = step
            while step < job.total_steps:
                if not self.membership.host.up:
                    return  # crashed mid-step; leader will reassign
                yield self.sim.timeout(job.step_time)
                step += 1
                st.steps_done = step
                if step % job.checkpoint_every == 0 or step == job.total_steps:
                    blob = step.to_bytes(4, "little") + job.state_at(step)
                    yield from self.store.store(f"ckpt:{job.job_id}", blob)
                    if self._m_checkpoints is None:
                        self._m_checkpoints = self._f_checkpoints.labels(node=self.name)
                    self._m_checkpoints.inc()
            st.finished_at = self.sim.now
            self.sim.obs.bus.publish(
                "apps.raincheck.job_done", job=job.job_id, node=self.name
            )
        except Interrupt:
            return
