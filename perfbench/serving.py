"""Open-loop load against the prediction service.

A seeded Poisson schedule of window arrivals is spread over
``N_TENANTS`` logical tenant sessions on one asyncio loop (sessions,
not sockets or threads).  The generator submits each window when it is
due, whether or not earlier windows have resolved, so a stalled service
faces a growing queue.  Latency is timed from each window's due time,
so it includes any wait a stall imposed on later windows; how late the
generator itself ran is reported separately.

A window that resolves to anything but ``fresh``, or that the service
refuses with backpressure, counts as missing the latency limit.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field

import numpy as np

N_TENANTS = 64
#: The nominal rate (windows/s) at which latency is measured: the median
#: over NOMINAL_REPEATS phases of NOMINAL_SECONDS each (1,000 windows a
#: phase).  Latency is recorded but not bounded: on a shared host it
#: measures the neighbours.  The host deschedules this process for
#: 4-12 ms a few times a second, and in two sets of ten runs the middle
#: half of p50 spread 20-23% and of p90 48-105% of the median.
NOMINAL_RATE = 1000.0
NOMINAL_SECONDS = 1.0
NOMINAL_REPEATS = 4
#: The bounded serving cost is measured in lockstep rounds: every tenant
#: submits one window and all await their results before the next
#: round.  Each round is then one batch of N_TENANTS windows whatever
#: the host's speed, so the CPU time per window measures the service's
#: work (submission, batching, scoring, resolution), not how the batch
#: sizes fell.  Open-loop CPU time per window moved 25% between phases
#: of one run, as the batch sizes followed the host's stalls.
LOCKSTEP_ROUNDS = 100
LOCKSTEP_REPEATS = 5
TAIL_PERCENTILE = 90
#: Rates tried, highest first, to find the highest rate that meets the
#: limits below: each gets up to ATTEMPTS tries, and the first rate met
#: ends the search.  The top is 8,000/s: at 16,000/s the generator itself
#: falls 30-90 ms behind.
LADDER = (2000.0, 4000.0, 8000.0)
LADDER_SECONDS = 1.0
ATTEMPTS = 3
#: A rate is met when the tail latency stays within this limit ...
LATENCY_LIMIT_MS = 25.0
#: ... every window is fresh, the generator's tail lateness stays within
#: this bound, and the queue left when the last window is issued is no
#: more than the windows due within one latency limit.
GEN_LATE_LIMIT_MS = 10.0
#: Seconds the last windows may take to resolve before the service is
#: stopped and anything still queued is shed.
DRAIN_SECONDS = 2.0
#: Fresh results re-scored directly to check bit-identity.
IDENTITY_SAMPLES = 32


@dataclass
class Phase:
    """One open-loop phase: due times, tenants and vector rows."""

    rate: float
    due: np.ndarray  # seconds after the phase starts, ascending
    tenant: np.ndarray
    row: np.ndarray

    def __len__(self) -> int:
        return len(self.due)


def make_phase(rng: np.random.Generator, rate: float, seconds: float,
               n_rows: int) -> Phase:
    """Poisson arrivals at ``rate`` for ``seconds``, tenants and rows
    drawn uniformly."""
    n = max(1, int(round(rate * seconds)))
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return Phase(rate=rate, due=due,
                 tenant=rng.integers(0, N_TENANTS, size=n),
                 row=rng.integers(0, n_rows, size=n))


@dataclass
class PhaseResult:
    """What one phase measured."""

    rate: float
    submitted: int
    fresh: int
    refused: int  #: backpressure refusals
    statuses: dict[str, int]
    latency_ms: np.ndarray  #: per window; inf where not fresh
    late_ms: np.ndarray  #: generator lateness per window
    backlog_at_end: int
    batches: int
    elapsed_s: float  #: first due time to last resolution
    results: list  #: WindowResult or None (refused), per window

    @property
    def failed(self) -> int:
        return self.submitted - self.fresh

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.latency_ms, q))

    @property
    def throughput(self) -> float:
        return self.fresh / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def tail_late_ms(self) -> float:
        return float(np.percentile(self.late_ms, TAIL_PERCENTILE))

    def meets_limits(self) -> bool:
        return (self.failed == 0
                and self.percentile_ms(TAIL_PERCENTILE) <= LATENCY_LIMIT_MS
                and self.tail_late_ms() <= GEN_LATE_LIMIT_MS
                and self.backlog_at_end
                <= self.rate * LATENCY_LIMIT_MS / 1000.0)

    def summary(self) -> dict:
        return {"rate": self.rate, "submitted": self.submitted,
                "fresh": self.fresh, "refused": self.refused,
                "p50_ms": self.percentile_ms(50),
                "p90_ms": self.percentile_ms(90),
                "p95_ms": self.percentile_ms(95),
                "p99_ms": self.percentile_ms(99),
                "gen_late_p90_ms": self.tail_late_ms(),
                "backlog_at_end": self.backlog_at_end,
                "batches": self.batches,
                "throughput": self.throughput,
                "meets_limits": self.meets_limits()}


async def _drive(api, scorer, pool: np.ndarray, phase: Phase) -> PhaseResult:
    service = api.PredictionService(scorer, api.ServeConfig())
    await service.start()
    sessions = [service.connect(f"tenant-{t:03d}") for t in range(N_TENANTS)]
    next_window = [0] * N_TENANTS
    n = len(phase)
    latency = np.full(n, np.inf)
    late = np.zeros(n)
    results: list = [None] * n
    refused = 0
    last_done = 0.0

    async def one(k: int, session, window: int, due: float) -> None:
        nonlocal refused, last_done
        try:
            result = await session.submit(window, pool[phase.row[k]])
        except api.Backpressure:
            refused += 1
            return
        done = time.monotonic()
        last_done = max(last_done, done)
        results[k] = result
        if result.status == "fresh":
            latency[k] = (done - due) * 1000.0

    tasks = []
    start = time.monotonic()
    for k in range(n):
        due = start + phase.due[k]
        wait = due - time.monotonic()
        if wait > 0:
            await asyncio.sleep(wait)
        elif k % 16 == 0:
            await asyncio.sleep(0)  # let the batcher run while behind
        late[k] = max(0.0, time.monotonic() - due) * 1000.0
        tenant = int(phase.tenant[k])
        window = next_window[tenant]
        next_window[tenant] += 1
        tasks.append(asyncio.ensure_future(
            one(k, sessions[tenant], window, due)))
    backlog_at_end = service.backlog
    # A refused window leaves a gap its tenant's later windows wait
    # behind; stopping the service resolves whatever still waits.
    await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
    await service.stop()
    await asyncio.gather(*tasks)
    statuses: dict[str, int] = {}
    for result in results:
        if result is not None:
            statuses[result.status] = statuses.get(result.status, 0) + 1
    return PhaseResult(
        rate=phase.rate, submitted=n, fresh=statuses.get("fresh", 0),
        refused=refused, statuses=statuses, latency_ms=latency,
        late_ms=late, backlog_at_end=backlog_at_end,
        batches=service.batches,
        elapsed_s=max(0.0, last_done - (start + phase.due[0])),
        results=results)


def run_phase(api, scorer, pool: np.ndarray, phase: Phase) -> PhaseResult:
    """Drive one phase on a fresh service and event loop.

    Garbage left by earlier work is collected first, so a phase does not
    pay for a collection of the heap a sweep left behind.
    """
    gc.collect()
    return asyncio.run(_drive(api, scorer, pool, phase))


@dataclass
class LockstepResult:
    """What one lockstep phase measured."""

    submitted: int
    fresh: int
    batches: int
    cpu_s: float  #: process CPU time of the rounds

    @property
    def cpu_us_per_window(self) -> float:
        return self.cpu_s / self.submitted * 1e6

    def summary(self) -> dict:
        return {"submitted": self.submitted, "fresh": self.fresh,
                "batches": self.batches,
                "cpu_us_per_window": self.cpu_us_per_window}


def make_lockstep(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """The rows each tenant submits, round by round."""
    return rng.integers(0, n_rows, size=(LOCKSTEP_ROUNDS, N_TENANTS))


async def _lockstep(api, scorer, pool: np.ndarray,
                    rows: np.ndarray) -> LockstepResult:
    service = api.PredictionService(scorer, api.ServeConfig())
    await service.start()
    sessions = [service.connect(f"tenant-{t:03d}") for t in range(N_TENANTS)]
    fresh = 0
    cpu_start = time.process_time()
    for window, round_rows in enumerate(rows):
        results = await asyncio.gather(*(
            session.submit(window, pool[row])
            for session, row in zip(sessions, round_rows)))
        fresh += sum(r.status == "fresh" for r in results)
    cpu_s = time.process_time() - cpu_start
    await service.stop()
    return LockstepResult(submitted=rows.size, fresh=fresh,
                          batches=service.batches, cpu_s=cpu_s)


def run_lockstep(api, scorer, pool: np.ndarray,
                 rows: np.ndarray) -> LockstepResult:
    """Drive one lockstep phase on a fresh service and event loop."""
    gc.collect()
    return asyncio.run(_lockstep(api, scorer, pool, rows))


def identity_mismatches(scorer, pool: np.ndarray, phase: Phase,
                        result: PhaseResult,
                        rng: np.random.Generator) -> tuple[int, int]:
    """Re-score a seeded sample of fresh windows one row at a time.

    Returns ``(checked, mismatched)``: a fresh result must equal a direct
    ``predict_proba_rows`` call on the same row, bit for bit.
    """
    fresh = [k for k, r in enumerate(result.results)
             if r is not None and r.status == "fresh"]
    if not fresh:
        return 0, 0
    picks = rng.choice(len(fresh), size=min(IDENTITY_SAMPLES, len(fresh)),
                       replace=False)
    mismatched = 0
    for pick in picks:
        k = fresh[int(pick)]
        direct = scorer.predict_proba_rows(pool[phase.row[k]][None])[0]
        if tuple(float(p) for p in direct) != result.results[k].probabilities:
            mismatched += 1
    return len(picks), mismatched


@dataclass
class ServeReport:
    """The nominal-rate phases, the ladder and the lockstep phases of
    one serving run."""

    nominal: list[PhaseResult]
    rungs: list[PhaseResult]
    lockstep: list[LockstepResult] = field(default_factory=list)

    def percentile_ms(self, q: float) -> float:
        """Median over the nominal phases of each phase's percentile."""
        return float(np.median([r.percentile_ms(q) for r in self.nominal]))

    @property
    def cpu_us_per_window(self) -> float:
        """Median over the lockstep phases of CPU time per window (0
        when none ran)."""
        if not self.lockstep:
            return 0.0
        return float(np.median([r.cpu_us_per_window
                                for r in self.lockstep]))

    @property
    def max_rate(self) -> float:
        """Throughput at the highest rate met (at the nominal rate when
        no ladder rate was met)."""
        met = [r for r in self.rungs if r.meets_limits()]
        best = max(met, key=lambda r: r.rate) if met else None
        return best.throughput if best else float(np.median(
            [r.throughput for r in self.nominal]))

    @property
    def submitted(self) -> int:
        return sum(r.submitted for r in self.nominal + self.lockstep)

    @property
    def failed(self) -> int:
        return (sum(r.failed for r in self.nominal)
                + sum(r.submitted - r.fresh for r in self.lockstep))


def nominal_phases(api, scorer, pool: np.ndarray,
                   phases: list[Phase]) -> list[PhaseResult]:
    return [run_phase(api, scorer, pool, phase) for phase in phases]


def climb(api, scorer, pool: np.ndarray,
          phases: dict[float, Phase]) -> list[PhaseResult]:
    """Try the ladder's rates from the highest down until one is met."""
    rungs: list[PhaseResult] = []
    for rate in sorted(LADDER, reverse=True):
        for _ in range(ATTEMPTS):
            rungs.append(run_phase(api, scorer, pool, phases[rate]))
            if rungs[-1].meets_limits():
                return rungs
    return rungs
