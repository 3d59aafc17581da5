"""Synchronous parallel-update dynamics with obstacles and waiting service.

Each step every particle moves by min(gap ahead, distance to the next obstacle
strictly ahead, segment velocity), all reading the time-t state. A particle
landing exactly on an obstacle with positive waiting time starts a countdown
of that many full steps during which it does not move; countdowns run per
particle, so several particles stacked on one obstacle serve their waits
concurrently and the obstacle releases one particle per step once saturated.
This realizes the co-located zero-wait obstacle copies reading of waiting
times, under which movements with original and refined obstacles coincide.

Movement targets are assigned by snapping to the exact candidate position
(obstacle position or the neighbor's old position) rather than by adding a
distance, so exact coincidences survive float arithmetic and no particle can
overshoot a barrier by rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    INFINITY,
    ConfigurationError,
    Domain,
    ObserverError,
    ObstacleField,
    ParticleConfig,
    Ring,
    Scalar,
    to_lattice,
)

# candidate kinds, in tie-break priority order
_OBSTACLE, _GAP, _SPEED = 0, 1, 2

_FLOAT_TOL = 1e-9


@dataclass
class SimState:
    """Mutable simulation state.

    reps are representative positions (in [0, L) on a ring); laps count ring
    wraps so unwrapped positions are laps[i] * L + reps[i]. wait_obstacle and
    wait_remaining hold the per-particle waiting countdown (-1 / 0 when idle).
    """

    reps: list
    laps: list
    wait_obstacle: list
    wait_remaining: list
    time: int
    domain: Domain

    @classmethod
    def initial(cls, x: ParticleConfig) -> "SimState":
        n = x.count
        return cls(list(x.positions), [0] * n, [-1] * n, [0] * n, 0, x.domain)

    @property
    def count(self) -> int:
        return len(self.reps)

    def unwrapped(self) -> tuple:
        if isinstance(self.domain, Ring):
            length = self.domain.length
            return tuple(l * length + r for l, r in zip(self.laps, self.reps))
        return tuple(self.reps)

    def config(self) -> ParticleConfig:
        return ParticleConfig(tuple(self.reps), self.domain)

    def copy(self) -> "SimState":
        return SimState(
            list(self.reps),
            list(self.laps),
            list(self.wait_obstacle),
            list(self.wait_remaining),
            self.time,
            self.domain,
        )


@dataclass(frozen=True)
class StepReport:
    """Everything one step did, for observers."""

    time: int
    reps_before: tuple
    laps_before: tuple
    reps_after: tuple
    laps_after: tuple
    displacements: tuple
    blocked: tuple
    hits: tuple
    v_caps: tuple


def _candidate(state: SimState, z: ObstacleField, i: int) -> tuple:
    """Best movement target for particle i as (wrap, rep, kind, obstacle_index, v_cap).

    Candidates are compared as (wrap, rep) pairs, which orders them by
    unwrapped target position without any arithmetic on the positions
    themselves; ties go to the obstacle, then to the gap.
    """
    reps, laps = state.reps, state.laps
    n = len(reps)
    p = reps[i]
    ring = isinstance(state.domain, Ring)

    vcap = z.segment_velocity(p)
    t_spd = p + vcap
    if ring and t_spd >= state.domain.length:
        best_w, best_r = 1, t_spd - state.domain.length
    else:
        best_w, best_r = 0, t_spd
    kind = _SPEED

    if i + 1 < n:
        gw, gr = laps[i + 1] - laps[i], reps[i + 1]
    elif ring:
        gw, gr = laps[0] + 1 - laps[i], reps[0]
    else:
        gw = None
    if gw is not None and (gw < best_w or (gw == best_w and gr <= best_r)):
        best_w, best_r, kind = gw, gr, _GAP

    d_obs, j_obs = z.next_ahead(p)
    if j_obs >= 0:
        zj = z.positions[j_obs]
        ow = 1 if zj <= p else 0
        if ow < best_w or (ow == best_w and zj <= best_r):
            best_w, best_r, kind = ow, zj, _OBSTACLE

    return best_w, best_r, kind, j_obs, vcap


def _step_scalar(state: SimState, z: ObstacleField) -> StepReport:
    n = state.count
    ring = isinstance(state.domain, Ring)
    length = state.domain.length if ring else None
    reps_before = tuple(state.reps)
    laps_before = tuple(state.laps)
    new_reps = list(state.reps)
    new_laps = list(state.laps)
    blocked = [False] * n
    hits = [-1] * n
    v_caps = [None] * n

    for i in range(n):
        if state.wait_remaining[i] > 0:
            state.wait_remaining[i] -= 1
            v_caps[i] = z.segment_velocity(reps_before[i])
            blocked[i] = True
            continue
        w, r, kind, j_obs, vcap = _candidate(state, z, i)
        v_caps[i] = vcap
        if w == 0 and r == reps_before[i]:
            blocked[i] = True
            continue
        new_reps[i] = r
        new_laps[i] += w
        state.wait_obstacle[i] = -1
        if kind == _OBSTACLE:
            hits[i] = j_obs
            tau = z.waits[j_obs]
            if tau > 0:
                state.wait_obstacle[i] = j_obs
                state.wait_remaining[i] = tau

    state.reps = new_reps
    state.laps = new_laps
    if ring:
        disp = tuple(
            (new_laps[i] - laps_before[i]) * length + new_reps[i] - reps_before[i]
            for i in range(n)
        )
    else:
        disp = tuple(new_reps[i] - reps_before[i] for i in range(n))
    report = StepReport(
        state.time,
        reps_before,
        laps_before,
        tuple(new_reps),
        tuple(new_laps),
        disp,
        tuple(blocked),
        tuple(hits),
        tuple(v_caps),
    )
    state.time += 1
    return report


def step(state: SimState, z: ObstacleField) -> tuple:
    """Advance one step; returns (new state, report) leaving the input untouched."""
    out = state.copy()
    report = _step_scalar(out, z)
    return out, report


def local_velocity(state: SimState, z: ObstacleField, i: int) -> Scalar:
    """What step would move particle i right now, without moving anything."""
    if not 0 <= i < state.count:
        raise IndexError(f"particle index {i} out of range 0..{state.count - 1}")
    p = state.reps[i]
    if state.wait_remaining[i] > 0:
        return p - p
    w, r, _, _, _ = _candidate(state, z, i)
    if isinstance(state.domain, Ring):
        return w * state.domain.length + r - p
    return r - p


def default_intervals(domain: Domain) -> tuple:
    """Fixed test intervals for the interval-count invariant."""
    if isinstance(domain, Ring):
        length = domain.length
        out = []
        for k in range(8):
            a = k * length / 8
            b = a + 3 * length / 16
            out.append((a, b if b < length else length))
        return tuple(out)
    if domain.finite:
        width = domain.end - domain.start
        return tuple(
            (domain.start + k * width / 4, domain.start + k * width / 4 + width / 5)
            for k in range(4)
        )
    return ()


def _count_in(reps: Sequence, a, b) -> int:
    return sum(1 for r in reps if a <= r < b)


class InvariantChecker:
    """Observer that re-derives the per-step invariants from each report.

    Records violation messages instead of raising so a run can be audited
    whole; distances to obstacles are recomputed here, independently of the
    branch the engine chose.
    """

    def __init__(self, z: ObstacleField, intervals: tuple | None = None):
        self.z = z
        self.intervals = default_intervals(z.domain) if intervals is None else intervals
        self.violations: list = []
        self.steps_seen = 0

    def __call__(self, report: StepReport) -> None:
        z = self.z
        ring = isinstance(z.domain, Ring)
        length = z.domain.length if ring else None
        n = len(report.reps_before)
        tol = _FLOAT_TOL if any(isinstance(r, float) for r in report.reps_before[:1]) else 0
        t = report.time
        for i in range(n):
            xi = report.displacements[i]
            if xi < -tol:
                self.violations.append(f"t={t} i={i}: negative displacement {xi}")
            if xi > report.v_caps[i] + tol:
                self.violations.append(f"t={t} i={i}: displacement {xi} above cap {report.v_caps[i]}")
            d_obs, _ = z.next_ahead(report.reps_before[i])
            if d_obs != INFINITY and xi > d_obs + tol:
                self.violations.append(f"t={t} i={i}: obstacle barrier crossed by {xi - d_obs}")
        if ring:
            u_after = [l * length + r for l, r in zip(report.laps_after, report.reps_after)]
            for i in range(n - 1):
                if u_after[i] > u_after[i + 1] + tol:
                    self.violations.append(f"t={t} i={i}: order broken")
            if n > 1 and u_after[-1] > u_after[0] + length + tol:
                self.violations.append(f"t={t}: ring seam order broken")
        else:
            for i in range(n - 1):
                if report.reps_after[i] > report.reps_after[i + 1] + tol:
                    self.violations.append(f"t={t} i={i}: order broken")
        for a, b in self.intervals:
            delta = _count_in(report.reps_after, a, b) - _count_in(report.reps_before, a, b)
            if abs(delta) > 1:
                self.violations.append(f"t={t}: interval [{a},{b}) count jumped by {delta}")
        self.steps_seen += 1


class TrajectoryWriter:
    """Observer collecting trajectory CSV rows: t, particle, position, displacement, blocked."""

    def __init__(self):
        self.rows: list = []

    def __call__(self, report: StepReport) -> None:
        for i in range(len(report.reps_after)):
            self.rows.append(
                (
                    report.time + 1,
                    i,
                    report.reps_after[i],
                    report.displacements[i],
                    int(report.blocked[i]),
                )
            )


@dataclass
class TrajectorySummary:
    """Result of a run: snapshots of unwrapped positions keyed by time."""

    steps: int
    snapshots: dict
    final_state: SimState
    invariant_violations: int = 0

    def displacement(self, i: int, t: int) -> Scalar:
        if t not in self.snapshots:
            raise KeyError(f"no snapshot at t={t}")
        return self.snapshots[t][i] - self.snapshots[0][i]


def _fast_eligible(state: SimState, z: ObstacleField) -> bool:
    if state.count == 0:
        return False
    values = list(state.reps) + list(z.positions) + list(z.velocities) + [z.top_speed]
    if isinstance(state.domain, Ring):
        values.append(state.domain.length)
    if not all(isinstance(v, float) for v in values):
        return False
    if any(w > 0 for w in z.waits) or any(w > 0 for w in state.wait_remaining):
        return False
    return True


def _run_fast(state: SimState, z: ObstacleField, steps: int, snapshot_at: set) -> tuple:
    """Vectorized float path for wait-free fields; returns (snapshots, violations).

    Runs the same candidate comparison as the scalar engine, so results are
    bit-identical to it on eligible inputs. Invariants are checked vectorized
    every step. One searchsorted per step serves both the segment velocity and
    the next obstacle; each step's neighbour arrays and interval counts are
    reused by the next.
    """
    ring = isinstance(state.domain, Ring)
    reps = np.array(state.reps, dtype=np.float64)
    laps = np.array(state.laps, dtype=np.int64)
    n = reps.shape[0]
    m = z.count
    zpos = np.array(z.positions, dtype=np.float64)
    zvel = np.array(z.velocities, dtype=np.float64)
    v_top = float(z.top_speed)
    length = float(state.domain.length) if ring else None
    # indexed by searchsorted(zpos, p, "right"): the speed of p's segment and
    # the next obstacle strictly ahead of p
    if ring:
        seg_vel = np.append(zvel[-1:], zvel)
        obs_ahead = np.append(zpos, zpos[:1])
    else:
        seg_vel = np.append(v_top, zvel)
        obs_ahead = np.append(zpos, INFINITY)
    seg_cap = seg_vel + _FLOAT_TOL
    bounds = np.array(
        [float(v) for ab in default_intervals(state.domain) for v in ab], dtype=np.float64
    )
    violations = 0
    snapshots = {}

    def snap(t):
        u = laps * length + reps if ring else reps
        snapshots[t] = tuple(float(x) for x in u)

    def interval_counts(r):
        edges = np.searchsorted(np.sort(r), bounds)
        return edges[1::2] - edges[::2]

    def ahead(a):
        return np.concatenate((a[1:], a[:1]))

    if not m:
        vcap = np.full(n, v_top)
        vcap_tol = vcap + _FLOAT_TOL
    if ring:
        w_gap = ahead(laps) - laps
        w_gap[-1] += 1
        r_gap = ahead(reps)
    counts = interval_counts(reps) if bounds.size else None
    if 0 in snapshot_at:
        snap(0)
    for t in range(steps):
        if m:
            idx = np.searchsorted(zpos, reps, side="right")
            vcap = seg_vel[idx]
            vcap_tol = seg_cap[idx]
        t_spd = reps + vcap
        if ring:
            wrap = t_spd >= length
            w_best = wrap.astype(np.int64)
            r_best = np.where(wrap, t_spd - length, t_spd)
            take = np.where(w_gap == w_best, r_gap <= r_best, w_gap < w_best)
            w_best = np.where(take, w_gap, w_best)
            r_best = np.where(take, r_gap, r_best)
            if m:
                w_obs = (idx == m).astype(np.int64)
                r_obs = obs_ahead[idx]
                take = np.where(w_obs == w_best, r_obs <= r_best, w_obs < w_best)
                w_best = np.where(take, w_obs, w_best)
                r_best = np.where(take, r_obs, r_best)
                barrier_ok = np.where(w_best == w_obs, r_best <= r_obs, w_best < w_obs)
                violations += int(n - np.count_nonzero(barrier_ok))
            disp = (w_best * length + r_best) - reps
            new_laps = laps + w_best
            w_gap = ahead(new_laps) - new_laps
            r_gap = ahead(r_best)
            gap_after = w_gap * length + r_gap - r_best
            gap_after[-1] += length
            violations += int(np.count_nonzero(gap_after < -_FLOAT_TOL))
            w_gap[-1] += 1
        else:
            r_best = np.minimum(t_spd, np.append(reps[1:], INFINITY))
            if m:
                r_obs = obs_ahead[idx]
                r_best = np.minimum(r_best, r_obs)
                violations += int(np.count_nonzero(r_best > r_obs))
            disp = r_best - reps
            new_laps = laps
            violations += int(np.count_nonzero(r_best[:-1] > r_best[1:] + _FLOAT_TOL))
        violations += int(np.count_nonzero(disp < -_FLOAT_TOL))
        violations += int(np.count_nonzero(disp > vcap_tol))
        if counts is not None:
            before, counts = counts, interval_counts(r_best)
            violations += int(np.count_nonzero(np.abs(counts - before) > 1))
        reps = r_best
        laps = new_laps
        if t + 1 in snapshot_at:
            snap(t + 1)

    state.reps = [float(x) for x in reps]
    state.laps = [int(x) for x in laps]
    state.time += steps
    return snapshots, violations


def run(
    state: SimState,
    z: ObstacleField,
    steps: int,
    observers: Iterable[Callable] = (),
    snapshot_times: Iterable[int] = (),
) -> TrajectorySummary:
    """Apply the step map repeatedly, mutating state through to the end.

    Snapshots of unwrapped positions are always taken at t=0 and t=steps,
    plus any requested times (relative to the start of this run). When no
    observers are attached and the input is float-valued with no waiting
    times, a vectorized path is used; it produces bit-identical positions.
    Exact input is stepped as integers on its lattice (see to_lattice);
    snapshots, observer reports and the final state come back in input
    units as Fractions.
    """
    if steps < 0:
        raise ConfigurationError("step count must be nonnegative")
    observers = tuple(observers)
    snapshot_at = {0, steps} | {int(t) for t in snapshot_times}

    if not observers and _fast_eligible(state, z):
        snapshots, violations = _run_fast(state, z, steps, snapshot_at)
        return TrajectorySummary(steps, snapshots, state, violations)

    lattice = to_lattice(state.domain, z, state.reps)
    if lattice is None:
        # float or mixed input has no lattice; it is stepped as given
        work, z_work, unscale = state, z, tuple
    else:
        scale, domain, z_work, reps = lattice
        # the countdown lists hold no lengths, so they are stepped in place
        work = SimState(
            list(reps), list(state.laps), state.wait_obstacle, state.wait_remaining, state.time, domain
        )
        unscale = _Unscale(scale)
    snapshots = {0: unscale(work.unwrapped())}
    try:
        for t in range(steps):
            report = _step_scalar(work, z_work)
            if observers and work is not state:
                report = unscale.report(report)
            for obs in observers:
                try:
                    obs(report)
                except Exception as exc:
                    raise ObserverError(
                        f"observer {type(obs).__name__} failed at t={report.time}: {exc}"
                    ) from exc
            if t + 1 in snapshot_at:
                snapshots[t + 1] = unscale(work.unwrapped())
    finally:
        if work is not state:
            state.reps = list(unscale(work.reps))
            state.laps = work.laps
            state.time = work.time
    return TrajectorySummary(steps, snapshots, state, 0)


class _Unscale:
    """Lattice ints back to input units, Fraction(v, scale), remembered per value.

    A run revisits few values (obstacles, speeds, positions on a ring), so
    observer reports look most of them up instead of building a Fraction.
    """

    _LIMIT = 1 << 16

    def __init__(self, scale: int):
        self.scale = scale
        self.known: dict = {}

    def __call__(self, values) -> tuple:
        known = self.known
        if len(known) > self._LIMIT:
            known.clear()
        out = []
        for v in values:
            f = known.get(v)
            if f is None:
                f = known[v] = Fraction(v, self.scale)
            out.append(f)
        return tuple(out)

    def report(self, r: StepReport) -> StepReport:
        return StepReport(
            r.time,
            self(r.reps_before),
            r.laps_before,
            self(r.reps_after),
            r.laps_after,
            self(r.displacements),
            r.blocked,
            r.hits,
            self(r.v_caps),
        )
