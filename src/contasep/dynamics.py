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

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil
from operator import eq
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    _FLOAT_TOL,
    INFINITY,
    ConfigurationError,
    Domain,
    ObserverError,
    ObstacleField,
    ParticleConfig,
    Ring,
    Scalar,
    _as_tuple,
    _tolerance,
    to_lattice,
)


@dataclass(frozen=True)
class SimState:
    """Simulation state: a value, its per-particle sequences held as tuples.

    reps are representative positions (in [0, L) on a ring); laps count ring
    wraps so unwrapped positions are laps[i] * L + reps[i]. wait_remaining
    holds the per-particle waiting countdown (0 when idle).
    """

    reps: tuple
    laps: tuple
    wait_remaining: tuple
    time: int
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "reps", _as_tuple(self.reps))
        object.__setattr__(self, "laps", _as_tuple(self.laps))
        object.__setattr__(self, "wait_remaining", _as_tuple(self.wait_remaining))
        if not len(self.reps) == len(self.laps) == len(self.wait_remaining):
            raise ConfigurationError(
                "reps, laps and wait_remaining must have equal length, got "
                f"{len(self.reps)}, {len(self.laps)} and {len(self.wait_remaining)}"
            )

    @classmethod
    def initial(cls, x: ParticleConfig) -> "SimState":
        n = x.count
        return cls(x.positions, (0,) * n, (0,) * n, 0, x.domain)

    @property
    def count(self) -> int:
        return len(self.reps)

    def unwrapped(self) -> tuple:
        if isinstance(self.domain, Ring):
            length = self.domain.length
            return tuple(l * length + r for l, r in zip(self.laps, self.reps))
        return self.reps

    def config(self) -> ParticleConfig:
        return ParticleConfig(self.reps, self.domain)


def displacements(before: SimState, after: SimState) -> tuple:
    """Each particle's move from before to after, unwrapped."""
    if not isinstance(before.domain, Ring):
        return tuple(a - b for a, b in zip(after.reps, before.reps))
    length = before.domain.length
    return tuple(
        (la - lb) * length + a - b
        for a, b, la, lb in zip(after.reps, before.reps, after.laps, before.laps)
    )


def _step_scalar(state: SimState, z: ObstacleField) -> SimState:
    """One step of every particle: the next state.

    Each particle's candidates, the next obstacle strictly ahead, its
    neighbour's old position and p + its segment speed, are compared as
    (wrap, rep) pairs, which orders them by unwrapped target position without
    any arithmetic on the positions themselves; ties go to the obstacle, then
    to the gap. p's segment speed and next obstacle come from z.table. A
    line's leader sees particle 0 one lap on, a gap no line move reaches.
    """
    reps, laps, waiting = state.reps, state.laps, state.wait_remaining
    n = len(reps)
    length = state.domain.length if isinstance(state.domain, Ring) else None
    positions, waits = z.positions, z.waits
    speed, ahead, ahead_laps, land = z.table
    next_reps = reps[1:] + reps[:1]
    next_laps = [*laps[1:], laps[0] + 1] if n else []
    new_reps = list(reps)
    new_laps = list(laps)
    new_waiting = list(waiting)

    for i in range(n):
        if waiting[i] > 0:
            new_waiting[i] = waiting[i] - 1
            continue
        p = reps[i]
        k = bisect_right(positions, p)
        w, r, obstacle = ahead_laps[k], ahead[k], True
        gw, gr = next_laps[i] - laps[i], next_reps[i]
        if gw < w or (gw == w and gr < r):
            w, r, obstacle = gw, gr, False
        sw, sr = 0, p + speed[k]
        if length is not None and sr >= length:
            sw, sr = 1, sr - length
        if sw < w or (sw == w and sr < r):
            w, r, obstacle = sw, sr, False
        if w == 0 and r == p:
            continue
        new_reps[i] = r
        new_laps[i] += w
        if obstacle:
            new_waiting[i] = waits[land[k] - 1]

    return SimState(new_reps, new_laps, new_waiting, state.time + 1, state.domain)


step = _step_scalar


def local_velocity(state: SimState, z: ObstacleField, i: int) -> Scalar:
    """What step would move particle i right now, without moving anything."""
    if not 0 <= i < state.count:
        raise IndexError(f"particle index {i} out of range 0..{state.count - 1}")
    return displacements(state, step(state, z))[i]


def default_intervals(domain: Domain) -> tuple:
    """Fixed test intervals for the interval-count invariant.

    Bounds are exact unless the domain is given in floats.
    """
    if isinstance(domain, Ring):
        length = _exact(domain.length)
        out = []
        for k in range(8):
            a = k * length / 8
            b = a + 3 * length / 16
            out.append((a, b if b < length else length))
        return tuple(out)
    if domain.finite:
        start = _exact(domain.start)
        width = domain.end - start
        return tuple(
            (start + k * width / 4, start + k * width / 4 + width / 5) for k in range(4)
        )
    return ()


def _exact(value: Scalar) -> Scalar:
    return value if isinstance(value, float) else Fraction(value)


def _count_in(reps: Sequence, a, b) -> int:
    return sum(1 for r in reps if a <= r < b)


class InvariantChecker:
    """Observer that re-derives the per-step invariants from the states
    before and after each step.

    Records violation messages instead of raising so a run can be audited
    whole. It reads the engines' lookup, z.table, at each position before
    the step: the segment speed there caps the move, and the distance to the
    next obstacle bounds it. Neither trusts the branch the engine chose.
    """

    def __init__(self, z: ObstacleField):
        self.z = z
        self.intervals = default_intervals(z.domain)
        self.violations: list = []

    def __call__(self, before: SimState, after: SimState) -> None:
        z = self.z
        ring = isinstance(z.domain, Ring)
        length = z.domain.length if ring else None
        speed, ahead, ahead_laps, _ = z.table
        n = before.count
        tol = _tolerance(before.reps[:1])
        t = before.time
        for i, (p, xi) in enumerate(zip(before.reps, displacements(before, after))):
            k = bisect_right(z.positions, p)
            if xi < -tol:
                self.violations.append(f"t={t} i={i}: negative displacement {xi}")
            if xi > speed[k] + tol:
                self.violations.append(f"t={t} i={i}: displacement {xi} above cap {speed[k]}")
            d_obs = ahead[k] + length - p if ahead_laps[k] else ahead[k] - p
            if d_obs != INFINITY and xi > d_obs + tol:
                self.violations.append(f"t={t} i={i}: obstacle barrier crossed by {xi - d_obs}")
        if ring:
            u_after = after.unwrapped()
            for i in range(n - 1):
                if u_after[i] > u_after[i + 1] + tol:
                    self.violations.append(f"t={t} i={i}: order broken")
            if n > 1 and u_after[-1] > u_after[0] + length + tol:
                self.violations.append(f"t={t}: ring seam order broken")
        else:
            for i in range(n - 1):
                if after.reps[i] > after.reps[i + 1] + tol:
                    self.violations.append(f"t={t} i={i}: order broken")
        for a, b in self.intervals:
            delta = _count_in(after.reps, a, b) - _count_in(before.reps, a, b)
            if abs(delta) > 1:
                self.violations.append(f"t={t}: interval [{a},{b}) count jumped by {delta}")


class TrajectoryWriter:
    """Observer collecting trajectory CSV rows: t, particle, position, displacement, blocked.

    A particle is blocked when it did not move: a waiting or stopped
    particle keeps its rep and laps, and every move changes one of them.
    """

    def __init__(self):
        self.rows: list = []

    def __call__(self, before: SimState, after: SimState) -> None:
        for i, (r, d) in enumerate(zip(after.reps, displacements(before, after))):
            self.rows.append((after.time, i, r, d, int(d == 0)))


@dataclass
class TrajectorySummary:
    """Result of a run: snapshots of unwrapped positions keyed by time.

    final_state is the run's last state; a split run resumes from it.
    invariant_violations is None where the scalar engine ran: it checks nothing.
    cycle is (lam, s, G) when the vectorized kernel found the state of a ring
    run repeating with period lam: each particle i then stands, lam steps
    on, where particle i + s stood, G laps further, the index read cyclically
    and one lap on past the last particle. So over a period n particles move
    (s + n * G) * L in total, and (s + n * G) * L / (n * lam) is the run's
    exact long-run mean velocity. cycle is None when the run never repeated
    or the scalar engine ran.
    """

    steps: int
    snapshots: dict
    final_state: SimState
    invariant_violations: int | None = None
    cycle: tuple | None = None

    def displacement(self, i: int, t: int) -> Scalar:
        if t not in self.snapshots:
            raise KeyError(f"no snapshot at t={t}")
        return self.snapshots[t][i] - self.snapshots[0][i]


class Replicas:
    """Independent states on one field, for run to step as one batch.

    count is the number of particles over all replicas.
    """

    def __init__(self, states: Iterable[SimState]):
        self.states = tuple(states)

    @property
    def count(self) -> int:
        return sum(s.count for s in self.states)


def _fast_field(z: ObstacleField) -> bool:
    """Whether the vectorized kernel takes field z: floats, no waits."""
    values = [*z.positions, *z.velocities, z.top_speed]
    if isinstance(z.domain, Ring):
        values.append(z.domain.length)
    return all(isinstance(v, float) for v in values) and not any(w > 0 for w in z.waits)


def _fast_state(state: SimState) -> bool:
    """Whether the vectorized kernel takes state's own values: some particles,
    float positions, no countdown running."""
    return (
        state.count > 0
        and all(isinstance(r, float) for r in state.reps)
        and not any(w > 0 for w in state.wait_remaining)
    )


def _fast_eligible(state: SimState, z: ObstacleField) -> bool:
    return _fast_state(state) and _fast_field(z)


def _run_fast(batch: Replicas, z: ObstacleField, steps: int, snapshot_at: set) -> tuple:
    """Vectorized float kernel for wait-free fields; returns (finals, snapshots, violations, cycles).

    Every replica shares the first one's domain and the field z; their
    particles sit in one flat array, replica after replica. Each particle's
    candidates are compared as (wrap, rep) pairs with the scalar engine's
    tie-breaks, reading the same z.table, so each replica's positions are
    bit-identical to it. One body serves both domains: a line wraps at
    INFINITY and a lap on it adds no length, and a line's leader sees
    itself one lap ahead, a gap no line move reaches. finals are the final
    states, one per replica; snapshots maps a time to the flat array of
    unwrapped positions; violations holds each replica's invariant count,
    the same as the replica reports when run alone.

    Each move lands on an obstacle, a neighbour's old position or p + v, and
    p + v never passes the next obstacle. So each particle's table index
    is copied from step to step, never searched: an obstacle's is its land
    entry, a neighbour's is its old one, and p + v keeps its own (0 after a
    ring wrap).

    The interval-count invariant carries each particle's bin between the
    interval edges, and that bin's lower and upper edge, from step to step.
    Each step searches again only the particles that left their bin. When
    two or more did, it counts each interval's change from those movers' old
    and new bins; one mover changes any count by at most 1.

    On a ring, each replica's state is watched for a repeat up to a
    relabelling of its particles (see _Replay). Once every replica has
    repeated and its states at the phases still to report are captured,
    the batch stops stepping: the rest of the run is replayed exactly,
    snapshots, final state and invariant counts alike. It returns each
    replica's cycle too, or None.
    """
    # imported here so that exact runs, which never reach this kernel, start without numpy
    import numpy as np

    states = batch.states
    domain = states[0].domain
    ring = isinstance(domain, Ring)
    sizes = np.array([s.count for s in states])
    reps = np.array([r for s in states for r in s.reps], dtype=np.float64)
    try:
        laps = np.array([l for s in states for l in s.laps], dtype=np.int64)
        if ring:
            # in floats p + v lands at most (L + v) / 2**53 past itself; abs(-2**63) reads as 2**63 unsigned
            top, length = Fraction(z.top_speed), Fraction(domain.length)
            growth = ceil(steps * (top + (length + top) / 2**53) / length) + 1
            if int(np.abs(laps).view(np.uint64).max()) + growth >= 2**63:
                raise OverflowError
    except OverflowError:
        raise ConfigurationError(f"{steps} steps could carry a lap count past 2**63 - 1, the kernel's limit") from None
    n = reps.shape[0]
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    # the particle ahead within the replica, one lap on for its last particle
    nxt = np.arange(1, n + 1)
    nxt[last] = first if ring else last
    # a lap adds a ring's length, nothing on a line, which never wraps
    period = float(domain.length) if ring else 0.0
    wrap_at = period if ring else INFINITY
    # z.table, indexed by idx = searchsorted(z.positions, p, "right")
    speed, ahead = (np.array(col, dtype=np.float64) for col in z.table[:2])
    ahead_laps, land = (np.array(col, dtype=np.int64) for col in z.table[2:])
    # Interval counts. Bin b holds the positions in [edges[b-1], edges[b]),
    # the edges being the distinct interval bounds, and in_interval[b] marks
    # the intervals it lies in. Each particle carries the key of its
    # replica's bin, replica * nbins + b; lo_of and hi_of give a key's edges.
    bounds = [float(v) for ab in default_intervals(domain) for v in ab]
    # sorted(set()), not np.unique: that would load numpy.ma
    edges = np.array(sorted(set(bounds)), dtype=np.float64)
    nbins = edges.size + 1
    bin_ids = np.arange(nbins)[:, None]
    in_interval = (
        (bin_ids > np.searchsorted(edges, bounds[::2]))
        & (bin_ids <= np.searchsorted(edges, bounds[1::2]))
    ).astype(np.int64)
    lo_of = np.tile(np.append(-INFINITY, edges), len(states))
    hi_of = np.tile(np.append(edges, INFINITY), len(states))
    key_base = np.repeat(np.arange(len(states)) * nbins, sizes)
    bad = np.zeros(n, dtype=np.int64)
    bad_intervals = np.zeros(len(states), dtype=np.int64)
    snapshots = {}

    def snap(t):
        snapshots[t] = laps * period + reps

    def tally(mask):
        if np.count_nonzero(mask):
            bad[mask] += 1

    idx = np.searchsorted(np.array(z.positions, dtype=np.float64), reps, side="right")
    w_gap = laps[nxt] - laps
    w_gap[last] += 1
    r_gap = reps[nxt]
    if bounds:
        keys = key_base + edges.searchsorted(reps, "right")
        lo, hi = lo_of[keys], hi_of[keys]

    def counts():
        return np.add.reduceat(bad, first) + bad_intervals

    # a line's leader gains ground every step, so a line's state never repeats
    replay = _Replay(np, first, sizes, snapshot_at, reps, laps, w_gap, idx, counts) if ring else None
    if 0 in snapshot_at:
        snap(0)
    stop = steps
    for t in range(steps):
        vcap = speed[idx]
        t_spd = reps + vcap
        wrap = t_spd >= wrap_at
        w_best = wrap.astype(np.int64)
        r_best = np.where(wrap, t_spd - wrap_at, t_spd)
        gap = np.where(w_gap == w_best, r_gap <= r_best, w_gap < w_best)
        w_best = np.where(gap, w_gap, w_best)
        r_best = np.where(gap, r_gap, r_best)
        w_obs = ahead_laps[idx]
        r_obs = ahead[idx]
        obs = np.where(w_obs == w_best, r_obs <= r_best, w_obs < w_best)
        w_best = np.where(obs, w_obs, w_best)
        r_best = np.where(obs, r_obs, r_best)
        idx = np.where(obs, land[idx], np.where(gap, idx[nxt], np.where(wrap, 0, idx)))
        disp = (w_best * period + r_best) - reps
        new_laps = laps + w_best
        w_gap = new_laps[nxt] - new_laps
        w_gap[last] += 1
        r_gap = r_best[nxt]
        tally(w_gap * period + r_gap - r_best < -_FLOAT_TOL)
        # A displacement in [0, cap] rules out the other per-particle faults
        # too: a target past the next obstacle needs a NaN position.
        if np.count_nonzero((disp >= -_FLOAT_TOL) & (disp <= vcap)) < n:
            tally(disp < -_FLOAT_TOL)
            tally(disp > vcap + _FLOAT_TOL)
            tally(~np.where(w_best == w_obs, r_best <= r_obs, w_best < w_obs))
        if bounds:
            # only particles that left their bin are searched again; a NaN
            # position fails both tests, so it is always searched
            left = (~((r_best >= lo) & (r_best < hi))).nonzero()[0]
            if left.size:
                new_keys = key_base[left] + edges.searchsorted(r_best[left], "right")
                # one particle changes each count by at most 1
                if left.size > 1:
                    moves = np.bincount(new_keys, minlength=lo_of.size) - np.bincount(
                        keys[left], minlength=lo_of.size
                    )
                    delta = moves.reshape(len(states), nbins) @ in_interval
                    if np.abs(delta).max() > 1:
                        bad_intervals += (np.abs(delta) > 1).sum(axis=1)
                keys[left] = new_keys
                lo[left] = lo_of[new_keys]
                hi[left] = hi_of[new_keys]
        reps = r_best
        laps = new_laps
        if t + 1 in snapshot_at:
            snap(t + 1)
        if replay is not None and replay.observe(t + 1, reps, laps, w_gap, idx):
            stop = t + 1
            break

    if stop < steps:
        # the last time replayed is steps, the final state
        for t in sorted(snapshot_at):
            if t > stop:
                reps, laps, violations = replay.at(t)
                snapshots[t] = laps * period + reps
    else:
        violations = counts()
    finals = [
        SimState(reps[a:b].tolist(), laps[a:b].tolist(), s.wait_remaining, s.time + steps, s.domain)
        for s, a, b in zip(states, first, last + 1)
    ]
    return finals, snapshots, violations, replay.cycles if replay else [None] * len(states)


class _Replay:
    """Brent's cycle detection (R. P. Brent, BIT 20, 1980) on each replica of
    a ring batch of _run_fast, up to a relabelling of its particles.

    A replica's state is, in cyclic order, each particle's rep, its w_gap
    (one lap more past its last particle) and its table index: a step reads
    nothing else, and it reads them the same way for every label. Let R
    relabel a state by a cyclic shift s, particle i taking the place of
    particle i + s, and move it on by G laps. A step then maps R of a state
    to R of its step, invariant counts included. So when the state at t is
    R of the state at c, each later state is R of the state lam = t - c
    steps before it, and the state at t + q * lam + r is R^q of the state
    at t + r.

    Each replica keeps one checkpoint, a copy of its state that moves to
    the live state at t = 1, 3, 7, 15, ...; each step compares the live
    state with it, bit for bit, under every shift s that maps particle 0
    onto a particle of the same state. Once the checkpoint lies in the
    cycle and the interval since its move reaches lam, the first match
    finds lam, the least period. A match needs equal XORs of the replica's
    rep bit patterns, which no relabelling changes, so only replicas whose
    XOR matches are compared in full.

    A replica that repeats at t has the states at its reporting times
    after t captured at phase (tau - t) mod lam, within lam - 1 steps.
    observe() is True once every replica is captured; at() then gives the
    batch at any later time.
    """

    def __init__(self, np, first, sizes, times, reps, laps, w_gap, idx, counts):
        self.np = np
        self.xor_at = np.bitwise_xor.reduceat
        self.first = first
        self.bounds = [(int(a), int(a + n)) for a, n in zip(first, sizes)]
        self.times = sorted(times)
        self.counts = counts
        self.cycles = [None] * len(self.bounds)
        # per replica: when it repeated, its count over one period, and its
        # captured (reps, laps, count) by phase
        self.found_at = [0] * len(self.bounds)
        self.per_period = [0] * len(self.bounds)
        self.phases = [{} for _ in self.bounds]
        self.capture_at: dict = {}
        self.open = len(self.bounds)
        self.power = 1
        # filled in place: a fresh array this size would fault its pages in each time
        self.held = np.empty((3, reps.size), dtype=np.int64)
        self.held_laps = np.empty_like(laps)
        self._checkpoint(0, reps, laps, w_gap, idx)

    def _checkpoint(self, t, reps, laps, w_gap, idx):
        self.held_at = t
        self.held[0], self.held[1], self.held[2] = reps.view(self.np.int64), w_gap, idx
        self.held_laps[:] = laps
        self.held_xor = self.xor_at(self.held[0], self.first).tolist()
        self.held_counts = self.counts()

    def observe(self, t, reps, laps, w_gap, idx) -> bool:
        """Compare the state at t with the checkpoints and capture the phases due at t."""
        if self.open:
            # compared as Python ints, which on a small batch costs less than numpy calls
            xors = self.xor_at(reps.view(self.np.int64), self.first).tolist()
            if any(map(eq, xors, self.held_xor)):
                for k, (xor, held) in enumerate(zip(xors, self.held_xor)):
                    if xor == held and self.cycles[k] is None:
                        self._match(k, t, reps, laps, w_gap, idx)
            if t - self.held_at == self.power:
                self._checkpoint(t, reps, laps, w_gap, idx)
                self.power *= 2
        for k in self.capture_at.pop(t, ()):
            a, b = self.bounds[k]
            self.phases[k][t - self.found_at[k]] = (reps[a:b].copy(), laps[a:b].copy(), int(self.counts()[k]))
        return not self.open and not self.capture_at

    def _match(self, k, t, reps, laps, w_gap, idx):
        np = self.np
        a, b = self.bounds[k]
        n = b - a
        live = np.stack((reps[a:b].view(np.int64), w_gap[a:b], idx[a:b]))
        held = self.held[:, a:b]
        for s in (held == live[:, :1]).all(axis=0).nonzero()[0].tolist():
            if np.array_equal(live[:, : n - s], held[:, s:]) and np.array_equal(live[:, n - s :], held[:, :s]):
                lam = t - self.held_at
                self.cycles[k] = (lam, s, int(laps[a] - self.held_laps[a + s]))
                self.found_at[k] = t
                self.per_period[k] = int(self.counts()[k] - self.held_counts[k])
                self.open -= 1
                for r in sorted({(tau - t) % lam for tau in self.times if tau > t}):
                    self.capture_at.setdefault(t + r, []).append(k)
                return

    def _replica_at(self, k, tau) -> tuple:
        """Replica k's (reps, laps, count) at tau: R^q of its capture at phase r."""
        np = self.np
        lam, s, gain = self.cycles[k]
        q, r = divmod(tau - self.found_at[k], lam)
        reps, laps, count = self.phases[k][r]
        # R^q shifts the labels by q * s: `turns` whole turns, each a lap on, and `shift` more
        turns, shift = divmod(q * s, reps.size)
        return (
            np.concatenate((reps[shift:], reps[:shift])),
            np.concatenate((laps[shift:], laps[:shift] + 1)) + (turns + q * gain),
            count + q * self.per_period[k],
        )

    def at(self, tau) -> tuple:
        """The batch's flat reps and laps at tau, and each replica's invariant count."""
        reps, laps, counts = zip(*(self._replica_at(k, tau) for k in range(len(self.bounds))))
        return self.np.concatenate(reps), self.np.concatenate(laps), counts


def _summaries(steps: int, finals: list, snapshots: dict, violations, cycles) -> Iterator:
    """One TrajectorySummary per replica of a _run_fast batch, built as it is reached."""
    start = 0
    for state, count, cycle in zip(finals, violations, cycles):
        stop = start + state.count
        yield TrajectorySummary(
            steps, {t: tuple(u[start:stop].tolist()) for t, u in snapshots.items()}, state, int(count), cycle
        )
        start = stop


def _check_steps(steps: int, *times: int) -> None:
    """Refuse a step count or time that is not an int (a bool, a float or a
    string), and a negative step count."""
    if not_int := [t for t in (steps, *times) if isinstance(t, bool) or not isinstance(t, int)]:
        raise ConfigurationError(f"step count and snapshot times must be ints, got {not_int}")
    if steps < 0:
        raise ConfigurationError("step count must be nonnegative")


def run(
    state: SimState | Replicas,
    z: ObstacleField,
    steps: int,
    observers: Iterable[Callable] = (),
    snapshot_times: Iterable[int] = (),
) -> TrajectorySummary | Iterator[TrajectorySummary]:
    """Apply the step map repeatedly; steps and the snapshot times are ints,
    and every state lies on z's domain.

    Its last state comes back as final_state, also after 0 steps.
    Snapshots of unwrapped positions are always taken at t=0 and t=steps,
    plus any requested times in [0, steps] (relative to the start of this
    run). When no observers are attached and the input is float-valued with
    no waiting times, the vectorized kernel is used; it produces
    bit-identical positions. On a ring it stops stepping once the state
    repeats up to a relabelling of the particles, and replays the rest of
    the run exactly (TrajectorySummary.cycle).
    Exact input is stepped as integers on its lattice (see to_lattice);
    snapshots and the final state come back in input units as Fractions.
    Each observer is called as obs(before, after) on each step's states, in
    input units.

    A Replicas batch gives an iterator of one TrajectorySummary per replica,
    in order, each built as it is reached. Without observers, replicas that
    are all eligible step together in one kernel call; otherwise each
    replica runs alone.
    """
    snapshot_times = tuple(snapshot_times)
    _check_steps(steps, *snapshot_times)
    observers = tuple(observers)
    snapshot_at = {0, steps, *snapshot_times}
    outside = sorted(t for t in snapshot_at if not 0 <= t <= steps)
    if outside:
        raise ConfigurationError(f"snapshot times {outside} outside the run's [0, {steps}]")

    batch = state if isinstance(state, Replicas) else Replicas((state,))
    states = batch.states
    if any(s.domain != z.domain for s in states):
        raise ConfigurationError(f"every state must lie on the field's domain {z.domain}")
    # the field is checked once for the batch, each replica's own values once
    if (
        states
        and not observers
        and _fast_field(z)
        and all(map(_fast_state, states))
    ):
        runs = _summaries(steps, *_run_fast(batch, z, steps, snapshot_at))
        return runs if batch is state else next(runs)
    if batch is state:
        return iter([run(s, z, steps, observers, snapshot_at) for s in states])

    lattice = to_lattice(state.domain, z, state.reps)
    if lattice is None:
        # float or mixed input has no lattice; it is stepped as given
        work, z_work, unscale, in_units = state, z, tuple, lambda s: s
    else:
        scale, domain, z_work, reps = lattice
        work = SimState(reps, state.laps, state.wait_remaining, state.time, domain)
        unscale = _Unscale(scale, 1)
        in_units = lambda s: unscale.state(s, state.domain)
    snapshots = {0: unscale(work.unwrapped())}
    after = state
    for t in range(steps):
        work = _step_scalar(work, z_work)
        if observers:
            before, after = after, in_units(work)
            for obs in observers:
                try:
                    obs(before, after)
                except Exception as exc:
                    name = getattr(obs, "__name__", type(obs).__name__)
                    raise ObserverError(f"observer {name} failed at t={before.time}: {exc}") from exc
        if t + 1 in snapshot_at:
            snapshots[t + 1] = unscale(work.unwrapped())
    return TrajectorySummary(steps, snapshots, in_units(work))


class _Unscale:
    """Lattice ints back to input units, remembered per value: e stands at
    Fraction(e // m, scale), its countdown m - 1 - e % m (see encode_waits).

    A run revisits few values (obstacles, speeds, positions on a ring), so
    observer states look most of them up instead of building a Fraction.
    """

    _LIMIT = 1 << 16

    def __init__(self, scale: int, m: int):
        self.scale = scale
        self.m = m
        self.known: dict = {}

    def __call__(self, values) -> tuple:
        known = self.known
        if len(known) > self._LIMIT:
            known.clear()
        out = []
        for v in values:
            f = known.get(v)
            if f is None:
                f = known[v] = Fraction(v // self.m, self.scale)
            out.append(f)
        return tuple(out)

    def state(self, s: SimState, domain: Domain) -> SimState:
        """Lattice state s in input units, on domain, its countdowns its own
        plus those its positions encode."""
        m = self.m
        waits = tuple(w + m - 1 - r % m for w, r in zip(s.wait_remaining, s.reps))
        return SimState(self(s.reps), s.laps, waits, s.time, domain)
