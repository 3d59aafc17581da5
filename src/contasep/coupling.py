"""Dynamical coupling of two processes sharing one obstacle field.

Both processes evolve step-locked; when a particle of one process passes a
particle of the other between consecutive times, a pairing update runs.
Paired particles ("dumbbells") certify that the two processes shadow each
other; unpaired particles are defects. All position comparisons use unwrapped
coordinates, so on a ring the coupling lives on the covering line with
periodically repeated obstacles.

Starting pairing is empty: pairs only ever form through passing events.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, filterfalse
from operator import le, lt
from types import MappingProxyType
from typing import Optional

from .core import (
    ConfigurationError,
    CouplingError,
    InvariantViolationError,
    ObstacleField,
    ParticleConfig,
    Ring,
    _Unscale,
    to_lattice,
)
from .dynamics import SimState, _check_steps, _step_scalar


def _indices(values, count) -> bool:
    """Whether every value is an int in range(count)."""
    return all(isinstance(v, int) and 0 <= v < count for v in values)


@dataclass(frozen=True)
class CoupledState:
    """Two step-locked processes on one clock and the pairing between them.

    pairing, read-only, maps first-process particle indices to second-process
    indices and is a partial bijection. time is the sides' one clock. The
    positions on the covering line, the overtake ranks and the canonical
    starts are derived from the sides once, on first use, as ObstacleField.table is.
    """

    x: SimState
    xbar: SimState
    z: ObstacleField
    pairing: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        if self.x.time != self.xbar.time:
            raise ConfigurationError(f"the sides' clocks differ: {self.x.time} and {self.xbar.time}")
        vals = list(self.pairing.values())
        if not _indices(self.pairing, self.x.count) or not _indices(vals, self.xbar.count):
            raise ConfigurationError(
                f"pairing must map indices of x ({self.x.count}) to indices of xbar ({self.xbar.count}), got {self.pairing}"
            )
        if len(set(vals)) != len(vals):
            raise ConfigurationError("pairing must be one-to-one")
        object.__setattr__(self, "pairing", MappingProxyType(dict(self.pairing)))

    @classmethod
    def initial(cls, x: ParticleConfig, xbar: ParticleConfig, z: ObstacleField) -> "CoupledState":
        if x.domain != xbar.domain:
            raise ConfigurationError("both processes must share one domain")
        return cls(SimState.initial(x), SimState.initial(xbar), z)

    @property
    def time(self) -> int:
        return self.x.time

    @property
    def period(self):
        """The ring's length, or None on a line."""
        return self.z.domain.length if isinstance(self.z.domain, Ring) else None

    @cached_property
    def unwrapped(self) -> tuple:
        """Both sides' positions on the covering line, (x, xbar)."""
        return self.x.unwrapped(), self.xbar.unwrapped()

    @cached_property
    def ranks(self) -> tuple:
        """Each side's _ranks against the other, (x among xbar, xbar among x)."""
        (u_x, u_b), period = self.unwrapped, self.period
        return _ranks(u_x, u_b, period), _ranks(u_b, u_x, period)

    @cached_property
    def starts(self) -> tuple:
        """Each side's first particle in canonical order, (c_x, c_b): its
        _canonical_start on a ring, particle 0 on a line or with an empty side."""
        period = self.period
        u_x, u_b = self.unwrapped
        if period is None or not u_x or not u_b:
            return 0, 0
        return _canonical_start(self.x.reps, u_x, period), _canonical_start(self.xbar.reps, u_b, period)

    @property
    def pair_count(self) -> int:
        return len(self.pairing)

    def defects_x(self) -> tuple:
        return tuple(filterfalse(self.pairing.__contains__, range(self.x.count)))

    def defects_xbar(self) -> tuple:
        paired = set(self.pairing.values())
        return tuple(filterfalse(paired.__contains__, range(self.xbar.count)))

    def _with(self, **changes) -> "CoupledState":
        """This state with some fields replaced, shared otherwise, and not
        checked again: callers keep the pairing read-only and one-to-one and
        the sides on one clock. The derived values come along unless a side is replaced."""
        out = object.__new__(type(self))
        kept = self.__dict__
        if "x" in changes or "xbar" in changes:
            kept = {"x": self.x, "xbar": self.xbar, "z": self.z, "pairing": self.pairing}
        out.__dict__.update(kept, **changes)
        return out


def _ext_pos(arr, m, period):
    """Position of the m-th entry of arr extended periodically (m may leave [0, n))."""
    if period is None:
        return arr[m]
    n = len(arr)
    k, j = divmod(m, n)
    return arr[j] + k * period


def _offset(a, b, period):
    """b - a on a line; on a ring the signed short way round, a half-period tie forward."""
    d = b - a
    if period is not None:
        d %= period
        if 2 * d > period:
            d -= period
    return d


def _ranks(u_mine, u_other, period) -> list:
    """Each value's rank among u_other extended by all period shifts: how many
    copies are at or below it, as an extended index (see detect_overtakes).

    u_other is one lap of a side in order, so on a ring its last entry is at
    most one period past its first. A mover passed the copies indexed from
    its rank before a step to one below its rank after.
    """
    if period is None or not u_mine or not u_other:
        return [bisect_right(u_other, u) for u in u_mine]
    # the laps of u_other that hold u_mine's values, laid end to end: one
    # bisect per value then counts every lap below its own
    base = u_other[0]
    first = int((min(u_mine) - base) // period)
    last = int((max(u_mine) - base) // period)
    copies = []
    for k in range(first, last + 1):
        copies += [v + k * period for v in u_other] if k else u_other
    below = first * len(u_other)
    return [below + bisect_right(copies, u) for u in u_mine]


def _side_events(side, mover_prev, mover_next, rank_prev, rank_next, n_other):
    events = []
    # only a mover whose rank rose passed a copy
    for i in compress(range(len(rank_prev)), map(lt, rank_prev, rank_next)):
        lo, stop = rank_prev[i], rank_next[i]
        if mover_next[i] > mover_prev[i]:
            if stop - lo > n_other:
                raise InvariantViolationError(
                    f"mover {i} swept more than one full lap of the other process"
                )
            events.append((side, i, range(lo, stop)))
    return events


def detect_overtakes(prev: CoupledState, next_state: CoupledState) -> list:
    """All passing events between consecutive states, first-process side first:
    (side, mover, overtaken), overtaken the range of copies the mover passed.

    On a ring a mover may pass a periodic copy of an opposite-process
    particle, so overtaken indices are extended: index % count names the
    particle, index // count the lap shift of the copy passed. Asserts the
    structural facts the pairing rules rely on: per side, no copy is overtaken
    by two movers; a mover overtaken the same step must coincide with its
    overtaker exactly. Reads each state's unwrapped positions and ranks, so
    a run that steps from a state it detected against reuses them.
    """
    if prev.x.count != next_state.x.count or prev.xbar.count != next_state.xbar.count:
        raise ConfigurationError("mismatched states")
    if next_state.time != prev.time + 1:
        raise ConfigurationError(f"states are {next_state.time - prev.time} steps apart, expected 1")
    period = prev.period
    x_prev, b_prev = prev.unwrapped
    x_next, b_next = next_state.unwrapped
    rx_prev, rb_prev = prev.ranks
    rx_next, rb_next = next_state.ranks
    n_x, n_b = len(x_prev), len(b_prev)
    ev_x = _side_events("x", x_prev, x_next, rx_prev, rx_next, n_b)
    ev_b = _side_events("xbar", b_prev, b_next, rb_prev, rb_next, n_x)

    for evs in (ev_x, ev_b):
        for (_, a, block_a), (_, b, block_b) in zip(evs, evs[1:]):
            if block_a[-1] >= block_b[0]:
                raise InvariantViolationError(
                    f"t={next_state.time}: movers {a},{b} overtake a shared particle"
                )
    sides = ((ev_x, ev_b, x_next, b_next, n_b), (ev_b, ev_x, b_next, x_next, n_x))
    for evs, counter, u_mine, u_other, n in sides:
        movers = {mover for _, mover, _ in counter}
        for _, mover, overtaken in evs:
            for m in overtaken:
                if m % n in movers and _ext_pos(u_other, m, period) != u_mine[mover]:
                    raise InvariantViolationError(
                        f"t={next_state.time}: mover {mover} overtook counter-mover {m % n} without coincidence"
                    )
    return ev_x + ev_b


def apply_pairing(state: CoupledState, events: list) -> CoupledState:
    """Run the pairing rules over the events against the state's pairing.

    The first process's events run first, then the second's. On a ring each
    side's events run in cyclic mover order from the side's _canonical_start,
    the tail of the stack at its least rep; on a line in mover order, which is
    position order. Either way the order is read off positions, not labels,
    so the step maps every cyclic relabelling and whole-lap shift of each
    side of its state to the same relabelling and shift of its result.

    For a mover that is already paired: if a repair target exists, the mover
    abandons its partner (which becomes a defect) and pairs with the target.
    A mover that sweeps past its own partner does not anchor on it, so it
    re-pairs with the last particle it passed, dropping the old partner behind
    the new span; with nothing else swept this re-pairs the same two particles.
    For an unpaired mover: if some overtaken particle was paired and the mover
    strictly passed the least such one, the mover takes over that pairing and
    the former partner becomes a defect; otherwise the mover pairs with the
    repair target if one exists. Takeovers move defects rightward, never left.
    Last, on each side the pairs of every stack of co-located particles go to
    the particles that leave the stack first.

    The result shares the state's positions and their derived values, with
    a new pairing. With no events and no stack on either side the state
    itself is returned.
    """
    u_x, u_b = state.unwrapped
    period = state.period
    depths_x, depths_b = _stack_depths(u_x, period), _stack_depths(u_b, period)
    if not events and not any(depths_x) and not any(depths_b):
        return state
    fwd = state.pairing.copy()  # a dict, which dict() of the read-only view builds key by key
    inv = dict(zip(fwd.values(), fwd))
    # each side's events from its first particle by position (see above)
    n_x, n_b = len(u_x), len(u_b)
    c_x, c_b = state.starts

    def order(ev):
        side, mover, _ = ev
        return (0, (mover - c_x) % n_x) if side == "x" else (1, (mover - c_b) % n_b)

    for side, i, overtaken in sorted(events, key=order):
        if side == "x":
            mine, theirs = fwd, inv
            u_mover, u_other = u_x, u_b
        else:
            mine, theirs = inv, fwd
            u_mover, u_other = u_b, u_x
        n = len(u_other)
        # the overtaken indices ascend, so every one below the anchor is free
        # or held by the mover
        anchor = target = None
        for m in overtaken:
            if theirs.get(m % n, i) != i:
                anchor = m
                break
            target = m

        if anchor is not None and i not in mine and u_mover[i] > _ext_pos(u_other, anchor, period):
            former = theirs.pop(anchor % n)
            del mine[former]
            mine[i] = anchor % n
            theirs[anchor % n] = i
        elif target is not None:
            if i in mine:
                del theirs[mine.pop(i)]
            if target % n in theirs:
                raise InvariantViolationError(
                    f"repair target {target} is already paired; overtaken={overtaken}"
                )
            mine[i] = target % n
            theirs[target % n] = i

    _order_stacked_pairs(fwd, inv, u_x, u_b, depths_x, depths_b, period)
    _order_stacked_pairs(inv, fwd, u_b, u_x, depths_b, depths_x, period)

    if len(inv) != len(fwd):
        raise InvariantViolationError("pairing maps fell out of sync")
    for i, j in fwd.items():
        if inv.get(j) != i:
            raise InvariantViolationError("pairing maps fell out of sync")
    # maps in sync make the pairing one-to-one, so it is not checked again
    return state._with(pairing=MappingProxyType(fwd))


def _stack_depths(u, period):
    """Per particle, how many particles stand at its exact position ahead of it.

    A stack releases one particle per step, its leader first (the others are
    blocked by the gap to their neighbour's old position), so depth 0 leaves
    next and depth is the release order within the stack.
    """
    n = len(u)
    depths = [0] * n
    for i in range(n - 2, -1, -1):
        if u[i + 1] == u[i]:
            depths[i] = depths[i + 1] + 1
    if period is not None and n > 1 and u[0] + period == u[-1]:
        # the stack straddles the index seam: particle 0 leads particle n-1
        d = depths[0] + 1
        for i in range(n - 1, 0, -1):
            if u[i] != u[-1]:
                break
            depths[i] += d
    return depths


def _order_stacked_pairs(mine, theirs, u_mine, u_theirs, depths, theirs_depths, period):
    """Hand the pairs of each stack to the particles that leave it first.

    Particles of one side that share a position are interchangeable at that
    moment, so their pairs are re-dealt: the stack's leader holds the partner
    furthest ahead (ties: the partner that leaves its own stack first), the
    next particle the next partner, and any defects of the stack go to its
    tail. The positions of pairs and defects are unchanged, so properness is
    too. Without this, a stack's leader may leave while its partner waits, or
    a paired follower waits while a defect leader moves into the pair's span.
    depths and theirs_depths are the two sides' _stack_depths.
    """
    n = len(u_mine)
    stacks = {}
    for i, d in enumerate(depths):
        if d:
            stacks.setdefault((i + d) % n, []).append(i)
    for leader, followers in stacks.items():
        members = [leader] + sorted(followers, key=depths.__getitem__)
        partners = [mine.pop(i) for i in members if i in mine]
        if not partners:
            continue
        base = u_mine[leader]

        def lead(j):
            return (-_offset(base, u_theirs[j], period), theirs_depths[j])

        for i, j in zip(members, sorted(partners, key=lead)):
            mine[i] = j
            theirs[j] = i


def is_proper(state: CoupledState) -> list:
    """Violations of the pair-integrity conditions; empty list means proper.

    One check serves both domains on the covering line: each pair's partner
    stands at its nearest image (on a ring the short way round, an exact
    half-period tie forward). A pair is proper when its span does not exceed
    the segment velocity at its trailing end, and no obstacle and no defect of
    either side lies strictly inside the open span. Additionally no two pairs
    may cross: one strictly behind the other on the first side, strictly
    ahead of it on the second.
    """
    out = []
    if not state.pairing:
        return out
    z = state.z
    period = state.period
    speed = z.table[0]
    # the positions taken in [0, L) on a ring; a partner's offset needs no more
    r_x, r_b = state.x.reps, state.xbar.reps
    defects = None
    pairs = []
    for i, j in sorted(state.pairing.items()):
        a = r_x[i]
        offset = _offset(a, r_b[j], period)
        # ties in x are walked by index on a line, by the partner's place in [0, L) on a ring
        pairs.append((a, 0 if period is None else r_b[j], i, j, a + offset))
        if not offset:
            # an empty span holds nothing, and no speed is zero
            continue
        # the span's trailing end, taken in [0, L) on a ring
        lo, width = (a, offset) if offset > 0 else (r_b[j], -offset)
        k = bisect_right(z.positions, lo)
        if width > speed[k]:
            out.append(f"pair ({i},{j}): span {width} exceeds local speed {speed[k]}")
        if z.obstacle_distance(k, lo) < width:
            out.append(f"pair ({i},{j}): obstacle strictly inside span")
        if defects is None:
            defects = sorted([r_x[d] for d in state.defects_x()] + [r_b[d] for d in state.defects_xbar()])
            if period is not None:
                # a span starts in [0, L) and is at most half a period wide, so
                # two laps of defects hold all it can reach; lower laps, below
                # every span, cancel out of the count
                defects += [d + period for d in defects]
        inside = bisect_left(defects, lo + width) - bisect_right(defects, lo)
        if inside > 0:
            out.append(f"pair ({i},{j}): {inside} defect(s) strictly inside span")

    # walked in x order; on a ring (x taken in [0, L)) each pair also meets
    # the pairs one period on, and since a partner is within half a period
    # of its pair, no crossing reaches further. Pairs whose partners keep
    # their order, one period on included, cross nowhere.
    pairs.sort()
    ends = [pair[4] for pair in pairs]
    if period is not None:
        ends.append(ends[0] + period)
    if all(map(le, ends, ends[1:])):
        return out
    count = len(pairs)
    ahead = pairs if period is None else pairs + [(a + period, t, i, j, b + period) for a, t, i, j, b in pairs]
    window = 2 * z.top_speed
    for p, (a, _, i, j, b) in enumerate(pairs):
        for q in range(p + 1, count if period is None else p + count):
            c, _, k, l, d = ahead[q]
            if c - a > window:
                break
            if a < c and b > d:
                out.append(f"pairs ({i},{j}) and ({k},{l}) cross")
    return out


@dataclass
class CouplingDiagnostics:
    """Per-step series and the closing verdict of a coupled run.

    rows: (t, defects_x, defects_xbar, pairs, v_gap_abs, proper_flag) where
    v_gap_abs is |displacement difference of particle 0| up to time t.
    cycle: (mu, lam, s, s_bar) when the coupled state at mu + lam repeated
    the one at mu up to a cyclic relabelling and a whole-lap shift of each
    side, the first repeat of the run, whatever its shifts: each particle i
    of x stands where particle i + s stood lam steps before, and each
    particle j of xbar where particle j + s_bar stood, the index read
    cyclically and one lap on past the last particle. Every step commutes
    with such a relabelling, so every later state repeats the state lam
    steps before it in the same way, and the labelled state, up to whole
    laps, with period lam * lcm(n / gcd(n, s), n / gcd(n, s_bar)). None if
    the run ended before a repeat.
    """

    rows: list
    verdict: str
    initial_defects: int
    final_defects: int
    final_state: CoupledState
    cycle: Optional[tuple] = None

    @property
    def nearly_successful(self) -> bool:
        return self.verdict == "nearly successful"


def run_coupled(
    x: ParticleConfig,
    xbar: ParticleConfig,
    z: ObstacleField,
    steps: int,
    threshold: float = 0.1,
) -> CouplingDiagnostics:
    """Evolve both processes step-locked with pairing updates and proper checks.

    Requires a ring and equal particle counts (equal densities). A proper-pair
    violation aborts with a state dump. The verdict is "nearly successful"
    when the final defect count is below threshold times the initial one.
    Input must be exact (ints and Fractions): it is stepped, paired and
    checked as integers on its lattice with its waits made position (see
    to_lattice), so no rule reads a countdown. Rows, the
    final state and the dump are decoded to input units, the dump's
    violations read on the refined field.

    On the lattice the coupled state up to a cyclic relabelling and a
    whole-lap shift of each side takes finitely many values, so every run
    turns periodic. Each state is kept as a _canonical_key in a dict, which
    matches keys by equality, never by hash alone. Let the state at t match
    the one at mu: it is R of it, R relabelling each side and moving it on
    by whole laps. The step rule, the overtake ranks, the pairing (whose
    event order apply_pairing reads off positions), the stack re-deal and
    the checks all read positions on the covering line only, so they commute
    with R, and each later state is R of the state t - mu steps before it,
    already stepped and checked. The run stops stepping at the first match:
    later rows are the period's rows renumbered, with v_gap_abs read off R^q
    of the state at the same phase, and so is the final state.

    Each state derives its unwrapped positions, ranks and canonical starts
    once. Pairing keeps them, so the paired state the next step starts from
    holds its ranks and the run carries nothing else from step to step.
    """
    _check_steps(steps)
    if not isinstance(x.domain, Ring):
        raise ConfigurationError("coupled runs require a ring domain")
    if x.domain != xbar.domain or z.domain != x.domain:
        raise ConfigurationError("both processes and the field must share one ring")
    if x.count != xbar.count:
        raise ConfigurationError(
            f"equal particle counts required, got {x.count} and {xbar.count}"
        )
    if x.count == 0:
        raise ConfigurationError("coupled runs need at least one particle per side")
    lattice = to_lattice(x.domain, z, x.positions, xbar.positions)
    if lattice is None:
        # float rounding makes the pairing checks report violations that do not occur
        raise ConfigurationError("coupled runs need exact input (mode exact), got floats")
    scale, m, domain, z_work, px, pb = lattice
    state = CoupledState.initial(ParticleConfig(px, domain), ParticleConfig(pb, domain), z_work)
    unscale = _Unscale(scale, m)
    initial_defects = state.x.count + state.xbar.count
    period = domain.length
    start_x, start_b = (u[0] // m for u in state.unwrapped)
    rows = []
    # per step from t=0: its key and its marks; per key, the step that had it
    key, mark = _canonical_key(state)
    keys, marks = [key], [mark]
    seen = {key: 0}
    cycle = None

    for t in range(1, steps + 1):
        prev = state
        state = prev._with(x=_step_scalar(prev.x, z_work), xbar=_step_scalar(prev.xbar, z_work))
        state = apply_pairing(state, detect_overtakes(prev, state))

        u_x, u_b = state.unwrapped
        d_x = state.x.count - state.pair_count
        d_b = state.xbar.count - state.pair_count
        v_gap_abs = Fraction(abs((u_x[0] // m - start_x) - (u_b[0] // m - start_b)), scale)
        if is_proper(state):
            shown = _in_input_units(state, z, unscale)
            over = _Unscale(scale * m, 1)
            refined = ObstacleField(
                over(z_work.positions), z_work.waits, over(z_work.velocities),
                Fraction(z_work.top_speed, scale * m), z.domain,
            )
            raise CouplingError(
                f"pairing lost integrity at t={t}",
                dump={
                    "time": t,
                    "violations": is_proper(_in_input_units(state, refined, over)),
                    "x": [str(p) for p in shown.x.unwrapped()],
                    "xbar": [str(p) for p in shown.xbar.unwrapped()],
                    "pairing": dict(shown.pairing),
                },
            )
        rows.append((t, d_x, d_b, state.pair_count, v_gap_abs, 1))

        key, mark = _canonical_key(state)
        mu = seen.setdefault(key, t)
        if mu < t:
            # how far R moves each side's start and base laps
            cycle = mu, [b - a for a, b in zip(marks[mu], mark)]
            break
        keys.append(key)
        marks.append(mark)

    if cycle is not None:
        mu, moves = cycle
        lam = t - mu
        n = state.x.count

        def at(tau):
            """The key of the state at tau and its marks: those of the state
            at the same phase, moved q times by R."""
            q, r = divmod(tau - mu, lam)
            return keys[mu + r], *(m + q * move for m, move in zip(marks[mu + r], moves))

        for tau in range(t + 1, steps + 1):
            key, c_x, c_b, base_x, base_b = at(tau)
            # particle 0 of each side is canonical particle -c mod n: its
            # rep, base laps on and a lap more for each turn of -c
            turns_x, i_x = divmod(-c_x, n)
            turns_b, i_b = divmod(-c_b, n)
            moved_x = (key[i_x] + (base_x + turns_x) * period) // m - start_x
            moved_b = (key[n + i_b] + (base_b + turns_b) * period) // m - start_b
            rows.append((tau, *rows[tau - lam - 1][1:4], Fraction(abs(moved_x - moved_b), scale), 1))
        if t < steps:
            state = _from_canonical_key(*at(steps), steps, z_work)
        # each particle i stands where particle i + s stood lam steps before
        cycle = (mu, lam, -moves[0] % n, -moves[1] % n)

    final_defects = rows[-1][1] + rows[-1][2] if rows else initial_defects
    verdict = (
        "nearly successful"
        if final_defects < threshold * initial_defects
        else "defects persist"
    )
    return CouplingDiagnostics(
        rows, verdict, initial_defects, final_defects, _in_input_units(state, z, unscale), cycle
    )


def _canonical_start(reps: list, u: tuple, period) -> int:
    """The index of a side's first particle in canonical order: the tail of
    the stack at its least rep, the one _stack_depths gives the greatest
    depth there. It is chosen by position, so it follows a relabelling."""
    c = reps.index(min(reps))
    if c == 0:
        # the stack may straddle the index seam: its tail is then the first
        # of the particles that stand one lap past particle 0
        top = u[0] + period
        c = len(u)
        while u[c - 1] == top:
            c -= 1
        c %= len(u)
    return c


def _canonical_key(state: CoupledState) -> tuple:
    """A lattice coupled state up to a cyclic relabelling and a whole-lap
    shift of each side: (key, marks).

    Each side is read from its start c (CoupledState.starts), one lap on
    past its last particle. Read so, its positions ascend from the least rep
    and span at most a lap, and no particle but c's stack stands at that rep,
    so each stands at its rep plus the whole laps of particle c, its base.
    The key is one flat tuple of both sides' reps read so (no countdown: see
    to_lattice), and x's partners as canonical xbar indices (None for a
    defect). marks is (c_x, c_b, base_x, base_b). Two states with equal keys are one
    relabelling and lap shift of each other, and their marks give it.
    """
    c_x, c_b = state.starts
    r_x, r_b = state.x.reps, state.xbar.reps
    n_b = len(r_b)
    get = state.pairing.copy().get  # a dict's get, faster than the read-only view's
    partners = [*map(get, range(c_x, len(r_x))), *map(get, range(c_x))]
    key = (
        *r_x[c_x:],
        *r_x[:c_x],
        *r_b[c_b:],
        *r_b[:c_b],
        *[None if p is None else (p - c_b) % n_b for p in partners],
    )
    return key, (c_x, c_b, state.x.laps[c_x], state.xbar.laps[c_b])


def _from_canonical_key(
    key: tuple, c_x: int, c_b: int, base_x: int, base_b: int, time: int, z: ObstacleField
) -> CoupledState:
    """The state a _canonical_key records, each side read from its start
    (c_x, c_b) and moved on to its base laps (base_x, base_b), at time."""
    n = len(key) // 3

    def side(part, c, base) -> SimState:
        # particle j is canonical particle (j - c) % n, (j - c) // n laps past the base
        k, r = divmod(c, n)
        reps = key[part * n + n - r : part * n + n] + key[part * n : part * n + n - r]
        return SimState(reps, (base - k - 1,) * r + (base - k,) * (n - r), (0,) * n, time, z.domain)

    partners = key[2 * n :]
    pairing = {}
    for j in range(n):
        p = partners[(j - c_x) % n]
        if p is not None:
            pairing[j] = (p + c_b) % n
    return CoupledState(side(0, c_x, base_x), side(1, c_b, base_b), z, pairing)


def _in_input_units(state: CoupledState, z: ObstacleField, unscale: _Unscale) -> CoupledState:
    """A lattice state as a state on z, each side read back by unscale."""
    x, xbar = (unscale.state(s, z.domain) for s in (state.x, state.xbar))
    return CoupledState(x, xbar, z, state.pairing)
