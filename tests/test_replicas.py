"""Replica batches of the vectorized kernel against single runs and the Fraction step().

run on a Replicas batch steps every replica's particles in one flat array.
Each replica must come out exactly as it does when run alone, and as the
public one-step step() on the rational images of its floats. On a ring the
kernel stops stepping once each replica's state repeats up to a relabelling,
and replays the rest; that must match runs of one step each, which never
replay, as well. Positions on
quarter points and speeds in {1/2, 1, 3/2} keep every float sum exact, so
the comparisons are equalities.
"""
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contasep import (
    InvariantChecker,
    Line,
    ObstacleField,
    ParticleConfig,
    Replicas,
    Ring,
    SimState,
    displacements,
    run,
    step,
)
from contasep import dynamics
from contasep.core import INFINITY, ConfigurationError

F = Fraction
SPEEDS = (F(1, 2), F(1), F(3, 2))


@st.composite
def replica(draw, ring, start, slots, stray=1):
    """1-6 particles on quarter points, stacked at times; scrambled states
    are out of order and, on a ring, carry stray laps of up to stray."""
    picks = draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=6))
    reps = [start + F(p, 4) for p in picks]
    laps = [0] * len(reps)
    if draw(st.booleans()):
        if ring:
            laps = draw(st.lists(st.integers(-stray, stray), min_size=len(reps), max_size=len(reps)))
    else:
        reps.sort()
    return reps, laps


@st.composite
def batches(draw):
    """A wait-free field on quarter points, a ring or a line, and 1-4 replicas."""
    if draw(st.booleans()):
        domain = Ring(F(draw(st.integers(8, 20)), 2))
        start, slots = 0, int(4 * domain.length)
    else:
        domain = draw(st.sampled_from((Line(0, INFINITY), Line(F(-1, 2), 12))))
        start, slots = domain.start, 50
    picks = draw(st.lists(st.integers(0, slots - 1), max_size=4, unique=True))
    positions = tuple(sorted(start + F(p, 4) for p in picks))
    velocities = tuple(draw(st.lists(st.sampled_from(SPEEDS), min_size=len(picks), max_size=len(picks))))
    z = ObstacleField(positions, (0,) * len(picks), velocities, F(3, 2), domain)
    ring = isinstance(domain, Ring)
    states = draw(st.lists(replica(ring, start, slots), min_size=1, max_size=4))
    return z, states


def as_float(z):
    d = z.domain
    domain = Ring(float(d.length)) if isinstance(d, Ring) else Line(float(d.start), float(d.end))
    return ObstacleField(
        tuple(map(float, z.positions)), z.waits, tuple(map(float, z.velocities)), float(z.top_speed), domain
    )


def new_state(reps, laps, domain):
    return SimState(reps, laps, (0,) * len(reps), 0, domain)


def assert_batch_matches(z, states, steps):
    """Run the float images of states as one batch on z for steps steps.

    Each replica must match its run alone and the Fraction step() on its
    exact state, and report as many invariant violations as
    InvariantChecker. Returns each replica's oracle steps as (before,
    after) pairs of Fraction states.
    """
    zf = as_float(z)
    times = range(steps + 1)
    batch = Replicas(new_state([float(r) for r in reps], laps, zf.domain) for reps, laps in states)
    assert all(dynamics._fast_eligible(s, zf) for s in batch.states)
    summaries = list(run(batch, zf, steps, snapshot_times=times))
    assert len(summaries) == len(states)
    pairs = []
    for (reps, laps), state, got in zip(states, batch.states, summaries):
        alone = run(new_state([float(r) for r in reps], laps, zf.domain), zf, steps, snapshot_times=times)

        oracle = new_state(reps, laps, z.domain)
        checker = InvariantChecker(z)
        unwrapped = [oracle.unwrapped()]
        pairs.append([])
        for _ in range(steps):
            before, oracle = oracle, step(oracle, z)
            checker(before, oracle)
            pairs[-1].append((before, oracle))
            unwrapped.append(oracle.unwrapped())

        final, alone_final = got.final_state, alone.final_state
        assert final is not state
        assert state == new_state([float(r) for r in reps], laps, zf.domain)
        assert got.snapshots == alone.snapshots
        assert got.snapshots == {t: tuple(map(float, unwrapped[t])) for t in times}
        assert final.reps == alone_final.reps == tuple(map(float, oracle.reps))
        assert final.laps == alone_final.laps == oracle.laps
        assert final.time == alone_final.time == steps
        assert got.invariant_violations == alone.invariant_violations == len(checker.violations)
    return pairs


@settings(max_examples=80)
@given(batches(), st.integers(0, 12))
def test_batch_matches_single_runs_and_fraction_steps(case, steps):
    z, states = case
    assert_batch_matches(z, states, steps)


@st.composite
def ring_batches(draw):
    """A wait-free field on quarter points of a ring and 1-4 replicas. Stray
    laps two apart can break the order on every step of a period."""
    domain = Ring(F(draw(st.integers(4, 16)), 2))
    slots = int(4 * domain.length)
    picks = draw(st.lists(st.integers(0, slots - 1), max_size=4, unique=True))
    positions = tuple(sorted(F(p, 4) for p in picks))
    velocities = tuple(draw(st.lists(st.sampled_from(SPEEDS), min_size=len(picks), max_size=len(picks))))
    z = ObstacleField(positions, (0,) * len(picks), velocities, F(3, 2), domain)
    return z, draw(st.lists(replica(True, 0, slots, stray=2), min_size=1, max_size=4))


def assert_replay_matches_stepping(z, states, steps, times=()):
    """Run the float images of states as one batch on z for steps >= 1 steps.

    Each replica must match steps one-step runs of it and the Fraction
    step() on its exact state: snapshots at 0, times and steps, final reps
    and laps, and invariant counts. A reported cycle (lam, s, G) must map
    the exact state lam steps before the end onto the final one. Returns
    the batch's summaries.
    """
    zf = as_float(z)
    length = z.domain.length
    batch = Replicas(new_state([float(r) for r in reps], laps, zf.domain) for reps, laps in states)
    summaries = list(run(batch, zf, steps, snapshot_times=times))
    reported = {0, steps, *times}
    for (reps, laps), state, got in zip(states, batch.states, summaries):
        single = new_state([float(r) for r in reps], laps, zf.domain)
        stepped, count = {}, 0
        for t in range(steps):
            one = run(single, zf, 1)
            stepped[t], stepped[t + 1] = one.snapshots[0], one.snapshots[1]
            count += one.invariant_violations
            single = one.final_state

        oracle = new_state(reps, laps, z.domain)
        checker = InvariantChecker(z)
        unwrapped = [oracle.unwrapped()]
        for _ in range(steps):
            before, oracle = oracle, step(oracle, z)
            checker(before, oracle)
            unwrapped.append(oracle.unwrapped())

        final = got.final_state
        assert final is not state
        assert state == new_state([float(r) for r in reps], laps, zf.domain)
        assert got.snapshots == {t: stepped[t] for t in reported}
        assert got.snapshots == {t: tuple(map(float, unwrapped[t])) for t in reported}
        assert final.reps == single.reps == tuple(map(float, oracle.reps))
        assert final.laps == single.laps == oracle.laps
        assert got.invariant_violations == count == len(checker.violations)
        if got.cycle is not None:
            lam, s, gain = got.cycle
            n = len(reps)
            assert 0 < lam <= steps and 0 <= s < n
            before = unwrapped[steps - lam]
            assert unwrapped[steps] == tuple(
                before[(i + s) % n] + ((i + s) // n + gain) * length for i in range(n)
            )
    return summaries


@settings(max_examples=60)
@given(ring_batches(), st.integers(1, 120), st.data())
def test_replay_matches_one_step_runs_and_fraction_steps(case, steps, data):
    z, states = case
    times = data.draw(st.lists(st.integers(0, steps), max_size=4))
    assert_replay_matches_stepping(z, states, steps, times)


# Pinned cases for the kernel's carried interval bins. On Ring(8) the
# intervals are [k, k + 3/2), so the edges are 0..8 in steps of 1/2 except 1/2.
RING_8 = ObstacleField((F(0), F(4)), (0, 0), (F(1, 2), F(1)), F(3, 2), Ring(8))
EDGES_8 = sorted({b for ab in dynamics.default_intervals(RING_8.domain) for b in ab})


def bin_of(position):
    return bisect_right(EDGES_8, position)


def movers(before, after):
    """How many particles changed bin in one step."""
    return sum(bin_of(a) != bin_of(b) for a, b in zip(before.reps, after.reps))


def count_change(before, after, a, b):
    return sum(a <= r < b for r in after.reps) - sum(a <= r < b for r in before.reps)


def jumps(before, after):
    """How many interval counts changed by more than 1 in one step."""
    return sum(abs(count_change(before, after, a, b)) > 1 for a, b in dynamics.default_intervals(RING_8.domain))


def test_particles_on_interval_edges():
    # moves of 1/2 and 1 from edges land on edges, except those onto 1/2
    reps = [F(1), F(2), F(7, 2), F(5), F(15, 2)]
    assert all(r in EDGES_8 for r in reps)
    (pairs,) = assert_batch_matches(RING_8, [(reps, [0] * 5)], 8)
    assert all(sum(r in EDGES_8 for r in after.reps) >= 4 for _, after in pairs)


def test_ring_replica_crosses_the_seam():
    # each particle lands on 0 exactly, from the last bin to bin 1
    (pairs,) = assert_batch_matches(RING_8, [([F(2), F(15, 2)], [0, 0])], 9)
    wraps = [
        (t, i) for t, (before, after) in enumerate(pairs) for i in range(2)
        if after.laps[i] > before.laps[i]
    ]
    assert wraps == [(0, 1), (7, 0)]
    assert all(pairs[t][1].reps[i] == 0 for t, i in wraps)


def test_scrambled_particles_move_backwards_across_bins():
    # out of order, the first particle's gap target lies behind it
    (pairs,) = assert_batch_matches(RING_8, [([F(13, 2), F(1, 4), F(3)], [0, 0, 1])], 4)
    before, after = pairs[0]
    assert displacements(before, after)[0] < 0
    assert bin_of(before.reps[0]) - bin_of(after.reps[0]) > 1


# Out of order: particles 0 and 2 jump back onto the edge 0, into [0, 3/2),
# while particles 1 and 3 move from 0 to 1/2 and stay in their bin.
PAIR = ([F(5), F(0), F(6), F(0)], [0, 0, 0, 0])


def test_one_mover_and_two_movers_into_one_interval():
    lone = ([F(3, 4)], [0])
    lone_pairs, pair_pairs = assert_batch_matches(RING_8, [lone, PAIR], 1)
    assert movers(*lone_pairs[0]) == 1
    assert movers(*pair_pairs[0]) == 2
    assert count_change(*pair_pairs[0], 0, F(3, 2)) == 2


def test_replicas_of_different_sizes():
    # In the first step the middle replica's count of [0, 3/2) jumps by 2,
    # and the other two each move one particle into it: no jump, though the
    # batch as a whole moves four particles into it.
    states = [
        ([F(15, 2)], [0]),
        PAIR,
        ([F(1, 2), F(2), F(3), F(4), F(5), F(15, 2)], [0] * 6),
    ]
    first = [pairs[0] for pairs in assert_batch_matches(RING_8, states, 5)]
    assert [count_change(*pair, 0, F(3, 2)) for pair in first] == [1, 2, 1]
    assert [jumps(*pair) > 0 for pair in first] == [False, True, False]


# Pinned cases for the table entries with no obstacle ahead, which random
# fields reach only sometimes.
def test_empty_ring_particle_wraps_the_seam():
    # the empty ring's entry is one lap on, so it never beats a wrapped move
    z = ObstacleField.empty(Ring(8), F(3, 2))
    (pairs,) = assert_batch_matches(z, [([F(3), F(15, 2)], [0, 0])], 4)
    _, after = pairs[0]
    assert after.reps == (F(9, 2), F(1))
    assert after.laps == (0, 1)


def test_line_without_obstacles():
    z = ObstacleField.empty(Line(F(-1, 2), 12), F(3, 2))
    (pairs,) = assert_batch_matches(z, [([F(-1, 2), F(0), F(3)], [0, 0, 0])], 4)
    # the first particle is gap-bound, the leader moves at top speed
    assert pairs[0][1].reps == (F(0), F(3, 2), F(9, 2))


def test_line_leader_passes_the_last_obstacle():
    z = ObstacleField((F(1), F(2)), (0, 0), (F(1, 2), F(1)), F(3, 2), Line(0, INFINITY))
    (pairs,) = assert_batch_matches(z, [([F(1, 4), F(7, 4)], [0, 0])], 4)
    # onto the last obstacle, then on at its segment's speed with none ahead
    assert [after.reps[1] for _, after in pairs] == [2, 3, 4, 5]


def test_ineligible_batch_runs_each_replica_alone(monkeypatch):
    # a replica in the middle of a wait cannot join the kernel, so each
    # replica runs alone: the other one as a batch of one
    z = as_float(ObstacleField((0, 4, 8), (0, 0, 0), (1, 1, 1), 1, Ring(12)))

    def states():
        x = ParticleConfig.equispaced(z.domain, 6, 0.25)
        waiting = SimState(x.positions, (0,) * 6, (2,) + (0,) * 5, 0, x.domain)
        return waiting, SimState.initial(x)

    calls = []
    real = dynamics._run_fast
    monkeypatch.setattr(dynamics, "_run_fast", lambda batch, *rest: calls.append(batch.count) or real(batch, *rest))
    got = list(run(Replicas(states()), z, 30))
    assert calls == [6]
    want = [run(s, z, 30) for s in states()]
    assert [g.snapshots for g in got] == [w.snapshots for w in want]
    assert got[0].snapshots != got[1].snapshots


def test_a_batch_checks_its_field_once(monkeypatch):
    # the field is the same for every replica, so an eligible batch of three
    # checks it once and each replica's own values once
    z = as_float(ObstacleField((0, 4, 8), (0, 0, 0), (1, 1, 1), 1, Ring(12)))
    calls = []
    for name in ("_fast_field", "_fast_state"):
        real = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    states = [SimState.initial(ParticleConfig.equispaced(z.domain, n, 0.25)) for n in (3, 6, 9)]
    assert len(list(run(Replicas(states), z, 5))) == 3
    assert sorted(calls) == ["_fast_field"] + ["_fast_state"] * 3


def test_empty_batch_gives_no_summaries():
    z = ObstacleField.empty(Ring(6.0), 1.0)
    assert list(run(Replicas(()), z, 5)) == []


# Pinned cases for the replay.
def stepped_until(monkeypatch):
    """The times the replay observes, the last being where the batch stopped stepping."""
    seen = []
    real = dynamics._Replay.observe
    monkeypatch.setattr(dynamics._Replay, "observe", lambda self, t, *rest: seen.append(t) or real(self, t, *rest))
    return seen


def mean_velocity(cycle, n, length):
    lam, s, gain = cycle
    return F(s + n * gain) * length / (n * lam)


def test_two_cycles_worked_by_hand(monkeypatch):
    # Ring(2), no obstacles, top speed 1. Replica A has particles at 0 and
    # 1/2. Particle 0 is gap-bound once, to 1/2, and from t=1 on both move 1
    # a step: u(t) = (t - 1/2, t + 1/2). At t=2 particle 0 stands where
    # particle 1 stood at t=1, and particle 1 where particle 0 stood, one lap
    # on: lam = 1, s = 1, G = 0. Replica B is one particle at 0, moving 1 a
    # step: back on its rep a lap on every 2 steps, lam = 2, s = 0, G = 1.
    # The checkpoints sit at t=0, then t=1, then t=3. A matches t=1's at
    # t=2 and B at t=3. Every time still to report is then an even number
    # of steps on from t=3, so the 9-step run stops stepping at t=3.
    z = ObstacleField.empty(Ring(2), F(1))
    states = [([F(0), F(1, 2)], [0, 0]), ([F(0)], [0])]
    seen = stepped_until(monkeypatch)
    a, b = assert_replay_matches_stepping(z, states, 9)
    assert max(seen) == 3
    assert (a.cycle, b.cycle) == ((1, 1, 0), (2, 0, 1))
    assert a.snapshots[9] == (8.5, 9.5) and b.snapshots[9] == (9.0,)
    assert (a.final_state.reps, a.final_state.laps) == ((0.5, 1.5), (4, 4))
    assert (b.final_state.reps, b.final_state.laps) == ((1.0,), (4,))
    assert mean_velocity(a.cycle, 2, 2) == mean_velocity(b.cycle, 1, 2) == 1

    # Snapshots after the stop: t=8 is 5 steps on from t=3, an odd phase of
    # B's period, so B's state at t=4 is captured and the run steps to 4.
    seen.clear()
    a, b = assert_replay_matches_stepping(z, states, 9, times=(5, 8))
    assert max(seen) == 4
    assert [a.snapshots[t] for t in (5, 8)] == [(4.5, 5.5), (7.5, 8.5)]
    assert [b.snapshots[t] for t in (5, 8)] == [(5.0,), (8.0,)]


def test_replicas_of_different_periods_and_one_that_never_repeats(monkeypatch):
    # On RING_8 a lone particle takes 8 steps over [0, 4) and 4 over [4, 8):
    # period 12, found at t=27. A jam of 16 particles on the half points
    # moves half a unit a step, so it repeats every step relabelled by one.
    states = [([F(0)], [0]), ([F(k, 2) for k in range(16)], [0] * 16)]
    seen = stepped_until(monkeypatch)
    lone, jam = assert_replay_matches_stepping(RING_8, states, 20)
    assert (lone.cycle, jam.cycle) == (None, (1, 1, 0))
    assert max(seen) == 20
    seen.clear()
    lone, jam = assert_replay_matches_stepping(RING_8, states, 200, times=(100, 199))
    assert (lone.cycle, jam.cycle) == ((12, 0, 1), (1, 1, 0))
    assert max(seen) < 40
    assert mean_velocity(lone.cycle, 1, 8) == F(2, 3)
    assert mean_velocity(jam.cycle, 16, 8) == F(1, 2)


def test_violations_recur_every_period():
    # Particle 1 stands two laps ahead of particle 2. From t=2 on, each step
    # one particle snaps back half a unit onto its neighbour's old position:
    # a negative displacement and a broken order, 2 violations a step. The
    # repeat is found at t=4, so both runs replay, the longer one 90 more
    # periods.
    z = ObstacleField.empty(Ring(4), F(3, 2))
    state = ([F(0), F(1, 2), F(1, 4), F(0)], [-2, 2, 0, 0])
    short, long = (assert_replay_matches_stepping(z, [state], steps)[0] for steps in (10, 100))
    assert short.cycle == long.cycle == (1, 1, 0)
    assert long.invariant_violations - short.invariant_violations == 2 * 90


def test_lap_counts_that_could_pass_int64_are_refused():
    # Replica A of the two cycles worked by hand: u(t) = (t - 1/2, t + 1/2)
    # from t=1 on, so 10**19 steps end about 5 * 10**18 laps on, inside the
    # kernel's int64 (2**63 - 1, about 9.2 * 10**18). A second such run, or
    # one of 10**20 steps, could pass it, and so could a lap count given
    # past it; each is refused before a step.
    z = ObstacleField.empty(Ring(2.0), 1.0)
    state = run(SimState([0.0, 0.5], [0, 0], [0, 0], 0, z.domain), z, 10**19).final_state
    assert (state.reps, state.laps, state.time) == ((1.5, 0.5), (5 * 10**18 - 1, 5 * 10**18), 10**19)
    # at the bound's edge: 2 steps of a lone particle have a bound of
    # ceil(2 * (1 + 3 / 2**53) / 2) + 1 = 3 laps and gain 1
    edge = run(SimState([0.0], [2**63 - 4], [0], 0, z.domain), z, 2).final_state
    assert edge.laps == (2**63 - 3,)
    for start, steps in (
        (state, 10**19),
        (SimState([0.0, 0.5], [0, 0], [0, 0], 0, z.domain), 10**20),
        (SimState([0.0], [2**63 - 3], [0], 0, z.domain), 2),
        (SimState([0.0], [2**63], [0], 0, z.domain), 1),
    ):
        with pytest.raises(ConfigurationError, match=r"could carry a lap count past 2\*\*63 - 1"):
            run(start, z, steps)
