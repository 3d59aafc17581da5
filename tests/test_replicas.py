"""Replica batches of the vectorized kernel against single runs and the Fraction step().

run on a Replicas batch steps every replica's particles in one flat array.
Each replica must come out exactly as it does when run alone, and as the
public one-step step() on the rational images of its floats. Positions on
quarter points and speeds in {1/2, 1, 3/2} keep every float sum exact, so
the comparisons are equalities.
"""
from bisect import bisect_right
from fractions import Fraction

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
    run,
    step,
)
from contasep import dynamics
from contasep.core import INFINITY

F = Fraction
SPEEDS = (F(1, 2), F(1), F(3, 2))


@st.composite
def replica(draw, ring, start, slots):
    """1-6 particles on quarter points, stacked at times; scrambled states
    are out of order and, on a ring, carry stray laps."""
    picks = draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=6))
    reps = [start + F(p, 4) for p in picks]
    laps = [0] * len(reps)
    if draw(st.booleans()):
        if ring:
            laps = draw(st.lists(st.integers(-1, 1), min_size=len(reps), max_size=len(reps)))
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
    return SimState(list(reps), list(laps), [0] * len(reps), 0, domain)


def assert_batch_matches(z, states, steps):
    """Run the float images of states as one batch on z for steps steps.

    Each replica must match its run alone and the Fraction step() on its
    exact state, and report as many invariant violations as
    InvariantChecker. Returns each replica's oracle step reports.
    """
    zf = as_float(z)
    times = range(steps + 1)
    batch = Replicas(new_state([float(r) for r in reps], laps, zf.domain) for reps, laps in states)
    assert all(dynamics._fast_eligible(s, zf) for s in batch.states)
    summaries = list(run(batch, zf, steps, snapshot_times=times))
    assert len(summaries) == len(states)
    reports = []
    for (reps, laps), state, got in zip(states, batch.states, summaries):
        alone_state = new_state([float(r) for r in reps], laps, zf.domain)
        alone = run(alone_state, zf, steps, snapshot_times=times)

        oracle = new_state(reps, laps, z.domain)
        checker = InvariantChecker(z)
        unwrapped = [oracle.unwrapped()]
        reports.append([])
        for _ in range(steps):
            oracle, report = step(oracle, z)
            checker(report)
            reports[-1].append(report)
            unwrapped.append(oracle.unwrapped())

        assert got.final_state is state
        assert got.snapshots == alone.snapshots
        assert got.snapshots == {t: tuple(map(float, unwrapped[t])) for t in times}
        assert state.reps == alone_state.reps == [float(r) for r in oracle.reps]
        assert state.laps == alone_state.laps == oracle.laps
        assert state.time == alone_state.time == steps
        assert got.invariant_violations == alone.invariant_violations == len(checker.violations)
    return reports


@settings(max_examples=80)
@given(batches(), st.integers(0, 12))
def test_batch_matches_single_runs_and_fraction_steps(case, steps):
    z, states = case
    assert_batch_matches(z, states, steps)


# Pinned cases for the kernel's carried interval bins. On Ring(8) the
# intervals are [k, k + 3/2), so the edges are 0..8 in steps of 1/2 except 1/2.
RING_8 = ObstacleField((F(0), F(4)), (0, 0), (F(1, 2), F(1)), F(3, 2), Ring(8))
EDGES_8 = sorted({b for ab in dynamics.default_intervals(RING_8.domain) for b in ab})


def bin_of(position):
    return bisect_right(EDGES_8, position)


def movers(report):
    """How many particles changed bin in one step."""
    return sum(bin_of(a) != bin_of(b) for a, b in zip(report.reps_before, report.reps_after))


def count_change(report, a, b):
    return sum(a <= r < b for r in report.reps_after) - sum(a <= r < b for r in report.reps_before)


def jumps(report):
    """How many interval counts changed by more than 1 in one step."""
    return sum(abs(count_change(report, a, b)) > 1 for a, b in dynamics.default_intervals(RING_8.domain))


def test_particles_on_interval_edges():
    # moves of 1/2 and 1 from edges land on edges, except those onto 1/2
    reps = [F(1), F(2), F(7, 2), F(5), F(15, 2)]
    assert all(r in EDGES_8 for r in reps)
    (reports,) = assert_batch_matches(RING_8, [(reps, [0] * 5)], 8)
    assert all(sum(r in EDGES_8 for r in report.reps_after) >= 4 for report in reports)


def test_ring_replica_crosses_the_seam():
    # each particle lands on 0 exactly, from the last bin to bin 1
    (reports,) = assert_batch_matches(RING_8, [([F(2), F(15, 2)], [0, 0])], 9)
    wraps = [
        (t, i) for t, report in enumerate(reports) for i in range(2)
        if report.laps_after[i] > report.laps_before[i]
    ]
    assert wraps == [(0, 1), (7, 0)]
    assert all(reports[t].reps_after[i] == 0 for t, i in wraps)


def test_scrambled_particles_move_backwards_across_bins():
    # out of order, the first particle's gap target lies behind it
    (reports,) = assert_batch_matches(RING_8, [([F(13, 2), F(1, 4), F(3)], [0, 0, 1])], 4)
    first = reports[0]
    assert first.displacements[0] < 0
    assert bin_of(first.reps_before[0]) - bin_of(first.reps_after[0]) > 1


# Out of order: particles 0 and 2 jump back onto the edge 0, into [0, 3/2),
# while particles 1 and 3 move from 0 to 1/2 and stay in their bin.
PAIR = ([F(5), F(0), F(6), F(0)], [0, 0, 0, 0])


def test_one_mover_and_two_movers_into_one_interval():
    lone = ([F(3, 4)], [0])
    lone_reports, pair_reports = assert_batch_matches(RING_8, [lone, PAIR], 1)
    assert movers(lone_reports[0]) == 1
    assert movers(pair_reports[0]) == 2
    assert count_change(pair_reports[0], 0, F(3, 2)) == 2


def test_replicas_of_different_sizes():
    # In the first step the middle replica's count of [0, 3/2) jumps by 2,
    # and the other two each move one particle into it: no jump, though the
    # batch as a whole moves four particles into it.
    states = [
        ([F(15, 2)], [0]),
        PAIR,
        ([F(1, 2), F(2), F(3), F(4), F(5), F(15, 2)], [0] * 6),
    ]
    reports = assert_batch_matches(RING_8, states, 5)
    first = [r[0] for r in reports]
    assert [count_change(r, 0, F(3, 2)) for r in first] == [1, 2, 1]
    assert [jumps(r) > 0 for r in first] == [False, True, False]


# Pinned cases for the table entries with no obstacle ahead, which random
# fields reach only sometimes.
def test_empty_ring_particle_wraps_the_seam():
    # the empty ring's entry is one lap on, so it never beats a wrapped move
    z = ObstacleField.empty(Ring(8), F(3, 2))
    (reports,) = assert_batch_matches(z, [([F(3), F(15, 2)], [0, 0])], 4)
    assert reports[0].reps_after == (F(9, 2), F(1))
    assert reports[0].laps_after == (0, 1)


def test_line_without_obstacles():
    z = ObstacleField.empty(Line(F(-1, 2), 12), F(3, 2))
    (reports,) = assert_batch_matches(z, [([F(-1, 2), F(0), F(3)], [0, 0, 0])], 4)
    # the first particle is gap-bound, the leader moves at top speed
    assert reports[0].reps_after == (F(0), F(3, 2), F(9, 2))


def test_line_leader_passes_the_last_obstacle():
    z = ObstacleField((F(1), F(2)), (0, 0), (F(1, 2), F(1)), F(3, 2), Line(0, INFINITY))
    (reports,) = assert_batch_matches(z, [([F(1, 4), F(7, 4)], [0, 0])], 4)
    # onto the last obstacle, then on at its segment's speed with none ahead
    assert [r.reps_after[1] for r in reports] == [2, 3, 4, 5]


def test_ineligible_batch_runs_each_replica_alone(monkeypatch):
    # a replica in the middle of a wait cannot join the kernel, so each
    # replica runs alone: the other one as a batch of one
    z = as_float(ObstacleField((0, 4, 8), (0, 0, 0), (1, 1, 1), 1, Ring(12)))

    def states():
        x = ParticleConfig.equispaced(z.domain, 6, 0.25)
        waiting = SimState.initial(x)
        waiting.wait_remaining[0] = 2
        return waiting, SimState.initial(x)

    calls = []
    real = dynamics._run_fast
    monkeypatch.setattr(dynamics, "_run_fast", lambda batch, *rest: calls.append(batch.count) or real(batch, *rest))
    got = list(run(Replicas(states()), z, 30))
    assert calls == [6]
    want = [run(s, z, 30) for s in states()]
    assert [g.snapshots for g in got] == [w.snapshots for w in want]
    assert got[0].snapshots != got[1].snapshots


def test_empty_batch_gives_no_summaries():
    z = ObstacleField.empty(Ring(6.0), 1.0)
    assert list(run(Replicas(()), z, 5)) == []
