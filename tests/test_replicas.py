"""Replica batches of the vectorized kernel against single runs and the Fraction step().

run on a Replicas batch steps every replica's particles in one flat array.
Each replica must come out exactly as it does when run alone, and as the
public one-step step() on the rational images of its floats. Positions on
quarter points and speeds in {1/2, 1, 3/2} keep every float sum exact, so
the comparisons are equalities.
"""
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


@settings(max_examples=80)
@given(batches(), st.integers(0, 12))
def test_batch_matches_single_runs_and_fraction_steps(case, steps):
    z, states = case
    zf = as_float(z)
    times = range(steps + 1)
    batch = Replicas(new_state([float(r) for r in reps], laps, zf.domain) for reps, laps in states)
    assert all(dynamics._fast_eligible(s, zf) for s in batch.states)
    summaries = list(run(batch, zf, steps, snapshot_times=times))
    assert len(summaries) == len(states)
    for (reps, laps), state, got in zip(states, batch.states, summaries):
        alone_state = new_state([float(r) for r in reps], laps, zf.domain)
        alone = run(alone_state, zf, steps, snapshot_times=times)

        oracle = new_state(reps, laps, z.domain)
        checker = InvariantChecker(z)
        unwrapped = [oracle.unwrapped()]
        for _ in range(steps):
            oracle, report = step(oracle, z)
            checker(report)
            unwrapped.append(oracle.unwrapped())

        assert got.final_state is state
        assert got.snapshots == alone.snapshots
        assert got.snapshots == {t: tuple(map(float, unwrapped[t])) for t in times}
        assert state.reps == alone_state.reps == [float(r) for r in oracle.reps]
        assert state.laps == alone_state.laps == oracle.laps
        assert state.time == alone_state.time == steps
        assert got.invariant_violations == alone.invariant_violations == len(checker.violations)


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
