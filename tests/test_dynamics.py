import dataclasses
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contasep import (
    ConfigurationError,
    InvariantChecker,
    Line,
    ObserverError,
    ObstacleField,
    ParticleConfig,
    Replicas,
    Ring,
    SimState,
    TrajectoryWriter,
    build_extended,
    displacements,
    run,
    run_coupled,
    step,
    velocity_estimate,
)
from contasep import dynamics
from contasep.core import INFINITY

F = Fraction
HALF_LINE = Line(0, INFINITY)


def make_field(positions, domain, waits=None, velocities=None, top=None):
    positions = tuple(positions)
    n = len(positions)
    waits = tuple(waits) if waits is not None else (0,) * n
    velocities = tuple(velocities) if velocities is not None else (1,) * n
    if top is None:
        top = max(velocities, default=1)
    return ObstacleField(positions, waits, velocities, top, domain)


def positions_of(state):
    return tuple(state.reps)


def test_single_particle_obstacle_truncates_one_step():
    z = make_field((3,), HALF_LINE, velocities=(2,), top=2)
    state = SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE))
    seen = [positions_of(state)[0]]
    for _ in range(4):
        state = step(state, z)
        seen.append(positions_of(state)[0])
    assert seen == [0, 2, 3, 5, 7]


def test_trailing_particle_blocked_once_then_follows():
    z = ObstacleField.empty(HALF_LINE, 2)
    state = SimState.initial(ParticleConfig.from_iterable((0, 1), HALF_LINE))
    state = step(state, z)
    assert positions_of(state) == (1, 3)
    state = step(state, z)
    assert positions_of(state) == (3, 5)
    state = step(state, z)
    assert state.reps[1] - state.reps[0] == 2


def test_step_leaves_input_untouched():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE))
    after = step(state, z)
    assert positions_of(state) == (0,)
    assert positions_of(after) == (1,)
    assert displacements(state, after) == (1,)


def test_run_zero_steps_zero_displacement():
    z = ObstacleField.empty(Ring(6), 1)
    state = SimState.initial(ParticleConfig.equispaced(Ring(6), 3))
    traj = run(state, z, 0)
    assert traj.steps == 0
    assert all(traj.displacement(i, 0) == 0 for i in range(3))


def test_run_rejects_negative_steps():
    z = ObstacleField.empty(Ring(6), 1)
    state = SimState.initial(ParticleConfig.equispaced(Ring(6), 3))
    with pytest.raises(ConfigurationError):
        run(state, z, -1)


def test_ring_long_run_mean_velocity_hits_flow_law():
    # density 1/2 against a fully saturated extension: expect speed 1
    z = make_field((0, 3), Ring(6))
    x = ParticleConfig.from_iterable((F(1, 2), F(5, 2), F(9, 2)), Ring(6))
    traj = run(SimState.initial(x), z, 2000)
    mean = velocity_estimate(traj).mean
    assert abs(mean - 1) <= F(1, 100)


def test_waiting_service_holds_particle_in_place():
    z = make_field((3,), HALF_LINE, waits=(2,))
    state = SimState.initial(ParticleConfig.from_iterable((F(5, 2),), HALF_LINE))
    state = step(state, z)             # lands on the obstacle, enqueues
    assert positions_of(state) == (3,)
    assert displacements(state, step(state, z))[0] == 0
    s1 = step(state, z)
    s2 = step(s1, z)
    assert displacements(state, s1) == (0,)    # two service ticks
    assert displacements(s1, s2) == (0,)
    state = step(s2, z)
    assert positions_of(state) == (4,)


def test_waiting_queue_serves_one_head_at_a_time():
    z = make_field((3,), HALF_LINE, waits=(1,))
    x = ParticleConfig.from_iterable((2, F(5, 2)), HALF_LINE)
    state = SimState.initial(x)
    history = []
    for _ in range(6):
        state = step(state, z)
        history.append(positions_of(state))
    # each particle spends wait+1 steps at the obstacle, pipelined one apart,
    # exactly as if both walked through the refined co-located copies
    assert history[0] == (F(5, 2), 3)
    assert history[1] == (3, 3)
    assert history[2] == (3, 4)
    assert history[3] == (4, 5)
    assert history[4] == (5, 6)


def test_left_shift_on_extended_configuration():
    z = make_field((0, F(7, 2)), Ring(9), waits=(1, 0), velocities=(1, F(3, 4)))
    ext = build_extended(z)
    x = ParticleConfig.from_iterable(ext.positions, Ring(9))
    state = run(SimState.initial(x), z, 1).final_state
    got = tuple(sorted(p % 9 for p in state.reps))
    shifted = tuple(ext.positions[1:]) + (ext.positions[0] + 9,)
    assert got == tuple(sorted(p % 9 for p in shifted))


def test_snapshots_at_requested_times():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE))
    traj = run(state, z, 5, snapshot_times=(2,))
    assert set(traj.snapshots) == {0, 2, 5}
    assert traj.displacement(0, 2) == 2
    with pytest.raises(KeyError):
        traj.displacement(0, 3)


def test_observer_failure_aborts_with_diagnostic():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE))

    def boom(before, after):
        if before.time == 1:
            raise ValueError("nope")

    def quiet(before, after):
        pass

    class Boom:
        def __call__(self, before, after):
            boom(before, after)

    # t is the time of the state the failed step started from; a function
    # is named by its name, so the second of two is told from the first,
    # and a callable instance by its class
    with pytest.raises(ObserverError, match="^observer boom failed at t=1: nope$"):
        run(state, z, 3, observers=(boom,))
    with pytest.raises(ObserverError, match="^observer boom failed at t=1: nope$"):
        run(state, z, 3, observers=(quiet, boom))
    with pytest.raises(ObserverError, match="^observer Boom failed at t=1: nope$"):
        run(state, z, 3, observers=(Boom(),))


def criterion_8_ring(num, waits=(1, 0, 0, 0, 1, 0, 0, 0)):
    """Criterion 8's ring of 24 with an obstacle every 3, waiting as given."""
    ring = Ring(num(24))
    return ObstacleField(tuple(num(k) for k in range(0, 24, 3)), waits, (num(1), num(1) / 2) * 4, num(1), ring)


def started(num, count=10, waits=None):
    """count particles on criterion 8's ring at time 3, waiting out waits."""
    x = ParticleConfig.equispaced(Ring(num(24)), count, num(1) / 4)
    return SimState(x.positions, (0,) * count, waits or (0,) * count, 3, x.domain)


def run_finals(given, z):
    """The final states of runs of 0 and 5 steps from given, a state or a
    batch, each at its start time plus the steps."""
    inputs = given.states if isinstance(given, Replicas) else (given,)
    finals = []
    for steps in (0, 5):
        got = run(given, z, steps)
        got = list(got) if isinstance(given, Replicas) else [got]
        assert [g.final_state.time for g in got] == [s.time + steps for s in inputs]
        finals += [g.final_state for g in got]
    return finals


def states_from(source):
    """States that source hands out, each with particles."""
    exact, waited, free = criterion_8_ring(F), criterion_8_ring(float), criterion_8_ring(float, (0,) * 8)
    if source == "initial":
        return [SimState.initial(ParticleConfig.equispaced(Ring(num(24)), 10)) for num in (F, float)]
    if source == "step":
        return [step(started(F), exact), step(started(float), waited)]
    if source == "run, scalar engine":
        # exact input on its lattice, float input on a waited field
        return run_finals(started(F), exact) + run_finals(started(float), waited)
    if source == "run, kernel":
        return run_finals(started(float), free)
    if source == "run, batch":
        # stepped together in the kernel, and one at a time when a replica waits
        waiting = started(float, 6, (2,) + (0,) * 5)
        return run_finals(Replicas([started(float, 3), started(float, 7)]), free) + run_finals(
            Replicas([waiting, started(float, 5)]), free
        )
    if source == "observer":
        # before and after of each step; watching leaves the run as it is
        seen = []
        for num, z in ((F, exact), (float, waited)):
            watched = run(started(num), z, 30, (lambda *pair: seen.extend(pair),), range(31))
            alone = run(started(num), z, 30, snapshot_times=range(31))
            assert watched.snapshots == alone.snapshots
            assert watched.final_state == alone.final_state
            assert any(watched.final_state.wait_remaining)
        return seen
    if source == "run_coupled":
        x, xbar = (ParticleConfig.equispaced(Ring(24), 10, offset) for offset in (F(1, 4), F(1, 2)))
        final = run_coupled(x, xbar, exact, 30).final_state
        return [final.x, final.xbar]
    raise ValueError(source)


@pytest.mark.parametrize(
    "source", ["initial", "step", "run, scalar engine", "run, kernel", "run, batch", "observer", "run_coupled"]
)
def test_states_are_frozen(source):
    # every field, time included, and every element refuses assignment
    states = states_from(source)
    assert states
    for state in states:
        for name in ("reps", "laps", "wait_remaining"):
            values = getattr(state, name)
            assert type(values) is tuple
            with pytest.raises(TypeError, match="does not support item assignment"):
                values[0] = values[0]
        for f in dataclasses.fields(state):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, f.name, getattr(state, f.name))


@pytest.mark.parametrize("num", [F, float])
def test_an_observer_that_writes_into_its_states_fails(num):
    def vandal(before, after):
        after.reps[0] = num(0)

    with pytest.raises(ObserverError, match="^observer vandal failed at t=3: 'tuple' object does not support"):
        run(started(num), criterion_8_ring(num), 30, observers=(vandal,))


@pytest.mark.parametrize("num", [F, float])
@pytest.mark.parametrize("short", ["reps", "laps", "wait_remaining"])
def test_a_state_of_unequal_lengths_is_refused(num, short):
    # exact input once ended in an IndexError in the scalar engine; float
    # input reached the kernel, whose final state had 2 reps and 1 countdown
    values = {"reps": [num(0), num(1)], "laps": [0, 0], "wait_remaining": [0, 0]}
    values[short] = values[short][:1]
    n_reps, n_laps, n_waits = map(len, values.values())
    with pytest.raises(ConfigurationError, match=f"equal length, got {n_reps}, {n_laps} and {n_waits}$"):
        SimState(**values, time=0, domain=Ring(num(4)))


def test_trajectory_writer_rows():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = SimState.initial(ParticleConfig.from_iterable((0, 2), HALF_LINE))
    writer = TrajectoryWriter()
    run(state, z, 2, observers=(writer,))
    assert len(writer.rows) == 4
    t, i, pos, disp, blocked = writer.rows[0]
    assert (t, i, pos, disp, blocked) == (1, 0, 1, 1, 0)


def test_fast_path_matches_scalar_path_bitwise():
    ring = Ring(30.0)
    rng = random.Random(8)
    pos = sorted(rng.uniform(0.0, 30.0) for _ in range(20))
    z = ObstacleField(
        (0.0, 11.5, 23.0), (0, 0, 0), (1.0, 0.5, 1.0), 1.0, ring
    )
    state = SimState.initial(ParticleConfig.from_iterable(pos, ring))
    sink = lambda before, after: None
    fast = run(state, z, 500).final_state                      # vectorized branch
    slow = run(state, z, 500, observers=(sink,)).final_state   # scalar branch
    assert fast.unwrapped() == slow.unwrapped()
    assert fast.unwrapped() != state.unwrapped()


def test_fast_path_reports_zero_invariant_violations():
    ring = Ring(60.0)
    x = ParticleConfig.equispaced(ring, 50, 0.3)
    z = ObstacleField(tuple(float(p) for p in range(0, 60, 4)), (0,) * 15, (1.0,) * 15, 1.0, ring)
    traj = run(SimState.initial(x), z, 2000)
    assert traj.invariant_violations == 0


def test_fast_path_counts_violations_like_the_checker():
    # particle 1 stands ahead of particle 2, out of order: it snaps back onto
    # its "neighbour" at 0.5, a negative displacement. Particle 0 moves onto
    # particle 1's old 6.2 and particles 2 and 3 move up, within bounds, so
    # both counters see exactly that one violation; the order it leaves
    # broken was broken before the step
    ring = Ring(8.0)
    z = ObstacleField.empty(ring, 1.0)

    def broken():
        return SimState([6.0, 6.2, 0.5, 0.7], [0] * 4, [0] * 4, 0, ring)

    fast = run(broken(), z, 1)
    checker = InvariantChecker(z)
    slow = run(broken(), z, 1, observers=(checker,))
    assert fast.final_state.reps == slow.final_state.reps == (6.2, 0.5, 0.7, 1.7)
    assert fast.invariant_violations == len(checker.violations) == 1

    # At t=1 particle 0, at 6.2 with particle 1 at 0.5, snaps back the same
    # way, a second violation. Then the state sorts itself out and repeats,
    # a lap on, every 8 steps. The kernel stops stepping once it is sure of
    # that, and must still end where 100 one-step runs and the scalar
    # engine end, with their violation count.
    fast = run(broken(), z, 100, snapshot_times=(50,))
    stepped, count = broken(), 0
    for t in range(100):
        one = run(stepped, z, 1)
        stepped = one.final_state
        count += one.invariant_violations
        if t + 1 == 50:
            assert fast.snapshots[50] == one.snapshots[1]
    checker = InvariantChecker(z)
    slow = run(broken(), z, 100, observers=(checker,))
    assert fast.cycle == (8, 0, 1)
    assert fast.final_state.reps == stepped.reps == slow.final_state.reps
    assert fast.final_state.laps == stepped.laps == slow.final_state.laps
    assert fast.snapshots[100] == slow.snapshots[100]
    assert fast.invariant_violations == count == len(checker.violations) == 2


@pytest.mark.parametrize("num", [F, float])
def test_invariant_checker_caps_each_move_at_the_fields_segment_speed(num):
    # particle 0 moves 1 on a segment of speed 1/2: within its gap to
    # particle 1 and short of the obstacle at 6, so only the cap is broken
    ring = Ring(num(12))
    z = ObstacleField((num(0), num(6)), (0, 0), (num(1) / 2, num(1)), num(1), ring)
    before = SimState([num(1), num(5)], [0, 0], [0, 0], 3, ring)
    after = SimState([num(2), num(5)], [0, 0], [0, 0], 4, ring)
    checker = InvariantChecker(z)
    checker(before, after)
    assert checker.violations == [f"t=3 i=0: displacement {num(1)} above cap {num(1) / 2}"]


@pytest.mark.parametrize("length", [Fraction(8), 8.0])
def test_run_rejects_snapshot_times_outside_the_run(length):
    # the scalar engine on Fractions, the vectorized kernel on floats
    z = ObstacleField.empty(Ring(length), length / 8)
    state = SimState.initial(ParticleConfig.equispaced(Ring(length), 3))
    assert dynamics._fast_eligible(state, z) == isinstance(length, float)
    with pytest.raises(ConfigurationError, match=r"snapshot times \[-1, 20\] outside the run's \[0, 10\]"):
        run(state, z, 10, snapshot_times=[20, -1, 3])
    assert state.time == 0


@pytest.mark.parametrize("length", [Fraction(8), 8.0], ids=["fraction", "float"])
@pytest.mark.parametrize(
    "steps, times, refused",
    [(5, [2.5, True, "3"], [2.5, True, "3"]), (True, (), [True]), (2.5, (), [2.5]), ("4", (2,), ["4"])],
    ids=["snapshot-times", "bool-steps", "float-steps", "string-steps"],
)
def test_run_refuses_steps_and_snapshot_times_that_are_not_ints(length, steps, times, refused):
    # a bool, a float or a string is not read as a whole number of steps
    z = ObstacleField.empty(Ring(length), length / 8)
    state = SimState.initial(ParticleConfig.equispaced(Ring(length), 3))
    with pytest.raises(ConfigurationError) as exc:
        run(state, z, steps, snapshot_times=times)
    assert str(exc.value) == f"step count and snapshot times must be ints, got {refused}"


@pytest.mark.parametrize("num", [F, float], ids=["fraction", "float"])
def test_run_refuses_a_field_on_another_domain(num):
    # a Ring(8) state stepped on a Ring(10) field once wrapped at 10, and a
    # state on the window [0, 8] walked past 8; both engines refuse it now
    ring, line = Ring(num(10)), Line(num(0), INFINITY)
    for domain, z_domain in ((Ring(num(8)), ring), (Line(num(0), num(8)), line), (Line(num(0), num(8)), ring)):
        z = ObstacleField((num(3),), (0,), (num(1),), num(1), z_domain)
        state = SimState.initial(ParticleConfig.from_iterable((num(6), num(7)), domain))
        for given in (state, Replicas((state,))):
            with pytest.raises(ConfigurationError, match=r"every state must lie on the field's domain"):
                run(given, z, 5)


ring_cases = st.builds(
    lambda length, picks, obst, vel: (
        ParticleConfig.from_iterable(tuple(F(p, 4) for p in picks), Ring(length)),
        ObstacleField(
            tuple(sorted(F(o, 2) for o in obst)),
            (0,) * len(obst),
            (vel,) * len(obst),
            vel,
            Ring(length),
        ),
    ),
    length=st.integers(min_value=4, max_value=12),
    picks=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8),
    obst=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3, unique=True),
    vel=st.sampled_from((F(1), F(1, 2), F(2))),
)


@settings(max_examples=60)
@given(ring_cases)
def test_step_invariants_on_random_rings(case):
    x, z = case
    state = SimState.initial(x)
    checker = InvariantChecker(z)
    run(state, z, 8, observers=(checker,))
    assert checker.violations == []


@settings(max_examples=60)
@given(ring_cases)
def test_order_and_monotonicity_preserved(case):
    x, z = case
    state = SimState.initial(x)
    for _ in range(6):
        prev, state = state, step(state, z)
        before, after = prev.unwrapped(), state.unwrapped()
        assert all(b <= a for b, a in zip(before, after))
        assert all(after[i] <= after[i + 1] for i in range(len(after) - 1))
        caps = [z.table[0][bisect_right(z.positions, p)] for p in prev.reps]
        assert all(0 <= d <= c for d, c in zip(displacements(prev, state), caps))


# InvariantChecker bounds each move by its cap, its next obstacle and its
# neighbour's old position. The order of the state after a step and the
# counts of fixed intervals need no check of their own: moves in those
# bounds from a state in order keep the order and pass at most one particle
# over any point, and a state out of order makes some move break them. The
# oracle below is that order check and interval-count check.
def count_intervals(domain):
    """Fixed test intervals: 8 on a ring, 4 on a finite line."""
    if isinstance(domain, Ring):
        length = domain.length
        return [(k * length / 8, min(k * length / 8 + 3 * length / 16, length)) for k in range(8)]
    start, width = domain.start, domain.end - domain.start
    return [(start + k * width / 4, start + k * width / 4 + width / 5) for k in range(4)]


def order_or_count_fault(before, after):
    """Whether the state after a step is out of order, across a ring's seam
    too, or a fixed interval's count changed by more than 1."""
    u = after.unwrapped()
    if any(a > b for a, b in zip(u, u[1:])):
        return True
    if isinstance(after.domain, Ring) and u and u[-1] > u[0] + after.domain.length:
        return True
    return any(
        abs(sum(a <= r < b for r in after.reps) - sum(a <= r < b for r in before.reps)) > 1
        for a, b in count_intervals(after.domain)
    )


def as_float(z, state):
    """The float images of field z and state."""
    d = z.domain
    domain = Ring(float(d.length)) if isinstance(d, Ring) else Line(float(d.start), float(d.end))
    zf = ObstacleField(
        tuple(map(float, z.positions)), z.waits, tuple(map(float, z.velocities)), float(z.top_speed), domain
    )
    return zf, SimState(tuple(map(float, state.reps)), state.laps, state.wait_remaining, state.time, domain)


@st.composite
def step_pairs(draw):
    """(z, before, after) on quarter points of a ring or a finite line, with
    waits of 0-2: the state before, in order or scrambled (3 of the 10
    values of a draw), and the state after its step, as stepped or with
    some particles moved (6 of 10)."""
    ring = draw(st.booleans())
    domain = Ring(F(draw(st.integers(4, 16)), 2)) if ring else Line(F(-1, 2), F(draw(st.integers(4, 16)), 2))
    start = 0 if ring else domain.start
    slots = int(4 * (domain.length if ring else domain.end - start))
    picks = draw(st.lists(st.integers(0, slots - 1), max_size=4, unique=True))
    m = len(picks)
    z = ObstacleField(
        tuple(sorted(start + F(p, 4) for p in picks)),
        tuple(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))),
        tuple(draw(st.lists(st.sampled_from((F(1, 2), F(1), F(3, 2))), min_size=m, max_size=m))),
        F(3, 2),
        domain,
    )
    reps = sorted(start + F(p, 4) for p in draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=6)))
    n = len(reps)
    laps = [0] * n
    if draw(st.integers(0, 9)) < 3:
        reps = draw(st.permutations(reps))
        if ring:
            laps = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    waiting = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    before = SimState(reps, laps, waiting, 0, domain)
    after = step(before, z)
    if draw(st.integers(0, 9)) < 6:
        reps, laps = list(after.reps), list(after.laps)
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            reps[i] += F(draw(st.integers(-8, 8)), 4)
            if ring:
                lap, reps[i] = divmod(reps[i], domain.length)
                laps[i] += lap
        after = SimState(reps, laps, after.wait_remaining, after.time, domain)
    return z, before, after


@settings(max_examples=300)
@given(step_pairs())
def test_checker_flags_every_step_the_order_and_count_checks_flag(case):
    z, before, after = case
    checker = InvariantChecker(z)
    checker(before, after)
    if order_or_count_fault(before, after):
        assert checker.violations
    # the kernel counts the same faults in the step itself
    zf, before_f = as_float(z, before)
    if dynamics._fast_eligible(before_f, zf):
        checker = InvariantChecker(z)
        checker(before, step(before, z))
        assert run(before_f, zf, 1).invariant_violations == len(checker.violations)


def test_checker_flags_a_pass_that_keeps_the_order():
    # particle 0 moves 1/2 from 0, within its cap, past particle 1's old 1/4;
    # particle 1 moves 3/4 to 1. The order holds and [0, 3/2) keeps both, so
    # the order and interval-count checks see nothing
    ring = Ring(F(8))
    z = ObstacleField.empty(ring, F(1))
    before = SimState([F(0), F(1, 4)], [0, 0], [0, 0], 0, ring)
    after = SimState([F(1, 2), F(1)], [0, 0], [0, 0], 1, ring)
    assert not order_or_count_fault(before, after)
    checker = InvariantChecker(z)
    checker(before, after)
    assert checker.violations == ["t=0 i=0: passed the next particle's old position by 1/4"]


def test_determinism_bit_identical_reruns():
    z = make_field((0, F(7, 2)), Ring(9), waits=(1, 0), velocities=(1, F(3, 4)))
    x = ParticleConfig.from_iterable((F(1, 4), 2, 5, F(27, 4)), Ring(9))
    a = run(SimState.initial(x), z, 150).final_state
    b = run(SimState.initial(x), z, 150).final_state
    assert a.unwrapped() == b.unwrapped()
    assert a.reps == b.reps
