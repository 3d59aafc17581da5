import copy
import random
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
    gap,
    local_velocity,
    refine_waiting,
    run,
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
    assert gap(state.config(), 0) == 2


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
    assert local_velocity(state, z, 0) == 0
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


def test_local_velocity_examples():
    z = make_field((3,), HALF_LINE)
    x = ParticleConfig.from_iterable((0, F(2, 5)), HALF_LINE)
    assert local_velocity(SimState.initial(x), z, 0) == F(2, 5)
    z2 = make_field((3,), HALF_LINE, velocities=(2,), top=2)
    x2 = ParticleConfig.from_iterable((0,), HALF_LINE)
    assert local_velocity(SimState.initial(x2), z2, 0) == 2
    with pytest.raises(IndexError):
        local_velocity(SimState.initial(x2), z2, 1)


def test_left_shift_on_extended_configuration():
    z = make_field((0, F(7, 2)), Ring(9), waits=(1, 0), velocities=(1, F(3, 4)))
    ext = build_extended(refine_waiting(z))
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


@pytest.mark.parametrize("num", [F, float])
def test_an_observer_that_changes_its_states_leaves_the_run_unchanged(num):
    # criterion 8's waited ring, stepped by the scalar engine on its lattice
    # or in floats; the observer overwrites every list and the time it sees
    ring = Ring(num(24))
    z = ObstacleField(
        tuple(num(k) for k in range(0, 24, 3)),
        (1, 0, 0, 0, 1, 0, 0, 0),
        (num(1), num(1) / 2) * 4,
        num(1),
        ring,
    )
    x = ParticleConfig.equispaced(ring, 10, num(1) / 4)

    def vandal(before, after):
        for s in (before, after):
            s.reps[:] = [num(0)] * s.count
            s.laps[:] = [7] * s.count
            s.wait_remaining[:] = [3] * s.count
            s.time = -1

    clean = run(SimState.initial(x), z, 30, snapshot_times=range(31))
    state = SimState.initial(x)
    changed = run(state, z, 30, observers=(vandal,), snapshot_times=range(31))
    assert changed.snapshots == clean.snapshots
    assert changed.final_state == clean.final_state
    assert any(changed.final_state.wait_remaining)
    assert state == SimState.initial(x)


def test_run_writes_nothing_into_its_input():
    # every path of run: the scalar engine on a lattice and in floats with
    # observers, the kernel on one state and on a batch, a batch whose
    # waiting replica sends each replica alone, a failing observer and the
    # kernel's refusal of lap counts that could pass int64
    def field(num, waits):
        ring = Ring(num(24))
        return ObstacleField(tuple(num(k) for k in range(0, 24, 3)), waits, (num(1), num(1) / 2) * 4, num(1), ring)

    exact, waited, free = field(F, (1, 0, 0, 0, 1, 0, 0, 0)), field(float, (1,) + (0,) * 7), field(float, (0,) * 8)

    def state(num, count=10, laps=0):
        x = ParticleConfig.equispaced(Ring(num(24)), count, num(1) / 4)
        return SimState(list(x.positions), [laps] * count, [0] * count, 3, x.domain)

    def boom(before, after):
        if before.time == 4:
            raise ValueError("nope")

    waiting = state(float, 6)
    waiting.wait_remaining[0] = 2
    cases = [
        (state(F), exact, (), None),
        (state(float), waited, (InvariantChecker(waited), TrajectoryWriter()), None),
        (state(float), free, (), None),
        (Replicas([state(float, 3), state(float, 7)]), free, (), None),
        (Replicas([waiting, state(float, 5)]), free, (), None),
        (state(F), exact, (boom,), ObserverError),
        (state(float, 2, 2**63 - 2), free, (), ConfigurationError),
    ]
    for given, z, observers, error in cases:
        inputs = given.states if isinstance(given, Replicas) else (given,)
        for steps in (0, 5):
            before = copy.deepcopy(inputs)
            if error:
                with pytest.raises(error):
                    run(given, z, steps + 2, observers)
            else:
                got = run(given, z, steps, observers)
                finals = [g.final_state for g in got] if isinstance(given, Replicas) else [got.final_state]
                assert [f.time for f in finals] == [s.time + steps for s in inputs]
                lists = [id(v) for s in inputs for v in (s.reps, s.laps, s.wait_remaining)]
                assert not any(f is s for f in finals for s in inputs)
                assert not any(id(v) in lists for f in finals for v in (f.reps, f.laps, f.wait_remaining))
            assert inputs == before


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
    # its "neighbour" at 0.5, a negative displacement that leaves the ring
    # order broken; both counters see exactly those two violations
    ring = Ring(8.0)
    z = ObstacleField.empty(ring, 1.0)

    def broken():
        return SimState([6.0, 6.2, 0.5, 0.7], [0] * 4, [0] * 4, 0, ring)

    fast = run(broken(), z, 1)
    checker = InvariantChecker(z)
    slow = run(broken(), z, 1, observers=(checker,))
    assert fast.final_state.reps == slow.final_state.reps == [6.2, 0.5, 0.7, 1.7]
    assert fast.invariant_violations == len(checker.violations) == 2

    # Over 100 steps the state sorts itself out after two steps and repeats,
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
    assert fast.invariant_violations == count == len(checker.violations) == 3


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
        caps = [z.segment_velocity(p) for p in prev.reps]
        assert all(0 <= d <= c for d, c in zip(displacements(prev, state), caps))


def test_determinism_bit_identical_reruns():
    z = make_field((0, F(7, 2)), Ring(9), waits=(1, 0), velocities=(1, F(3, 4)))
    x = ParticleConfig.from_iterable((F(1, 4), 2, 5, F(27, 4)), Ring(9))
    a = run(SimState.initial(x), z, 150).final_state
    b = run(SimState.initial(x), z, 150).final_state
    assert a.unwrapped() == b.unwrapped()
    assert a.reps == b.reps
