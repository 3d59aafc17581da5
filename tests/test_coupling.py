import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from contasep import (
    ConfigurationError,
    CoupledState,
    InvariantViolationError,
    Line,
    ObstacleField,
    ParticleConfig,
    Ring,
    SimState,
    apply_pairing,
    detect_overtakes,
    is_proper,
    run_coupled,
)
from contasep.core import INFINITY
from contasep import coupling
from contasep.coupling import _ranks
from contasep.dynamics import _step_scalar
from contasep.scenarios import poisson_obstacles

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


def coupled(x_pos, xbar_pos, z, pairing=None, domain=HALF_LINE):
    return CoupledState(
        SimState.initial(ParticleConfig.from_iterable(x_pos, domain)),
        SimState.initial(ParticleConfig.from_iterable(xbar_pos, domain)),
        z,
        pairing=dict(pairing or {}),
    )


def advance(state):
    """(state, the state one step on with the same pairing)."""
    z = state.z
    return state, CoupledState(_step_scalar(state.x, z), _step_scalar(state.xbar, z), z, state.pairing)


def test_pairing_must_be_one_to_one():
    z = ObstacleField.empty(HALF_LINE, 1)
    with pytest.raises(ConfigurationError):
        coupled((0, 1), (2, 3), z, pairing={0: 0, 1: 0})


def test_initial_requires_shared_domain():
    z = ObstacleField.empty(HALF_LINE, 1)
    with pytest.raises(ConfigurationError):
        CoupledState.initial(
            ParticleConfig.from_iterable((0,), HALF_LINE),
            ParticleConfig.from_iterable((0,), Ring(5)),
            z,
        )


def test_sides_must_share_one_clock():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0,), (1,), z)
    with pytest.raises(ConfigurationError, match="the sides' clocks differ: 1 and 0"):
        CoupledState(_step_scalar(state.x, z), state.xbar, z)
    assert advance(state)[1].time == 1


def test_defect_listings():
    z = ObstacleField.empty(HALF_LINE, 1)
    st1 = coupled((0, 1), (2, 3), z, pairing={0: 1})
    assert st1.defects_x() == (1,)
    assert st1.defects_xbar() == (0,)


@pytest.mark.parametrize("pairing", [{5: 0}, {-1: 0}, {0: -1}, {0: 2}, {"0": 0}, {0: 1.0}])
def test_pairing_must_map_indices_to_indices(pairing):
    # before, {5: 0} made is_proper raise IndexError and gave 2 defects of x
    # against a pair count of 1; {0: -1} read xbar's particle 1
    z = ObstacleField.empty(HALF_LINE, 1)
    with pytest.raises(ConfigurationError, match=r"^pairing must map indices of x \(2\) to indices of xbar \(2\), got "):
        coupled((0, 1), (2, 3), z, pairing=pairing)
    assert coupled((0, 1), (2, 3), z, pairing={1: 0}).defects_x() == (0,)


def test_sides_cannot_go_stale_behind_the_derived_values():
    # a write into a side after a read of the cached values once left them
    # stale: ranks stayed ([0, 1], [1, 2]) and unwrapped[0] (0, 5) while
    # the side read (3, 5)
    state = coupled((0, 5), (2, 7), ObstacleField.empty(Ring(10), 1), domain=Ring(10))
    assert state.ranks == ([0, 1], [1, 2])
    assert state.unwrapped[0] == state.x.unwrapped() == (0, 5)
    with pytest.raises(TypeError):
        state.x.reps[0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.x.reps = (3, 5)
    assert state.ranks == ([0, 1], [1, 2])
    assert state.unwrapped[0] == state.x.unwrapped() == (0, 5)


def test_detect_triple_coincidence_events():
    # three walkers meet at one point: the forward pass overtakes the blocked
    # copy, the backward pass overtakes the forward one, all non-strictly
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((F(1, 2), 1), (F(1, 5), 1, 1), z)
    prev, state = advance(state)
    assert tuple(state.x.reps) == (1, 2)
    assert tuple(state.xbar.reps) == (1, 1, 2)
    assert detect_overtakes(prev, state) == [("x", 0, range(1, 2)), ("xbar", 0, range(0, 1))]


def test_detect_no_crossings_no_events():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0,), (5,), z)
    prev, state = advance(state)
    assert detect_overtakes(prev, state) == []


def test_ranks_count_the_extended_copies():
    # against a count over the copies of u_other on laps -4..4: one side of a
    # ring in order (ties and a stack across the seam included), values on up
    # to three laps
    rng = random.Random(12)
    length = 6
    for _ in range(300):
        n = rng.randint(1, 5)
        reps = sorted(F(rng.randrange(4 * length), 4) for _ in range(n))
        lap = rng.randint(-1, 1)
        u_other = [lap * length + r for r in reps]
        if rng.random() < 0.2:
            u_other[-1] = u_other[0] + length
        values = [F(rng.randrange(-4 * length, 8 * length), 4) for _ in range(rng.randint(1, 6))]
        want = [
            1 + max(k * n + j for k in range(-4, 5) for j, v in enumerate(u_other) if v + k * length <= u)
            for u in values
        ]
        assert _ranks(values, u_other, length) == want


def test_a_mover_sweeping_more_than_a_lap_is_refused():
    ring = Ring(4)
    prev = coupled((0,), (2,), ObstacleField.empty(ring, 1), domain=ring)
    state = CoupledState(SimState([1], [2], [0], 1, ring), SimState([2], [0], [0], 1, ring), prev.z)
    with pytest.raises(InvariantViolationError, match="mover 0 swept more than one full lap"):
        detect_overtakes(prev, state)


def test_pair_born_at_shared_obstacle():
    z = make_field((F(3, 5),), HALF_LINE)
    state = coupled((0,), (F(1, 2),), z)
    prev, state = advance(state)
    events = detect_overtakes(prev, state)
    assert events == [("x", 0, range(0, 1))]
    state = apply_pairing(state, events)
    assert state.pairing == {0: 0}
    assert tuple(state.x.reps) == (F(3, 5),)
    assert tuple(state.xbar.reps) == (F(3, 5),)


def test_apply_without_events_is_identity():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0, 2), (1, 3), z, pairing={1: 1})
    out = apply_pairing(state, [])
    assert out.pairing == {1: 1}
    assert out is state


def test_strict_overtake_transports_defect_right():
    # an unpaired front-runner strictly passes a paired particle: it takes the
    # pairing over, the orphaned partner is immediately swept up by the next
    # crossing, and the defect ends on the rightmost particle
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled(
        (F(1, 2), F(27, 20), F(9, 5)),
        (1, F(13, 10)),
        z,
        pairing={1: 0, 2: 1},
    )
    assert is_proper(state) == []
    prev, moved = advance(state)
    events = detect_overtakes(prev, moved)
    assert events == [("x", 0, range(0, 1)), ("xbar", 1, range(1, 2))]
    state = apply_pairing(moved, events)
    assert state.pairing == {0: 0, 1: 1}
    assert state.defects_x() == (2,)
    assert state.defects_xbar() == ()
    assert is_proper(state) == []
    # each event's branch shows in the pairing it leads to: x0 takes xbar 0
    # over from x1, then xbar 1 leaves x2 and repairs with the freed x1
    takeover, repair = events
    taken = apply_pairing(moved, [takeover])
    assert taken.pairing == {0: 0, 2: 1}
    assert apply_pairing(taken, [repair]).pairing == {0: 0, 1: 1}


def test_defect_count_difference_invariant_under_rules():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled(
        (F(1, 2), F(27, 20), F(9, 5)),
        (1, F(13, 10)),
        z,
        pairing={1: 0, 2: 1},
    )
    diff0 = len(state.defects_x()) - len(state.defects_xbar())
    prev, state = advance(state)
    state = apply_pairing(state, detect_overtakes(prev, state))
    assert len(state.defects_x()) - len(state.defects_xbar()) == diff0


def test_proper_fresh_state_and_zero_width_pair():
    z = ObstacleField.empty(HALF_LINE, 1)
    assert is_proper(coupled((0, 3), (1, 4), z)) == []
    assert is_proper(coupled((2,), (2,), z, pairing={0: 0})) == []


def test_proper_flags_obstacle_inside_span():
    z = make_field((F(1, 2),), HALF_LINE)
    state = coupled((0,), (F(9, 10),), z, pairing={0: 0})
    violations = is_proper(state)
    assert len(violations) == 1
    assert "obstacle" in violations[0]


def test_proper_flags_span_wider_than_speed():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0,), (F(3, 2),), z, pairing={0: 0})
    violations = is_proper(state)
    assert len(violations) == 1
    assert "exceeds" in violations[0]


def test_proper_flags_defect_inside_span():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0, F(1, 2)), (1,), z, pairing={0: 0})
    violations = is_proper(state)
    assert len(violations) == 1
    assert "defect" in violations[0]


def test_proper_flags_crossing_pairs():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled(
        (0, F(1, 5)), (F(1, 10), F(3, 10)), z, pairing={0: 1, 1: 0}
    )
    violations = is_proper(state)
    assert any("cross" in v for v in violations)


def test_proper_pair_straddling_ring_seam():
    ring = Ring(10)
    ok = coupled((F(49, 5),), (F(1, 10),), ObstacleField.empty(ring, 1),
                 pairing={0: 0}, domain=ring)
    assert is_proper(ok) == []
    z = make_field((F(99, 10),), ring)
    bad = coupled((F(49, 5),), (F(1, 10),), z, pairing={0: 0}, domain=ring)
    violations = is_proper(bad)
    assert len(violations) == 1
    assert "obstacle" in violations[0]


def test_proper_counts_defects_across_the_ring_seam():
    # the span (49/5, 101/10) crosses the seam: x's defects at 99/10 and at 0
    # (10 one lap on) are inside, xbar's defect at the far end 1/10 is not
    ring = Ring(10)
    state = coupled(
        (0, F(49, 5), F(99, 10)), (F(1, 10), F(1, 10)), ObstacleField.empty(ring, 1),
        pairing={1: 0}, domain=ring,
    )
    assert is_proper(state) == ["pair (1,0): 2 defect(s) strictly inside span"]


def test_proper_on_a_ring_shorter_than_the_crossing_window():
    # on Ring(3) the forward window 2 * top_speed = 2 reaches past L/2; two
    # zero-width pairs one unit apart do not cross
    ring = Ring(3)
    state = coupled((0, 1), (0, 1), ObstacleField.empty(ring, 1), pairing={0: 0, 1: 1}, domain=ring)
    assert is_proper(state) == []


def test_proper_reads_partner_order_on_the_covering_line():
    # Ring(6), top speed 3/2: each partner is at most 3/2 from its pair on the
    # covering line, and the partners keep the pairs' order there, although
    # their positions taken modulo 6 would suggest two crossings
    ring = Ring(6)
    v = F(3, 2)
    z = make_field((1, F(5, 2), F(7, 2), 4), ring, velocities=(v,) * 4)

    def side(unwrapped):
        return SimState(
            [u % 6 for u in unwrapped], [int(u // 6) for u in unwrapped], [0] * 4, 0, ring
        )

    state = CoupledState(
        side((F(19, 2), F(19, 2), 10, F(23, 2))),
        side((7, F(17, 2), F(19, 2), 10)),
        z,
        pairing={3: 0, 2: 3, 1: 2, 0: 1},
    )
    assert is_proper(state) == []


def test_stacked_pairs_leave_their_stacks_in_order():
    # on the wait-1 obstacle at 7/2 (= 27/2 one lap on) x1 has just arrived
    # behind x2, which leaves next; on the other side b2 has just arrived
    # behind b3. Pairing x1 with b3 and x2 with b2 crosses the two pairs one
    # step later, so the leaders must end up paired with each other
    ring = Ring(10)
    z = make_field((F(5, 2), F(7, 2), 5), ring, waits=(0, 1, 1))

    def side(unwrapped, waits):
        return SimState(
            [u % 10 for u in unwrapped],
            [int(u // 10) for u in unwrapped],
            list(waits),
            8,
            ring,
        )

    state = CoupledState(
        side((F(25, 2), F(27, 2), F(27, 2), 15, 15), (0, 1, 0, 1, 0)),
        side((6, 11, F(27, 2), F(27, 2), 15), (0, 0, 1, 0, 1)),
        z,
        pairing={1: 3, 2: 2, 3: 4, 4: 0},
    )
    assert is_proper(state) == []
    state = apply_pairing(state, [])
    assert state.pairing == {1: 2, 2: 3, 3: 4, 4: 0}
    prev, state = advance(state)
    state = apply_pairing(state, detect_overtakes(prev, state))
    assert is_proper(state) == []


def test_detect_and_apply_write_nothing_into_their_inputs():
    # a takeover and a repair (the defect transport above), then a stack
    # re-deal (the stacked pairs above): the states and events after each
    # call equal copies of their values taken before it. The sides, the
    # field and the events are immutable; the pairing is copied
    z = ObstacleField.empty(HALF_LINE, 1)
    transport = coupled((F(1, 2), F(27, 20), F(9, 5)), (1, F(13, 10)), z, pairing={1: 0, 2: 1})
    ring = Ring(10)

    def side(unwrapped, waits):
        return SimState([u % 10 for u in unwrapped], [int(u // 10) for u in unwrapped], list(waits), 8, ring)

    stacked = CoupledState(
        side((F(25, 2), F(27, 2), F(27, 2), 15, 15), (0, 1, 0, 1, 0)),
        side((6, 11, F(27, 2), F(27, 2), 15), (0, 0, 1, 0, 1)),
        make_field((F(5, 2), F(7, 2), 5), ring, waits=(0, 1, 1)),
        pairing={1: 3, 2: 2, 3: 4, 4: 0},
    )
    def values(*states):
        return [(s.x, s.xbar, s.z, dict(s.pairing)) for s in states]

    seen = []
    for state in (transport, stacked):
        prev, moved = advance(state)
        before = values(prev, moved)
        events = detect_overtakes(prev, moved)
        assert values(prev, moved) == before
        for given, evs in ((moved, events), (state, [])):
            before = values(given), list(evs)
            paired = apply_pairing(given, evs)
            assert (values(given), evs) == before
            seen.append(paired.pairing != given.pairing)
        if state is transport:
            assert [event[:2] for event in events] == [("x", 0), ("xbar", 1)]
    # the pairing changed where the rules apply: the transport's events and
    # the stack's re-deal
    assert seen == [True, False, False, True]


@pytest.mark.parametrize("steps", [1, 10, 30, 150, 1000])
def test_run_coupled_derives_each_states_values_once(steps, monkeypatch):
    # criterion 10's wait-free ring repeats at t=49 (cycle (48, 1, 1, 1)), so
    # min(steps, 49) + 1 states are stepped. Each state's ranks serve as the
    # "after" of one step and the "before" of the next: two _ranks calls a
    # state, and at most two _canonical_start calls, whatever the step count
    ring = Ring(100)
    z = poisson_obstacles(ring, 0.35, seed=13, quantize=100, velocity=4)

    def draw(seed):
        rng = random.Random(seed)
        return ParticleConfig.from_iterable(
            (F(round(rng.uniform(0.0, 100.0) * 100), 100) % 100 for _ in range(50)), ring
        )

    calls = {"_ranks": 0, "_canonical_start": 0}
    for name in calls:
        def counted(*args, _inner=getattr(coupling, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(coupling, name, counted)
    diag = run_coupled(draw(21), draw(22), z, steps)
    states = min(steps, 49) + 1
    assert diag.cycle == (None if steps < 49 else (48, 1, 1, 1))
    assert calls["_ranks"] == 2 * states
    assert 0 < calls["_canonical_start"] <= 2 * states


def test_run_coupled_refuses_a_step_count_that_is_not_a_nonnegative_int():
    # -3 once gave no rows and a verdict, True one step, and 2.5 or "3" a
    # TypeError traceback
    ring = Ring(8)
    x = ParticleConfig.from_iterable((0, 4), ring)
    z = ObstacleField.empty(ring, 1)
    with pytest.raises(ConfigurationError, match="step count must be nonnegative"):
        run_coupled(x, x, z, -3)
    for steps in (True, 2.5, "3"):
        with pytest.raises(ConfigurationError, match=r"must be ints, got \["):
            run_coupled(x, x, z, steps)


@pytest.mark.parametrize(
    "length, obstacles, xbar",
    [
        # (position, speed, wait) of each obstacle
        (2, [(0, F(1, 2), 0), (F(1, 2), 1, 1)], 1),
        (2, [(0, F(1, 2), 2)], 1),
        (5, [(0, 1, 2)], 2),
    ],
    ids=["ring-2-two-obstacles", "ring-2-wait-2", "ring-5-wait-2"],
)
def test_smallest_waited_fields_that_lost_a_pair_run_proper(length, obstacles, xbar):
    # With waits read as countdowns these lost pair integrity at t=3, 6 and
    # 7, each with x = (0,): an obstacle strictly inside a span, then a span
    # wider than the local speed twice. On the refined field each runs proper
    # into a cycle.
    ring = Ring(length)
    positions, speeds, waits = zip(*obstacles)
    z = make_field(positions, ring, waits=waits, velocities=speeds)
    diag = run_coupled(ParticleConfig((0,), ring), ParticleConfig((xbar,), ring), z, 10_000)
    assert len(diag.rows) == 10_000 and all(row[5] == 1 for row in diag.rows)
    assert diag.cycle is not None


def test_pairing_is_read_only():
    # a write once made the pairing many-to-one: pair_count 2 while
    # defects_x() was () and defects_xbar() (1,)
    ring = Ring(10)
    z = ObstacleField.empty(ring, 1)
    state = coupled((0, 5), (2, 7), z, pairing={0: 0}, domain=ring)
    # a pair born at a shared obstacle: apply_pairing installs a new pairing
    prev, moved = advance(coupled((0,), (F(1, 2),), make_field((F(3, 5),), HALF_LINE)))
    born = apply_pairing(moved, detect_overtakes(prev, moved))
    assert born.pairing == {0: 0} != moved.pairing
    x = ParticleConfig.from_iterable((0, 5), ring)
    for given in (state, born, run_coupled(x, x, z, 3).final_state):
        with pytest.raises(TypeError):
            given.pairing[1] = 0
    assert state.pairing == {0: 0} and state.pair_count == 1


def test_run_coupled_identical_sides_never_drift():
    ring = Ring(12)
    z = make_field((0, 4, 8), ring)
    pos = (F(1, 2), F(7, 2), F(13, 2), F(19, 2))
    diag = run_coupled(
        ParticleConfig.from_iterable(pos, ring),
        ParticleConfig.from_iterable(pos, ring),
        z,
        60,
    )
    assert {row[4] for row in diag.rows} == {0}
    assert all(row[5] == 1 for row in diag.rows)


def test_run_coupled_requires_ring_and_equal_counts():
    z = ObstacleField.empty(HALF_LINE, 1)
    a = ParticleConfig.from_iterable((0,), HALF_LINE)
    with pytest.raises(ConfigurationError):
        run_coupled(a, a, z, 5)
    ring = Ring(8)
    zr = ObstacleField.empty(ring, 1)
    with pytest.raises(ConfigurationError):
        run_coupled(
            ParticleConfig.from_iterable((0, 1), ring),
            ParticleConfig.from_iterable((0,), ring),
            zr,
            5,
        )


def test_run_coupled_series_shape_and_verdict():
    ring = Ring(12)
    z = make_field((0, 4, 8), ring)
    rng = random.Random(3)
    mk = lambda: ParticleConfig.from_iterable(
        sorted(F(round(rng.uniform(0, 12) * 50), 50) % 12 for _ in range(6)), ring
    )
    diag = run_coupled(mk(), mk(), z, 300)
    assert len(diag.rows) == 300
    assert diag.initial_defects == 12
    # equal counts: the defect split stays balanced step by step
    assert all(row[1] == row[2] for row in diag.rows)
    assert all(row[3] == 6 - row[1] for row in diag.rows)
    assert diag.verdict in ("nearly successful", "defects persist")
    assert diag.nearly_successful == (diag.final_defects < 0.1 * 12)


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=331)
@example(seed=385)
@example(seed=1364)
@example(seed=8)  # its Ring(6) draw was once stopped by a crossing that does not exist
def test_run_coupled_integrity_on_random_instances(seed):
    # the run itself asserts properness and balance every step; surviving
    # without an exception is the property under test. Each seed draws a
    # Ring(10) with waits 0-2, then a wait-free ring of length 3-12, both
    # with speeds 1/2, 1 and 3/2; on the second the forward crossing window
    # 2 * top_speed = 3 is large against L
    rng = random.Random(seed)
    ring = Ring(10)
    k = rng.randint(1, 3)
    zpos = tuple(sorted(rng.sample([F(p, 2) for p in range(20)], k)))
    waits = tuple(rng.randint(0, 2) for _ in range(k))
    speeds = tuple(rng.choice((F(1, 2), 1, F(3, 2))) for _ in range(k))
    z = make_field(zpos, ring, waits=waits, velocities=speeds, top=F(3, 2))
    n = rng.randint(1, 5)
    mk = lambda: ParticleConfig.from_iterable(
        sorted(F(rng.randrange(40), 4) % 10 for _ in range(n)), ring
    )
    diag = run_coupled(mk(), mk(), z, 80)
    assert all(row[5] == 1 for row in diag.rows)

    length = rng.randint(3, 12)
    ring = Ring(length)
    k = rng.randint(1, 5)
    zpos = tuple(sorted(rng.sample([F(p, 2) for p in range(2 * length)], k)))
    speeds = tuple(rng.choice((F(1, 2), 1, F(3, 2))) for _ in range(k))
    z = make_field(zpos, ring, velocities=speeds, top=F(3, 2))
    n = rng.randint(1, 8)
    mk = lambda: ParticleConfig.from_iterable(
        sorted(F(rng.randrange(4 * length), 4) for _ in range(n)), ring
    )
    diag = run_coupled(mk(), mk(), z, 200)
    assert all(row[5] == 1 for row in diag.rows)
