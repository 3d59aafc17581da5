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
    OvertakeEvent,
    ParticleConfig,
    Ring,
    SimState,
    apply_pairing,
    detect_overtakes,
    is_proper,
    run_coupled,
)
from contasep.core import INFINITY
from contasep.coupling import _ranks
from contasep.dynamics import _step_scalar

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
    prev = state.copy()
    state.x = _step_scalar(state.x, state.z)
    state.xbar = _step_scalar(state.xbar, state.z)
    state.time += 1
    return prev, state


def test_event_validation():
    with pytest.raises(ConfigurationError):
        OvertakeEvent("y", 0, (1,))
    with pytest.raises(ConfigurationError):
        OvertakeEvent("x", 0, ())
    with pytest.raises(InvariantViolationError):
        OvertakeEvent("x", 0, (1, 3))


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


def test_defect_listings_and_copy_independence():
    z = ObstacleField.empty(HALF_LINE, 1)
    st1 = coupled((0, 1), (2, 3), z, pairing={0: 1})
    assert st1.defects_x() == (1,)
    assert st1.defects_xbar() == (0,)
    clone = st1.copy()
    clone.pairing[1] = 0
    assert 1 not in st1.pairing


def test_detect_triple_coincidence_events():
    # three walkers meet at one point: the forward pass overtakes the blocked
    # copy, the backward pass overtakes the forward one, all non-strictly
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((F(1, 2), 1), (F(1, 5), 1, 1), z)
    prev, state = advance(state)
    assert tuple(state.x.reps) == (1, 2)
    assert tuple(state.xbar.reps) == (1, 1, 2)
    events = detect_overtakes(prev, state)
    assert [(e.side, e.mover, e.overtaken) for e in events] == [
        ("x", 0, (1,)),
        ("xbar", 0, (0,)),
    ]


def test_detect_no_crossings_no_events():
    z = ObstacleField.empty(HALF_LINE, 1)
    state = coupled((0,), (5,), z)
    prev, state = advance(state)
    assert detect_overtakes(prev, state) == []


def carried_detect(prev, state, ranks_before):
    """detect_overtakes as run_coupled calls it; returns (events, ranks after)."""
    period = state.z.domain.length
    u_prev = (prev.x.unwrapped(), prev.xbar.unwrapped())
    u = (state.x.unwrapped(), state.xbar.unwrapped())
    after = (_ranks(u[0], u[1], period), _ranks(u[1], u[0], period))
    events = detect_overtakes(
        prev,
        state,
        unwrapped=(u_prev[0], u[0], u_prev[1], u[1]),
        ranks=(ranks_before[0], after[0], ranks_before[1], after[1]),
    )
    return events, after


def test_carried_ranks_give_the_events_computed_alone():
    # run_coupled bisects each position once per step and carries the ranks
    # into the next step; the events must be those detect_overtakes finds alone
    rng = random.Random(11)
    seam_movers = outside = 0
    for _ in range(40):
        length = rng.randint(3, 10)
        ring = Ring(length)
        zpos = sorted(rng.sample([F(p, 2) for p in range(2 * length)], rng.randint(0, 4)))
        speeds = [rng.choice((F(1, 2), 1, F(3, 2))) for _ in zpos]
        z = make_field(zpos, ring, velocities=speeds, top=F(3, 2))
        n = rng.randint(1, 6)
        x_pos, xbar_pos = ([F(rng.randrange(4 * length), 4) for _ in range(n)] for _ in "xb")
        state = coupled(x_pos, xbar_pos, z, domain=ring)
        u = (state.x.unwrapped(), state.xbar.unwrapped())
        ranks = (_ranks(u[0], u[1], length), _ranks(u[1], u[0], length))
        for _ in range(30):
            prev, state = advance(state)
            events, ranks = carried_detect(prev, state, ranks)
            assert events == detect_overtakes(prev, state)
            for ev in events:
                before, after = (prev.x, state.x) if ev.side == "x" else (prev.xbar, state.xbar)
                seam_movers += before.laps[ev.mover] != after.laps[ev.mover]
                outside += not all(0 <= m < n for m in ev.overtaken)
    assert seam_movers and outside


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
    state = prev.copy()
    state.x.reps, state.x.laps, state.time = [1], [2], 1
    ranks = (_ranks((0,), (2,), 4), _ranks((2,), (0,), 4))
    for detect in (lambda: detect_overtakes(prev, state), lambda: carried_detect(prev, state, ranks)):
        with pytest.raises(InvariantViolationError, match="mover 0 swept more than one full lap"):
            detect()


def test_pair_born_at_shared_obstacle():
    z = make_field((F(3, 5),), HALF_LINE)
    state = coupled((0,), (F(1, 2),), z)
    prev, state = advance(state)
    events = detect_overtakes(prev, state)
    assert [(e.side, e.mover, e.overtaken) for e in events] == [("x", 0, (0,))]
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
    prev, state = advance(state)
    events = detect_overtakes(prev, state)
    assert [(e.side, e.mover, e.overtaken) for e in events] == [
        ("x", 0, (0,)),
        ("xbar", 1, (1,)),
    ]
    state = apply_pairing(state, events)
    assert state.pairing == {0: 0, 1: 1}
    assert state.defects_x() == (2,)
    assert state.defects_xbar() == ()
    assert is_proper(state) == []
    # the annotations expose which branch each event took
    takeover, repair = events
    assert takeover.paired_anchor == 0 and takeover.repair_target is None
    assert repair.paired_anchor is None and repair.repair_target == 1


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
        time=8,
    )
    assert is_proper(state) == []
    state = apply_pairing(state, [])
    assert state.pairing == {1: 2, 2: 3, 3: 4, 4: 0}
    prev, state = advance(state)
    state = apply_pairing(state, detect_overtakes(prev, state))
    assert is_proper(state) == []


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
    # Ring(10) with waits 0-1 and unit speeds, then a wait-free ring of length
    # 3-12 with speeds 1/2, 1 and 3/2, where the forward crossing window
    # 2 * top_speed = 3 is large against L
    rng = random.Random(seed)
    ring = Ring(10)
    k = rng.randint(1, 3)
    zpos = tuple(sorted(rng.sample([F(p, 2) for p in range(20)], k)))
    z = make_field(zpos, ring, waits=tuple(rng.randint(0, 1) for _ in range(k)))
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
