"""Exact runs on the scaled integer lattice against the public Fraction step.

run and run_coupled step exact input as integers times the lcm D of the input
denominators, and run_coupled makes each wait position (encode_waits). These
tests replay the same inputs through the public one-step functions on
Fractions, the coupled ones on the refined field, and require identical
states, snapshots, observer reports, coupling rows, pairings and error
messages.
"""
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from contasep import (
    CoupledState,
    CouplingError,
    InvariantChecker,
    Line,
    ObstacleField,
    ParticleConfig,
    Ring,
    SimState,
    TrajectoryWriter,
    apply_pairing,
    detect_overtakes,
    displacements,
    format_scalar,
    is_proper,
    run,
    run_coupled,
    step,
)
from contasep.core import INFINITY, encode_waits, to_lattice
from contasep import coupling
from contasep.coupling import _canonical_key
from contasep.dynamics import _Unscale, default_intervals
from contasep.scenarios import poisson_obstacles

F = Fraction
SPEEDS = (F(1, 2), F(1), F(3, 2))


@st.composite
def fields(draw, domain, width, max_wait=2):
    """Up to four obstacles on quarter points of [0, width), waits 0 to max_wait."""
    slots = draw(st.lists(st.integers(0, 4 * width - 1), min_size=0, max_size=4, unique=True))
    positions = tuple(sorted(F(s, 4) for s in slots))
    k = len(positions)
    waits = tuple(draw(st.lists(st.integers(0, max_wait), min_size=k, max_size=k)))
    velocities = tuple(draw(st.lists(st.sampled_from(SPEEDS), min_size=k, max_size=k)))
    return ObstacleField(positions, waits, velocities, F(3, 2), domain)


def particles(domain, width, max_size=6, min_size=1):
    """Third points, so the lattice mixes denominators 2, 3 and 4."""
    return st.lists(
        st.integers(0, 3 * width - 1), min_size=min_size, max_size=max_size
    ).map(lambda picks: ParticleConfig.from_iterable((F(p, 3) for p in picks), domain))


@st.composite
def ring_cases(draw, max_size=6, max_wait=2):
    half = draw(st.integers(8, 20))
    ring = Ring(F(half, 2))
    width = half // 2
    return draw(particles(ring, width, max_size)), draw(fields(ring, width, max_wait))


@st.composite
def line_cases(draw, max_wait=2):
    line = draw(st.sampled_from((Line(0, INFINITY), Line(F(-1, 2), 12))))
    return draw(particles(line, 8)), draw(fields(line, 10, max_wait))


def fraction_run(x, z, steps):
    """Oracle: the states of repeated public step() calls, from t=0."""
    states = [SimState.initial(x)]
    for _ in range(steps):
        states.append(step(states[-1], z))
    return states


@settings(max_examples=60)
@given(st.one_of(ring_cases(), line_cases()), st.data())
def test_step_returns_the_next_state_and_writes_nothing_to_its_input(case, data):
    # any countdowns, and on a ring stray laps of up to 1
    x, z = case
    n = x.count
    ints = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    laps = data.draw(ints(-1, 1)) if isinstance(x.domain, Ring) else [0] * n
    # SimState is frozen (test_states_are_frozen), so the input cannot change
    state = SimState(x.positions, laps, data.draw(ints(0, 2)), data.draw(st.integers(0, 5)), x.domain)
    after = step(state, z)
    assert after.time == state.time + 1
    # run hands back the same step, countdowns included
    assert run(state, z, 1).final_state == after


# criterion 8's ring, with waits of 1 and 2
WAITED_RING = Ring(24)
WAITED = (
    ParticleConfig.equispaced(WAITED_RING, 10, F(1, 4)),
    ObstacleField(tuple(range(0, 24, 3)), (2, 0, 0, 0, 1, 0, 0, 0), (1, F(1, 2)) * 4, 1, WAITED_RING),
)


def test_run_leaves_the_countdowns_of_as_many_steps():
    # run stops mid-wait
    x, z = WAITED
    oracle = SimState.initial(x)
    seen = set()
    for k in range(1, 25):
        oracle = step(oracle, z)
        state = run(SimState.initial(x), z, k).final_state
        assert state.wait_remaining == oracle.wait_remaining
        assert state == oracle
        seen.update(state.wait_remaining)
    assert seen == {0, 1, 2}


@settings(max_examples=80)
@given(st.one_of(ring_cases(max_wait=3), line_cases(max_wait=3)), st.integers(1, 60))
@example(WAITED, 24)
def test_encoded_step_decodes_to_the_countdown_step(case, steps):
    # encode_waits makes a wait w into w + 1 zero-wait copies, and stepping
    # that field must be the countdown step: decoded, every state equals the
    # one public step() reaches on the input, countdowns included
    x, z = case
    scale, domain, z_lat, reps = to_lattice(x.domain, z, x.positions)
    m, domain, z_enc, reps = encode_waits(domain, z_lat, reps)
    assert m == max(z.waits, default=0) + 1 and not any(z_enc.waits)
    state = SimState.initial(ParticleConfig(reps, domain))
    decode = _Unscale(scale, m)
    for want in fraction_run(x, z, steps)[1:]:
        state = step(state, z_enc)
        assert decode.state(state, x.domain) == want


def test_encode_waits_makes_each_wait_into_copies():
    # M = 3: the wait-2 obstacle at 1 becomes copies at 3, 4 and 5, the
    # wait-0 one at 4 a copy at 14, and a particle at p goes to 3p + 2
    line = Line(-1, 10)
    z = ObstacleField((1, 4), (2, 0), (1, 2), 3, line)
    m, domain, z_enc, xs = encode_waits(line, z, (-1, 1, 4))
    assert (m, domain, xs) == (3, Line(-3, 30), (-1, 5, 14))
    assert (z_enc.positions, z_enc.waits, z_enc.velocities, z_enc.top_speed) == (
        (3, 4, 5, 14), (0,) * 4, (3, 3, 3, 6), 9
    )
    assert encode_waits(line, ObstacleField((1,), (0,), (1,), 3, line), (4,)) == (
        1, line, ObstacleField((1,), (0,), (1,), 3, line), (4,)
    )


def test_to_lattice_scales_by_the_lcm_of_denominators():
    ring = Ring(F(15, 2))
    z = ObstacleField((0, F(5, 4)), (1, 0), (F(1, 2), 1), F(3, 2), ring)
    scale, domain, zs, xs = to_lattice(ring, z, (F(1, 3), 7))
    assert scale == 12
    assert domain == Ring(90)
    assert (zs.positions, zs.waits, zs.velocities, zs.top_speed) == ((0, 15), (1, 0), (6, 12), 18)
    assert zs.domain == domain
    assert xs == (4, 84)
    assert all(type(v) is int for v in (*zs.positions, *zs.velocities, *xs))


def test_to_lattice_keeps_an_infinite_line_end_and_refuses_floats():
    line = Line(F(-1, 2), INFINITY)
    z = ObstacleField.empty(line, 1)
    scale, domain, _, xs = to_lattice(line, z, (0, F(3, 4)))
    assert (scale, domain, xs) == (4, Line(-2, INFINITY), (0, 3))
    assert to_lattice(line, z, (0.5,)) is None
    assert to_lattice(Ring(6.0), ObstacleField.empty(Ring(6.0), 1), (0,)) is None


@settings(max_examples=60)
@given(st.one_of(ring_cases(), line_cases()), st.integers(0, 30), st.data())
def test_run_matches_fraction_steps(case, steps, data):
    x, z = case
    states = fraction_run(x, z, steps)
    # split the run so the second part starts from the first one's countdowns
    split = data.draw(st.integers(0, steps))
    first = run(SimState.initial(x), z, split, snapshot_times=range(split + 1))
    second = run(first.final_state, z, steps - split, snapshot_times=range(steps - split + 1))
    state, final = second.final_state, states[-1]
    assert state.reps == final.reps
    assert all(type(r) is Fraction for r in state.reps)
    assert state.laps == final.laps
    assert state.wait_remaining == final.wait_remaining
    assert state.time == final.time == steps
    assert first.snapshots == {t: states[t].unwrapped() for t in range(split + 1)}
    assert second.snapshots == {t: states[split + t].unwrapped() for t in range(steps - split + 1)}


def test_run_resumes_a_countdown_across_calls():
    # a run split while a particle waits out a 2-step obstacle resumes it
    ring = Ring(F(17, 2))
    z = ObstacleField((F(5, 4),), (2,), (F(3, 2),), F(3, 2), ring)
    x = ParticleConfig.from_iterable((F(1, 3),), ring)
    state = run(SimState.initial(x), z, 2).final_state
    assert state.wait_remaining == (1,) and state.reps == (F(5, 4),)
    state = run(state, z, 2).final_state
    states = fraction_run(x, z, 4)
    assert state.reps == states[-1].reps == (F(11, 4),)


def input_units(before, after):
    """A step's values as the CSV writer renders them, and the raw values."""
    fields_ = (before.reps, after.reps, displacements(before, after))
    return tuple(tuple(format_scalar(v) for v in f) for f in fields_), fields_


@settings(max_examples=40)
@given(ring_cases(), st.integers(1, 20))
def test_observers_see_states_in_input_units(case, steps):
    x, z = case
    states = fraction_run(x, z, steps)
    pairs = list(zip(states, states[1:]))
    seen = []
    writer, checker = TrajectoryWriter(), InvariantChecker(z)
    run(SimState.initial(x), z, steps, observers=(lambda *pair: seen.append(pair), writer, checker))
    assert [input_units(*p) for p in seen] == [input_units(*p) for p in pairs]
    assert [(b.time, b.laps, a.laps, a.wait_remaining) for b, a in seen] == [
        (b.time, b.laps, a.laps, a.wait_remaining) for b, a in pairs
    ]
    oracle_writer, oracle_checker = TrajectoryWriter(), InvariantChecker(z)
    for before, after in pairs:
        oracle_writer(before, after)
        oracle_checker(before, after)
    render = lambda rows: [tuple(format_scalar(v) for v in row) for row in rows]
    assert render(writer.rows) == render(oracle_writer.rows)
    assert checker.violations == oracle_checker.violations == []


def test_invariant_checker_messages_in_input_units():
    # an out-of-order state: particle 1 snaps back onto particle 2, so the
    # checker reports a negative displacement and a broken order, with
    # numbers that must read as input units
    ring = Ring(8)
    z = ObstacleField.empty(ring, 1)

    def broken():
        return SimState([6, F(31, 5), F(1, 2), F(7, 10)], [0] * 4, [0] * 4, 0, ring)

    checker = InvariantChecker(z)
    run(broken(), z, 2, observers=(checker,))
    oracle = InvariantChecker(z)
    state = broken()
    for _ in range(2):
        before, state = state, step(state, z)
        oracle(before, state)
    assert checker.violations == oracle.violations
    assert "t=0 i=1: negative displacement -57/10" in checker.violations


def test_int_length_checker_reports_like_a_fraction_length():
    # interval bounds are exact for an int length, so an int ring reports
    # the same violations, bounds in messages included, as a Fraction ring
    def audit(length):
        ring = Ring(length)
        z = ObstacleField((0, 4), (0, 0), (1, 1), 1, ring)
        checker = InvariantChecker(z)
        run(SimState([1, 4, F(7, 4)], [0] * 3, [0] * 3, 0, ring), z, 2, observers=(checker,))
        return checker.violations

    assert audit(8) == audit(F(8))
    assert "t=0: interval [2,7/2) count jumped by 2" in audit(8)
    for domain in (Ring(8), Line(-1, 12)):
        assert all(type(v) is Fraction for ab in default_intervals(domain) for v in ab)
    assert all(type(v) is float for ab in default_intervals(Ring(8.0)) for v in ab)


def coupled_step(state):
    """One coupled step through the public functions: (next state, its events)."""
    x, xbar = step(state.x, state.z), step(state.xbar, state.z)
    moved = CoupledState(x, xbar, state.z, dict(state.pairing))
    events = detect_overtakes(state, moved)
    return apply_pairing(moved, events), events


def coupled_oracle(x, xbar, z, steps):
    """Oracle for run_coupled: (rows, final state, violations or None).

    The public functions step the case with its waits made position by the
    same encoder, each lattice value e over D * M in input units, so the
    checks read the refined field. Rows and the state are decoded: e stands
    at (e // M) / D, its countdown M - 1 - e % M.
    """
    scale, domain, z_lat, px, pb = to_lattice(x.domain, z, x.positions, xbar.positions)
    m, _, z_enc, px, pb = encode_waits(domain, z_lat, px, pb)
    unit = scale * m
    over = lambda values: tuple(F(v, unit) for v in values)
    refined = ObstacleField(
        over(z_enc.positions), z_enc.waits, over(z_enc.velocities), F(z_enc.top_speed, unit), x.domain
    )
    state = CoupledState.initial(ParticleConfig(over(px), x.domain), ParticleConfig(over(pb), x.domain), refined)

    def decoded(sim):
        e = [int(r * unit) for r in sim.reps]
        return SimState([F(v // m, scale) for v in e], sim.laps, [m - 1 - v % m for v in e], sim.time, x.domain)

    def decode(state):
        return CoupledState(decoded(state.x), decoded(state.xbar), z, state.pairing)

    start = decode(state)
    start_x, start_b = start.x.unwrapped()[0], start.xbar.unwrapped()[0]
    rows = []
    for t in range(1, steps + 1):
        state, _ = coupled_step(state)
        violations = is_proper(state)
        if violations:
            return rows, decode(state), violations
        shown = decode(state)
        gap = (shown.x.unwrapped()[0] - start_x) - (shown.xbar.unwrapped()[0] - start_b)
        defects = state.x.count - state.pair_count
        rows.append((t, defects, defects, state.pair_count, abs(gap), 1))
    return rows, decode(state), None


def assert_dump_matches(exc, state, violations):
    dump = exc.value.dump
    assert str(exc.value) == f"pairing lost integrity at t={state.time}"
    assert dump["time"] == state.time
    assert dump["violations"] == violations
    assert dump["x"] == [str(p) for p in state.x.unwrapped()]
    assert dump["xbar"] == [str(p) for p in state.xbar.unwrapped()]
    assert dump["pairing"] == state.pairing


def thirds(ring, picks):
    return ParticleConfig.from_iterable((F(p, 3) for p in picks), ring)


@st.composite
def coupled_cases(draw, max_wait=2):
    x, z = draw(ring_cases(max_size=5, max_wait=max_wait))
    width = int(x.domain.length)
    picks = draw(st.lists(st.integers(0, 3 * width - 1), min_size=x.count, max_size=x.count))
    return x, thirds(x.domain, picks), z


@st.composite
def crowded_cases(draw):
    """Wait-free rings with 6-12 particles a side, whose coupled states
    often repeat up to a relabelling of each side."""
    half = draw(st.integers(8, 20))
    ring = Ring(F(half, 2))
    width = half // 2
    n = draw(st.integers(6, 12))
    x, xbar = (draw(particles(ring, width, max_size=n, min_size=n)) for _ in "xb")
    return x, xbar, draw(fields(ring, width, max_wait=0))


# A waited field whose coupled state first repeats at t=31 that of t=6: the
# run stops stepping there and replays the 25-step period.
REPEATING_RING = Ring(F(17, 2))
REPEATING = (
    thirds(REPEATING_RING, (14, 0, 13, 15)),
    thirds(REPEATING_RING, (17, 14, 16, 20)),
    ObstacleField(
        (F(3, 4), 1, F(11, 4), 7), (2, 2, 1, 1), (F(3, 2), F(1, 2), F(1, 2), F(1, 2)), F(3, 2), REPEATING_RING
    ),
)
# run lengths ending before the first repeat, at it, and mid-period five periods on
BEFORE, AT, MID_PERIOD = 30, 31, 150

# A wait-free crowded ring whose coupled state at t=4 is that of t=3 with
# each particle in its successor's place on both sides: cycle (3, 1, 1, 1).
# 11 particles a side make its labelled period 1 * lcm(11, 11) = 11 steps,
# so a 60-step run replays 56 rows, whose v_gap_abs takes 6 values.
CROWDED_RING = Ring(5)
CROWDED = (
    thirds(CROWDED_RING, (1, 2, 4, 4, 5, 6, 6, 7, 7, 13, 14)),
    thirds(CROWDED_RING, (1, 2, 2, 4, 5, 7, 7, 8, 10, 13, 14)),
    ObstacleField((F(5, 4), 4, F(19, 4)), (0, 0, 0), (1, 1, F(3, 2)), F(3, 2), CROWDED_RING),
)

# A waited ring on which the order of the pairing events decided the output
# while waits were countdowns: particles stacked on one obstacle with
# different countdowns stood at one point. On the refined field they stand
# on different copies, and events run from particle 0 give the same rows.
# 7 pairs form by t=4, and the state at t=13 is that of t=4, labelled:
# cycle (4, 9, 0, 0).
RING4_RING = Ring(4)
RING4 = (
    thirds(RING4_RING, (1, 1, 3, 3, 6, 7, 10, 11)),
    thirds(RING4_RING, (4, 5, 6, 6, 8, 8, 10, 11)),
    ObstacleField(
        (F(1, 2), F(5, 4), F(3, 2), F(5, 2), F(7, 2)), (1, 0, 0, 2, 1), (1, F(3, 2), 1, 1, 1), F(3, 2), RING4_RING
    ),
)


def test_pinned_runs_end_before_at_and_after_the_first_repeat():
    x, xbar, z = REPEATING
    # the first key match is t=31 with t=6, and each side's canonical first
    # particle has the same index at both times, so the repeat is labelled:
    # shifts s = s_bar = 0
    mu, lam = 6, 25
    assert run_coupled(x, xbar, z, BEFORE).cycle is None
    assert run_coupled(x, xbar, z, AT).cycle == (mu, lam, 0, 0) and AT == mu + lam
    assert run_coupled(x, xbar, z, MID_PERIOD).cycle == (mu, lam, 0, 0)
    assert MID_PERIOD > mu + lam and (MID_PERIOD - mu) % lam


@settings(max_examples=60)
@given(st.one_of(coupled_cases(), crowded_cases()), st.integers(1, 150))
@example(REPEATING, BEFORE)
@example(REPEATING, AT)
@example(REPEATING, MID_PERIOD)
@example(CROWDED, 60)
@example(RING4, 30)
def test_run_coupled_matches_fraction_loop(case, steps):
    # past the first repeat the run replays its period, so runs of up to 150
    # steps check the replayed rows and final state against stepping them;
    # on crowded rings the repeat is often up to a relabelling, so v_gap_abs
    # and the final state are read off a relabelled state of the period
    x, xbar, z = case
    rows, state, violations = coupled_oracle(x, xbar, z, steps)
    if violations:
        with pytest.raises(CouplingError) as exc:
            run_coupled(x, xbar, z, steps)
        assert_dump_matches(exc, state, violations)
        return
    diag = run_coupled(x, xbar, z, steps)
    if case is CROWDED:
        assert diag.cycle == (3, 1, 1, 1)
        assert len({row[4] for row in diag.rows[4:]}) == 6
    assert diag.rows == rows
    assert all(type(row[4]) is Fraction for row in diag.rows)
    assert diag.final_state.pairing == state.pairing
    assert diag.final_state.x.unwrapped() == state.x.unwrapped()
    assert diag.final_state.xbar.unwrapped() == state.xbar.unwrapped()
    assert diag.final_state.x.wait_remaining == state.x.wait_remaining
    assert diag.final_state.xbar.wait_remaining == state.xbar.wait_remaining
    assert diag.final_state.z is z


def test_waited_pairing_order_is_read_off_positions():
    diag = run_coupled(*RING4, 30)
    assert [row[:4] for row in diag.rows[3:6]] == [(4, 1, 1, 7), (5, 1, 1, 7), (6, 1, 1, 7)]
    assert diag.cycle == (4, 9, 0, 0)
    assert run_coupled(*RING2, 30).cycle == (8, 8, 0, 0)


def rotated(case, k):
    """case with every particle and obstacle moved k/12 on round its ring,
    the obstacles re-sorted with their waits and speeds."""
    x, xbar, z = case
    ring = x.domain

    def move(p):
        return (p + F(k, 12)) % ring.length

    order = sorted(range(z.count), key=lambda i: move(z.positions[i]))
    field = ObstacleField(
        tuple(move(z.positions[i]) for i in order),
        tuple(z.waits[i] for i in order),
        tuple(z.velocities[i] for i in order),
        z.top_speed,
        ring,
    )
    return (
        ParticleConfig.from_iterable(map(move, x.positions), ring),
        ParticleConfig.from_iterable(map(move, xbar.positions), ring),
        field,
    )


@settings(max_examples=40)
@given(st.one_of(coupled_cases(), crowded_cases()), st.integers(1, 150), st.data())
def test_coupled_runs_do_not_depend_on_the_rings_origin(case, steps, data):
    # particles sit on thirds and obstacles on quarters, so a shift by k/12
    # keeps the lattice. It relabels the particles that pass the origin;
    # v_gap_abs follows particle 0, so it is left out, as are the shifts
    # (s, s_bar), which name particles
    k = data.draw(st.integers(1, int(12 * case[0].domain.length) - 1))
    diag, moved = run_coupled(*case, steps), run_coupled(*rotated(case, k), steps)
    assert [row[1:4] for row in moved.rows] == [row[1:4] for row in diag.rows]
    assert moved.verdict == diag.verdict
    assert (moved.cycle and moved.cycle[:2]) == (diag.cycle and diag.cycle[:2])


def relabelled(state, s, s_bar):
    """state with x's particle i renamed from i + s and xbar's j from
    j + s_bar, read cyclically: a lap on for each turn past the last
    particle, so a shift by the count moves a side a lap."""

    def side(sim, shift):
        n = sim.count
        old = [(i + shift) % n for i in range(n)]
        return SimState(
            [sim.reps[j] for j in old],
            [sim.laps[j] + (i + shift) // n for i, j in enumerate(old)],
            [sim.wait_remaining[j] for j in old],
            sim.time,
            sim.domain,
        )

    n, n_b = state.x.count, state.xbar.count
    pairing = {(i - s) % n: (j - s_bar) % n_b for i, j in state.pairing.items()}
    return CoupledState(side(state.x, s), side(state.xbar, s_bar), state.z, pairing)


# Ring(2), every obstacle waiting 1 step. While waits were countdowns, the
# state these reached at t=8 had stacks on both sides, two x events of its
# next step touched one pair, and events run from particle 0 made the step
# depend on the labels. On the refined field no step here has two events;
# the state at t=16 is that of t=8: cycle (8, 8, 0, 0).
RING2_RING = Ring(2)
RING2 = (
    thirds(RING2_RING, (0, 0, 1, 2, 3, 3, 4, 5)),
    thirds(RING2_RING, (1, 2, 4, 4, 4, 4, 4, 5)),
    ObstacleField(
        (0, F(1, 4), F(1, 2), F(3, 4)), (1, 1, 1, 1), (F(1, 2), F(1, 2), F(1, 2), F(3, 2)), F(3, 2), RING2_RING
    ),
)


@settings(max_examples=40)
@given(st.one_of(coupled_cases(), crowded_cases()), st.integers(0, 30))
@example(RING2, 8)
def test_every_step_commutes_with_every_relabelling(case, steps):
    # run_coupled replays its first repeat up to a relabelling, so each step
    # must map every cyclic relabelling (s, s_bar) of its state to the same
    # relabelling of its result. s_bar runs over two turns, so xbar also
    # moves a lap against x. The cycle key must be the same for them all.
    # The case is stepped on its lattice with its waits encoded, as
    # run_coupled steps it.
    x, xbar, z = case
    _, domain, z, px, pb = to_lattice(x.domain, z, x.positions, xbar.positions)
    _, domain, z, px, pb = encode_waits(domain, z, px, pb)
    x, xbar = ParticleConfig(px, domain), ParticleConfig(pb, domain)
    state = CoupledState.initial(x, xbar, z)
    for _ in range(steps):
        state, _ = coupled_step(state)
        if is_proper(state):
            # run_coupled stops on a lost pair
            return
    after, _ = coupled_step(state)
    key = _canonical_key(state)[0]
    changed = []
    for s in range(x.count):
        for s_bar in range(2 * xbar.count):
            moved = relabelled(state, s, s_bar)
            assert _canonical_key(moved)[0] == key
            if coupled_step(moved)[0] != relabelled(after, s, s_bar):
                changed.append((s, s_bar))
    assert changed == []


def test_two_particle_cycle_worked_by_hand():
    # one particle a side on a ring of length 2 with one obstacle at 0 of
    # speed 1. x goes 0, 1, 2 (the obstacle one lap on), ... and xbar goes
    # 1/2, 3/2, then stops at the obstacle, 2, where x meets it at t=2 and
    # pairs with it. From then both take one step of 1 per step, so the state
    # at t=4 is that of t=2 one lap on. With one particle a side the only
    # relabelling is the identity: cycle (2, 2, 0, 0)
    ring = Ring(2)
    z = ObstacleField((0,), (0,), (1,), 1, ring)
    x, xbar = ParticleConfig((0,), ring), ParticleConfig((F(1, 2),), ring)
    for steps in (3, 4, 9):
        diag = run_coupled(x, xbar, z, steps)
        assert diag.cycle == (None if steps < 4 else (2, 2, 0, 0))
        assert diag.rows == [(1, 1, 1, 0, 0, 1)] + [(t, 0, 0, 1, F(1, 2), 1) for t in range(2, steps + 1)]
        assert diag.final_state.x.unwrapped() == diag.final_state.xbar.unwrapped() == (steps,)
        assert diag.final_state.x.laps == (steps // 2,)
        assert diag.final_state.pairing == {0: 0}


def test_run_coupled_matches_fraction_loop_on_criterion_10():
    # README's criterion-10 config (37 obstacles, 50+50 particles) at the
    # benchmark's length and twice it: many events per step, pairs born and
    # re-dealt, and the defect count settled at 1+1 well before the end.
    # The run stops at t=49, whose state is that of t=48 with each particle
    # in its successor's place, and replays the rest, v_gap_abs included
    ring = Ring(100)
    z = poisson_obstacles(ring, 0.35, seed=13, quantize=100, velocity=4)

    def draw(seed):
        rng = random.Random(seed)
        return ParticleConfig.from_iterable(
            (F(round(rng.uniform(0.0, 100.0) * 100), 100) % 100 for _ in range(50)), ring
        )

    x, xbar = draw(21), draw(22)
    for steps in (150, 300):
        rows, state, violations = coupled_oracle(x, xbar, z, steps)
        assert violations is None
        diag = run_coupled(x, xbar, z, steps)
        assert diag.cycle == (48, 1, 1, 1)
        assert diag.rows == rows
        assert rows[-1][1:4] == (1, 1, 49)
        assert diag.final_state.pairing == state.pairing
        assert diag.final_state.x.unwrapped() == state.x.unwrapped()
        assert diag.final_state.xbar.unwrapped() == state.xbar.unwrapped()


def test_coupling_error_dump_in_input_units(monkeypatch):
    # No known input loses pair integrity on the refined field, so a faulty
    # pairing stands in for one: at t=6 it pairs x1 at 19/2 with xbar 0 at
    # 25/4, across both obstacles, while x0 waits out the wait-2 obstacle at
    # 8. The lattice is D=4 with M=3, so the refined lattice would read 12
    # times larger, and x0's refined position, 8 + 1/12, is not its place
    ring = Ring(10)
    z = ObstacleField((8, F(17, 2)), (2, 0), (1, 1), 1, ring)
    x = ParticleConfig.from_iterable((F(7, 2), 6), ring)
    xbar = ParticleConfig.from_iterable((F(1, 4), F(9, 2)), ring)
    scale, domain, z_lat, _ = to_lattice(ring, z, x.positions + xbar.positions)
    assert scale == 4 and encode_waits(domain, z_lat)[0] == 3
    honest = apply_pairing

    def faulty(state, events):
        paired = honest(state, events)
        return CoupledState(paired.x, paired.xbar, paired.z, {1: 0}) if paired.time == 6 else paired

    # run_coupled and the oracle's coupled_step both pair through it
    monkeypatch.setattr(coupling, "apply_pairing", faulty)
    monkeypatch.setitem(globals(), "apply_pairing", faulty)
    _, state, violations = coupled_oracle(x, xbar, z, 80)
    assert state.time == 6 and state.x.wait_remaining == (1, 0)
    with pytest.raises(CouplingError) as exc:
        run_coupled(x, xbar, z, 80)
    assert_dump_matches(exc, state, violations)
    assert exc.value.dump["x"] == ["8", "19/2"]
    assert exc.value.dump["violations"] == [
        "pair (1,0): span 13/4 exceeds local speed 1",
        "pair (1,0): obstacle strictly inside span",
        "pair (1,0): 2 defect(s) strictly inside span",
    ]
    u_x = [F(p) for p in exc.value.dump["x"]]
    u_b = [F(p) for p in exc.value.dump["xbar"]]
    for message in exc.value.dump["violations"]:
        match = re.match(r"pair \((\d+),(\d+)\): span (\S+) exceeds local speed (\S+)", message)
        if match:
            i, j, span, speed = match.groups()
            ahead = (u_b[int(j)] - u_x[int(i)]) % 10
            assert F(span) == min(ahead, 10 - ahead)
            assert F(speed) in z.velocities
