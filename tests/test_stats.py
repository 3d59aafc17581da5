import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contasep import (
    DegenerateInputError,
    Line,
    ObstacleField,
    ParticleConfig,
    Ring,
    SimState,
    check_extended_bounds,
    classify_phase,
    density,
    one_sided_density,
    one_sided_profile,
    predict_velocity,
    run,
    velocity,
    velocity_estimate,
)
from contasep.core import INFINITY
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


def test_density_counts_closed_interval():
    x = ParticleConfig.from_iterable((0, 1, 2, 3), HALF_LINE)
    assert density(x, (0, 2)) == F(3, 2)


def test_density_ring_full_circumference():
    x = ParticleConfig.equispaced(Ring(6), 3)
    assert density(x) == F(1, 2)


def test_density_empty_config():
    x = ParticleConfig.from_iterable((), HALF_LINE)
    assert density(x, (0, 4)) == 0


def test_density_degenerate_interval():
    x = ParticleConfig.from_iterable((0,), HALF_LINE)
    with pytest.raises(DegenerateInputError):
        density(x, (2, 2))


def test_one_sided_density_half_grid():
    x = ParticleConfig.from_iterable([F(i, 2) for i in range(40)], HALF_LINE)
    assert one_sided_density(x, 10) == F(21, 10)


def test_one_sided_density_sublinear_decays():
    x = ParticleConfig.from_iterable([i * i for i in range(40)], HALF_LINE)
    assert one_sided_density(x, 1000) <= F(1, 25)


def test_one_sided_density_tiled_extension():
    # ten tiles of the unit-speed extension of a 2.5-gap pattern
    pts = [F(5, 2) * k + d for k in range(10) for d in (F(0), F(1), F(2), F(5, 2))]
    x = ParticleConfig.from_iterable(pts, HALF_LINE)
    assert x.count == 40
    assert one_sided_density(x, 25) == F(8, 5)


def test_one_sided_profile_tracks_each_window():
    x = ParticleConfig.from_iterable([F(i, 2) for i in range(40)], HALF_LINE)
    prof = one_sided_profile(x, (2, 10))
    assert prof == ((2, F(5, 2)), (10, F(21, 10)))


def test_velocity_from_trajectory():
    z = make_field((3,), HALF_LINE, velocities=(2,), top=2)
    traj = run(SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE)), z, 3)
    assert velocity(traj, 0, 3) == F(5, 3)


def test_velocity_blocked_particle_is_zero():
    z = ObstacleField.empty(HALF_LINE, 1)
    x = ParticleConfig.from_iterable((0, 0), HALF_LINE)
    traj = run(SimState.initial(x), z, 1, snapshot_times=(1,))
    assert velocity(traj, 0, 1) == 0


def test_velocity_requires_positive_time():
    z = ObstacleField.empty(HALF_LINE, 1)
    traj = run(SimState.initial(ParticleConfig.from_iterable((0,), HALF_LINE)), z, 0)
    with pytest.raises(DegenerateInputError):
        velocity(traj, 0, 0)


def test_predict_velocity_examples():
    assert predict_velocity(F(1, 2), 1) == 1
    assert predict_velocity(F(3, 2), 1) == F(2, 3)
    assert predict_velocity(F(1, 2), None, F(3, 2)) == F(3, 2)


def test_classify_phase_examples():
    assert classify_phase(F(1, 2), 1) == "gaseous"
    assert classify_phase(2, 1) == "liquid"
    assert classify_phase(1, 1) == "gaseous"   # boundary convention


positive_rationals = st.builds(
    F, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40)
)


@given(positive_rationals, positive_rationals, positive_rationals, positive_rationals)
def test_predict_velocity_nonincreasing(r1, r2, s1, s2):
    lo_x, hi_x = min(r1, r2), max(r1, r2)
    lo_z, hi_z = min(s1, s2) + 1, max(s1, s2) + 1
    assert predict_velocity(hi_x, lo_z) <= predict_velocity(lo_x, lo_z)
    assert predict_velocity(lo_x, hi_z) <= predict_velocity(lo_x, lo_z)


@given(positive_rationals, positive_rationals)
def test_phase_matches_velocity_branch(rho_x, extra):
    rho_z = extra + 1
    phase = classify_phase(rho_x, rho_z)
    v = predict_velocity(rho_x, rho_z)
    assert (phase == "gaseous") == (v == 1 / rho_z)


def test_extended_bounds_equispaced_example():
    z = make_field(tuple(F(5, 2) * k for k in range(10)), Ring(25))
    report = check_extended_bounds(z)
    assert report.rho_real == F(2, 5)
    assert report.rho_ext == F(6, 5)
    assert report.lower == 1 and report.upper == F(7, 5)
    assert report.all_ok


def test_extended_bounds_two_obstacle_ring():
    z = make_field((0, 3), Ring(6))
    report = check_extended_bounds(z)
    assert report.rho_real == F(1, 3)
    assert report.rho_ext == 1
    assert report.all_ok


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((F(1), F(1, 2), F(3, 4), F(2))),
)
def test_extended_bounds_hold_on_seeded_fields(seed, vel):
    z = poisson_obstacles(Ring(30), 0.4, seed=seed, quantize=100, velocity=vel)
    if z.count == 0:
        return
    assert check_extended_bounds(z).all_ok


def test_velocity_estimate_mean_and_spread():
    z = ObstacleField.empty(HALF_LINE, 1)
    x = ParticleConfig.from_iterable((0, 5), HALF_LINE)
    traj = run(SimState.initial(x), z, 4)
    est = velocity_estimate(traj)
    assert est.mean == 1
    assert est.spread == 0


def test_velocity_spread_single_particle():
    z = ObstacleField.empty(HALF_LINE, 1)
    traj = run(SimState.initial(ParticleConfig.from_iterable((2,), HALF_LINE)), z, 5)
    assert velocity_estimate(traj).spread == 0


def test_velocity_spread_decays_on_liquid_ring():
    ring = Ring(30.0)
    rng = random.Random(3)
    pos = sorted(rng.uniform(0.0, 30.0) for _ in range(45))
    x = ParticleConfig.from_iterable(pos, ring)
    z = ObstacleField.empty(ring, 1.0)
    early = velocity_estimate(run(SimState.initial(x), z, 100)).spread
    late = velocity_estimate(run(SimState.initial(x), z, 10000)).spread
    assert late < early
