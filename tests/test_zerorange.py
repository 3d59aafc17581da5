from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from contasep import (
    ConfigurationError,
    Line,
    ParticleConfig,
    Ring,
    TrackedZeroRange,
    ZeroRangeState,
    embed_and_compare,
    zr_step,
    zr_step_tracked,
    zr_trajectory,
    zr_velocity,
)
from contasep.core import INFINITY

F = Fraction
HALF_LINE = Line(0, INFINITY)


def test_step_ring_example():
    s = ZeroRangeState((2, 0, 1), ring=True)
    assert zr_step(s).occupancy == (2, 1, 0)


def test_step_ring_fixed_point():
    s = ZeroRangeState((1, 1, 1), ring=True)
    assert zr_step(s).occupancy == (1, 1, 1)


def test_step_line_fragment_spills_right():
    # interior stacks trade one-for-one; the left edge drains, a new site opens
    s = ZeroRangeState((5, 4, 7), ring=False)
    assert zr_step(s).occupancy == (4, 4, 7, 1)


def test_occupancy_rejects_negative():
    with pytest.raises(ConfigurationError):
        ZeroRangeState((1, -1), ring=True)


occupancies = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8)


@given(occupancies, st.booleans())
def test_step_conserves_particles(occ, ring):
    s = ZeroRangeState(tuple(occ), ring=ring)
    t = zr_step(s)
    assert t.total == s.total
    assert all(c >= 0 for c in t.occupancy)


@given(occupancies)
def test_trajectory_yields_requested_states(occ):
    s = ZeroRangeState(tuple(occ), ring=True)
    states = list(zr_trajectory(s, 4))
    assert len(states) == 5
    assert states[0].occupancy == s.occupancy


def test_trajectory_rejects_negative_steps():
    s = ZeroRangeState((1,), ring=True)
    with pytest.raises(ConfigurationError):
        list(zr_trajectory(s, -1))


def test_zr_velocity_formula():
    assert zr_velocity(2) == F(1, 2)
    assert zr_velocity(1) == 1
    assert zr_velocity(F(1, 2)) == 1


def test_tracked_stack_emits_largest_label():
    s = TrackedZeroRange(((0, 1, 2),), ring=False)
    t = zr_step_tracked(s)
    assert t.occupancy == (2, 1)
    assert t.site_of()[2] == 1      # top of the stack moved
    assert t.site_of()[0] == 0


def test_embed_ring_example():
    x = ParticleConfig.from_iterable((0, 0, 1), Ring(4))
    report = embed_and_compare(x, 60)
    assert report.equal
    assert report.first_divergence is None
    assert report.mode == "occupancy"


def test_embed_single_particle_line():
    x = ParticleConfig.from_iterable((0,), HALF_LINE)
    report = embed_and_compare(x, 25)
    assert report.equal
    assert report.mode == "identity"


def test_embed_full_stack_drains_one_per_step():
    x = ParticleConfig.from_iterable((0,) * 5, HALF_LINE)
    report = embed_and_compare(x, 30)
    assert report.equal


def test_embed_rejects_fractional_positions():
    x = ParticleConfig.from_iterable((F(1, 2),), Ring(4))
    with pytest.raises(ConfigurationError):
        embed_and_compare(x, 1)


@settings(max_examples=40)
@given(
    st.integers(min_value=3, max_value=15),
    st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=10),
)
def test_embed_matches_on_random_ring_configs(length, raw):
    pos = sorted(p % length for p in raw)
    x = ParticleConfig.from_iterable(pos, Ring(length))
    report = embed_and_compare(x, 40)
    assert report.equal, report.detail
