import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from contasep import (
    ConfigurationError,
    Line,
    ObstacleField,
    ParticleConfig,
    Ring,
    build_extended,
    extended_density,
    format_scalar,
    gap,
    modified_gap,
    parse_scalar,
    refine_waiting,
)
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


def test_parse_scalar_exact_gives_rationals():
    assert parse_scalar("0.5") == F(1, 2)
    assert parse_scalar("3") == 3
    assert parse_scalar(F(7, 4)) == F(7, 4)


def test_parse_scalar_fast_gives_floats():
    v = parse_scalar("0.5", "fast")
    assert isinstance(v, float) and v == 0.5


def test_format_scalar_round_trips():
    for s in ("1/2", "3", "0.25"):
        v = parse_scalar(s)
        assert parse_scalar(format_scalar(v)) == v


def test_ring_rejects_nonpositive_length():
    with pytest.raises(ConfigurationError):
        Ring(0)


def test_line_rejects_reversed_window():
    with pytest.raises(ConfigurationError):
        Line(3, 1)


def test_particles_must_be_sorted():
    with pytest.raises(ConfigurationError):
        ParticleConfig((2, 1), HALF_LINE)


def test_from_iterable_sorts_and_keeps_duplicates():
    x = ParticleConfig.from_iterable((3, 0, 3), HALF_LINE)
    assert x.positions == (0, 3, 3)
    assert x.count == 3


def test_equispaced_ring_layout():
    x = ParticleConfig.equispaced(Ring(6), 3, F(1, 2))
    assert x.positions == (F(1, 2), F(5, 2), F(9, 2))


def test_gap_line_interior_and_open_end():
    x = ParticleConfig.from_iterable((0, 5), HALF_LINE)
    assert gap(x, 0) == 5
    assert gap(x, 1) == INFINITY


def test_gap_ring_wraps():
    x = ParticleConfig.from_iterable((F(1, 2), F(5, 2), F(9, 2)), Ring(6))
    assert gap(x, 2) == 2


def test_gap_index_out_of_range():
    x = ParticleConfig.from_iterable((0,), HALF_LINE)
    with pytest.raises(IndexError):
        gap(x, 1)


def test_modified_gap_obstacle_closer():
    x = ParticleConfig.from_iterable((0, 5), HALF_LINE)
    z = make_field((3,), HALF_LINE)
    assert modified_gap(x, z, 0) == 3


def test_modified_gap_particle_closer():
    x = ParticleConfig.from_iterable((0, F(2, 5)), HALF_LINE)
    z = make_field((3,), HALF_LINE)
    assert modified_gap(x, z, 0) == F(2, 5)


def test_modified_gap_skips_own_obstacle():
    # sitting exactly on an obstacle: only strictly-ahead obstacles count
    x = ParticleConfig.from_iterable((3, 9), HALF_LINE)
    z = make_field((3, 4), HALF_LINE)
    assert modified_gap(x, z, 0) == 1


def test_build_extended_inserts_virtual_points():
    z = make_field((0, F(5, 2)), Line(0, F(5, 2)))
    ext = build_extended(z)
    assert ext.positions == (0, 1, 2, F(5, 2))
    assert ext.real == (True, False, False, True)


def test_build_extended_drops_exact_multiple_duplicate():
    z = make_field((0, 2), Line(0, 2))
    assert build_extended(z).positions == (0, 1, 2)


def test_build_extended_ring_full_lattice():
    z = make_field((0, 3), Ring(6))
    ext = build_extended(z)
    assert ext.positions == (0, 1, 2, 3, 4, 5)
    assert ext.density() == 1


def test_build_extended_empty_field_sentinel():
    ext = build_extended(ObstacleField.empty(Ring(6), 1))
    assert ext.count == 0
    assert ext.density() is None


def test_build_extended_infinite_line_rejected():
    z = make_field((0,), HALF_LINE)
    with pytest.raises(ConfigurationError):
        build_extended(z)


def test_refine_waiting_multiplies_copies():
    z = make_field((5,), Line(0, 10), waits=(2,))
    r = refine_waiting(z)
    assert r.positions == (5, 5, 5)
    assert r.velocities == (1, 1, 1)


def test_refine_waiting_zero_waits_identity():
    z = make_field((1, 4), Line(0, 10))
    r = refine_waiting(z)
    assert r.positions == (1, 4)
    assert r.velocities == (1, 1)


def test_refine_waiting_pads_unit_velocities_before_own():
    z = make_field((1, 4), Line(0, 10), waits=(1, 0), velocities=(F(3, 4), F(1, 2)))
    r = refine_waiting(z)
    assert r.positions == (1, 1, 4)
    assert r.velocities == (1, F(3, 4), F(1, 2))


def test_refine_waiting_preserves_distinct_positions():
    z = make_field((1, 4, 7), Ring(9), waits=(3, 0, 1))
    r = refine_waiting(z)
    assert sorted(set(r.positions)) == [1, 4, 7]
    assert r.count == 4 + 1 + 2


def test_segment_velocity_uses_segment_ahead():
    z = make_field((2, 6), Ring(10), velocities=(F(1, 2), 2), top=2)
    assert z.segment_velocity(2) == F(1, 2)      # exactly on an obstacle
    assert z.segment_velocity(4) == F(1, 2)
    assert z.segment_velocity(7) == 2
    assert z.segment_velocity(1) == 2            # wraps to the last segment


# The step rule's one lookup: both engines and InvariantChecker read
# ObstacleField.table, so its entries are pinned by hand here.
def test_table_on_a_ring():
    z = make_field((2, 6), Ring(10), velocities=(F(1, 2), 2), top=3)
    assert z.table == ((2, F(1, 2), 2), (2, 6, 2), (0, 0, 1), (1, 2, 1))
    assert z.next_ahead(2) == (4, 1)             # on an obstacle: the next one
    assert z.segment_velocity(2) == F(1, 2)
    assert z.next_ahead(1) == (1, 0)
    assert z.segment_velocity(1) == 2
    assert z.next_ahead(6) == (6, 0)             # on the last obstacle: across the seam
    assert z.next_ahead(F(13, 2)) == (F(11, 2), 0)
    assert z.segment_velocity(F(13, 2)) == 2


def test_table_on_an_empty_ring():
    z = make_field((), Ring(10), top=F(3, 2))
    # one lap on, so it is never nearer than a wrapped move
    assert z.table == ((F(3, 2),), (INFINITY,), (1,), (0,))
    assert z.next_ahead(0) == (INFINITY, -1)
    assert z.next_ahead(F(19, 2)) == (INFINITY, -1)
    assert z.segment_velocity(F(19, 2)) == F(3, 2)


def test_table_on_a_line():
    z = make_field((2, 6), Line(0, 20), velocities=(F(1, 2), 2), top=3)
    assert z.table == ((3, F(1, 2), 2), (2, 6, INFINITY), (0, 0, 0), (1, 2, 0))
    assert z.next_ahead(1) == (1, 0)             # left of every obstacle
    assert z.segment_velocity(1) == 3
    assert z.next_ahead(2) == (4, 1)
    assert z.segment_velocity(2) == F(1, 2)
    assert z.next_ahead(6) == (INFINITY, -1)     # on and past the last obstacle
    assert z.next_ahead(15) == (INFINITY, -1)
    assert z.segment_velocity(15) == 2
    empty = make_field((), HALF_LINE, top=F(3, 2))
    assert empty.table == ((F(3, 2),), (INFINITY,), (0,), (0,))
    assert empty.next_ahead(5) == (INFINITY, -1)
    assert empty.segment_velocity(5) == F(3, 2)


def test_obstacle_field_validates_lengths():
    with pytest.raises(ConfigurationError):
        ObstacleField((1, 2), (0,), (1, 1), 1, Ring(5))


def test_obstacle_field_rejects_unsorted_positions():
    with pytest.raises(ConfigurationError):
        make_field((4, 1), Ring(5))


small_fields = st.builds(
    lambda length, picks, vel: make_field(
        tuple(sorted(F(p, 2) for p in picks)),
        Ring(length),
        velocities=(vel,) * len(picks),
        top=vel,
    ),
    length=st.integers(min_value=6, max_value=40),
    picks=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=5, unique=True),
    vel=st.sampled_from((F(1), F(1, 2), F(3, 4), F(2))),
)


@given(small_fields)
def test_extended_spacing_invariant(z):
    ext = build_extended(z)
    pos, vels = ext.positions, ext.segment_velocities
    for k in range(1, len(pos)):
        d = pos[k] - pos[k - 1]
        assert 0 < d <= vels[k - 1]
    wrap = pos[0] + z.domain.length - pos[-1]
    assert 0 < wrap <= vels[-1]


@given(small_fields)
def test_extended_gap_point_count(z):
    # each gap contributes ceil(gap / v) points counting its left endpoint
    ext = build_extended(z)
    pos = list(z.positions) + [z.positions[0] + z.domain.length]
    expected = sum(
        math.ceil(F(pos[a + 1] - pos[a]) / F(z.velocities[a]))
        for a in range(z.count)
    )
    assert ext.count == expected


@given(small_fields)
def test_extended_idempotent_on_own_output(z):
    # wrap extension points back into [0, L) before treating them as real
    length = z.domain.length
    ext = build_extended(z)
    pairs = sorted((p % length, v) for p, v in zip(ext.positions, ext.segment_velocities))
    as_real = ObstacleField(
        tuple(p for p, _ in pairs),
        (0,) * ext.count,
        tuple(v for _, v in pairs),
        z.top_speed,
        z.domain,
    )
    again = build_extended(as_real)
    assert tuple(sorted(q % length for q in again.positions)) == tuple(p for p, _ in pairs)


@given(
    small_fields,
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
)
def test_refine_counts_and_positions(z, waits):
    waits = tuple(waits[:z.count]) + (0,) * max(0, z.count - len(waits))
    withwaits = ObstacleField(z.positions, waits, z.velocities, z.top_speed, z.domain)
    r = refine_waiting(withwaits)
    assert r.count == z.count + sum(waits)
    assert tuple(sorted(set(r.positions))) == z.positions


@given(
    st.integers(min_value=3, max_value=20),
    st.lists(st.integers(min_value=0, max_value=199), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(min_value=1, max_value=100), min_size=4, max_size=4),
)
def test_float_extension_matches_exact_on_decimal_speeds(length, picks, speeds):
    # float sums z + k*v of decimal inputs miss the exact ones by about 1e-16
    picks = sorted(p for p in picks if p < 10 * length)
    assume(picks)
    counts = set()
    for mode in ("exact", "fast"):
        ring = Ring(parse_scalar(length, mode))
        positions = [parse_scalar(f"{p}/10", mode) for p in picks]
        velocities = [parse_scalar(f"{v}/100", mode) for v in speeds[: len(picks)]]
        z = make_field(positions, ring, velocities=velocities, top=parse_scalar(1, mode))
        counts.add(build_extended(z).count)
    assert len(counts) == 1


def test_extended_density_includes_waiting_copies():
    z = make_field((0, 3), Ring(6), waits=(1, 0))
    # one extra co-located copy on top of the six lattice points
    assert extended_density(z) == F(7, 6)
