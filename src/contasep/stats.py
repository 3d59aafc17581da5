"""Density and velocity estimators, flow-law prediction, phase classification.

Counting conventions: explicit intervals are closed on both ends, so a point
sitting exactly on an endpoint counts. Full-domain densities divide the exact
particle count by the circumference (ring) or window width (finite line).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    ConfigurationError,
    DegenerateInputError,
    Domain,
    ObstacleField,
    ParticleConfig,
    Ring,
    Scalar,
    _ratio,
    extended_density,
)
from .dynamics import TrajectorySummary


def interval_count(positions: Sequence, a: Scalar, b: Scalar) -> int:
    """Number of entries in the closed interval [a, b]."""
    return sum(1 for p in positions if a <= p <= b)


def density(x: ParticleConfig, interval: Optional[tuple] = None) -> Scalar:
    """Particle count per unit length, over an interval or the whole domain."""
    if interval is not None:
        a, b = interval
        if not b > a:
            raise DegenerateInputError(f"interval [{a}, {b}] has no width")
        return _ratio(interval_count(x.positions, a, b), b - a)
    if isinstance(x.domain, Ring):
        return _ratio(x.count, x.domain.length)
    if x.domain.finite:
        return _ratio(x.count, x.domain.end - x.domain.start)
    raise ConfigurationError("density over an infinite window needs an explicit interval")


def one_sided_density(x: ParticleConfig, ell: Scalar) -> Scalar:
    """Density over [0, ell], the one-sided window anchored at the origin."""
    if not ell > 0:
        raise DegenerateInputError(f"window length must be positive, got {ell}")
    return _ratio(interval_count(x.positions, 0, ell), ell)


def one_sided_profile(x: ParticleConfig, lengths: Sequence) -> tuple:
    """Densities over growing one-sided windows, for limit diagnosis."""
    return tuple((ell, one_sided_density(x, ell)) for ell in lengths)


def velocity(traj: TrajectorySummary, i: int, t: Optional[int] = None) -> Scalar:
    """Mean velocity of particle i over the first t steps of the run."""
    if t is None:
        t = traj.steps
    if t < 1:
        raise DegenerateInputError("velocity needs at least one elapsed step")
    return _ratio(traj.displacement(i, t), t)


@dataclass(frozen=True)
class VelocityEstimate:
    """Per-particle mean velocities over the last t steps of a run, with mean and spread."""

    values: tuple
    t: int

    @property
    def mean(self) -> Scalar:
        if not self.values:
            raise DegenerateInputError("no particles to average")
        return sum(self.values) / len(self.values)

    @property
    def spread(self) -> Scalar:
        if not self.values:
            return 0
        return max(self.values) - min(self.values)


def velocity_estimate(traj: TrajectorySummary, start: int = 0) -> VelocityEstimate:
    """Per-particle mean velocities from the snapshot at start to the end of the run."""
    t = traj.steps - start
    if t < 1:
        raise DegenerateInputError("velocity needs at least one elapsed step")
    before, after = traj.snapshots[start], traj.snapshots[traj.steps]
    # as _ratio does, decided once: floats divide by t, exact values by Fraction(t)
    divisor = t if after and isinstance(after[0], float) else Fraction(t)
    return VelocityEstimate(tuple((b - a) / divisor for a, b in zip(before, after)), t)


def velocity_spread(traj: TrajectorySummary, start: int = 0) -> Scalar:
    """Largest pairwise difference of per-particle mean velocities."""
    return velocity_estimate(traj, start).spread


def predict_velocity(
    rho_x: Scalar,
    rho_z_ext: Optional[Scalar],
    top_speed: Optional[Scalar] = None,
) -> Scalar:
    """Flow law: min of the obstacle-chain speed and the exclusion speed.

    rho_z_ext is the extended obstacle density; None means no obstacles, in
    which case the chain speed is the bare top speed.
    """
    if not rho_x > 0:
        raise DegenerateInputError(f"particle density must be positive, got {rho_x}")
    chain = _chain_speed(rho_z_ext, top_speed)
    exclusion = _ratio(1, rho_x)
    return min(chain, exclusion)


def _chain_speed(rho_z_ext, top_speed):
    if rho_z_ext is None:
        if top_speed is None:
            raise ConfigurationError("no obstacles: top_speed required for prediction")
        return top_speed
    if not rho_z_ext > 0:
        raise DegenerateInputError(f"extended density must be positive, got {rho_z_ext}")
    return _ratio(1, rho_z_ext)


def classify_phase(
    rho_x: Scalar,
    rho_z_ext: Optional[Scalar],
    top_speed: Optional[Scalar] = None,
) -> str:
    """"gaseous" when particles are sparse enough to reach chain speed, else "liquid".

    The boundary density is labeled gaseous.
    """
    if not rho_x > 0:
        raise DegenerateInputError(f"particle density must be positive, got {rho_x}")
    if rho_z_ext is None:
        if top_speed is None:
            raise ConfigurationError("no obstacles: top_speed required for classification")
        return "gaseous" if rho_x * top_speed <= 1 else "liquid"
    return "gaseous" if rho_x <= rho_z_ext else "liquid"


@dataclass(frozen=True)
class ExtendedBoundsReport:
    """Exact check of the extended-density sandwich bounds on a ring.

    rho_refined counts obstacles with their waiting copies; for wait-free
    fields it equals rho_real and the bounds reduce to the classic
    max(1/v, rho_real) <= rho_ext <= rho_real + 1/v with homogeneous v.
    """

    rho_real: Optional[Scalar]
    rho_refined: Optional[Scalar]
    rho_ext: Optional[Scalar]
    lower: Optional[Scalar]
    upper: Optional[Scalar]
    lower_ok: bool
    upper_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_extended_bounds(z: ObstacleField) -> ExtendedBoundsReport:
    """Verify max(1/v_top, rho_refined) <= rho_ext <= rho_refined + 1/v_min.

    Exact on rings; on finite line windows the densities are computed over the
    window and the bounds are only asymptotic. An empty field passes vacuously.
    """
    if z.count == 0:
        return ExtendedBoundsReport(None, None, None, None, None, True, True)
    if isinstance(z.domain, Ring):
        width = z.domain.length
    elif z.domain.finite:
        width = z.domain.end - z.domain.start
    else:
        raise ConfigurationError("bounds need a ring or a finite window")
    rho_real = _ratio(z.count, width)
    rho_refined = _ratio(z.count + sum(z.waits), width)
    rho_ext = extended_density(z)
    v_top = z.top_speed
    v_min = min(z.velocities)
    lower = max(_ratio(1, v_top), rho_refined)
    upper = rho_refined + _ratio(1, v_min)
    return ExtendedBoundsReport(
        rho_real,
        rho_refined,
        rho_ext,
        lower,
        upper,
        lower <= rho_ext,
        rho_ext <= upper,
    )


@dataclass(frozen=True)
class DensityEstimate:
    """Windowed density with nested-window min/max proxies for the one-sided limits."""

    value: Scalar
    window: tuple
    rho_minus: Scalar
    rho_plus: Scalar


def estimate_density(
    x: ParticleConfig,
    center: Scalar,
    width: Scalar,
    levels: int = 6,
) -> DensityEstimate:
    """Densities over windows doubling from `width` around `center`.

    The returned value uses the largest window; rho_minus / rho_plus are the
    min / max over all levels. Ring windows wrap and are capped at the
    circumference.
    """
    if not width > 0:
        raise DegenerateInputError(f"window width must be positive, got {width}")
    if levels < 1:
        raise DegenerateInputError("need at least one window level")
    ring = isinstance(x.domain, Ring)
    samples = []
    w = width
    for _ in range(levels):
        if ring and w >= x.domain.length:
            w = x.domain.length
        a = center - w / 2
        if ring:
            length = x.domain.length
            start = a % length
            count = sum(1 for p in x.positions if (p - start) % length <= w)
        else:
            count = interval_count(x.positions, a, a + w)
        samples.append((w, a, _ratio(count, w)))
        if ring and w == x.domain.length:
            break
        w = w * 2
    w_last, a_last, value = samples[-1]
    values = [s[2] for s in samples]
    return DensityEstimate(value, (a_last, a_last + w_last), min(values), max(values))
