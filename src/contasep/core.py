"""Exact numeric scalars, domains, particle and obstacle configurations.

Positions are rational numbers (exact mode) or 64-bit floats (fast mode).
All constructions here are pure values; nothing mutates after __init__.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Literal, Sequence, Union

Scalar = Union[int, Fraction, float]
Mode = Literal["exact", "fast"]

INFINITY = math.inf

# slack for float comparisons, which exact values never get
_FLOAT_TOL = 1e-9


class ContasepError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ContasepError):
    """Invalid or inconsistent configuration input."""


class DegenerateInputError(ContasepError):
    """Structurally valid input on which the requested quantity is undefined."""


class PropertyViolationError(ContasepError):
    """A checked model property failed to hold."""


class InvariantViolationError(PropertyViolationError):
    """A per-step dynamical invariant failed."""


class CouplingError(ContasepError):
    """Inconsistent coupled-process state; carries a state dump."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


class ObserverError(ContasepError):
    """An observer attached to a run raised."""


def parse_scalar(value: Union[str, int, float], mode: Mode = "exact") -> Scalar:
    """Parse a config-sourced number.

    Exact mode reads decimal strings and "p/q" strings into Fractions;
    bare floats are read by their shortest decimal representation, so a
    JSON 0.1 becomes 1/10, not the binary float value.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        raise ConfigurationError(f"expected a finite number, got {value!r}")
    if mode == "exact":
        try:
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, float):
                return Fraction(repr(value))
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"cannot parse scalar {value!r}") from exc
    if mode != "fast":
        raise ConfigurationError(f"unknown arithmetic mode {mode!r}")
    try:
        if isinstance(value, str):
            return float(Fraction(value.strip()))
        return float(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"cannot parse scalar {value!r}") from exc


def format_scalar(x: Scalar) -> str:
    """Canonical text form; round-trips through parse_scalar in either mode."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return "inf" if x == INFINITY else repr(x)
    return str(x)


def unit_like(x: Scalar) -> Scalar:
    """1 in the same arithmetic family as x."""
    if isinstance(x, Fraction):
        return Fraction(1)
    if isinstance(x, float):
        return 1.0
    return 1


def _as_tuple(values: Iterable) -> tuple:
    return values if isinstance(values, tuple) else tuple(values)


def _tolerance(values: Iterable) -> float:
    """_FLOAT_TOL if any value is a float, else 0: exact values compare strictly."""
    return _FLOAT_TOL if any(isinstance(v, float) for v in values) else 0


def _ratio(a: Scalar, b: Scalar) -> Scalar:
    """a / b, staying exact unless either operand is a float."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return Fraction(a) / b


@dataclass(frozen=True)
class Ring:
    """Circular domain of circumference length; positions live in [0, length)."""

    length: Scalar

    def __post_init__(self):
        if not self.length > 0:
            raise ConfigurationError(f"ring length must be positive, got {self.length!r}")

    def wrap(self, p: Scalar) -> Scalar:
        return p % self.length


@dataclass(frozen=True)
class Line:
    """Half-open window [start, end); end may be infinite."""

    start: Scalar = 0
    end: Scalar = INFINITY

    def __post_init__(self):
        if not self.end > self.start:
            raise ConfigurationError(f"line window [{self.start}, {self.end}) is empty")

    @property
    def finite(self) -> bool:
        return self.end != INFINITY


Domain = Union[Ring, Line]


@dataclass(frozen=True)
class ParticleConfig:
    """Weakly increasing particle positions; co-located particles allowed."""

    positions: tuple
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_tuple(self.positions))
        pos = self.positions
        for i in range(1, len(pos)):
            if pos[i] < pos[i - 1]:
                raise ConfigurationError(f"positions not sorted at index {i}")
        if isinstance(self.domain, Ring) and pos:
            if pos[0] < 0 or pos[-1] >= self.domain.length:
                raise ConfigurationError("ring positions must lie in [0, L)")

    @property
    def count(self) -> int:
        return len(self.positions)

    @classmethod
    def from_iterable(cls, positions: Iterable[Scalar], domain: Domain) -> "ParticleConfig":
        pos = list(positions)
        if isinstance(domain, Ring):
            pos = [domain.wrap(p) for p in pos]
        return cls(tuple(sorted(pos)), domain)

    @classmethod
    def equispaced(cls, domain: Domain, count: int, offset: Scalar = 0) -> "ParticleConfig":
        if count < 0:
            raise ConfigurationError("particle count must be nonnegative")
        if isinstance(domain, Ring):
            step = Fraction(1, 1) * domain.length / count if count else 0
            return cls.from_iterable((offset + k * step for k in range(count)), domain)
        if not domain.finite:
            raise ConfigurationError("equispaced particles on a line need a finite window")
        width = domain.end - domain.start
        step = Fraction(1, 1) * width / count if count else 0
        return cls.from_iterable((domain.start + offset + k * step for k in range(count)), domain)


def gap(x: ParticleConfig, i: int) -> Scalar:
    """Distance from particle i to the next particle ahead; ring wraps, line leader sees inf."""
    n = x.count
    if not 0 <= i < n:
        raise IndexError(f"particle index {i} out of range 0..{n - 1}")
    if i + 1 < n:
        return x.positions[i + 1] - x.positions[i]
    if isinstance(x.domain, Ring):
        return x.positions[0] + x.domain.length - x.positions[i]
    return INFINITY


@dataclass(frozen=True)
class ObstacleField:
    """Strictly increasing obstacle positions with waiting times and segment velocities.

    velocities[j] caps particle speed on the segment starting at positions[j];
    top_speed caps speed ahead of any obstacle (and everywhere when empty).
    """

    positions: tuple
    waits: tuple
    velocities: tuple
    top_speed: Scalar
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_tuple(self.positions))
        object.__setattr__(self, "waits", _as_tuple(self.waits))
        object.__setattr__(self, "velocities", _as_tuple(self.velocities))
        pos, waits, vels = self.positions, self.waits, self.velocities
        if not (len(pos) == len(waits) == len(vels)):
            raise ConfigurationError("positions, waits and velocities must have equal length")
        if not self.top_speed > 0:
            raise ConfigurationError("top_speed must be positive")
        for i in range(1, len(pos)):
            if not pos[i] > pos[i - 1]:
                raise ConfigurationError(f"obstacle positions not strictly increasing at index {i}")
        if isinstance(self.domain, Ring) and pos:
            if pos[0] < 0 or pos[-1] >= self.domain.length:
                raise ConfigurationError("ring obstacles must lie in [0, L)")
        for i, w in enumerate(waits):
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ConfigurationError(f"waiting time at index {i} must be a nonnegative integer")
        for i, v in enumerate(vels):
            if not 0 < v <= self.top_speed:
                raise ConfigurationError(f"segment velocity at index {i} must be in (0, top_speed]")

    @property
    def count(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls, domain: Domain, top_speed: Scalar) -> "ObstacleField":
        return cls((), (), (), top_speed, domain)

    @cached_property
    def table(self) -> tuple:
        """The step rule's lookup as four tuples (speed, ahead, laps, land),
        each indexed by k = bisect_right(positions, p), 0 <= k <= count.

        speed[k] is the speed of p's segment: a point on an obstacle belongs
        to the segment ahead of it, a ring's points before its first obstacle
        to the last one's, and top_speed caps the rest. ahead[k] is the next
        obstacle strictly ahead of p, reached after laps[k] ring wraps, and
        land[k] is the k of a particle standing on it, so land[k] - 1 is its
        index. With no obstacle ahead (past a line's last one, or an empty
        field) ahead[k] is INFINITY and land[k] is 0; an empty ring's entry
        keeps 1 lap, so it is never nearer than a wrapped move.
        """
        pos, m = self.positions, self.count
        ring = isinstance(self.domain, Ring)
        seam = ring and m > 0
        speed = (self.velocities[-1] if seam else self.top_speed,) + self.velocities
        ahead = pos + (pos[0] if seam else INFINITY,)
        laps = (0,) * m + (1 if ring else 0,)
        land = tuple(range(1, m + 1)) + (1 if seam else 0,)
        return speed, ahead, laps, land

    def segment_velocity(self, p: Scalar) -> Scalar:
        return self.table[0][bisect_right(self.positions, p)]

    def next_ahead(self, p: Scalar) -> tuple:
        """(distance, index) of the nearest obstacle strictly ahead of p; (INFINITY, -1) if none."""
        _, ahead, laps, land = self.table
        k = bisect_right(self.positions, p)
        d = ahead[k] + self.domain.length - p if laps[k] else ahead[k] - p
        return (d, land[k] - 1)


def _lattice_domain(domain: Domain, scale: int) -> Domain:
    if isinstance(domain, Ring):
        return Ring(_on_lattice(domain.length, scale))
    end = _on_lattice(domain.end, scale) if domain.finite else domain.end
    return Line(_on_lattice(domain.start, scale), end)


def _on_lattice(v, scale: int) -> int:
    return v.numerator * (scale // v.denominator)


def to_lattice(domain: Domain, z: ObstacleField, *positions: Sequence) -> tuple | None:
    """Exact inputs as integers on the lattice (1/D)Z, or None if any is a float.

    z lies on domain, as run and run_coupled require. D is the lcm of the
    denominators of the domain bounds, the field's positions, velocities
    and top speed, and every given position. Returns (D, domain, field,
    *positions), each value multiplied by D. Every move of the dynamics
    lands on an obstacle, a neighbour's old position or p + v, so a run
    stays on the lattice, and its comparisons, sums and differences on these
    ints are exactly D times those on the inputs. An infinite line end stays
    infinite.
    """
    values = [*z.positions, *z.velocities, z.top_speed]
    for dom in (domain, z.domain):
        if isinstance(dom, Ring):
            values.append(dom.length)
        else:
            values.append(dom.start)
            if dom.finite:
                values.append(dom.end)
    for group in positions:
        values.extend(group)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    scale = math.lcm(*(v.denominator for v in values))
    lattice = _lattice_domain(domain, scale)
    scaled_z = ObstacleField(
        tuple(_on_lattice(p, scale) for p in z.positions),
        z.waits,
        tuple(_on_lattice(v, scale) for v in z.velocities),
        _on_lattice(z.top_speed, scale),
        lattice,
    )
    scaled = (tuple(_on_lattice(p, scale) for p in group) for group in positions)
    return (scale, lattice, scaled_z, *scaled)


def modified_gap(x: ParticleConfig, z: ObstacleField, i: int) -> Scalar:
    """min of the particle gap and the distance to the next obstacle strictly ahead."""
    g = gap(x, i)
    d, _ = z.next_ahead(x.positions[i])
    return g if g <= d else d


@dataclass(frozen=True)
class RefinedObstacleField:
    """Waiting times realized as co-located zero-wait obstacle copies.

    Segment velocities for the zero-length segments between copies are the
    unit fillers; they never govern any movement.
    """

    positions: tuple
    velocities: tuple
    top_speed: Scalar
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_tuple(self.positions))
        object.__setattr__(self, "velocities", _as_tuple(self.velocities))
        if len(self.positions) != len(self.velocities):
            raise ConfigurationError("refined field arrays must have equal length")
        for i in range(1, len(self.positions)):
            if self.positions[i] < self.positions[i - 1]:
                raise ConfigurationError("refined positions must be nondecreasing")
        for v in self.velocities:
            if not v > 0:
                raise ConfigurationError("refined velocities must be positive")

    @property
    def count(self) -> int:
        return len(self.positions)


def refine_waiting(z: ObstacleField) -> RefinedObstacleField:
    """Replace obstacle j by waits[j] + 1 co-located zero-wait copies."""
    positions: list = []
    velocities: list = []
    for j in range(z.count):
        one = unit_like(z.velocities[j])
        for _ in range(z.waits[j]):
            positions.append(z.positions[j])
            velocities.append(one)
        positions.append(z.positions[j])
        velocities.append(z.velocities[j])
    return RefinedObstacleField(tuple(positions), tuple(velocities), z.top_speed, z.domain)


@dataclass(frozen=True)
class ExtendedObstacleField:
    """Obstacles plus virtual obstacles at spacing at most the segment velocity."""

    positions: tuple
    real: tuple
    segment_velocities: tuple
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "positions", _as_tuple(self.positions))
        object.__setattr__(self, "real", _as_tuple(self.real))
        object.__setattr__(self, "segment_velocities", _as_tuple(self.segment_velocities))
        pos, vels = self.positions, self.segment_velocities
        if not (len(pos) == len(self.real) == len(vels)):
            raise ConfigurationError("extended field arrays must have equal length")
        tol = _tolerance(pos + vels)
        for k in range(1, len(pos)):
            d = pos[k] - pos[k - 1]
            if d < 0 or d > vels[k - 1] + tol:
                raise ConfigurationError(f"extended spacing violated at index {k}")
        if isinstance(self.domain, Ring) and pos:
            d = pos[0] + self.domain.length - pos[-1]
            if d < 0 or d > vels[-1] + tol:
                raise ConfigurationError("extended spacing violated at the ring wrap")

    @property
    def count(self) -> int:
        return len(self.positions)

    def density(self, interval: tuple | None = None):
        """Points per unit length; None when undefined (empty field or infinite window)."""
        if interval is not None:
            a, b = interval
            if not b > a:
                raise DegenerateInputError("density interval must have positive length")
            return _ratio(sum(1 for p in self.positions if a <= p <= b), b - a)
        if not self.positions:
            return None
        if isinstance(self.domain, Ring):
            return _ratio(self.count, self.domain.length)
        if not self.domain.finite:
            return None
        n = sum(1 for p in self.positions if self.domain.start <= p < self.domain.end)
        return _ratio(n, self.domain.end - self.domain.start)


def build_extended(z) -> ExtendedObstacleField:
    """Insert virtual obstacles at z_j + m*v_j strictly before the next obstacle.

    Accepts a plain or refined field. A candidate landing exactly on the next
    obstacle is dropped, so a gap s contributes ceil(s / v_j) points counting
    its left endpoint; on a float field, so is one within _FLOAT_TOL of it,
    where rounding in z_j + m*v_j would otherwise add a point. On a ring the
    last gap wraps; on a line the last obstacle extends to the window end
    (exclusive), which must be finite.
    """
    pos = z.positions
    vels = z.velocities
    m = len(pos)
    if m == 0:
        return ExtendedObstacleField((), (), (), z.domain)
    tol = _tolerance(pos + vels)
    out_pos: list = []
    out_real: list = []
    out_vel: list = []
    if isinstance(z.domain, Ring):
        ends = [pos[a + 1] if a + 1 < m else pos[0] + z.domain.length for a in range(m)]
    else:
        if not z.domain.finite:
            raise ConfigurationError("extending a line field requires a finite window end")
        ends = [pos[a + 1] if a + 1 < m else z.domain.end for a in range(m)]
    for a in range(m):
        za, va, nxt = pos[a], vels[a], ends[a]
        out_pos.append(za)
        out_real.append(True)
        out_vel.append(va)
        k = 1
        while za + k * va < nxt - tol:
            out_pos.append(za + k * va)
            out_real.append(False)
            out_vel.append(va)
            k += 1
    return ExtendedObstacleField(tuple(out_pos), tuple(out_real), tuple(out_vel), z.domain)


def extended_density(z: ObstacleField):
    """Density of the extended configuration of the waiting-refined field."""
    return build_extended(refine_waiting(z)).density()
