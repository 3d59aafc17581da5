"""Deterministic parallel-update zero-range lattice process and the continuum embedding.

Every occupied site emits exactly one particle to its right neighbor each
step, simultaneously. When identities matter the emitted particle is the one
with the largest label at the site. Lattices are rings of K sites or growing
half-lines; sites may carry physical spacings (possibly zero) for the
heterogeneous-lattice velocity relation.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from .core import (
    ConfigurationError,
    DegenerateInputError,
    ObstacleField,
    ParticleConfig,
    Ring,
    Scalar,
    _ratio,
)
from .dynamics import SimState, _step_scalar


@dataclass(frozen=True)
class ZeroRangeState:
    """Site occupancies on a ring (fixed K) or a line (grows to the right)."""

    occupancy: tuple
    ring: bool
    spacings: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "occupancy", tuple(int(c) for c in self.occupancy))
        for c in self.occupancy:
            if c < 0:
                raise ConfigurationError(f"negative occupancy {c}")
        if self.ring and not self.occupancy:
            raise ConfigurationError("ring lattice needs at least one site")
        if self.spacings is not None:
            object.__setattr__(self, "spacings", tuple(self.spacings))
            if len(self.spacings) != len(self.occupancy):
                raise ConfigurationError("one spacing per site required")
            for ell in self.spacings:
                if ell < 0:
                    raise ConfigurationError(f"negative site spacing {ell}")

    @property
    def sites(self) -> int:
        return len(self.occupancy)

    @property
    def total(self) -> int:
        return sum(self.occupancy)

    def lattice_density(self) -> Scalar:
        """Sites per unit length: 1 for the unit lattice, K / sum of spacings otherwise."""
        if self.spacings is None:
            return 1
        width = sum(self.spacings)
        if not width > 0:
            raise DegenerateInputError("lattice has zero total width")
        return _ratio(self.sites, width)


def zr_step(s: ZeroRangeState) -> ZeroRangeState:
    """One synchronous update: each occupied site sends one particle right."""
    occ = s.occupancy
    k = len(occ)
    if k == 0:
        return s
    if s.ring:
        new = tuple(
            occ[i] - (1 if occ[i] > 0 else 0) + (1 if occ[i - 1] > 0 else 0)
            for i in range(k)
        )
        return ZeroRangeState(new, True, s.spacings)
    new = [
        occ[i] - (1 if occ[i] > 0 else 0) + (1 if i > 0 and occ[i - 1] > 0 else 0)
        for i in range(k)
    ]
    if occ[-1] > 0:
        new.append(1)
    return ZeroRangeState(tuple(new), False, None if s.spacings is None else _grow(s.spacings))


def _grow(spacings: tuple) -> tuple:
    # a new rightmost site inherits the last spacing
    return spacings + (spacings[-1],)


def zr_trajectory(s: ZeroRangeState, steps: int):
    """Yield the state at t = 0, 1, ..., steps."""
    if steps < 0:
        raise ConfigurationError("step count must be nonnegative")
    yield s
    for _ in range(steps):
        s = zr_step(s)
        yield s


@dataclass(frozen=True)
class TrackedZeroRange:
    """Zero-range state with particle labels; sites hold ascending label lists."""

    stacks: tuple
    ring: bool

    @property
    def occupancy(self) -> tuple:
        return tuple(len(st) for st in self.stacks)

    def site_of(self) -> dict:
        out = {}
        for site, st in enumerate(self.stacks):
            for label in st:
                out[label] = site
        return out


def zr_step_tracked(s: TrackedZeroRange) -> TrackedZeroRange:
    """Synchronous update moving the largest label out of each occupied site."""
    stacks = [list(st) for st in s.stacks]
    k = len(stacks)
    movers = [st[-1] if st else None for st in stacks]
    new = [st[:-1] if st else [] for st in stacks]
    if s.ring:
        for i in range(k):
            if movers[i] is not None:
                insort(new[(i + 1) % k], movers[i])
    else:
        grown = movers[-1] is not None if k else False
        if grown:
            new.append([])
        for i in range(k):
            if movers[i] is not None:
                insort(new[i + 1], movers[i])
    return TrackedZeroRange(tuple(tuple(st) for st in new), s.ring)


def zr_velocity(rho_y: Scalar) -> Scalar:
    """Mean particle speed on the unit lattice: min(1, 1/density)."""
    if not rho_y > 0:
        raise DegenerateInputError(f"occupancy density must be positive, got {rho_y}")
    return min(1, _ratio(1, rho_y))


def hetero_velocity(rho_y: Scalar, rho_lattice: Scalar) -> Scalar:
    """Physical speed on a spaced lattice: unit-lattice speed over lattice density."""
    if not rho_lattice > 0:
        raise DegenerateInputError(f"lattice density must be positive, got {rho_lattice}")
    return zr_velocity(rho_y) / rho_lattice


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of running the continuum engine against the lattice engine."""

    mode: str
    steps_run: int
    equal: bool
    first_divergence: Optional[int]
    detail: str


def _integer(p) -> int:
    if isinstance(p, bool) or not p == int(p):
        raise ConfigurationError(f"embedding requires integer positions, got {p!r}")
    return int(p)


def embed_and_compare(x: ParticleConfig, steps: int) -> EquivalenceReport:
    """Run the continuum dynamics (speed 1, no obstacles) against the lattice process.

    Ring configurations are compared by per-site occupancy each step; line
    configurations additionally by per-particle site, which is exact there
    because labels order the same way as positions.
    """
    positions = [_integer(p) for p in x.positions]
    ring = isinstance(x.domain, Ring)
    if ring:
        length = _integer(x.domain.length)
        occ = [0] * length
        for p in positions:
            occ[p] += 1
        zr: object = ZeroRangeState(tuple(occ), True)
        mode = "occupancy"
    else:
        top = max(positions) if positions else 0
        base = min(positions + [0])
        if base < 0:
            raise ConfigurationError("line embedding expects nonnegative positions")
        stacks = [[] for _ in range(top + 1)]
        for label, p in enumerate(positions):
            stacks[p].append(label)
        zr = TrackedZeroRange(tuple(tuple(st) for st in stacks), False)
        mode = "identity"

    field = ObstacleField.empty(x.domain, 1)
    state = SimState.initial(x)
    for t in range(1, steps + 1):
        state = _step_scalar(state, field)
        zr = zr_step(zr) if ring else zr_step_tracked(zr)
        if ring:
            occ_now = [0] * length
            for rep in state.reps:
                occ_now[_integer(rep)] += 1
            if tuple(occ_now) != zr.occupancy:
                return EquivalenceReport(
                    mode, t, False, t,
                    f"occupancy mismatch at t={t}: continuum {tuple(occ_now)} vs lattice {zr.occupancy}",
                )
        else:
            sites = zr.site_of()
            for label, rep in enumerate(state.reps):
                if _integer(rep) != sites.get(label):
                    return EquivalenceReport(
                        mode, t, False, t,
                        f"particle {label} at t={t}: continuum {rep} vs lattice site {sites.get(label)}",
                    )
    return EquivalenceReport(mode, steps, True, None, "bit-exact agreement")
