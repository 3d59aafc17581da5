"""Configuration generators and named constructive scenarios.

The scenarios are self-contained experiments with a pass/fail property:
density scaling of particle configurations, obstacle-field generators
(including one with oscillating windowed density), a half-integer-lattice
support check, and an adversarial time-varying speed schedule that drives
two identically budgeted particles apart linearly.
"""
from __future__ import annotations

import inspect
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    ConfigurationError,
    Line,
    ObstacleField,
    ParticleConfig,
    Ring,
    Scalar,
    build_extended,
)
from .dynamics import SimState, _step_scalar


def scale_config(x: ParticleConfig, alpha) -> ParticleConfig:
    """Change particle density by the exact rational factor alpha = k/n.

    Particles are taken in blocks of n consecutive indices starting at index
    0; every particle is replicated m = k // n times and the first k % n
    particles of each block get one extra copy. On a ring the count must be a
    multiple of n so blocks tile.
    """
    if isinstance(alpha, float):
        raise ConfigurationError("scaling factor must be an exact rational, not a float")
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ConfigurationError(f"scaling factor must be positive, got {alpha}")
    k, n = alpha.numerator, alpha.denominator
    m, extra = divmod(k, n)
    if isinstance(x.domain, Ring) and x.count % n:
        raise ConfigurationError(
            f"ring count {x.count} is not a multiple of the block size {n}"
        )
    out = []
    for idx, p in enumerate(x.positions):
        copies = m + (1 if idx % n < extra else 0)
        out.extend([p] * copies)
    return ParticleConfig(tuple(out), x.domain)


def equispaced_obstacles(
    domain,
    spacing: Scalar,
    velocity: Scalar = 1,
    wait: int = 0,
    offset: Scalar = 0,
) -> ObstacleField:
    """Obstacles every `spacing` units from `offset`, uniform velocity and wait."""
    if not spacing > 0:
        raise ConfigurationError(f"spacing must be positive, got {spacing}")
    end = domain.length if isinstance(domain, Ring) else domain.end
    if end == float("inf"):
        raise ConfigurationError("equispaced generation needs a bounded domain")
    positions = []
    p = offset
    while p < end:
        positions.append(p)
        p = p + spacing
    count = len(positions)
    return ObstacleField(
        tuple(positions), (wait,) * count, (velocity,) * count, velocity, domain
    )


def poisson_obstacles(
    domain,
    rate: float,
    seed: int,
    quantize: Optional[int] = None,
    velocity: Scalar = 1,
    wait: int = 0,
) -> ObstacleField:
    """Obstacles with exponential gaps at the given rate, reproducible by seed.

    quantize rounds positions to that denominator, yielding exact rationals.
    """
    if not rate > 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    end = domain.length if isinstance(domain, Ring) else domain.end
    if end == float("inf"):
        raise ConfigurationError("generation needs a bounded domain")
    rng = random.Random(seed)
    positions = []
    p = 0.0
    while True:
        p += rng.expovariate(rate)
        if p >= float(end):
            break
        q = Fraction(round(p * quantize), quantize) if quantize else p
        if q >= end:
            break
        if positions and q <= positions[-1]:
            continue
        if not q > 0:
            continue
        positions.append(q)
    count = len(positions)
    return ObstacleField(
        tuple(positions), (wait,) * count, (velocity,) * count, velocity, domain
    )


def irregular_example(levels: int = 6, factor: int = 4) -> ObstacleField:
    """A field whose windowed extended density keeps oscillating as windows grow.

    Alternating runs of unit gaps (extended density 1) and half gaps (extended
    density 2), with run lengths growing geometrically, so dyadic windows are
    dominated by one gap type or the other in alternation and the windowed
    density never settles.
    """
    if levels < 2:
        raise ConfigurationError("need at least two alternating runs")
    positions = [Fraction(0)]
    p = Fraction(0)
    base = 4
    for b in range(levels):
        run = base * factor**b
        gap = Fraction(1) if b % 2 == 0 else Fraction(1, 2)
        for _ in range(int(run / gap)):
            p += gap
            positions.append(p)
    total = positions.pop()
    count = len(positions)
    return ObstacleField(
        tuple(positions),
        (0,) * count,
        (1,) * count,
        1,
        Line(0, total),
    )


def _call(func, where: str, *args, **params):
    """func(*args, **params); parameters func does not take are a ConfigurationError."""
    try:
        inspect.signature(func).bind(*args, **params)
    except TypeError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    return func(*args, **params)


def make_obstacles(kind: str, domain, **params) -> ObstacleField:
    """Dispatch obstacle generation by kind: equispaced | poisson | irregular_example."""
    where = f"obstacle generator {kind!r}"
    if kind == "equispaced":
        return _call(equispaced_obstacles, where, domain, **params)
    if kind == "poisson":
        return _call(poisson_obstacles, where, domain, **params)
    if kind == "irregular_example":
        return _call(irregular_example, where, **params)
    raise ConfigurationError(f"unknown obstacle kind {kind!r}")


def half_integer_counterexample() -> tuple:
    """Ring scenario whose every position stays on the half-integer lattice.

    Two particles on each half-integer point, one obstacle on each integer
    point, speed 1. Every candidate target is again a half-integer, so exact
    runs keep denominators at most 2 forever; the support never spreads.
    """
    length = 10
    domain = Ring(length)
    particles = []
    for k in range(length):
        particles.extend([k + Fraction(1, 2)] * 2)
    x = ParticleConfig(tuple(particles), domain)
    z = ObstacleField(
        tuple(range(length)), (0,) * length, (1,) * length, 1, domain
    )
    return x, z


@dataclass(frozen=True)
class ScenarioSpec:
    """Name, parameters, and the property a scenario is expected to exhibit."""

    name: str
    parameters: dict
    seed: Optional[int]
    expected: str


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    passed: bool
    details: dict
    rows: list = field(default_factory=list)
    columns: tuple = ()


def run_half_integer(steps: int = 100) -> ScenarioResult:
    x, z = half_integer_counterexample()
    state = SimState.initial(x)
    worst = 1
    rows = []
    for t in range(1, steps + 1):
        state = _step_scalar(state, z)
        denom = max(
            p.denominator if isinstance(p, Fraction) else 1 for p in state.reps
        )
        worst = max(worst, denom)
        rows.append((t, denom))
    passed = worst <= 2
    return ScenarioResult(
        ScenarioSpec(
            "half_integer",
            {"steps": steps},
            None,
            "all positions stay on the half-integer lattice",
        ),
        passed,
        {"steps": steps, "max_denominator": worst},
        rows,
        ("t", "max_denominator"),
    )


def _growing_gap_positions(count: int) -> tuple:
    """Obstacles with gaps 1 + k/10: strictly growing, exactly rational."""
    positions = [Fraction(0)]
    for k in range(count - 1):
        positions.append(positions[-1] + 1 + Fraction(k, 10))
    return tuple(positions)


def adversarial_velocities(x0: Scalar, xbar0: Scalar, zpos: tuple, steps: int) -> tuple:
    """Speed schedule chosen so the first particle always lands exactly on its
    next obstacle; both particles get the same budget each step.

    Returns (schedule, separations) where separations[t-1] is the distance
    between the two particles after step t. The second particle is truncated
    whenever its own next obstacle is nearer than the budget, which is what
    drives the separation. Requires enough obstacles ahead of both starts.
    """
    px, pb = x0, xbar0
    schedule = []
    separations = []
    for _ in range(steps):
        ix = bisect_right(zpos, px)
        ib = bisect_right(zpos, pb)
        if ix >= len(zpos) or ib >= len(zpos):
            raise ConfigurationError("ran out of obstacles ahead; supply a longer field")
        budget = zpos[ix] - px
        schedule.append(budget)
        px = zpos[ix]
        if zpos[ib] - pb <= budget:
            pb = zpos[ib]
        else:
            pb = pb + budget
        separations.append(abs(px - pb))
    return tuple(schedule), tuple(separations)


def run_adversarial(steps: int = 200) -> ScenarioResult:
    """Growing-gap field: the leading particle's exact-landing schedule starves
    the trailing one, so separation grows linearly; on the unit lattice the
    same mechanism keeps separation bounded."""
    zpos = _growing_gap_positions(steps + 10)
    x0 = zpos[5]
    xbar0 = zpos[0]
    schedule, separations = adversarial_velocities(x0, xbar0, zpos, steps)

    lattice = tuple(Fraction(k) for k in range(steps + 10))
    _, flat_seps = adversarial_velocities(lattice[5], lattice[0], lattice, steps)

    rate = Fraction(1, 10)
    ok_growth = all(separations[t - 1] >= rate * t for t in range(1, steps + 1))
    flat_initial = abs(lattice[5] - lattice[0])
    ok_flat = all(s <= flat_initial + 1 for s in flat_seps)
    rows = [
        (t, separations[t - 1], flat_seps[t - 1], schedule[t - 1])
        for t in range(1, steps + 1)
    ]
    return ScenarioResult(
        ScenarioSpec(
            "adversarial",
            {"steps": steps},
            None,
            "separation grows at least linearly under the adaptive schedule",
        ),
        ok_growth and ok_flat,
        {
            "steps": steps,
            "final_separation": separations[-1],
            "min_ratio": min(separations[t - 1] / t for t in range(1, steps + 1)),
            "flat_lattice_max_separation": max(flat_seps),
        },
        rows,
        ("t", "separation", "unit_lattice_separation", "budget"),
    )


def run_irregular_density(levels: int = 6, factor: int = 4) -> ScenarioResult:
    z = irregular_example(levels, factor)
    ext = build_extended(z)
    total = z.domain.end
    windows = []
    w = 4
    while w <= total:
        windows.append(w)
        w *= 2
    densities = [ext.density((0, w)) for w in windows]
    oscillation = max(densities) - min(densities)
    passed = oscillation > Fraction(1, 5)
    rows = [(w, d) for w, d in zip(windows, densities)]
    return ScenarioResult(
        ScenarioSpec(
            "irregular_density",
            {"levels": levels, "factor": factor},
            None,
            "windowed extended density oscillates by more than 0.2",
        ),
        passed,
        {"oscillation": oscillation, "windows": len(windows)},
        rows,
        ("window", "density"),
    )


SCENARIOS = {
    "half_integer": run_half_integer,
    "adversarial": run_adversarial,
    "irregular_density": run_irregular_density,
}


def run_scenario(name: str, **params) -> ScenarioResult:
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return _call(SCENARIOS[name], f"scenario {name!r}", **params)
