"""Command line front end: config ingestion, experiment orchestration, CSV/JSON output.

Commands: extend | simulate | fd-sweep | couple | zero-range | scenario.
Exit codes: 0 ok / property holds, 1 I/O or config error, 2 degenerate input,
3 property violated. All numbers are written as decimal or p/q strings so
identical configs reproduce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass, replace
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import (
    ConfigurationError,
    ContasepError,
    CouplingError,
    DegenerateInputError,
    Domain,
    INFINITY,
    InvariantViolationError,
    Line,
    ObstacleField,
    ParticleConfig,
    PropertyViolationError,
    Ring,
    Scalar,
    build_extended,
    extended_density,
    format_scalar,
    parse_scalar,
    refine_waiting,
)
from .coupling import run_coupled
from .dynamics import Replicas, SimState, TrajectoryWriter, run
from .scenarios import SCENARIOS, make_obstacles, run_scenario, scale_config
from .stats import (
    check_extended_bounds,
    classify_phase,
    density,
    predict_velocity,
    velocity_estimate,
)
from .zerorange import ZeroRangeState, zr_trajectory, zr_velocity


@dataclass
class ExperimentConfig:
    """Every config key, read and checked by load_config before any command runs."""

    domain: Domain
    mode: str
    obstacles: Optional[ObstacleField]
    particles: Optional[ParticleConfig]
    particles_xbar: Optional[ParticleConfig]
    steps: int
    burn_in: int
    out: Path
    top_speed: Scalar
    trajectory: bool
    particle_offset: Scalar
    defect_threshold: float
    zero_range: Optional[ZeroRangeState]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    return data


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", bool: "true or false", dict: "an object", list: "a list", str: "a string"}


def _read(spec: dict, path: str, kind, default=_REQUIRED):
    """The entry of spec at path's last key, read as kind. An absent or null
    entry takes the default, and is an error without one; every error names
    the full key path.

    kind is int (a whole number, or a string holding one; never a bool), bool,
    dict, list, str, a scalar mode "exact" or "fast" (see parse_scalar), or
    [kind] for a list of values of kind.
    """
    value = spec.get(path.rpartition(".")[2])
    if value is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"config needs {path}")
        if default is None:
            return None
        value = default
    return _as(value, kind, path)


def _as(value, kind, path: str):
    if isinstance(kind, list):
        return [_as(v, kind[0], f"{path}[{i}]") for i, v in enumerate(_as(value, list, path))]
    if kind in ("exact", "fast"):
        try:
            return parse_scalar(value, kind)
        except ConfigurationError:
            raise ConfigurationError(f"{path} must be a number, got {value!r}") from None
    if kind is int:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
    elif isinstance(value, kind):
        return value
    raise ConfigurationError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")


def _params(spec: dict, path: str, kinds: dict) -> dict:
    """The object at path, each entry read as kinds[key], or as an integer
    when kinds has no key; null entries are dropped. The callee's signature
    rejects unknown keys."""
    return {
        key: _as(value, kinds.get(key, int), f"{path}.{key}")
        for key, value in _read(spec, path, dict, {}).items()
        if value is not None
    }


def _build_domain(spec: dict, mode: str) -> Domain:
    kind = _read(spec, "domain.kind", str)
    if kind == "ring":
        return Ring(_read(spec, "domain.length", mode))
    if kind == "line":
        end = _read(spec, "domain.end", mode, None)
        return Line(_read(spec, "domain.start", mode, 0), INFINITY if end is None else end)
    raise ConfigurationError(f"domain.kind must be ring or line, got {kind!r}")


def _build_obstacles(spec, domain: Domain, mode: str, seed: Optional[int]) -> Optional[ObstacleField]:
    if spec is None:
        return None
    if "generator" in spec:
        generator = _read(spec, "obstacles.generator", str)
        # the rate only draws float gaps, so it is read as a float
        params = _params(spec, "obstacles.params", {"spacing": mode, "velocity": mode, "offset": mode, "rate": "fast"})
        if generator == "poisson" and seed is not None:
            params["seed"] = seed
        z = make_obstacles(generator, domain, **params)
        if z.domain != domain:
            raise ConfigurationError(
                f"obstacles.generator {generator!r} builds its field on {_describe(z.domain)},"
                f" not on the config's {_describe(domain)}"
            )
        if mode == "fast":
            # Generator defaults are ints or Fractions; the vectorized path
            # runs only on an all-float field.
            z = replace(
                z,
                positions=tuple(float(p) for p in z.positions),
                velocities=tuple(float(v) for v in z.velocities),
                top_speed=float(z.top_speed),
            )
        return z
    positions = _read(spec, "obstacles.positions", [mode])
    count = len(positions)
    waits = _read(spec, "obstacles.waits", [int], [0] * count)
    velocities = _read(spec, "obstacles.velocities", [mode], [1] * count)
    top = _read(spec, "obstacles.top_speed", mode, max(velocities, default=1))
    return ObstacleField(tuple(positions), tuple(waits), tuple(velocities), top, domain)


def _describe(domain: Domain) -> str:
    if isinstance(domain, Ring):
        return f"ring of length {format_scalar(domain.length)}"
    return f"line [{format_scalar(domain.start)}, {format_scalar(domain.end)})"


def _particle_count(spec: dict, where: str, domain: Domain) -> int:
    if "count" in spec:
        return _read(spec, f"{where}.count", int)
    if "density" not in spec:
        raise ConfigurationError(f"{where} needs count or density")
    if not isinstance(domain, Ring):
        raise ConfigurationError("density-based particle specs need a ring")
    rho = _read(spec, f"{where}.density", "exact")
    count = rho * Fraction(str(domain.length))
    if count.denominator != 1:
        raise ConfigurationError(f"{where}.density {rho} gives non-integer count {count}")
    return int(count)


def _build_particles(spec, where: str, domain: Domain, mode: str, seed: Optional[int]) -> Optional[ParticleConfig]:
    if spec is None:
        return None
    if "positions" in spec:
        return ParticleConfig.from_iterable(_read(spec, f"{where}.positions", [mode]), domain)
    if "equispaced" in spec:
        where += ".equispaced"
        sub = _read(spec, where, dict)
        count = _particle_count(sub, where, domain)
        return ParticleConfig.equispaced(domain, count, _read(sub, f"{where}.offset", mode, 0))
    if "random" in spec:
        where += ".random"
        sub = _read(spec, where, dict)
        use_seed = seed if seed is not None else _read(sub, f"{where}.seed", int)
        count = _particle_count(sub, where, domain)
        if not isinstance(domain, Ring):
            raise ConfigurationError("random particle specs need a ring")
        rng = random.Random(use_seed)
        quant = _read(sub, f"{where}.quantize", int, None)
        length = domain.length
        out = []
        for _ in range(count):
            u = rng.uniform(0.0, float(length))
            if mode == "exact":
                q = quant or 10**6
                p = Fraction(round(u * q), q) % length
            else:
                p = u % float(length)
            out.append(p)
        return ParticleConfig.from_iterable(out, domain)
    if "scaled" in spec:
        where += ".scaled"
        sub = _read(spec, where, dict)
        base = _build_particles(_read(sub, f"{where}.base", dict), f"{where}.base", domain, mode, seed)
        return scale_config(base, _read(sub, f"{where}.alpha", "exact"))
    raise ConfigurationError(f"{where} needs positions, equispaced, random, or scaled")


def _build_zero_range(spec, mode: str) -> Optional[ZeroRangeState]:
    if spec is None:
        return None
    return ZeroRangeState(
        _read(spec, "zero_range.occupancy", [int]),
        _read(spec, "zero_range.ring", bool, True),
        _read(spec, "zero_range.spacings", [mode], None),
    )


def load_config(
    path: str,
    mode_override: Optional[str] = None,
    steps_override: Optional[int] = None,
    burn_in_override: Optional[int] = None,
    out_override: Optional[str] = None,
    seed_override: Optional[int] = None,
) -> ExperimentConfig:
    """Read and check every key of the config at path; nothing else reads it."""
    raw = _load_json(path)
    mode = mode_override or _read(raw, "mode", str, "exact")
    if mode not in ("exact", "fast"):
        raise ConfigurationError(f"mode must be exact or fast, got {mode!r}")
    domain = _build_domain(_read(raw, "domain", dict), mode)
    steps = steps_override if steps_override is not None else _read(raw, "steps", int, 0)
    if steps < 0:
        raise ConfigurationError("steps must be nonnegative")
    burn_in = burn_in_override if burn_in_override is not None else _read(raw, "burn_in", int, steps // 10)
    if burn_in < 0:
        raise ConfigurationError("burn-in must be nonnegative")
    return ExperimentConfig(
        domain=domain,
        mode=mode,
        obstacles=_build_obstacles(_read(raw, "obstacles", dict, None), domain, mode, seed_override),
        particles=_build_particles(_read(raw, "particles", dict, None), "particles", domain, mode, seed_override),
        # --seed reseeds particles and Poisson obstacles, never particles_xbar
        particles_xbar=_build_particles(_read(raw, "particles_xbar", dict, None), "particles_xbar", domain, mode, None),
        steps=steps,
        burn_in=burn_in,
        out=Path(out_override or _read(raw, "out", str, ".")),
        top_speed=_read(raw, "top_speed", mode, 1),
        trajectory=_read(raw, "trajectory", bool, True),
        particle_offset=_read(raw, "particle_offset", mode, 0),
        defect_threshold=_read(raw, "defect_threshold", "fast", 0.1),
        zero_range=_build_zero_range(_read(raw, "zero_range", dict, None), mode),
    )


def _open(path: Path):
    """path opened for writing, its directory made first, so a run that stops
    before its first file leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(path: Path, header: tuple, rows) -> None:
    with _open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return format_scalar(value)


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, Fraction):
        return format_scalar(value)
    return value


def _write_json(path: Path, payload: dict) -> None:
    with _open(path) as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(entry, what: str):
    if entry is None:
        raise ConfigurationError(f"this command needs {what} in the config")
    return entry


def cmd_extend(cfg: ExperimentConfig) -> int:
    z = _require(cfg.obstacles, "an obstacle spec")
    ext = build_extended(refine_waiting(z))
    report = check_extended_bounds(z)
    _write_csv(
        cfg.out / "extended.csv",
        ("position", "kind", "segment_velocity"),
        (
            (p, "real" if r else "virtual", v)
            for p, r, v in zip(ext.positions, ext.real, ext.segment_velocities)
        ),
    )
    _write_json(
        cfg.out / "extend_summary.json",
        {
            "rho_z": report.rho_real,
            "rho_z_ext": report.rho_ext,
            "bounds_pass": report.all_ok,
            "points": ext.count,
        },
    )
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    x = _require(cfg.particles, "a particle spec")
    z = cfg.obstacles or ObstacleField.empty(cfg.domain, cfg.top_speed)
    rho_x = _ring_density(x)
    # only a ring gets a prediction, and an open line's field has no extension
    rho_ext = extended_density(z) if z.count and rho_x is not None else None
    predicted = predict_velocity(rho_x, rho_ext, z.top_speed) if rho_x is not None and rho_x > 0 else None
    phase = classify_phase(rho_x, rho_ext, z.top_speed) if predicted is not None else None

    if cfg.steps == 0 or x.count == 0:
        _write_csv(cfg.out / "trajectory.csv", ("t", "particle_index", "position", "displacement", "blocked_flag"), ())
        _write_json(
            cfg.out / "simulate_summary.json",
            {"V_mean": None, "V_spread": None, "phase": phase, "V_predicted": predicted, "steps": cfg.steps},
        )
        return 2

    state = SimState.initial(x)
    burn = run(state, z, cfg.burn_in) if cfg.burn_in else None
    counts = [burn.invariant_violations] if burn else []
    writer = TrajectoryWriter() if cfg.trajectory else None
    observers = (writer,) if writer else ()
    traj = run(burn.final_state if burn else state, z, cfg.steps, observers=observers)
    counts.append(traj.invariant_violations)
    est = velocity_estimate(traj)
    _write_csv(
        cfg.out / "trajectory.csv",
        ("t", "particle_index", "position", "displacement", "blocked_flag"),
        writer.rows if writer else (),
    )
    _write_json(
        cfg.out / "simulate_summary.json",
        {
            "V_mean": est.mean,
            "V_spread": est.spread,
            "phase": phase,
            "V_predicted": predicted,
            "steps": cfg.steps,
            "burn_in": cfg.burn_in,
            "invariant_violations": _total_violations(counts),
        },
    )
    return 0


def _ring_density(x: ParticleConfig):
    return density(x) if isinstance(x.domain, Ring) else None


def _total_violations(counts: list) -> Optional[int]:
    """The sum of the runs' invariant counts, or None if any run went unchecked."""
    return None if None in counts else sum(counts)


def _fd_points(cfg: ExperimentConfig, rho_ext, offset, counts) -> list:
    """Density points of a sweep over cfg's field, stepped as one batch in
    one run, each velocity measured from the snapshot that ends the burn-in.

    Returns (invariant violations, FD_HEADER row) for each count, in order;
    the violations are None where a run went unchecked.
    """
    z = cfg.obstacles
    rhos, states = [], []
    for count in counts:
        x = ParticleConfig.equispaced(cfg.domain, count, offset)
        rhos.append(_ring_density(x))
        states.append(SimState.initial(x))
    runs = run(Replicas(states), z, cfg.burn_in + cfg.steps, snapshot_times=(cfg.burn_in,))
    points = []
    for rho_x, traj in zip(rhos, runs):
        row = (
            rho_x,
            rho_ext,
            velocity_estimate(traj, start=cfg.burn_in).mean,
            predict_velocity(rho_x, rho_ext, z.top_speed),
            classify_phase(rho_x, rho_ext, z.top_speed),
            cfg.steps,
            cfg.domain.length,
        )
        points.append((traj.invariant_violations, row))
    return points


def _balanced_batches(counts: list, workers: int) -> list:
    """The indices of counts in workers batches: largest count first, each
    to the batch with the fewest particles so far."""
    batches = [[] for _ in range(workers)]
    loads = [0] * workers
    for k in sorted(range(len(counts)), key=lambda k: -counts[k]):
        lightest = loads.index(min(loads))
        batches[lightest].append(k)
        loads[lightest] += counts[k]
    return batches


FD_HEADER = ("rho_x", "rho_z_ext", "V_measured", "V_predicted", "phase", "steps", "domain_L")


def cmd_fd_sweep(cfg: ExperimentConfig, args) -> int:
    z = _require(cfg.obstacles, "an obstacle spec")
    if not isinstance(cfg.domain, Ring):
        raise ConfigurationError("density sweeps need a ring domain")
    if args.threads is not None and args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
    if args.points < 1:
        raise DegenerateInputError("a sweep needs at least one point")
    if cfg.steps < 1:
        raise DegenerateInputError("a sweep needs at least one step")
    rho_min = parse_scalar(args.rho_min)
    rho_max = parse_scalar(args.rho_max)
    if rho_min <= 0 or rho_max < rho_min:
        raise ConfigurationError("need 0 < rho_min <= rho_max")
    length = Fraction(str(cfg.domain.length))
    counts = []
    for i in range(args.points):
        if args.points == 1:
            rho = rho_min
        else:
            rho = rho_min + (rho_max - rho_min) * i / (args.points - 1)
        counts.append(max(1, round(rho * length)))
    batch_points = partial(_fd_points, cfg, extended_density(z), cfg.particle_offset)

    # Each batch of points runs in its own worker, and the slowest one sets
    # the wall time, so the batches get near-equal particle counts. The
    # worker count changes only where the points run, never the rows.
    workers = min(args.threads or os.cpu_count() or 1, len(counts))
    batches = _balanced_batches(counts, workers)
    if cfg.mode == "fast":
        # imported before the pool forks, so its workers share one load of the float kernel's numpy
        import numpy  # noqa: F401
    batch_counts = [[counts[k] for k in batch] for batch in batches]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(batch_points, batch_counts))
    else:
        done = list(map(batch_points, batch_counts))
    points = [None] * len(counts)
    for batch, results in zip(batches, done):
        for k, point in zip(batch, results):
            points[k] = point
    for violations, row in points:
        if violations:
            noun = "violation" if violations == 1 else "violations"
            raise InvariantViolationError(
                f"fd-sweep point rho_x={format_scalar(row[0])}: {violations} invariant {noun}"
            )
    _write_csv(cfg.out / "fd.csv", FD_HEADER, [row for _, row in points])
    return 0


def cmd_couple(cfg: ExperimentConfig) -> int:
    x = _require(cfg.particles, "a particle spec")
    z = _require(cfg.obstacles, "an obstacle spec")
    xbar = _require(cfg.particles_xbar, "a particles_xbar entry")
    if cfg.steps < 1:
        raise DegenerateInputError("coupled runs need at least one step")
    try:
        diag = run_coupled(x, xbar, z, cfg.steps, threshold=cfg.defect_threshold)
    except CouplingError as exc:
        _write_json(cfg.out / "couple_summary.json", {"verdict": "integrity violated", "dump": exc.dump})
        raise
    _write_csv(
        cfg.out / "coupling.csv",
        ("t", "defects_x", "defects_xbar", "pairs", "v_gap_abs", "proper_flag"),
        diag.rows,
    )
    _write_json(
        cfg.out / "couple_summary.json",
        {
            "verdict": diag.verdict,
            "initial_defects": diag.initial_defects,
            "final_defects": diag.final_defects,
            "final_pairs": diag.final_state.pair_count,
            "cycle": diag.cycle,
            "steps": cfg.steps,
            "threshold": cfg.defect_threshold,
        },
    )
    return 0


def cmd_zero_range(cfg: ExperimentConfig) -> int:
    state = _require(cfg.zero_range, "a zero_range entry")
    if cfg.steps < 1:
        raise DegenerateInputError("zero-range runs need at least one step")
    rows = []
    moves = 0
    final = state
    for t, snap in enumerate(zr_trajectory(state, cfg.steps)):
        for site, count in enumerate(snap.occupancy):
            rows.append((t, site, count))
        if t < cfg.steps:
            moves += sum(1 for c in snap.occupancy if c > 0)
        final = snap
    _write_csv(cfg.out / "occupancy.csv", ("t", "site", "count"), rows)
    total = state.total
    measured = Fraction(moves, total * cfg.steps) if total else None
    rho = Fraction(total, state.sites) if state.ring else None
    _write_json(
        cfg.out / "zero_range_summary.json",
        {
            "steps": cfg.steps,
            "sites": final.sites,
            "particles": total,
            "measured_velocity": measured,
            "predicted_velocity": zr_velocity(rho) if rho and rho > 0 else None,
        },
    )
    return 0


def cmd_scenario(name: str, params: dict, out: Path) -> int:
    result = run_scenario(name, **params)
    if result.rows:
        _write_csv(out / f"scenario_{name}.csv", result.columns, result.rows)
    _write_json(
        out / f"scenario_{name}.json",
        {
            "name": result.spec.name,
            "parameters": result.spec.parameters,
            "expected": result.spec.expected,
            "passed": result.passed,
            "details": result.details,
        },
    )
    return 0 if result.passed else 3


_OPTIONS = {
    "--config": {"help": "JSON experiment config"},
    "--out": {},
    "--steps": {"type": int},
    "--burn-in": {"type": int},
    "--mode": {"choices": ("exact", "fast")},
    "--seed": {"type": int},
    "--threads": {"type": int},
    "--rho-min": {"required": True},
    "--rho-max": {"required": True},
    "--points": {"type": int, "required": True},
}
# The options each command takes; it takes no other.
_COMMAND_OPTIONS = {
    "extend": ("--config", "--out", "--mode", "--seed"),
    "simulate": ("--config", "--out", "--steps", "--burn-in", "--mode", "--seed"),
    "fd-sweep": ("--config", "--out", "--steps", "--burn-in", "--mode", "--seed", "--threads",
                 "--rho-min", "--rho-max", "--points"),
    "couple": ("--config", "--out", "--steps", "--seed"),
    "zero-range": ("--config", "--out", "--steps"),
    "scenario": ("--config", "--out"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ConfigurationError, so main
    prints them as its one error line instead of the usage block."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _parse_args(argv):
    parser = _Parser(
        prog="contasep",
        description="Deterministic continuum exclusion dynamics with obstacles",
    )
    # an option its command does not take reads as None
    parser.set_defaults(steps=None, burn_in=None, mode=None, seed=None, threads=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _COMMAND_OPTIONS.items():
        cmd = sub.add_parser(command)
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
        if command == "scenario":
            cmd.add_argument("name", choices=sorted(SCENARIOS))
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        takes = ", ".join(_COMMAND_OPTIONS[args.command])
        option = unknown[0].partition("=")[0]
        raise ConfigurationError(f"{args.command} does not take {option}; it takes {takes}")
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit:
            # only --help exits; every other argument error raises
            return 0
        if args.command == "scenario":
            raw = _load_json(args.config) if args.config else {}
            # every scenario parameter is an integer
            params = _params(raw, "params", {})
            return cmd_scenario(args.name, params, Path(args.out or _read(raw, "out", str, ".")))
        if not args.config:
            raise ConfigurationError("--config is required")
        cfg = load_config(
            args.config,
            mode_override=args.mode,
            steps_override=args.steps,
            burn_in_override=args.burn_in,
            out_override=args.out,
            seed_override=args.seed,
        )
        if args.command == "fd-sweep":
            return cmd_fd_sweep(cfg, args)
        commands = {"extend": cmd_extend, "simulate": cmd_simulate, "couple": cmd_couple, "zero-range": cmd_zero_range}
        return commands[args.command](cfg)
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (PropertyViolationError, CouplingError) as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 3
    except (ContasepError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
