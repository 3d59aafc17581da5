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
    InvariantViolationError,
    Line,
    ObstacleField,
    ParticleConfig,
    PropertyViolationError,
    Ring,
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
    predict_velocity,
    velocity_estimate,
)
from .zerorange import ZeroRangeState, zr_trajectory, zr_velocity


@dataclass
class ExperimentConfig:
    """Fully built experiment inputs; construction validates everything."""

    domain: Domain
    mode: str
    obstacles: Optional[ObstacleField]
    particles: Optional[ParticleConfig]
    steps: int
    burn_in: int
    out: Path
    raw: dict


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    return data


def _entry(spec: dict, key: str, where: str, kind: type = object, default=None):
    """spec[key], or default when it is absent and one is given; a missing
    key or a value that is not a kind is a ConfigurationError naming where.key."""
    if key in spec:
        value = spec[key]
    elif default is None:
        raise ConfigurationError(f"config needs {where}.{key}")
    else:
        value = default
    if not isinstance(value, kind):
        raise ConfigurationError(f"{where}.{key} must be a {kind.__name__}, got {value!r}")
    return value


def _int_entry(spec: dict, key: str, default=None) -> int:
    value = spec.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}") from None


def _build_domain(spec: dict, mode: str) -> Domain:
    kind = spec.get("kind")
    if kind == "ring":
        return Ring(parse_scalar(_entry(spec, "length", "domain"), mode))
    if kind == "line":
        start = parse_scalar(spec.get("start", 0), mode)
        end = spec.get("end")
        return Line(start, parse_scalar(end, mode) if end is not None else float("inf"))
    raise ConfigurationError(f"domain kind must be ring or line, got {kind!r}")


def _build_obstacles(spec, domain: Domain, mode: str, seed: Optional[int]) -> Optional[ObstacleField]:
    if spec is None:
        return None
    if "generator" in spec:
        params = dict(_entry(spec, "params", "obstacles", dict, {}))
        for key in ("spacing", "velocity", "offset", "rate"):
            if key in params:
                try:
                    # the rate only draws float gaps, so it is read as a float
                    params[key] = parse_scalar(params[key], "fast" if key == "rate" else mode)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"obstacles.params.{key}: {exc}") from None
        if params.get("quantize") is not None:
            params["quantize"] = _int_entry(params, "quantize")
        if spec["generator"] == "poisson":
            if seed is not None:
                params["seed"] = seed
            if "seed" not in params:
                raise ConfigurationError("poisson obstacle generator needs a seed")
        z = make_obstacles(spec["generator"], domain, **params)
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
    positions = [parse_scalar(p, mode) for p in _entry(spec, "positions", "obstacles", list)]
    count = len(positions)
    waits = _entry(spec, "waits", "obstacles", list, [0] * count)
    velocities = [parse_scalar(v, mode) for v in _entry(spec, "velocities", "obstacles", list, [1] * count)]
    top = parse_scalar(spec.get("top_speed", max(velocities, default=1)), mode)
    return ObstacleField(tuple(positions), tuple(waits), tuple(velocities), top, domain)


def _particle_count(spec: dict, domain: Domain, mode: str) -> int:
    if "count" in spec:
        return _int_entry(spec, "count")
    if "density" not in spec:
        raise ConfigurationError("particle spec needs count or density")
    if not isinstance(domain, Ring):
        raise ConfigurationError("density-based particle specs need a ring")
    rho = parse_scalar(spec["density"], "exact")
    count = rho * Fraction(str(domain.length)) if isinstance(domain.length, float) else rho * domain.length
    if isinstance(count, Fraction):
        if count.denominator != 1:
            raise ConfigurationError(f"density {spec['density']} gives non-integer count {count}")
        return int(count)
    return int(count)


def _build_particles(spec, domain: Domain, mode: str, seed: Optional[int]) -> Optional[ParticleConfig]:
    if spec is None:
        return None
    if "positions" in spec:
        return ParticleConfig.from_iterable(
            [parse_scalar(p, mode) for p in _entry(spec, "positions", "particles", list)], domain
        )
    if "equispaced" in spec:
        sub = spec["equispaced"]
        count = _particle_count(sub, domain, mode)
        offset = parse_scalar(sub.get("offset", 0), mode)
        return ParticleConfig.equispaced(domain, count, offset)
    if "random" in spec:
        sub = spec["random"]
        use_seed = seed if seed is not None else sub.get("seed")
        if use_seed is None:
            raise ConfigurationError("random particle specs need a seed")
        count = _particle_count(sub, domain, mode)
        if not isinstance(domain, Ring):
            raise ConfigurationError("random particle specs need a ring")
        rng = random.Random(use_seed)
        quant = _int_entry(sub, "quantize") if sub.get("quantize") is not None else None
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
        sub = spec["scaled"]
        base = _build_particles(_entry(sub, "base", "particles.scaled"), domain, mode, seed)
        return scale_config(base, parse_scalar(_entry(sub, "alpha", "particles.scaled"), "exact"))
    raise ConfigurationError("particle spec needs positions, equispaced, random, or scaled")


def load_config(
    path: str,
    mode_override: Optional[str] = None,
    steps_override: Optional[int] = None,
    burn_in_override: Optional[int] = None,
    out_override: Optional[str] = None,
    seed_override: Optional[int] = None,
) -> ExperimentConfig:
    raw = _load_json(path)
    mode = mode_override or raw.get("mode", "exact")
    if mode not in ("exact", "fast"):
        raise ConfigurationError(f"mode must be exact or fast, got {mode!r}")
    if "domain" not in raw:
        raise ConfigurationError("config needs a domain")
    domain = _build_domain(raw["domain"], mode)
    obstacles = _build_obstacles(raw.get("obstacles"), domain, mode, seed_override)
    particles = _build_particles(raw.get("particles"), domain, mode, seed_override)
    steps = steps_override if steps_override is not None else _int_entry(raw, "steps", 0)
    if steps < 0:
        raise ConfigurationError("steps must be nonnegative")
    if burn_in_override is not None:
        burn_in = burn_in_override
    elif "burn_in" in raw:
        burn_in = _int_entry(raw, "burn_in")
    else:
        burn_in = steps // 10
    if burn_in < 0:
        raise ConfigurationError("burn-in must be nonnegative")
    out = Path(out_override or raw.get("out", "."))
    return ExperimentConfig(domain, mode, obstacles, particles, steps, burn_in, out, raw)


def _write_csv(path: Path, header: tuple, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    if isinstance(value, float):
        return value
    return value


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_field(cfg: ExperimentConfig) -> ObstacleField:
    if cfg.obstacles is None:
        raise ConfigurationError("this command needs an obstacle spec in the config")
    return cfg.obstacles


def _require_particles(cfg: ExperimentConfig) -> ParticleConfig:
    if cfg.particles is None:
        raise ConfigurationError("this command needs a particle spec in the config")
    return cfg.particles


def cmd_extend(cfg: ExperimentConfig) -> int:
    z = _require_field(cfg)
    ext = build_extended(refine_waiting(z))
    report = check_extended_bounds(z)
    cfg.out.mkdir(parents=True, exist_ok=True)
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
    x = _require_particles(cfg)
    z = cfg.obstacles or ObstacleField.empty(cfg.domain, parse_scalar(cfg.raw.get("top_speed", 1), cfg.mode))
    rho_x = _ring_density(x)
    rho_ext = extended_density(z) if z.count else None
    predicted = predict_velocity(rho_x, rho_ext, z.top_speed) if rho_x is not None and rho_x > 0 else None
    phase = classify_phase(rho_x, rho_ext, z.top_speed) if predicted is not None else None
    cfg.out.mkdir(parents=True, exist_ok=True)

    if cfg.steps == 0:
        _write_csv(cfg.out / "trajectory.csv", ("t", "particle_index", "position", "displacement", "blocked_flag"), ())
        _write_json(
            cfg.out / "simulate_summary.json",
            {"V_mean": None, "V_spread": None, "phase": phase, "V_predicted": predicted, "steps": 0},
        )
        return 2

    state = SimState.initial(x)
    counts = [run(state, z, cfg.burn_in).invariant_violations] if cfg.burn_in else []
    writer = TrajectoryWriter() if cfg.raw.get("trajectory", True) else None
    observers = (writer,) if writer else ()
    traj = run(state, z, cfg.steps, observers=observers)
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
    if isinstance(x.domain, Ring):
        from .stats import density

        return density(x)
    return None


def _total_violations(counts: list) -> Optional[int]:
    """The sum of the runs' invariant counts, or None if any run went unchecked."""
    return None if None in counts else sum(counts)


def _fd_points(cfg: ExperimentConfig, rho_ext, offset, counts) -> list:
    """Density points of a sweep over cfg's field, stepped as one batch.

    Returns (invariant violations, FD_HEADER row) for each count, in order;
    the violations are None where a run went unchecked.
    """
    z = cfg.obstacles
    rhos, states = [], []
    for count in counts:
        x = ParticleConfig.equispaced(cfg.domain, count, offset)
        rhos.append(_ring_density(x))
        states.append(SimState.initial(x))
    batch = Replicas(states)
    burn_in = [0] * len(states)
    if cfg.burn_in:
        burn_in = [traj.invariant_violations for traj in run(batch, z, cfg.burn_in)]
    points = []
    for rho_x, violations, traj in zip(rhos, burn_in, run(batch, z, cfg.steps)):
        row = (
            rho_x,
            rho_ext,
            velocity_estimate(traj).mean,
            predict_velocity(rho_x, rho_ext, z.top_speed),
            classify_phase(rho_x, rho_ext, z.top_speed),
            cfg.steps,
            cfg.domain.length,
        )
        points.append((_total_violations([violations, traj.invariant_violations]), row))
    return points


FD_HEADER = ("rho_x", "rho_z_ext", "V_measured", "V_predicted", "phase", "steps", "domain_L")


def cmd_fd_sweep(cfg: ExperimentConfig, args) -> int:
    z = _require_field(cfg)
    if not isinstance(cfg.domain, Ring):
        raise ConfigurationError("density sweeps need a ring domain")
    if args.threads is not None and args.threads < 1:
        raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
    if args.points < 1:
        raise DegenerateInputError("a sweep needs at least one point")
    if cfg.steps < 1:
        raise DegenerateInputError("a sweep needs at least one step")
    rho_min = Fraction(str(args.rho_min))
    rho_max = Fraction(str(args.rho_max))
    if rho_min <= 0 or rho_max < rho_min:
        raise ConfigurationError("need 0 < rho_min <= rho_max")
    length = cfg.domain.length
    length_frac = Fraction(str(length)) if isinstance(length, float) else Fraction(length)
    counts = []
    for i in range(args.points):
        if args.points == 1:
            rho = rho_min
        else:
            rho = rho_min + (rho_max - rho_min) * i / (args.points - 1)
        counts.append(max(1, round(rho * length_frac)))
    offset = parse_scalar(cfg.raw.get("particle_offset", 0), cfg.mode)
    batch_points = partial(_fd_points, cfg, extended_density(z), offset)

    # Point k goes to batch k mod W, and each batch runs in its own worker.
    # The worker count changes only where the points run, never the rows.
    workers = min(args.threads or os.cpu_count() or 1, len(counts))
    batches = [counts[k::workers] for k in range(workers)]
    if cfg.mode == "fast":
        # imported before the pool forks, so its workers share one load of the float kernel's numpy
        import numpy  # noqa: F401
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(batch_points, batches))
    else:
        done = list(map(batch_points, batches))
    points = [None] * len(counts)
    for k, results in enumerate(done):
        points[k::workers] = results
    for violations, row in points:
        if violations:
            raise InvariantViolationError(
                f"fd-sweep point rho_x={format_scalar(row[0])}: {violations} invariant violations"
            )
    rows = [row for _, row in points]
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.out / "fd.csv", FD_HEADER, rows)
    return 0


def cmd_couple(cfg: ExperimentConfig, cfg_xbar: Optional[ExperimentConfig]) -> int:
    x = _require_particles(cfg)
    z = _require_field(cfg)
    if cfg_xbar is not None:
        xbar = _require_particles(cfg_xbar)
    elif "particles_xbar" in cfg.raw:
        xbar = _build_particles(cfg.raw["particles_xbar"], cfg.domain, cfg.mode, None)
    else:
        raise ConfigurationError("couple needs --config-xbar or a particles_xbar entry")
    if cfg.steps < 1:
        raise DegenerateInputError("coupled runs need at least one step")
    threshold = cfg.raw.get("defect_threshold", 0.1)
    try:
        threshold = float(threshold)
    except (TypeError, ValueError):
        raise ConfigurationError(f"defect_threshold must be a number, got {threshold!r}") from None
    cfg.out.mkdir(parents=True, exist_ok=True)
    try:
        diag = run_coupled(x, xbar, z, cfg.steps, threshold=threshold)
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
            "steps": cfg.steps,
            "threshold": threshold,
        },
    )
    return 0


def cmd_zero_range(cfg: ExperimentConfig) -> int:
    spec = cfg.raw.get("zero_range")
    if not spec:
        raise ConfigurationError("zero-range runs need a zero_range entry in the config")
    counts = _entry(spec, "occupancy", "zero_range", list)
    try:
        occupancy = tuple(int(c) for c in counts)
    except (TypeError, ValueError):
        raise ConfigurationError(f"zero_range.occupancy must hold integers, got {counts!r}") from None
    ring = bool(spec.get("ring", True))
    spacings = spec.get("spacings")
    if spacings is not None:
        spacings = tuple(parse_scalar(s, cfg.mode) for s in _entry(spec, "spacings", "zero_range", list))
    state = ZeroRangeState(occupancy, ring, spacings)
    if cfg.steps < 1:
        raise DegenerateInputError("zero-range runs need at least one step")
    cfg.out.mkdir(parents=True, exist_ok=True)
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
    rho = Fraction(total, state.sites) if ring else None
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


def cmd_scenario(name: str, cfg_raw: dict, out: Path) -> int:
    params = _entry(cfg_raw, "params", "scenario", dict, {})
    # every scenario parameter is an integer
    result = run_scenario(name, **{key: _int_entry(params, key) for key in params})
    out.mkdir(parents=True, exist_ok=True)
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


def _parse_args(argv):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config")
    common.add_argument("--steps", type=int)
    common.add_argument("--burn-in", type=int, dest="burn_in")
    common.add_argument("--out")
    common.add_argument("--mode", choices=("exact", "fast"))
    common.add_argument("--seed", type=int)
    common.add_argument("--threads", type=int)

    parser = argparse.ArgumentParser(
        prog="contasep",
        description="Deterministic continuum exclusion dynamics with obstacles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("extend", parents=[common])
    sub.add_parser("simulate", parents=[common])
    fd = sub.add_parser("fd-sweep", parents=[common])
    fd.add_argument("--rho-min", required=True)
    fd.add_argument("--rho-max", required=True)
    fd.add_argument("--points", type=int, required=True)
    couple = sub.add_parser("couple", parents=[common])
    couple.add_argument("--config-xbar", dest="config_xbar")
    sub.add_parser("zero-range", parents=[common])
    scen = sub.add_parser("scenario", parents=[common])
    scen.add_argument("name", choices=sorted(SCENARIOS))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            return 0 if not exc.code else 1
        if args.command == "scenario":
            raw = _load_json(args.config) if args.config else {}
            out = Path(args.out or raw.get("out", "."))
            return cmd_scenario(args.name, raw, out)
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
        if args.command == "extend":
            return cmd_extend(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fd-sweep":
            return cmd_fd_sweep(cfg, args)
        if args.command == "couple":
            cfg_xbar = (
                load_config(args.config_xbar, mode_override=args.mode)
                if args.config_xbar
                else None
            )
            return cmd_couple(cfg, cfg_xbar)
        if args.command == "zero-range":
            return cmd_zero_range(cfg)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (PropertyViolationError, CouplingError) as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 3
    except ContasepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
