"""The benchmark workloads: generated configs, CLI arguments and output checks.

Each workload maps a seed onto one of VARIANTS input variants (seed % VARIANTS),
so that every run's outputs can be compared against exact reference values
recorded in reference.json. Variant 0 is the acceptance instance named in
README.md; the seed moves the random parts of the input only.
"""
from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

VARIANTS = 8

# Full-size step counts, and the handful used by the smoke test.
SIZES = {
    "full": {"couple-exact": (150, 0), "sweep-fast": (500, 50)},
    "smoke": {"couple-exact": (10, 0), "sweep-fast": (20, 5)},
}

SWEEP_POINTS = 20
SWEEP_RHO = ("0.1", "2.0")
SWEEP_LENGTH = 600
SWEEP_THREADS = 2
SWEEP_COUNTS = tuple(round(Fraction(k + 1, 10) * SWEEP_LENGTH) for k in range(SWEEP_POINTS))

CRITERION_1_TOL = 0.02


# Poisson seeds whose field has 37 obstacles, as criterion 10's (seed 13)
# has: the run's cost grows with the obstacle count, so variants cost alike.
COUPLE_OBSTACLE_SEEDS = (13, 16, 43, 61, 65, 76, 77, 82)


def _couple_config(variant: int, steps: int, burn_in: int) -> dict:
    # Criterion 10's instance, wait-free: with waits the coupling defect in
    # ROADMAP aborts runs of this size, so no speed would be measured.
    return {
        "domain": {"kind": "ring", "length": "100"},
        "mode": "exact",
        "obstacles": {
            "generator": "poisson",
            "params": {"rate": 0.35, "seed": COUPLE_OBSTACLE_SEEDS[variant], "quantize": 100, "velocity": "4"},
        },
        "particles": {"random": {"count": 50, "seed": 21 + 2 * variant, "quantize": 100}},
        "particles_xbar": {"random": {"count": 50, "seed": 22 + 2 * variant, "quantize": 100}},
        "steps": steps,
        "burn_in": burn_in,
    }


def _sweep_config(variant: int, steps: int, burn_in: int) -> dict:
    # Every generator parameter is explicit so fast mode parses them to
    # floats and the vectorized path is eligible.
    return {
        "domain": {"kind": "ring", "length": str(SWEEP_LENGTH)},
        "mode": "fast",
        "obstacles": {
            "generator": "equispaced",
            "params": {"spacing": "3", "velocity": "1", "offset": "0"},
        },
        "particle_offset": str(Fraction((4 + variant) % VARIANTS, VARIANTS)),
        "steps": steps,
        "burn_in": burn_in,
    }


class Workload:
    """One CLI experiment: its config, its arguments and its output check."""

    name = ""
    command = ""

    def __init__(self, seed: int, size: str = "full"):
        self.size = size
        self.variant = seed % VARIANTS
        self.steps, self.burn_in = SIZES[size][self.name]
        self.config = self.make_config(self.variant, self.steps, self.burn_in)

    def make_config(self, variant, steps, burn_in) -> dict:
        raise NotImplementedError

    def cli_args(self, config_path: Path, out: Path, single_process: bool = False) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out)]

    def particle_steps(self) -> int:
        raise NotImplementedError

    def extract(self, out: Path) -> dict:
        """The values of the run's output that reference.json records."""
        raise NotImplementedError

    def property_errors(self, values: dict) -> list:
        """Checks that hold for any correct run, independent of the reference."""
        return []

    def check(self, out: Path, reference) -> list:
        try:
            values = self.extract(out)
            errors = self.property_errors(values)
        except (OSError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"unreadable output: {exc!r}"]
        if reference is None:
            errors.append(f"no reference values for {self.size} variant {self.variant}")
        else:
            for key, want in reference.items():
                if values.get(key) != want:
                    errors.append(f"{key}: got {values.get(key)!r}, reference {want!r}")
        return errors


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class CoupleExact(Workload):
    name = "couple-exact"
    command = "couple"
    make_config = staticmethod(_couple_config)
    COLUMNS = ("t", "defects_x", "defects_xbar", "pairs", "v_gap_abs", "proper_flag")

    def particle_steps(self) -> int:
        return 100 * (self.steps + self.burn_in)

    def extract(self, out):
        summary = _read_json(out / "couple_summary.json")
        rows = _read_rows(out / "coupling.csv")
        return {
            "verdict": summary["verdict"],
            "final_defects": summary["final_defects"],
            "final_pairs": summary["final_pairs"],
            "rows": len(rows),
            "last_row": {c: rows[-1][c] for c in self.COLUMNS},
            "all_proper_and_balanced": all(
                r["proper_flag"] == "1" and r["defects_x"] == r["defects_xbar"] for r in rows
            ),
        }

    def property_errors(self, values):
        errors = []
        if values["rows"] != self.steps:
            errors.append(f"coupling.csv has {values['rows']} rows, expected {self.steps}")
        if not values["all_proper_and_balanced"]:
            errors.append("a coupling.csv row is improper or unbalanced")
        last = values["last_row"]
        if int(last["defects_x"]) + int(last["defects_xbar"]) != values["final_defects"]:
            errors.append("final_defects disagrees with the last coupling.csv row")
        return errors


class SweepFast(Workload):
    name = "sweep-fast"
    command = "fd-sweep"
    make_config = staticmethod(_sweep_config)

    def cli_args(self, config_path, out, single_process=False):
        return super().cli_args(config_path, out) + [
            "--rho-min", SWEEP_RHO[0],
            "--rho-max", SWEEP_RHO[1],
            "--points", str(SWEEP_POINTS),
            "--threads", "1" if single_process else str(SWEEP_THREADS),
        ]

    def particle_steps(self) -> int:
        return sum(SWEEP_COUNTS) * (self.steps + self.burn_in)

    def extract(self, out):
        rows = _read_rows(out / "fd.csv")
        return {
            "rho_x": [r["rho_x"] for r in rows],
            "V_measured": [r["V_measured"] for r in rows],
            "V_predicted": [r["V_predicted"] for r in rows],
            "phase": [r["phase"] for r in rows],
        }

    def property_errors(self, values):
        if len(values["V_measured"]) != SWEEP_POINTS:
            return [f"fd.csv has {len(values['V_measured'])} rows, expected {SWEEP_POINTS}"]
        errors = []
        if self.size == "full":
            for rho, vm, vp in zip(values["rho_x"], values["V_measured"], values["V_predicted"]):
                if abs(float(vm) - float(vp)) > CRITERION_1_TOL * float(vp):
                    errors.append(f"rho {rho}: V_measured {vm} off V_predicted {vp} by more than 2%")
        return errors


WORKLOADS = {w.name: w for w in (CoupleExact, SweepFast)}


def describe(workload: Workload, config_path: Path) -> dict:
    """Input descriptors, read through the program's own loader in exact mode.

    D is the lcm of every input denominator (ring length, obstacle positions
    and speeds, particle positions), the scale of an exact integer kernel.
    fast_eligible is the program's own vectorized-path test on the input.
    """
    from contasep import cli, dynamics
    from contasep.core import ParticleConfig

    exact = cli.load_config(str(config_path), mode_override="exact")
    raw = workload.config
    z = exact.obstacles
    if workload.name == "sweep-fast":
        offset = Fraction(raw["particle_offset"])
        sides = [ParticleConfig.equispaced(exact.domain, n, offset) for n in SWEEP_COUNTS]
    else:
        sides = [exact.particles]
        if "particles_xbar" in raw:
            xbar = config_path.with_name("config_xbar.json")
            xbar.write_text(json.dumps({**raw, "particles": raw["particles_xbar"]}))
            sides.append(cli.load_config(str(xbar), mode_override="exact").particles)
    values = [exact.domain.length, z.top_speed, *z.positions, *z.velocities]
    for side in sides:
        values.extend(side.positions)
    as_run = cli.load_config(str(config_path))
    probe = sides[0] if as_run.mode == "exact" else ParticleConfig.equispaced(
        as_run.domain, sides[0].count, float(Fraction(raw.get("particle_offset", 0)))
    )
    if hasattr(dynamics, "_fast_eligible"):
        eligible = dynamics._fast_eligible(dynamics.SimState.initial(probe), as_run.obstacles)
    else:
        eligible = "unknown: dynamics._fast_eligible not found"
    return {
        "particle_counts": [side.count for side in sides],
        "obstacle_count": z.count,
        "waits_present": any(w > 0 for w in z.waits),
        "lcm_denominator_D": lcm(*(Fraction(v).denominator for v in values)),
        "mode": as_run.mode,
        "fast_eligible": eligible,
        "steps": workload.steps,
        "burn_in": workload.burn_in,
        "particle_steps": workload.particle_steps(),
    }
