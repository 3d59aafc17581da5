import ast
import copy
import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import contasep
from contasep import dynamics
from contasep.cli import _balanced_batches, _fd_points, _parse_args, load_config, main
from contasep.core import ConfigurationError, ParticleConfig, format_scalar
from contasep.coupling import run_coupled
from contasep.dynamics import SimState, run
from contasep.scenarios import SCENARIOS, ScenarioResult, ScenarioSpec
from contasep.stats import velocity_estimate

F = Fraction

RING_CFG = {
    "domain": {"kind": "ring", "length": "12"},
    "obstacles": {
        "positions": ["0", "4", "8"],
        "velocities": ["1", "1", "1"],
        "top_speed": "1",
    },
    "particles": {"equispaced": {"count": 6, "offset": "0.25"}},
    "steps": 200,
}

# Generator defaults (velocity 1, offset 0) are ints; fast mode must still
# load an all-float field.
GENERATED_RING_CFG = {
    "domain": {"kind": "ring", "length": "600"},
    "obstacles": {"generator": "equispaced", "params": {"spacing": "3"}},
    "steps": 20,
}

SWEEP_ARGS = ["--rho-min", "0.25", "--rho-max", "1.5", "--points", "5"]

COUPLE_CFG = {**RING_CFG, "particles_xbar": {"equispaced": {"count": 6, "offset": "0.5"}}}

# README's coupled run of acceptance criterion 10
CRITERION_10_CFG = {
    "domain": {"kind": "ring", "length": "100"},
    "obstacles": {
        "generator": "poisson",
        "params": {"rate": 0.35, "seed": 13, "quantize": 100, "velocity": "4"},
    },
    "particles": {"random": {"count": 50, "seed": 21, "quantize": 100}},
    "particles_xbar": {"random": {"count": 50, "seed": 22, "quantize": 100}},
    "steps": 10000,
}

# A waited coupled run that stays proper: REPEATING in tests/test_lattice.py
WAITED_COUPLE_CFG = {
    "domain": {"kind": "ring", "length": "17/2"},
    "obstacles": {
        "positions": ["3/4", "1", "11/4", "7"],
        "waits": [2, 2, 1, 1],
        "velocities": ["3/2", "1/2", "1/2", "1/2"],
        "top_speed": "3/2",
    },
    "particles": {"positions": ["14/3", "0", "13/3", "5"]},
    "particles_xbar": {"positions": ["17/3", "14/3", "16/3", "20/3"]},
    "steps": 150,
}

ZERO_RANGE_CFG = {
    "domain": {"kind": "ring", "length": "3"},
    "zero_range": {"occupancy": [2, 0, 1], "ring": True},
    "steps": 5,
}


# irregular_example builds its field on its own line, [0, 20) at levels 2,
# whatever domain the config names
IRREGULAR_CFG = {
    "domain": {"kind": "line", "start": "0", "end": "20"},
    "obstacles": {"generator": "irregular_example", "params": {"levels": 2}},
    "particles": {"equispaced": {"count": 3}},
    "steps": 3,
}
IRREGULAR_ON_RING_CFG = {**IRREGULAR_CFG, "domain": {"kind": "ring", "length": "12"}}

# A field whose float sums z + k*v overshoot the speed by about 1e-16.
NON_DYADIC_CFG = {
    "domain": {"kind": "ring", "length": "10"},
    "obstacles": {"positions": ["0", "3.3"], "velocities": ["0.1", "0.7"], "top_speed": "1"},
    "particles": {"equispaced": {"count": 5}},
    "steps": 20,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def test_simulate_writes_trajectory_and_summary(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ("t", "particle_index", "position", "displacement", "blocked_flag")
    assert len(rows) == 200 * 6
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert set(summary) >= {"V_mean", "V_spread", "phase", "V_predicted"}
    assert summary["phase"] == "gaseous"
    assert summary["V_predicted"] == "1"
    # the exact scalar engine checks no invariants, so it reports no count
    assert summary["invariant_violations"] is None


def test_simulate_on_an_open_line_with_obstacles(tmp_path):
    # the default line has no end, so its field cannot be extended; only a
    # ring gets a predicted velocity, so none is asked for
    cfg = write_config(
        tmp_path,
        {
            "domain": {"kind": "line", "start": "0"},
            "obstacles": {"positions": ["2", "5", "9"], "velocities": ["1", "1/2", "1"], "top_speed": "1"},
            "particles": {"positions": ["0", "1", "3/2"]},
            "steps": 10,
        },
    )
    out = tmp_path / "line"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["V_predicted"] is None
    assert summary["phase"] is None
    _, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 10 * 3


def test_simulate_zero_steps_degenerate(tmp_path):
    cfg = write_config(tmp_path, {**RING_CFG, "steps": 0})
    out = tmp_path / "run0"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["V_mean"] is None


@pytest.mark.parametrize("mode", ["exact", "fast"])
@pytest.mark.parametrize("trajectory", [True, False])
def test_simulate_zero_particles_degenerate(tmp_path, mode, trajectory):
    # the same path as zero steps: a header-only trajectory, a summary with
    # no velocity, exit 2
    cfg = write_config(
        tmp_path,
        {"domain": {"kind": "ring", "length": "12"}, "particles": {"positions": []}, "steps": 5, "trajectory": trajectory},
    )
    out = tmp_path / "empty"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--mode", mode]) == 2
    assert read_csv(out / "trajectory.csv") == (("t", "particle_index", "position", "displacement", "blocked_flag"), [])
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary == {"V_mean": None, "V_spread": None, "phase": None, "V_predicted": None, "steps": 5}


# Criterion 9's waited Ring(24) through simulate, trajectory on: exact, and
# in fast mode at speed 0.7, whose float moves come out as 0.7000000000000002
# and the like. The fields have waits, so both run the scalar engine with
# TrajectoryWriter. The digests pin the files' bytes, blocked flags included.
GOLDEN_FIELD = {
    "positions": [str(k) for k in range(0, 24, 3)],
    "waits": [1, 0, 0, 0, 1, 0, 0, 0],
    "top_speed": "1",
}
GOLDEN_EXACT_CFG = {
    "domain": {"kind": "ring", "length": "24"},
    "obstacles": {**GOLDEN_FIELD, "velocities": ["1", "1/2"] * 4},
    "particles": {"equispaced": {"count": 10, "offset": "1/4"}},
    "steps": 60,
}
GOLDEN_FAST_CFG = {
    **GOLDEN_EXACT_CFG,
    "mode": "fast",
    "obstacles": {**GOLDEN_FIELD, "velocities": ["0.7"] * 8},
    "particles": {"equispaced": {"count": 10, "offset": "0.1"}},
}
GOLDEN = {
    "exact": (
        GOLDEN_EXACT_CFG,
        "52fbe7c9962988ed86e3a404446be02ed3b46ca18316ce3ed3adcf4bba5ba9b1",
        "c7af7bd24feec4b456903625b75bca1e5f6f028617e10f41f9dd8e67e9a4f03d",
    ),
    "fast": (
        GOLDEN_FAST_CFG,
        "0c065480e1e56463874fcba723a5daea8c9eee63eff32a0fab0bb69486bb7b35",
        "fccab4eed967062cc822ce9245bef05111d368be692504481ed5884aa49b3308",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_simulate_output_bytes_are_pinned(tmp_path, mode):
    payload, trajectory_sha, summary_sha = GOLDEN[mode]
    out = tmp_path / mode
    assert main(["simulate", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert any(row[4] == "1" for row in rows)
    if mode == "fast":
        assert any(row[3] == "0.7000000000000002" for row in rows)
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert (digest("trajectory.csv"), digest("simulate_summary.json")) == (trajectory_sha, summary_sha)


def test_extend_outputs(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "ext"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "extended.csv")
    assert header == ("position", "kind", "segment_velocity")
    assert {r[1] for r in rows} == {"real", "virtual"}
    assert len(rows) == 12
    summary = json.loads((out / "extend_summary.json").read_text())
    assert summary["bounds_pass"] is True
    assert summary["rho_z"] == "1/4"
    assert summary["rho_z_ext"] == "1"


# criterion 1's field: a 600-ring with an obstacle every 3 units
CRITERION_1_CFG = {
    "domain": {"kind": "ring", "length": "600"},
    "obstacles": {"generator": "equispaced", "params": {"spacing": "3"}},
    "particle_offset": "0.5",
}


@pytest.mark.parametrize(
    "mode, sweep",
    [
        ("exact", "ring"),
        ("fast", "ring"),
        ("fast", "waited"),
        ("fast", "no burn-in"),
        ("fast", "long burn-in"),
        ("fast", "criterion 1"),
    ],
    ids=["exact", "fast", "fast-waited", "fast-no-burn-in", "fast-burn-in-100", "fast-criterion-1-burn-in-5"],
)
def test_fd_sweep_monotone_and_merged(tmp_path, mode, sweep):
    config, args = {
        # five points of 3, 7, 10, 14 and 18 particles: one batch; batches of
        # 25 and 27 particles; of 18, 17 and 17; one point each
        "ring": (RING_CFG, SWEEP_ARGS),
        # a positive wait: each point runs alone in the scalar engine
        "waited": (WAITED_RING_CFG, SWEEP_ARGS),
        # the burn-in ends at the run's first snapshot
        "no burn-in": ({**RING_CFG, "burn_in": 0}, SWEEP_ARGS),
        # each batch stops stepping by step 28, so the snapshot that ends
        # the burn-in is replayed
        "long burn-in": ({**RING_CFG, "burn_in": 100}, SWEEP_ARGS),
        # two points repeat only after the burn-in, at steps 25 and 103, so
        # its snapshot is stepped
        "criterion 1": ({**CRITERION_1_CFG, "burn_in": 5}, ["--rho-min", "0.1", "--rho-max", "2.0", "--points", "5"]),
    }[sweep]
    cfg = write_config(tmp_path, config)
    written = []
    for threads in ("1", "2", "3", "7"):
        out = tmp_path / f"fd{threads}"
        code = main([
            "fd-sweep", "--config", cfg, "--out", str(out), "--steps", "300",
            "--mode", mode, "--threads", threads, *args,
        ])
        assert code == 0
        assert [f.name for f in out.iterdir()] == ["fd.csv"]
        written.append((out / "fd.csv").read_bytes())
    assert written[1:] == written[:1] * 3
    header, rows = read_csv(out / "fd.csv")
    assert header == ("rho_x", "rho_z_ext", "V_measured", "V_predicted", "phase", "steps", "domain_L")
    assert len(rows) == 5
    if sweep in ("ring", "criterion 1"):
        # elsewhere neighbouring points differ by less than a 300-step run's noise
        measured = [F(r[2]) for r in rows]
        assert all(a >= b for a, b in zip(measured, measured[1:]))
    # each row is a burn-in run, then a measured run from where it stopped
    loaded = load_config(cfg, mode_override=mode, steps_override=300)
    for row in rows:
        count = round(F(row[0]) * F(row[6]))
        state = SimState.initial(ParticleConfig.equispaced(loaded.domain, count, loaded.particle_offset))
        burn = run(state, loaded.obstacles, loaded.burn_in)
        traj = run(burn.final_state, loaded.obstacles, loaded.steps)
        assert row[2] == format_scalar(velocity_estimate(traj).mean)


def test_sweep_batches_balance_particle_counts():
    # criterion 1's sweep, 20 points of n = 60..1200, on two workers
    counts = [60 * (k + 1) for k in range(20)]
    batches = _balanced_batches(counts, 2)
    assert sorted(k for batch in batches for k in batch) == list(range(20))
    assert [sum(counts[k] for k in batch) for batch in batches] == [6300, 6300]


def test_fast_mode_generated_field_runs_vectorized(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, GENERATED_RING_CFG)
    loaded = load_config(cfg, mode_override="fast")
    x = ParticleConfig.equispaced(loaded.domain, 60, 0.0)
    assert dynamics._fast_eligible(SimState.initial(x), loaded.obstacles)
    real, calls = dynamics._run_fast, []

    def spy(batch, *rest):
        calls.append((batch.count, rest[1]))
        return real(batch, *rest)

    monkeypatch.setattr(dynamics, "_run_fast", spy)
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(tmp_path / "fd"),
        "--mode", "fast", "--threads", "1", "--rho-min", "0.1", "--rho-max", "0.2", "--points", "2",
    ])
    assert code == 0
    # one call for the batch of both points, its 2-step burn-in included
    assert calls == [(60 + 120, 22)]


# criterion 8's ring with a wait on two of its eight obstacles
WAITED_RING_CFG = {
    "domain": {"kind": "ring", "length": "24"},
    "obstacles": {
        "positions": [str(k) for k in range(0, 24, 3)],
        "waits": [1, 0, 0, 0, 1, 0, 0, 0],
        "velocities": ["1", "1/2"] * 4,
        "top_speed": "1",
    },
    "particle_offset": "1/4",
    "steps": 40,
}


def test_fast_sweep_on_a_waited_field_runs_the_scalar_engine_unchecked(tmp_path, monkeypatch):
    # The vectorized kernel has no waits, so each point of a fast sweep on
    # this field runs alone in the scalar engine, which counts no invariant
    # violations: the sweep's exit-3 gate sees None. Running waits in the
    # kernel (ROADMAP directions 1 and 4) is meant to change both.
    cfg = write_config(tmp_path, WAITED_RING_CFG)
    calls = []
    monkeypatch.setattr(dynamics, "_run_fast", lambda *args: calls.append(args))
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(tmp_path / "fd"),
        "--mode", "fast", "--threads", "1", "--rho-min", "0.25", "--rho-max", "1", "--points", "2",
    ])
    assert code == 0
    assert calls == []
    loaded = load_config(cfg, mode_override="fast")
    points = _fd_points(loaded, 0.5, loaded.particle_offset, [6, 24])
    assert [violations for violations, _ in points] == [None, None]


def test_fast_sweep_whose_lap_counts_could_pass_int64_exits_one(tmp_path, capsys):
    # on a ring of length 2 at top speed 1, 10**20 steps (and a burn-in of
    # 10**19) could carry a particle about 5.5 * 10**19 laps on
    cfg = write_config(
        tmp_path, {"domain": {"kind": "ring", "length": "2"}, "obstacles": {"positions": ["0"]}, "steps": 1}
    )
    out = tmp_path / "fd"
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(out), "--mode", "fast", "--steps", str(10**20),
        "--threads", "2", "--rho-min", "0.5", "--rho-max", "1", "--points", "2",
    ])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: {11 * 10**19} steps could carry a lap count past 2**63 - 1, the kernel's limit\n"
    )


def one_violation_per_replica(real):
    """A _run_fast that reports one invariant violation for each replica of each call."""

    def fake(batch, *rest):
        finals, snapshots, _, cycles = real(batch, *rest)
        return finals, snapshots, [1] * len(batch.states), cycles

    return fake


def test_fd_sweep_invariant_violation_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "_run_fast", one_violation_per_replica(dynamics._run_fast))
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "fd"
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(out),
        "--mode", "fast", "--threads", "1", *SWEEP_ARGS,
    ])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert err == "property violated: fd-sweep point rho_x=0.25: 1 invariant violation"


def test_fd_sweep_rejects_empty_sweep(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(tmp_path / "x"),
        "--rho-min", "0.5", "--rho-max", "1", "--points", "0",
    ])
    assert code == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_fd_sweep_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "fd"
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(out), "--threads", threads, *SWEEP_ARGS,
    ])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"


def test_fd_sweep_rejects_a_density_that_is_not_a_number(tmp_path, capsys):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "fd"
    code = main([
        "fd-sweep", "--config", cfg, "--out", str(out), "--rho-min", "abc", "--rho-max", "1", "--points", "2",
    ])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: cannot parse scalar 'abc'\n"


def test_simulate_counts_burn_in_violations(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_run_fast", one_violation_per_replica(dynamics._run_fast))
    cfg = write_config(tmp_path, {**RING_CFG, "trajectory": False, "burn_in": 20})
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--mode", "fast"]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["invariant_violations"] == 2


def test_couple_series_and_verdict(tmp_path):
    payload = {
        "domain": {"kind": "ring", "length": "12"},
        "obstacles": {
            "positions": ["0", "4", "8"],
            "velocities": ["1", "1", "1"],
            "top_speed": "1",
        },
        "particles": {"random": {"count": 6, "seed": 3, "quantize": 100}},
        "particles_xbar": {"random": {"count": 6, "seed": 4, "quantize": 100}},
        "steps": 400,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "cpl"
    assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "coupling.csv")
    assert header == ("t", "defects_x", "defects_xbar", "pairs", "v_gap_abs", "proper_flag")
    assert len(rows) == 400
    assert all(r[5] == "1" for r in rows)
    diffs = {int(r[1]) - int(r[2]) for r in rows}
    assert diffs == {0}
    summary = json.loads((out / "couple_summary.json").read_text())
    assert summary["initial_defects"] == 12
    assert summary["verdict"] in ("nearly successful", "defects persist")
    # from t=5 every particle moves 1 a step, so the state at t=17 is that of
    # t=5 one lap on. x stands at 0, 5, 7, 9, 10, 11 (mod 12), a set no
    # shift short of a lap maps onto itself, so no relabelling repeats the
    # state sooner: cycle (5, 12, 0, 0), and the rows after it the period's
    mu, lam, s, s_bar = summary["cycle"]
    assert (mu, lam, s, s_bar) == (5, 12, 0, 0)
    assert all(rows[i][1:] == rows[i - lam][1:] for i in range(mu + lam, len(rows)))


def test_zero_range_occupancy_series(tmp_path):
    cfg = write_config(tmp_path, ZERO_RANGE_CFG)
    out = tmp_path / "zr"
    assert main(["zero-range", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "occupancy.csv")
    assert header == ("t", "site", "count")
    assert rows[:3] == [["0", "0", "2"], ["0", "1", "0"], ["0", "2", "1"]]
    assert rows[3:6] == [["1", "0", "2"], ["1", "1", "1"], ["1", "2", "0"]]
    summary = json.loads((out / "zero_range_summary.json").read_text())
    assert summary["particles"] == 3
    assert summary["predicted_velocity"] == 1


def test_zero_range_spacings_are_ignored(tmp_path):
    # no command reads site spacings, so the loader ignores the key, a
    # malformed value too, like any other key it does not name
    plain = load_config(write_config(tmp_path, ZERO_RANGE_CFG, "plain.json"))
    for spacings in (["1", "1/2", "1"], "111"):
        payload = {**ZERO_RANGE_CFG, "zero_range": {**ZERO_RANGE_CFG["zero_range"], "spacings": spacings}}
        assert load_config(write_config(tmp_path, payload, "spaced.json")).zero_range == plain.zero_range


def test_scenario_half_integer_passes(tmp_path):
    out = tmp_path / "scen"
    assert main(["scenario", "half_integer", "--out", str(out)]) == 0
    summary = json.loads((out / "scenario_half_integer.json").read_text())
    assert summary["passed"] is True
    assert summary["details"]["max_denominator"] == 2


def test_scenario_failure_exits_three(tmp_path, monkeypatch):
    def failing(**params):
        return ScenarioResult(
            ScenarioSpec("half_integer", {}, "forced failure"),
            False,
            {"reason": "forced"},
        )

    monkeypatch.setitem(SCENARIOS, "half_integer", failing)
    out = tmp_path / "scen"
    assert main(["scenario", "half_integer", "--out", str(out)]) == 3
    summary = json.loads((out / "scenario_half_integer.json").read_text())
    assert summary["passed"] is False


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert not (tmp_path / "nope.json").exists()


def test_malformed_json_no_partial_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


def test_invalid_domain_kind_no_partial_files(tmp_path):
    cfg = write_config(tmp_path, {**RING_CFG, "domain": {"kind": "torus", "length": "5"}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [
        (["simulate"], {**RING_CFG, "domain": {"kind": "ring"}}, "domain.length"),
        (["simulate"], {**RING_CFG, "obstacles": {"velocities": ["1"]}}, "obstacles.positions"),
        (["simulate"], {**RING_CFG, "steps": "abc"}, "steps"),
        (["simulate"], {**RING_CFG, "particles": {"scaled": {"alpha": "2"}}}, "particles.scaled.base"),
        (
            ["simulate"],
            {**RING_CFG, "particles": {"scaled": {"base": RING_CFG["particles"]}}},
            "particles.scaled.alpha",
        ),
        (["zero-range"], {**RING_CFG, "zero_range": {"ring": True}}, "zero_range.occupancy"),
        (["couple"], {**COUPLE_CFG, "defect_threshold": "abc"}, "defect_threshold"),
        (["zero-range"], {**RING_CFG, "zero_range": {"occupancy": [2, "x", 1]}}, "zero_range.occupancy"),
        (
            ["extend"],
            {**GENERATED_RING_CFG, "obstacles": {"generator": "equispaced", "params": {"spacing": "3", "bogus": 1}}},
            "bogus",
        ),
        (
            ["extend"],
            {**GENERATED_RING_CFG, "obstacles": {"generator": "poisson", "params": {"rate": "abc", "seed": 1}}},
            "obstacles.params.rate",
        ),
        (
            ["simulate"],
            {**RING_CFG, "particles": {"random": {"count": 4, "seed": 1, "quantize": "x"}}},
            "quantize",
        ),
        (["scenario", "half_integer"], {"params": {"steps": "abc"}}, "steps"),
        (["scenario", "half_integer"], {"params": {"bogus": 1}}, "bogus"),
        (["simulate"], {**RING_CFG, "obstacles": {"positions": "048"}}, "obstacles.positions"),
        (["simulate"], {**RING_CFG, "obstacles": {"positions": ["0"], "waits": "0"}}, "obstacles.waits"),
        (["simulate"], {**RING_CFG, "obstacles": {"positions": ["0"], "velocities": "1"}}, "obstacles.velocities"),
        (["simulate"], {**RING_CFG, "particles": {"positions": "136"}}, "particles.positions"),
        (["zero-range"], {**RING_CFG, "zero_range": {"occupancy": "201"}}, "zero_range.occupancy"),
        (["simulate"], {**RING_CFG, "domain": "ring"}, "domain"),
        (["simulate"], {**RING_CFG, "particles": {"equispaced": 5}}, "particles.equispaced"),
        (["couple"], {**RING_CFG, "particles_xbar": 3}, "particles_xbar"),
        (["simulate"], {**RING_CFG, "out": 5}, "out"),
        (["simulate"], {**RING_CFG, "steps": 2.7}, "steps"),
        (["simulate"], {**RING_CFG, "steps": True}, "steps"),
        (["simulate"], {**RING_CFG, "burn_in": 1.5}, "burn_in"),
        (
            ["simulate"],
            {**RING_CFG, "particles": {"equispaced": {"count": 2.5}}},
            "particles.equispaced.count",
        ),
        (["simulate"], {**RING_CFG, "trajectory": "false"}, "trajectory"),
        (["zero-range"], {**RING_CFG, "zero_range": {"occupancy": [2, 0, 1], "ring": "false"}}, "zero_range.ring"),
        (["couple"], {**COUPLE_CFG, "defect_threshold": True}, "defect_threshold"),
        (["scenario", "half_integer"], {"params": {"steps": 2.5}}, "params.steps"),
        (
            ["simulate", "--mode", "fast"],
            {**RING_CFG, "particles": {"equispaced": {"count": 3, "offset": float("inf")}}},
            "particles.equispaced.offset",
        ),
        (["simulate"], IRREGULAR_ON_RING_CFG, "obstacles.generator 'irregular_example' builds its field on line [0, 20)"),
        (["extend"], IRREGULAR_ON_RING_CFG, "obstacles.generator 'irregular_example' builds its field on line [0, 20)"),
        (["couple"], {**CRITERION_10_CFG, "mode": "fast", "steps": 5}, "need exact input"),
    ],
    ids=[
        "no-domain-length",
        "no-obstacle-positions",
        "steps-not-an-integer",
        "scaled-without-base",
        "scaled-without-alpha",
        "zero-range-without-occupancy",
        "threshold-not-a-number",
        "occupancy-not-integers",
        "generator-unknown-param",
        "poisson-rate-not-a-number",
        "quantize-not-an-integer",
        "scenario-steps-not-an-integer",
        "scenario-unknown-param",
        "obstacle-positions-a-string",
        "waits-a-string",
        "velocities-a-string",
        "particle-positions-a-string",
        "occupancy-a-string",
        "domain-a-string",
        "equispaced-a-number",
        "particles-xbar-a-number",
        "out-a-number",
        "steps-a-fraction",
        "steps-a-boolean",
        "burn-in-a-fraction",
        "count-a-fraction",
        "trajectory-a-string",
        "zero-range-ring-a-string",
        "threshold-a-boolean",
        "scenario-steps-a-fraction",
        "fast-offset-not-finite",
        "simulate-generated-field-off-the-domain",
        "extend-generated-field-off-the-domain",
        "couple-fast-mode",
    ],
)
def test_config_errors_exit_one_with_one_line(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    # a config's own out entry is read only when --out is not given
    where = [] if "out" in payload else ["--out", str(out)]
    assert main([*command, "--config", cfg, *where]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["fd-sweep", "--rho-min", "0.1", "--rho-max", "1"], "fd-sweep: the following arguments are required: --points"),
        (["simulate", "--steps", "x"], "simulate: argument --steps: invalid int value: 'x'"),
        ([], "contasep: the following arguments are required: command"),
    ],
    ids=["fd-sweep-without-points", "steps-not-an-integer", "no-command"],
)
def test_argument_errors_exit_one_with_one_line(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "out"
    config = ["--config", cfg, "--out", str(out)] if argv else []
    assert main([*argv, *config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: contasep") and err.count("\n") == 1
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["fd-sweep", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: contasep")


# The base of the config fuzz test: the top-level keys the loader reads, at
# most 8 particles a side and at most 5 steps. Every draw changes or deletes
# one to three entries of it.
FUZZ_CFG = {
    **COUPLE_CFG,
    "mode": "exact",
    "steps": 5,
    "burn_in": 1,
    "top_speed": "1",
    "trajectory": True,
    "particle_offset": "0.25",
    "defect_threshold": "0.1",
    "zero_range": {"occupancy": [2, 0, 1], "ring": True},
}
FUZZ_OBSTACLES = [
    FUZZ_CFG["obstacles"],
    {"generator": "equispaced", "params": {"spacing": "4", "velocity": "1", "wait": 1}},
    {"generator": "poisson", "params": {"rate": 0.5, "seed": 3, "quantize": 4}},
]
FUZZ_VALUES = [None, True, False, 0, 1, 3, -1, 2.5, "2", "1/2", "x", "fast", "line", [], [1, 2], {}, {"count": 2}]
FUZZ_COMMANDS = [
    ["simulate"],
    ["extend"],
    ["couple"],
    ["zero-range"],
    ["fd-sweep", "--threads", "1", "--rho-min", "0.25", "--rho-max", "0.5", "--points", "2"],
]
# one is appended to each draw, whether its command takes it or not
FUZZ_OPTIONS = [
    ["--steps", "3"],
    ["--burn-in", "1"],
    ["--mode", "fast"],
    ["--mode", "exact"],
    ["--seed", "4"],
    ["--threads", "1"],
]


def key_paths(node, prefix=()):
    """Every key path below node: dict keys and list indices."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))


@settings(max_examples=150)
@given(st.data())
def test_fuzzed_configs_exit_cleanly(data):
    payload = copy.deepcopy({**FUZZ_CFG, "obstacles": data.draw(st.sampled_from(FUZZ_OBSTACLES))})
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, last = data.draw(st.sampled_from(sorted(key_paths(payload), key=repr)))
        node = payload
        for key in parents:
            node = node[key]
        if data.draw(st.booleans()):
            del node[last]
        else:
            node[last] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    command = data.draw(st.sampled_from(FUZZ_COMMANDS)) + data.draw(st.sampled_from(FUZZ_OPTIONS))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), payload)
        out = Path(tmp) / "out"
        code = main([*command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert not out.exists()


def test_readme_configs_load_through_the_loader(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 3
    for k, block in enumerate(blocks):
        load_config(write_config(tmp_path, json.loads(block), f"readme{k}.json"))


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("contasep ")
    ]
    assert {shlex.split(line)[1] for line in lines} == set(COMMAND_ARGV)
    for line in lines:
        _parse_args(shlex.split(line)[1:])


# Each command's options besides --config and --out, and a value for each
# shared option; every pair not listed is rejected.
KEPT_OPTIONS = {
    "extend": ("--mode", "--seed"),
    "simulate": ("--steps", "--burn-in", "--mode", "--seed"),
    "fd-sweep": ("--steps", "--burn-in", "--mode", "--seed", "--threads"),
    "couple": ("--steps", "--seed"),
    "zero-range": ("--steps",),
    "scenario": (),
}
OPTION_VALUES = {"--steps": "3", "--burn-in": "1", "--mode": "exact", "--seed": "4", "--threads": "1"}
COMMAND_ARGV = {
    "extend": ["extend"],
    "simulate": ["simulate"],
    "fd-sweep": ["fd-sweep", *SWEEP_ARGS],
    "couple": ["couple"],
    "zero-range": ["zero-range"],
    "scenario": ["scenario", "half_integer"],
}
KEPT_PAIRS = [(c, o) for c, opts in KEPT_OPTIONS.items() for o in ("--config", "--out", *opts)]
REMOVED_PAIRS = [(c, o) for c, opts in KEPT_OPTIONS.items() for o in OPTION_VALUES if o not in opts]


@pytest.mark.parametrize("command, option", REMOVED_PAIRS, ids=[f"{c} {o}" for c, o in REMOVED_PAIRS])
def test_an_option_its_command_does_not_read_exits_one(tmp_path, capsys, command, option):
    assert len(REMOVED_PAIRS) == 16
    cfg = write_config(tmp_path, {**COUPLE_CFG, "zero_range": {"occupancy": [2, 0, 1]}, "steps": 5})
    out = tmp_path / "out"
    argv = [*COMMAND_ARGV[command], "--config", cfg, "--out", str(out), option, OPTION_VALUES[option]]
    assert main(argv) == 1
    sweep_options = [a for a in COMMAND_ARGV[command] if a.startswith("--")]
    takes = ", ".join(("--config", "--out", *KEPT_OPTIONS[command], *sweep_options))
    assert capsys.readouterr().err == f"error: {command} does not take {option}; it takes {takes}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, option", KEPT_PAIRS, ids=[f"{c} {o}" for c, o in KEPT_PAIRS])
def test_an_option_its_command_reads_parses(command, option):
    assert len(KEPT_PAIRS) == 26
    value = OPTION_VALUES.get(option, "x.json")
    args = _parse_args([*COMMAND_ARGV[command], option, value])
    read = getattr(args, option[2:].replace("-", "_"))
    assert str(read) == value


def test_run_coupled_refuses_float_input(tmp_path):
    cfg = load_config(write_config(tmp_path, CRITERION_10_CFG), mode_override="fast")
    with pytest.raises(ConfigurationError, match="need exact input"):
        run_coupled(cfg.particles, cfg.particles_xbar, cfg.obstacles, 1)


def test_fast_mode_runs_fields_with_non_dyadic_speeds(tmp_path):
    cfg = write_config(tmp_path, NON_DYADIC_CFG)
    summaries = {}
    for mode in ("exact", "fast"):
        for command in ("simulate", "extend", "fd-sweep"):
            out = tmp_path / mode / command
            extra = ["--threads", "1", *SWEEP_ARGS] if command == "fd-sweep" else []
            assert main([command, "--config", cfg, "--out", str(out), "--mode", mode, *extra]) == 0
        summaries[mode] = (
            json.loads((tmp_path / mode / "extend" / "extend_summary.json").read_text()),
            json.loads((tmp_path / mode / "simulate" / "simulate_summary.json").read_text()),
        )
    (exact_ext, exact_sim), (fast_ext, fast_sim) = summaries["exact"], summaries["fast"]
    assert exact_ext["points"] == fast_ext["points"] == 43
    assert abs(fast_sim["V_predicted"] - float(Fraction(exact_sim["V_predicted"]))) < 1e-12


def test_generated_field_on_the_config_line_runs(tmp_path):
    cfg = write_config(tmp_path, IRREGULAR_CFG)
    for command in ("simulate", "extend"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0


def test_couple_without_second_side_is_config_error(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    assert main(["couple", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "simulate_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seeded_runs_reproduce_and_reseed_differs(tmp_path):
    payload = {
        "domain": {"kind": "ring", "length": "12"},
        "obstacles": {"generator": "poisson", "params": {"rate": 0.4, "quantize": 100}},
        "particles": {"random": {"count": 4, "quantize": 100}},
        "steps": 50,
    }
    cfg = write_config(tmp_path, payload)
    outs = [tmp_path / n for n in ("s1", "s2", "s3")]
    assert main(["simulate", "--config", cfg, "--out", str(outs[0]), "--seed", "9"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(outs[1]), "--seed", "9"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(outs[2]), "--seed", "10"]) == 0
    a, b, c = (
        (o / "trajectory.csv").read_bytes() for o in outs
    )
    assert a == b
    assert a != c


def test_random_particles_without_seed_is_config_error(tmp_path):
    payload = {
        "domain": {"kind": "ring", "length": "12"},
        "particles": {"random": {"count": 4}},
        "steps": 10,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_fast_mode_override(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    out = tmp_path / "fast"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--mode", "fast"]) == 0
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert abs(float(summary["V_mean"]) - 1.0) < 0.02


def run_child(script, *args, **env):
    """Run a Python script in a fresh interpreter that imports this contasep,
    with env's variables set on top of this process's."""
    env = {**os.environ, "PYTHONPATH": str(Path(contasep.__file__).parents[1]), **env}
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )


# Runs each argument list (a JSON list) through main; a nonzero exit code ends the script with it.
MAIN_EACH = """
import json, sys
from contasep.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_reruns_are_byte_identical_under_any_hash_seed(tmp_path):
    # The coupled run finds its repeat through a dict keyed by the state, and
    # other commands keep sets and dicts too, so no output may depend on how
    # Python hashes: two children with different hash seeds, run together,
    # and this process must write the same bytes.
    ring = write_config(tmp_path, RING_CFG, "ring.json")
    commands = {
        "couple": ["couple", "--config", write_config(tmp_path, CRITERION_10_CFG, "couple.json")],
        "couple-waited": ["couple", "--config", write_config(tmp_path, WAITED_COUPLE_CFG, "waited.json")],
        "simulate-exact": ["simulate", "--config", write_config(tmp_path, GOLDEN_EXACT_CFG, "exact.json")],
        "simulate-fast": ["simulate", "--config", write_config(tmp_path, GOLDEN_FAST_CFG, "fast.json")],
        "fd-exact": ["fd-sweep", "--config", ring, "--threads", "2", *SWEEP_ARGS],
        "fd-fast": ["fd-sweep", "--config", ring, "--mode", "fast", "--threads", "2", *SWEEP_ARGS],
        "extend": ["extend", "--config", ring],
        "zero-range": ["zero-range", "--config", write_config(tmp_path, ZERO_RANGE_CFG, "zr.json")],
        **{f"scenario-{name}": ["scenario", name] for name in sorted(SCENARIOS)},
        # at levels 4: at its default of 6 it takes about 0.3 s
        "scenario-irregular_density": [
            "scenario", "irregular_density", "--config", write_config(tmp_path, {"params": {"levels": 4}}, "levels.json"),
        ],
    }
    seeds = ("0", "12345")

    def child(seed):
        argvs = [argv + ["--out", str(tmp_path / seed / name)] for name, argv in commands.items()]
        return run_child(MAIN_EACH, json.dumps(argvs), PYTHONHASHSEED=seed)

    with ThreadPoolExecutor(len(seeds)) as pool:
        children = list(pool.map(child, seeds))
    for result in children:
        assert result.returncode == 0, result.stderr
    for name, argv in commands.items():
        assert main(argv + ["--out", str(tmp_path / "here" / name)]) == 0
        here = sorted((tmp_path / "here" / name).iterdir())
        assert here
        for seed in seeds:
            assert sorted(f.name for f in (tmp_path / seed / name).iterdir()) == [f.name for f in here]
            for f in here:
                assert (tmp_path / seed / name / f.name).read_bytes() == f.read_bytes(), (seed, name, f.name)


# MAIN_EACH with numpy unimportable.
WITHOUT_NUMPY = 'import sys\nsys.modules["numpy"] = None\n' + MAIN_EACH


def test_exact_commands_never_load_numpy(tmp_path):
    ring = write_config(tmp_path, RING_CFG, "ring.json")
    coupled = write_config(tmp_path, CRITERION_10_CFG, "couple.json")
    commands = {
        "couple": ["couple", "--config", coupled, "--steps", "20"],
        "simulate": ["simulate", "--config", ring],
        "fd": ["fd-sweep", "--config", ring, "--steps", "100", "--threads", "1", *SWEEP_ARGS],
    }
    child = [argv + ["--out", str(tmp_path / "child" / name)] for name, argv in commands.items()]
    result = run_child(WITHOUT_NUMPY, json.dumps(child))
    assert result.returncode == 0, result.stderr
    for name, argv in commands.items():
        assert main(argv + ["--out", str(tmp_path / "here" / name)]) == 0
        here = sorted((tmp_path / "here" / name).iterdir())
        assert [f.name for f in here] == sorted(f.name for f in (tmp_path / "child" / name).iterdir())
        for f in here:
            assert f.read_bytes() == (tmp_path / "child" / name / f.name).read_bytes()

    imported = run_child("import sys, contasep.cli; print('numpy' in sys.modules)")
    assert imported.stdout == "False\n", imported.stderr


# MAIN_EACH, then prints whether numpy and numpy.ma were loaded.
NUMPY_MA_LOADED = MAIN_EACH + 'print("numpy" in sys.modules, "numpy.ma" in sys.modules)\n'


def test_fast_runs_never_load_numpy_ma(tmp_path):
    ring = write_config(tmp_path, {**RING_CFG, "trajectory": False})
    child = [
        ["fd-sweep", "--config", ring, "--steps", "100", "--mode", "fast", "--threads", "1", *SWEEP_ARGS],
        ["simulate", "--config", ring, "--mode", "fast"],
    ]
    result = run_child(NUMPY_MA_LOADED, json.dumps([argv + ["--out", str(tmp_path / argv[0])] for argv in child]))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True False\n"


# Runs main with a process pool that records whether numpy was loaded when
# the pool was created, that is, before its workers forked.
POOL_SPY = """
import concurrent.futures, sys
loaded = []

class Spy(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("numpy" in sys.modules)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Spy
from contasep.cli import main
code = main(sys.argv[1:])
print(loaded)
sys.exit(code)
"""


def test_fast_sweep_loads_numpy_before_its_pool_forks(tmp_path):
    cfg = write_config(tmp_path, RING_CFG)
    sweep = ["fd-sweep", "--config", cfg, "--steps", "100", "--mode", "fast", *SWEEP_ARGS]
    pooled = run_child(POOL_SPY, *sweep, "--threads", "2", "--out", str(tmp_path / "pooled"))
    assert pooled.returncode == 0, pooled.stderr
    assert pooled.stdout == "[True]\n"
    assert main(sweep + ["--threads", "1", "--out", str(tmp_path / "serial")]) == 0
    assert (tmp_path / "pooled" / "fd.csv").read_bytes() == (tmp_path / "serial" / "fd.csv").read_bytes()


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, as ast sees them: a
    name counts as read where it is loaded or named in a string
    annotation. Imports on a line marked `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        hints = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            every = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs, node.args.vararg, node.args.kwarg]
            hints = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            hints = [node.annotation]
        for hint in hints:
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                read |= {n.id for n in ast.walk(ast.parse(hint.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports the package's public names for its callers
    package = Path(contasep.__file__).parent
    unused = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
    assert unused_imports("import os\nfrom a import b as c, d  # noqa: F401\ndef f(x: 'os.PathLike'): pass\n") == []
    assert unused_imports("from __future__ import annotations\nimport os, re\nre.compile\n") == ["line 2: os"]
    assert unused_imports("from a import (\n    b,\n    c,\n)\nc\n") == ["line 2: b"]
