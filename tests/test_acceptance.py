"""Acceptance battery: closed-form flow laws, lattice equivalences, coupling
diagnostics, and constructive scenarios, each at its stated tolerance.

Every test emits one [PASS]/[FAIL] line (visible with -s or on failure).
"""
import math
import random
import time
from fractions import Fraction

import pytest

from contasep import (
    InvariantChecker,
    ObstacleField,
    ParticleConfig,
    Ring,
    SimState,
    build_extended,
    check_extended_bounds,
    classify_phase,
    embed_and_compare,
    extended_density,
    predict_velocity,
    refine_waiting,
    run,
    run_coupled,
    scale_config,
    velocity_estimate,
)
from contasep.scenarios import (
    poisson_obstacles,
    run_adversarial,
    run_half_integer,
)

F = Fraction


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rel_err(measured, target):
    return abs(measured - target) / abs(target)


def cycle_velocity(traj):
    """The exact long-run mean velocity (s + n G) L / (n lam) of a run's
    cycle, or None if the run never repeated."""
    if traj.cycle is None:
        return None
    lam, s, gain = traj.cycle
    n = traj.final_state.count
    return F(s + n * gain) * F(traj.final_state.domain.length) / (n * lam)


@pytest.fixture(scope="module")
def obstacle_ring_sweep():
    """Twenty densities in [0.1, 2.0] on a 600-ring with obstacles every 3."""
    ring = Ring(600.0)
    z = ObstacleField(
        tuple(float(p) for p in range(0, 600, 3)),
        (0,) * 200,
        (1.0,) * 200,
        1.0,
        ring,
    )
    rows = []
    start = time.perf_counter()
    for k in range(20):
        rho = F(k + 1, 10)
        count = int(rho * 600)
        x = ParticleConfig.equispaced(ring, count, 0.5)
        burn = run(SimState.initial(x), z, 1000)
        traj = run(burn.final_state, z, 10_000)
        rows.append((rho, velocity_estimate(traj).mean, traj.invariant_violations, cycle_velocity(traj)))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_flow_law_on_obstacle_ring(obstacle_ring_sweep):
    rows, elapsed = obstacle_ring_sweep
    worst = max(rel_err(v, float(predict_velocity(rho, 1))) for rho, v, _, _ in rows)
    inexact = [str(rho) for rho, _, _, exact in rows if exact != predict_velocity(rho, 1)]
    ok = worst <= 0.02 and elapsed < 60 and not inexact
    report(
        "criterion 1 fundamental diagram",
        ok,
        f"20 densities, worst relative error {worst:.4%}, "
        f"cycle velocity off the flow law at {inexact or 'none'}, wall {elapsed:.1f}s",
    )


def test_criterion_02_phase_split(obstacle_ring_sweep):
    rows, _ = obstacle_ring_sweep
    bad = []
    for rho, v, _, exact in rows:
        phase = classify_phase(rho, 1)
        if rho <= 1:
            good = phase == "gaseous" and rel_err(v, 1.0) <= 0.02 and exact == 1
        else:
            good = phase == "liquid" and rel_err(v, float(1 / rho)) <= 0.02 and exact == 1 / rho
        if not good:
            bad.append(str(rho))
    report(
        "criterion 2 phase split",
        not bad,
        "gaseous plateau then 1/density tail" if not bad else f"off at {bad}",
    )


def test_criterion_03_homogeneous_reduction():
    results, exact = [], []
    for rho, count in ((F(1, 2), 100), (F(2), 400)):
        ring = Ring(200.0)
        x = ParticleConfig.equispaced(ring, count, 0.25)
        z = ObstacleField.empty(ring, 1.5)
        burn = run(SimState.initial(x), z, 1000)
        traj = run(burn.final_state, z, 10_000)
        measured = velocity_estimate(traj).mean
        target = predict_velocity(rho, None, F(3, 2))
        results.append(rel_err(measured, float(target)))
        exact.append(cycle_velocity(traj) == target)
    ok = max(results) <= 0.02 and all(exact)
    report(
        "criterion 3 homogeneous reduction",
        ok,
        f"speed-capped ring, errors {[f'{e:.4%}' for e in results]}, cycle velocity exact {exact}",
    )


def test_criterion_04_extension_density_bounds():
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        length = rng.randint(20, 60)
        rate = rng.uniform(0.3, 0.9)
        vel = rng.choice((F(1), F(1, 2), F(3, 4), F(2)))
        bump = seed
        z = poisson_obstacles(Ring(length), rate, seed=bump, quantize=100, velocity=vel)
        while z.count == 0:
            bump += 1000
            z = poisson_obstacles(Ring(length), rate, seed=bump, quantize=100, velocity=vel)
        if not check_extended_bounds(z).all_ok:
            report("criterion 4 extension bounds", False, f"seed {seed} violates")
        checked += 1
    report("criterion 4 extension bounds", checked == 100, f"{checked} seeded fields, exact")


def test_criterion_05_lattice_equivalence():
    rng = random.Random(1234)
    for trial in range(50):
        length = rng.randint(5, 40)
        n = rng.randint(1, 15)
        pos = sorted(rng.randrange(length) for _ in range(n))
        x = ParticleConfig.from_iterable(pos, Ring(length))
        rep = embed_and_compare(x, 1000)
        if not rep.equal:
            report("criterion 5 lattice equivalence", False, f"trial {trial}: {rep.detail}")
    report("criterion 5 lattice equivalence", True, "50 integer configs, 1000 steps, bit-exact")


def test_criterion_06_left_shift_law():
    rng = random.Random(5)
    for trial in range(20):
        length = rng.randint(8, 20)
        ring = Ring(length)
        k = rng.randint(2, 5)
        pos = tuple(F(p, 2) for p in sorted(rng.sample(range(2 * length), k)))
        waits = tuple(rng.randint(0, 2) for _ in range(k))
        vels = tuple(rng.choice((F(1), F(1, 2), F(3, 4))) for _ in range(k))
        z = ObstacleField(pos, waits, vels, 1, ring)
        ext = build_extended(refine_waiting(z))
        state = run(SimState.initial(ParticleConfig.from_iterable(ext.positions, ring)), z, 1).final_state
        got = tuple(sorted(p % length for p in state.reps))
        shifted = tuple(ext.positions[1:]) + (ext.positions[0] + length,)
        want = tuple(sorted(p % length for p in shifted))
        if got != want:
            report("criterion 6 left shift", False, f"trial {trial} diverged")
    report("criterion 6 left shift", True, "20 extended fields advance by one index, exact")


def test_criterion_07_density_scaling():
    length = 60
    ring = Ring(length)
    z_exact = ObstacleField(tuple(range(0, length, 3)), (0,) * 20, (1,) * 20, 1, ring)
    base = ParticleConfig.from_iterable(build_extended(z_exact).positions, ring)
    ring_f = Ring(float(length))
    z = ObstacleField(
        tuple(float(p) for p in z_exact.positions), (0,) * 20, (1.0,) * 20, 1.0, ring_f
    )
    errors = []
    for alpha, target in ((F(1, 2), 1.0), (F(1), 1.0), (F(3, 2), 2 / 3)):
        scaled = scale_config(base, alpha)
        x = ParticleConfig.from_iterable((float(p) for p in scaled.positions), ring_f)
        burn = run(SimState.initial(x), z, 500)
        traj = run(burn.final_state, z, 5000)
        errors.append(rel_err(velocity_estimate(traj).mean, target))
    ok = max(errors) <= 0.02
    report(
        "criterion 7 density scaling",
        ok,
        f"factors 1/2, 1, 3/2 vs speeds 1, 1, 2/3; errors {[f'{e:.4%}' for e in errors]}",
    )


def test_criterion_08_mixed_speeds_and_waits():
    length = 24
    ring = Ring(length)
    positions = tuple(range(0, length, 3))
    vels = tuple(F(1) if k % 2 == 0 else F(1, 2) for k in range(8))
    mixes = ((0,) * 8, (1,) + (0,) * 7, (1, 0, 0, 0, 1, 0, 0, 0))
    errors = []
    for waits in mixes:
        z = ObstacleField(positions, waits, vels, 1, ring)
        rho_ext = extended_density(z)
        for count in (6, 48):
            x = ParticleConfig.equispaced(ring, count, F(1, 4))
            burn = run(SimState.initial(x), z, 400)
            traj = run(burn.final_state, z, 4000)
            measured = velocity_estimate(traj).mean
            predicted = predict_velocity(F(count, length), rho_ext, 1)
            errors.append(float(rel_err(measured, predicted)))
    ok = max(errors) <= 0.03
    report(
        "criterion 8 mixed speeds and waits",
        ok,
        f"six runs over three wait mixes, worst error {max(errors):.4%}",
    )


def test_criterion_09_step_invariants_everywhere(obstacle_ring_sweep):
    rows, _ = obstacle_ring_sweep
    fast_violations = sum(v for _, _, v, _ in rows)

    audited = 0
    ring = Ring(24)
    z_mixed = ObstacleField(
        tuple(range(0, 24, 3)),
        (1, 0, 0, 0, 1, 0, 0, 0),
        tuple(F(1) if k % 2 == 0 else F(1, 2) for k in range(8)),
        1,
        ring,
    )
    checker = InvariantChecker(z_mixed)
    state = SimState.initial(ParticleConfig.equispaced(ring, 10, F(1, 4)))
    run(state, z_mixed, 400, observers=(checker,))
    audited += len(checker.violations)

    rng = random.Random(77)
    for _ in range(10):
        length = rng.randint(5, 14)
        ring = Ring(length)
        n = rng.randint(1, 8)
        x = ParticleConfig.from_iterable(
            sorted(F(rng.randrange(4 * length), 4) for _ in range(n)), ring
        )
        k = rng.randint(1, 3)
        zpos = tuple(sorted(rng.sample([F(p, 2) for p in range(2 * length)], k)))
        z = ObstacleField(
            zpos,
            tuple(rng.randint(0, 2) for _ in range(k)),
            tuple(rng.choice((F(1), F(1, 2), F(2))) for _ in range(k)),
            2,
            ring,
        )
        chk = InvariantChecker(z)
        run(SimState.initial(x), z, 60, observers=(chk,))
        audited += len(chk.violations)

    total = fast_violations + audited
    report(
        "criterion 9 step invariants",
        total == 0,
        f"{total} violations across sweep and audited runs",
    )


def test_criterion_10_coupling_diagnostics():
    length = 100
    ring = Ring(length)
    z = poisson_obstacles(ring, 0.35, seed=13, quantize=100, velocity=4)
    assert z.count == 37
    assert extended_density(z) == F(49, 100)

    def draw(seed, count):
        rng = random.Random(seed)
        pts = [
            F(round(rng.uniform(0.0, float(length)) * 100), 100) % length
            for _ in range(count)
        ]
        return ParticleConfig.from_iterable(pts, ring)

    steps = 10_000
    diag = run_coupled(draw(21, 50), draw(22, 50), z, steps)
    final_gap = diag.rows[-1][4] / steps
    bound = 5 * 4 / steps * 10
    balanced = all(row[1] == row[2] for row in diag.rows)
    proper = all(row[5] == 1 for row in diag.rows)
    # the coupled state at t=49 is that of t=48 with each particle in its
    # successor's place on both sides, up to whole laps: cycle (48, 1, 1, 1).
    # So the run is periodic from t=48, and with 50 particles a side the
    # labelled state repeats after lam * lcm(50/gcd(50, 1), 50/gcd(50, 1)) = 50
    # steps, the state of t=98 being that of t=48. 1+1 defects on every step
    # of the period make the final count exact for every later step, not
    # only up to step 10^4
    mu, lam, s, s_bar = diag.cycle
    n = 50
    labelled_period = lam * math.lcm(n // math.gcd(n, s), n // math.gcd(n, s_bar))
    period_defects = {row[1:3] for row in diag.rows[mu : mu + labelled_period]}
    ok = (
        diag.nearly_successful
        and diag.final_defects < 0.1 * diag.initial_defects
        and balanced
        and proper
        and final_gap < bound
        and diag.cycle == (48, 1, 1, 1)
        and labelled_period == 50
        and period_defects == {(1, 1)}
    )
    report(
        "criterion 10 coupling diagnostics",
        ok,
        f"defects {diag.initial_defects} -> {diag.final_defects}, "
        f"velocity gap {float(final_gap):.6f} < {bound}, proper throughout, "
        f"periodic from t={mu} with period {lam} up to a relabelling ({labelled_period} as labelled), "
        f"defects {period_defects} on the period",
    )


def test_waited_coupling_keeps_integrity():
    # criterion 10's instance with waits drawn from 0-w by random.Random(w),
    # for w = 1, 2, 3; each run raises on any improper pair, and the verdict
    # is reported, not asserted
    ring = Ring(100)
    field = poisson_obstacles(ring, 0.35, seed=13, quantize=100, velocity=4)

    def draw(seed, count):
        rng = random.Random(seed)
        pts = [F(round(rng.uniform(0.0, 100.0) * 100), 100) % 100 for _ in range(count)]
        return ParticleConfig.from_iterable(pts, ring)

    steps, details, ok = 10_000, [], True
    for top in (1, 2, 3):
        rng = random.Random(top)
        waits = tuple(rng.randint(0, top) for _ in range(field.count))
        z = ObstacleField(field.positions, waits, field.velocities, field.top_speed, ring)
        diag = run_coupled(draw(21, 50), draw(22, 50), z, steps)
        balanced = all(row[1] == row[2] for row in diag.rows)
        proper = all(row[5] == 1 for row in diag.rows)
        ok = ok and balanced and proper and len(diag.rows) == steps and diag.cycle is not None
        details.append(
            f"waits 0-{top} ({sum(waits)} in all): cycle {diag.cycle}, "
            f"defects {diag.initial_defects} -> {diag.final_defects} ({diag.verdict})"
        )
    report("waited coupling integrity", ok, f"{steps} steps each, proper and balanced throughout; " + "; ".join(details))


def test_criterion_11_half_integer_support():
    result = run_half_integer(steps=100)
    ok = result.passed and all(d <= 2 for _, d in result.rows)
    report(
        "criterion 11 half-integer support",
        ok,
        f"100 exact steps, max denominator {result.details['max_denominator']}",
    )


def test_criterion_12_adversarial_schedule():
    result = run_adversarial(steps=200)
    growth = all(sep >= F(t, 10) for t, sep, _, _ in result.rows)
    ok = result.passed and growth
    report(
        "criterion 12 adversarial schedule",
        ok,
        f"separation(t) >= t/10 up to t=200, final {result.details['final_separation']}",
    )
