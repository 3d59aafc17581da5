"""contasep benchmark: CLI workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload couple-exact --seed 0 --seconds 55 --trace 0

Run from the root of a checkout. Each run generates the workload's config from
the seed, runs the `contasep` CLI on it once to warm up, then again and again
in fresh processes until --seconds have passed, and checks every run's outputs
against reference.json and against the first run's bytes.

--trace 0 reports the end-to-end metrics over the timed runs;
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics (medians over the traced runs). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A record of the inputs,
their descriptors and every run goes to perfbench/results/.

--record re-runs every input variant once and rewrites reference.json; use it
only when a change to the program's output values is intended.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
INVOCATION_TIMEOUT_S = 120

sys.path[:0] = [str(BENCH), str(SRC)]
from workloads import SWEEP_COUNTS, SWEEP_THREADS, VARIANTS, WORKLOADS, describe  # noqa: E402

# Per-layer self times, in seconds, of layers that every workload calls.
SELF_TIME_METRICS = {
    "dynamics.step_s": ("dynamics.run", "dynamics.step", "dynamics.run_fast"),
    "cli.load_config_s": ("cli.load_config",),
    "cli.write_s": ("cli.write",),
    "scenarios.generate_s": ("scenarios.generate",),
}

# Self times of layers that only some workloads call, as a share of the traced
# process's wall time. Every metric of the result line is a number on every
# workload, and a layer that is not called takes a measured share of 0.
SHARE_METRICS = {
    "coupling.is_proper_share": ("coupling.is_proper",),
    "coupling.detect_overtakes_share": ("coupling.detect_overtakes",),
    "coupling.apply_pairing_share": ("coupling.apply_pairing",),
    "coupling.loop_share": ("coupling.run_coupled",),
    "core.extended_density_share": ("core.extended_density", "core.build_extended"),
    "stats.estimate_share": ("stats.estimate",),
}

# Per-layer counts: (span name, counter key or None for the number of calls).
# A layer that is not called counts 0.
COUNT_METRICS = {
    "coupling.overtake_events": ("coupling.detect_overtakes", "events"),
    "coupling.pair_changes": ("coupling.apply_pairing", "pair_changes"),
    "cli.load_config_calls": ("cli.load_config", None),
    "cli.bytes_written": ("cli.write", "bytes"),
    "core.extended_points": ("core.build_extended", "points"),
}

@dataclass
class Invocation:
    kind: str  # timed (untraced), single (untraced, one process) or traced
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    errors: list
    trace: dict | None = None
    digests: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def invoke(workload, kind: str, config: Path, work: Path, index: int, reference) -> Invocation:
    """One CLI process: time it, read its peak RSS, check and fingerprint its output."""
    out = work / f"out{index}"
    report = work / f"report{index}"
    stderr_path = work / f"stderr{index}"
    launcher = "trace" if kind == "traced" else "setup"
    argv = [sys.executable, str(BENCH / "launch.py"), launcher, str(report)]
    argv += workload.cli_args(config, out, single_process=kind != "timed")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    errors = []
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        errors.append(f"exit code {proc.returncode}: {' '.join(tail)}")
    else:
        errors.extend(workload.check(out, reference))
    setup = trace = None
    if launcher == "setup":
        try:
            setup = min(float(line) for line in report.read_text().split()) - start
        except (OSError, ValueError):
            errors.append("the step engine was never entered (no set-up marker)")
    else:
        try:
            trace = json.loads(report.read_text())
        except (OSError, ValueError) as exc:
            errors.append(f"no span report: {exc!r}")
    digests = _digests(out) if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    for path in (report, stderr_path):
        path.unlink(missing_ok=True)
    cpu = usage.ru_utime + usage.ru_stime
    return Invocation(kind, wall, setup, usage.ru_maxrss / 1024, cpu, errors, trace, digests)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(workload, runs: list) -> dict:
    timed = [r for r in runs if r.kind == "timed" and not r.errors]
    if not timed:
        return {}
    # The host's CPU speed switches between states up to about 1.7x apart, for
    # seconds to minutes, so a run's mean or median follows whichever state
    # dominated that run. The fastest process is the least disturbed one, as in
    # timeit's best of N: over ten seeds its spread was at most 0.16 of its
    # median on either workload, the mean's up to 0.29.
    return {
        "wall_s": min(r.wall_s for r in timed),
        "setup_s": statistics.median(r.setup_s for r in timed),
        "particle_steps_per_s": workload.particle_steps() / min(r.wall_s - r.setup_s for r in timed),
        "peak_rss_mb": statistics.median(r.rss_mb for r in timed),
    }


def layer_metrics(trace: dict, wall: float) -> tuple:
    """Per-layer values from one traced run's spans, and notes on hooks not found.

    A wrapped name the program no longer has leaves its time in the calling
    span; a count or share taken from it reads 0, and the note says why.
    """
    spans, missing = trace["spans"], trace["missing"]
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    by_name: dict = {}
    for s, own in zip(spans, self_time):
        by_name.setdefault(s[0], []).append((s, own))

    def own_time(names):
        return sum(own for n in names for _, own in by_name.get(n, []))

    values, notes = {}, {}
    for hook, span in missing.items():
        for metric, names in {**SELF_TIME_METRICS, **SHARE_METRICS}.items():
            if span in names:
                notes[metric] = f"{hook} not found"
        for metric, (name, _) in COUNT_METRICS.items():
            if span == name:
                notes[metric] = f"{hook} not found"

    for metric, names in SELF_TIME_METRICS.items():
        values[metric] = own_time(names)
    for metric, names in SHARE_METRICS.items():
        values[metric] = own_time(names) / wall
    for metric, (name, key) in COUNT_METRICS.items():
        hits = by_name.get(name, [])
        values[metric] = len(hits) if key is None else sum(s[4][key] for s, _ in hits)

    runs = [s for s, _ in by_name.get("dynamics.run", [])]
    coupled = [s for s, _ in by_name.get("coupling.run_coupled", [])]
    steps = sum(s[4]["n"] * s[4]["steps"] for s in runs) + sum(s[4]["particle_steps"] for s in coupled)
    fast = sum(s[4]["particle_steps"] for s, _ in by_name.get("dynamics.run_fast", []))
    values["dynamics.particle_steps"] = steps
    values["dynamics.us_per_particle_step"] = values["dynamics.step_s"] / steps * 1e6 if steps else 0.0
    values["dynamics.vectorized_share"] = fast / steps if steps else 0.0
    if not steps:
        notes["dynamics.us_per_particle_step"] = notes["dynamics.vectorized_share"] = "no particle-steps seen"
    if "dynamics._run_fast" in missing:
        notes["dynamics.vectorized_share"] = "dynamics._run_fast not found"

    # Extra values, printed and recorded but not in BENCHMARK.json: only the
    # sweep has them, and the result line must hold a number on every workload.
    for n in SWEEP_COUNTS:
        point = [s for s in runs if s[4]["n"] == n]
        if point and sum(s[4]["steps"] for s in point):
            values[f"dynamics.us_per_step.n{n}"] = (
                sum(s[2] - s[1] for s in point) / sum(s[4]["steps"] for s in point) * 1e6
            )

    values["trace.unattributed_s"] = wall - sum(self_time)
    return values, notes


def per_layer_metrics(workload, runs: list) -> tuple:
    traced = [r for r in runs if r.kind == "traced" and not r.errors]
    samples = [layer_metrics(r.trace, r.wall_s) for r in traced]
    values, notes = {}, {}
    for _, sample_notes in samples:
        notes.update(sample_notes)
    for metric in dict.fromkeys(name for s, _ in samples for name in s):
        values[metric] = statistics.median(s[metric] for s, _ in samples if metric in s)

    base_kind = "single" if workload.name == "sweep-fast" else "timed"
    untraced = _median(r.wall_s for r in runs if r.kind == base_kind and not r.errors)
    traced_wall = _median(r.wall_s for r in traced)
    if untraced is not None and traced_wall is not None:
        values["trace.overhead_s"] = traced_wall - untraced
    if workload.name == "sweep-fast":
        pooled = _median(r.wall_s for r in runs if r.kind == "timed" and not r.errors)
        if pooled and untraced:
            values["cli.pool_efficiency"] = untraced / (SWEEP_THREADS * pooled)
    return values, notes


def _load_reference(size: str, workload) -> dict | None:
    try:
        table = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None
    return table.get(size, {}).get(workload.name, {}).get(str(workload.variant))


def _write_config(workload, work: Path) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")
    return path


@contextlib.contextmanager
def _scratch():
    """A private directory under perfbench/_work, removed with everything in it."""
    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def bench(args) -> int:
    size = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload](args.seed, size)
    reference = _load_reference(size, workload)
    with _scratch() as work:
        config = _write_config(workload, work)
        if args.trace:
            cycle = ["timed", "single", "traced"] if workload.name == "sweep-fast" else ["timed", "traced"]
        else:
            cycle = ["timed"]
        runs = [invoke(workload, cycle[0], config, work, 0, reference)]
        runs[0].kind = "warm-up"
        start, rounds = time.monotonic(), 0
        while rounds < 3 or time.monotonic() - start < args.seconds:
            for kind in cycle:
                runs.append(invoke(workload, kind, config, work, len(runs), reference))
            rounds += 1
        # After the runs: a child's peak RSS counts this process's RSS at the
        # fork, so the program is not imported here before they finish.
        try:
            descriptors = describe(workload, config)
        except Exception as exc:  # recorded, not fatal: the runs above checked the program
            descriptors = {"error": repr(exc)}

    for run in runs[1:]:
        if runs[0].digests and run.digests != runs[0].digests:
            changed = sorted(k for k in run.digests.keys() | runs[0].digests.keys()
                             if run.digests.get(k) != runs[0].digests.get(k))
            run.errors.append(f"output differs from the first run in {changed}")
    failed = sum(1 for r in runs if r.errors)

    if args.trace:
        values, notes = per_layer_metrics(workload, runs)
    else:
        values, notes = end_to_end_metrics(workload, runs), {}
    metrics = {}
    for spec in json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]:
        name = spec["name"]
        # None only when no run succeeded, and then the run has failed anyway.
        metrics[name] = {"value": values.pop(name, None), "unit": spec["unit"]}
        if metrics[name]["value"] is None:
            notes[name] = "no successful run"
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": workload.variant,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config,
        "descriptors": descriptors,
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
        },
        "runs": [
            {"kind": r.kind, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s,
             "peak_rss_mb": r.rss_mb, "errors": r.errors}
            for r in runs
        ],
        "notes": notes,
        "extra_metrics": values,
        "result": result,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-{size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for r in runs:
        for error in r.errors:
            print(f"FAILED {r.kind} run: {error}")
    print(f"{'fail_share':34s} {failed / len(runs):.4g} ratio ({failed} of {len(runs)} runs)")
    for name, m in metrics.items():
        shown = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {shown} {m['unit']}" + (f"  ({notes[name]})" if name in notes else ""))
    for name, value in values.items():
        print(f"{name:34s} {value:.6g} (extra, not in BENCHMARK.json)")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def record_references() -> int:
    """Run every variant once and rewrite reference.json from its outputs."""
    table = {}
    with _scratch() as work:
        for size, variants in (("full", range(VARIANTS)), ("smoke", [0])):
            for name, cls in WORKLOADS.items():
                for variant in variants:
                    workload = cls(variant, size)
                    out = work / "out"
                    argv = [sys.executable, "-m", "contasep"] + workload.cli_args(_write_config(workload, work), out)
                    env = dict(os.environ, PYTHONPATH=str(SRC))
                    subprocess.run(argv, check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
                    values = workload.extract(out)
                    errors = workload.property_errors(values)
                    if errors:
                        raise SystemExit(f"{name} variant {variant}: {errors}")
                    table.setdefault(size, {}).setdefault(name, {})[str(variant)] = values
                    shutil.rmtree(out)
                    print(f"recorded {size} {name} variant {variant}")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a handful of steps, for the smoke test")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "contasep" / "cli.py").is_file():
        print(f"error: no contasep sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
