"""Smoke test of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/smoke.py

Runs every workload for a handful of steps, untraced and traced, and checks
that the result line has the shape BENCHMARK.json promises: every metric it
names, each as exactly a number and its unit, and no failed run. Then checks that the benchmark refuses to run, without a result line,
in a directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_result(spec: dict, workload: str, trace: int) -> list:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace {trace}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{where}: no result line (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"]
    errors = []
    if proc.returncode != 0:
        errors.append(f"{where}: exit code {proc.returncode}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} {failures}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"{where}: metrics differ from BENCHMARK.json by {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        if set(m) != {"value", "unit"}:
            errors.append(f"{where}: {name} has keys {sorted(m)}, expected value and unit")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} is not a finite number")
    return errors


def check_bare_directory(spec: dict) -> list:
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        argv = spec["command"] + ["--workload", "couple-exact", "--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any((BENCH / "_work").iterdir()):
            (BENCH / "_work").rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAIL'}")
            errors += found
    found = check_bare_directory(spec)
    print(f"bare directory refused: {'ok' if not found else 'FAIL'}")
    errors += found
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
