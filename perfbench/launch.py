"""Run `contasep.cli.main` in this process, with a setup marker or with layer spans.

    python3 launch.py setup <marker-file> <contasep arguments...>
    python3 launch.py trace <span-file>   <contasep arguments...>

setup: the first call into the step engine appends time.monotonic() to the
marker file, once per process (sweep workers are forked and write their own
line), then unhooks itself, so the rest of the run is untouched.

trace: wraps the module-level entry points of each layer, keeps one span per
call in memory, and writes them as JSON when main returns. A name the
program no longer has is listed under "missing" instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name). The span name's prefix is the layer.
TRACE_POINTS = (
    ("contasep.cli", "load_config", "cli.load_config"),
    ("contasep.cli", "_write_csv", "cli.write"),
    ("contasep.cli", "_fd_point", "cli.fd_point"),
    ("contasep.cli", "make_obstacles", "scenarios.generate"),
    ("contasep.cli", "extended_density", "core.extended_density"),
    ("contasep.core", "build_extended", "core.build_extended"),
    ("contasep.cli", "velocity_estimate", "stats.estimate"),
    ("contasep.cli", "predict_velocity", "stats.estimate"),
    ("contasep.cli", "classify_phase", "stats.estimate"),
    ("contasep.cli", "run", "dynamics.run"),
    ("contasep.dynamics", "_step_scalar", "dynamics.step"),
    ("contasep.dynamics", "_run_fast", "dynamics.run_fast"),
    ("contasep.cli", "run_coupled", "coupling.run_coupled"),
    ("contasep.coupling", "_step_scalar", "dynamics.step"),
    ("contasep.coupling", "detect_overtakes", "coupling.detect_overtakes"),
    ("contasep.coupling", "apply_pairing", "coupling.apply_pairing"),
    ("contasep.coupling", "is_proper", "coupling.is_proper"),
)

# Where the step engine is entered: the end of set-up.
SETUP_POINTS = (("contasep.cli", "run"), ("contasep.cli", "run_coupled"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pair_changes(args, kwargs, result):
    old, new = _arg(args, kwargs, 0, "state").pairing, result.pairing
    return {"pair_changes": sum(1 for i in old.keys() | new.keys() if old.get(i) != new.get(i))}


# Counts taken from a call's arguments and result, after its span has closed.
COUNTERS = {
    "cli.write": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "core.build_extended": lambda a, k, r: {"points": r.count},
    "dynamics.run": lambda a, k, r: {
        "n": _arg(a, k, 0, "state").count,
        "steps": _arg(a, k, 2, "steps"),
    },
    "dynamics.run_fast": lambda a, k, r: {
        "particle_steps": _arg(a, k, 0, "state").count * _arg(a, k, 2, "steps")
    },
    "coupling.run_coupled": lambda a, k, r: {
        "particle_steps": (_arg(a, k, 0, "x").count + _arg(a, k, 1, "xbar").count)
        * _arg(a, k, 3, "steps")
    },
    "coupling.detect_overtakes": lambda a, k, r: {"events": len(r)},
    "coupling.apply_pairing": _pair_changes,
}


def _owner(module, attr):
    """The object holding attr's last part, or None if the program no longer has it."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner


class Tracer:
    """In-memory spans: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = {}

    def install(self):
        for module, attr, name in TRACE_POINTS:
            owner = _owner(module, attr)
            leaf = attr.rpartition(".")[2]
            target = getattr(owner, leaf, None)
            if target is None:
                self.missing[f"{module.removeprefix('contasep.')}.{attr}"] = name
                continue
            setattr(owner, leaf, self._wrap(target, name, COUNTERS.get(name)))

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def install_setup_marker(path):
    hooked = []

    def marked(target, *args, **kwargs):
        now = time.monotonic()
        for owner, attr, original in hooked:
            setattr(owner, attr, original)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{now!r}\n")
        return target(*args, **kwargs)

    for module, attr in SETUP_POINTS:
        owner = _owner(module, attr)
        target = getattr(owner, attr, None)
        if target is not None:
            hooked.append((owner, attr, target))
            setattr(owner, attr, functools.partial(marked, target))


def main(argv):
    mode, report, cli_args = argv[0], argv[1], argv[2:]
    from contasep import cli

    if mode == "setup":
        install_setup_marker(report)
        return cli.main(cli_args)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
