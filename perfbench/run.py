#!/usr/bin/env python3
"""rotorkick benchmark: run one workload of CLI commands and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is used from src/ through
PYTHONPATH, uninstalled.  One client runs the workload's commands one at a
time, each in a fresh Python process (a closed loop), and repeats the whole
set ("a pass") while the next pass should end within S seconds.  Every command's outputs go
through gate.py; a command that exits non-zero, times out or fails a check
counts as failed.  With --trace 0 the last line of standard output holds
the end-to-end metrics; with --trace 1 plain and traced passes alternate and
it holds the per-layer metrics of tracer.py.  See README.md in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time

import gate
import machine
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = ".perfbench_work"

# Set-up-only processes run unmeasured for this long first: after an idle
# spell a small virtual machine runs the next command up to 50% slower, and a
# couple of seconds of process start-ups removes that.
WARMUP_S = 2.5
SETUP_PROBES = 8  # measured set-up-only processes per run
COMMAND_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # no command may still run this long after the start
POLL_S = 0.002
TRACE_TOL_S = 2e-3  # self times must add up to the traced command wall time within this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Child:
    """One finished child process: its timestamps, resource usage and output."""

    def __init__(self, mode: str, argv: list[str], workdir: str, deadline: float, env: dict):
        os.makedirs(workdir, exist_ok=True)
        report = os.path.join(workdir, "report.json")
        stdout = os.path.join(workdir, "stdout.txt")
        stderr = os.path.join(workdir, "stderr.txt")
        if os.path.exists(report):
            os.unlink(report)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
        self.spawned_wall = time.time()
        self.spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, CHILD, report, mode, *argv], env, file_actions=actions)
        self.timed_out = False
        reaped = False
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    _, status, usage = os.wait4(pid, 0)
                    self.timed_out = True
                    break
                time.sleep(POLL_S)
            reaped = True
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        with open(stdout, encoding="utf-8") as fh:
            self.stdout = fh.read()
        self.report = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                self.report = json.load(fh)

    @property
    def setup_s(self) -> float:
        return self.report["ready"] - self.spawned

    @property
    def wall_s(self) -> float:
        return self.report["end"] - self.report["start"]


def _digests(out_dir: str, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def reconcile(cmd, facts: dict, summary: dict, wall_s: float) -> list[str]:
    """Counts and times the traced command must satisfy for its trace to be trusted."""
    problems = []
    covered = tracer.self_time_total(summary)
    if abs(covered - wall_s) > TRACE_TOL_S:
        problems.append(f"self times sum to {covered:.6f} s, command wall time is {wall_s:.6f} s")
    negative = [name for name, agg in summary["names"].items() if agg["self_s"] < -1e-9]
    if negative:
        problems.append(f"negative self time in {negative}")
    calls = {name: agg["calls"] for name, agg in summary["names"].items()}
    if cmd.subcommand == "simulate":
        expected = 2 * sum(facts[mode]["iterations"] for mode in gate.MODES)
        kicks = calls.get("operators.kick_unitary", 0)
        applied = calls.get("dynamics.apply_kick", 0)
        if not kicks == applied == expected:
            problems.append(f"kick_unitary {kicks} and apply_kick {applied} calls, trains imply {expected}")
    if cmd.subcommand == "controllability":
        closures = calls.get("controllability.lie_closure", 0)
        if closures != len(cmd.cutoffs):
            problems.append(f"{closures} lie_closure calls for {len(cmd.cutoffs)} cutoffs")
    return problems


class Bench:
    """One run of a workload; reference=None skips the comparison with recorded values."""

    def __init__(self, workload: str, seed: int, trace: bool, reference: dict | None):
        import workloads

        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.default_seed = seed == workloads.DEFAULT_SEED
        self.commands = workloads.make_commands(workload, seed)
        self.work = os.path.join(WORK_ROOT, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.configs = {}
        for cmd in self.commands:
            path = os.path.join(self.work, cmd.name, "config.json")
            os.makedirs(os.path.dirname(path))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cmd.config, fh, sort_keys=True, indent=2)
            self.configs[cmd.name] = path
        self.reference = reference
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + pythonpath if pythonpath else ""))
        self.start = time.monotonic()
        self.setup_samples: list[float] = []
        self.passes: list[dict] = []
        self.digests: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict[str, dict] = {}

    def deadline(self) -> float:
        return min(time.monotonic() + COMMAND_TIMEOUT_S, self.start + RUN_LIMIT_S)

    def probe_setup(self, keep: bool) -> None:
        child = Child("setup", [], os.path.join(self.work, "setup"), self.deadline(), self.env)
        if child.rc != 0 or child.report is None:
            raise RuntimeError(f"set-up probe failed with exit code {child.rc}")
        if keep:
            self.setup_samples.append(child.setup_s)

    def run_command(self, cmd, mode: str) -> dict:
        cmd_dir = os.path.join(self.work, cmd.name)
        out_dir = os.path.join(cmd_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        child = Child(mode, cmd.argv(self.configs[cmd.name], out_dir), cmd_dir, self.deadline(), self.env)
        self.attempted += 1
        result = {"name": cmd.name, "mode": mode, "rc": child.rc, "cpu_s": child.cpu_s, "maxrss_mb": child.maxrss_mb}
        if child.timed_out:
            problems = ["timed out"]
        elif child.report is None:
            problems = [f"exit code {child.rc} without a timing report"]
        else:
            problems, facts = gate.check_command(cmd, out_dir, child.rc, child.stdout, child.spawned_wall)
            result.update(setup_s=child.setup_s, wall_s=child.wall_s)
            self.setup_samples.append(child.setup_s)
            if not problems and self.reference is not None:
                problems += gate.check_reference(cmd, facts, self.reference, self.workload, self.default_seed)
            if not problems:
                digests = _digests(out_dir, gate.expected_files(cmd))
                first = self.digests.setdefault(cmd.name, digests)
                if digests != first:
                    problems.append("outputs differ from the first pass of this seed")
                self.facts.setdefault(cmd.name, facts)
            if mode == "traced" and not problems:
                summary = child.report["trace"]
                problems += reconcile(cmd, facts, summary, child.wall_s)
                result["trace"] = summary
        if problems:
            self.failures.append(f"{cmd.name} ({mode}): " + "; ".join(problems))
        result["problems"] = problems
        return result

    def run_pass(self, mode: str) -> None:
        results = [self.run_command(cmd, mode) for cmd in self.commands]
        complete = all("wall_s" in r for r in results)
        record = {"mode": mode, "complete": complete, "commands": results}
        if complete:
            record.update(
                wall_s=sum(r["wall_s"] for r in results),
                cpu_s=sum(r["cpu_s"] for r in results),
                peak_rss_mb=max(r["maxrss_mb"] for r in results),
            )
        self.passes.append(record)

    def run(self, seconds: float) -> None:
        warmup_start = time.monotonic()
        while time.monotonic() - warmup_start < WARMUP_S:  # also fills the bytecode cache
            self.probe_setup(keep=False)
        for _ in range(SETUP_PROBES):
            self.probe_setup(keep=True)
        modes = ("plain", "traced") if self.trace else ("plain",)
        measure_start = time.monotonic()
        durations: list[float] = []
        while True:
            began = time.monotonic()
            self.run_pass(modes[len(durations) % len(modes)])
            now = time.monotonic()
            durations.append(now - began)
            # Start another pass only if it should end within the measuring time
            # (a traced run needs a pass of each kind) and well inside the run limit.
            expected_end = now + statistics.median(durations)
            if len(durations) >= len(modes) and expected_end - measure_start > seconds:
                break
            if expected_end - self.start > RUN_LIMIT_S:
                break

    def complete(self, mode: str) -> list[dict]:
        return [p for p in self.passes if p["mode"] == mode and p["complete"]]

    def end_to_end(self) -> dict[str, float]:
        plain = self.complete("plain")
        return {
            "setup_s": len(self.commands) * _median(self.setup_samples),
            "wall_s": _median([p["wall_s"] for p in plain]),
            "cpu_s": _median([p["cpu_s"] for p in plain]),
            "peak_rss_mb": max((p["peak_rss_mb"] for p in plain), default=0.0),
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.complete("traced")
        per_pass = [
            tracer.layer_metrics(tracer.merge(r["trace"] for r in p["commands"] if "trace" in r)) for p in traced
        ]
        metrics = {name: _median([m[name] for m in per_pass]) for name, *_ in tracer.PER_LAYER}
        plain_wall = _median([p["wall_s"] for p in self.complete("plain")])
        traced_wall = _median([p["wall_s"] for p in traced])
        metrics[tracer.OVERHEAD_METRIC[0]] = traced_wall / plain_wall - 1.0 if plain_wall and traced_wall else 0.0
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rotorkick", "cli.py")):
        print("error: src/rotorkick/cli.py not found; run from the root of a rotorkick checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.abspath("src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind so running children are killed

    import workloads  # needs the package, found through src/

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of {sorted(workloads.WORKLOADS)}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    bench = Bench(args.workload, args.seed, bool(args.trace), reference)
    bench.run(args.seconds)

    e2e = bench.end_to_end()
    metrics = bench.per_layer() if args.trace else e2e
    units = dict(END_TO_END_UNITS, **{name: unit for name, unit, *_ in tracer.PER_LAYER})
    units[tracer.OVERHEAD_METRIC[0]] = tracer.OVERHEAD_METRIC[1]
    failed = len(bench.failures)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine.facts(),
        "attempted": bench.attempted,
        "failed": failed,
        "failed_frac": failed / bench.attempted,
        "failures": bench.failures,
        "end_to_end": e2e,
        "setup_samples_s": bench.setup_samples,
        "passes": bench.passes,
        "facts": bench.facts,
        "metrics": metrics,
    }
    details_path = os.path.join(bench.work, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(details_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    print("machine: " + json.dumps(details["machine"], sort_keys=True))
    for p in bench.passes:
        state = f"wall {p['wall_s']:.3f} s cpu {p['cpu_s']:.3f} s" if p["complete"] else "incomplete"
        print(f"pass {p['mode']}: {state}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac: {details['failed_frac']} ({failed} of {bench.attempted} commands)")
    print(f"details: {details_path}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
