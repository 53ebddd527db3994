#!/usr/bin/env python3
"""Benchmark of the invgen command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package from ``src/`` there.
Load comes from one closed-loop client: each CLI command runs in a fresh
interpreter, after the previous one has exited, with nothing in parallel.
A workload is a fixed list of commands, and the seed only shuffles their
order, so every seed does the same work.  Every command's output is checked
against the results the package gave when the benchmark was defined; a
nonzero exit or a failed check counts the command as failed.

``--trace 0`` times passes over the workload's commands for about
``--seconds`` (at least one pass; another pass starts only if it should end
nearer to ``--seconds`` than stopping now) and reports the end-to-end
metrics as medians over passes.  Set-up is timed in two batches, before and
after the passes, so its median spans the run.

Times are adjusted to a nominal host speed: the host is shared and its
speed drifts by tens of percent over seconds to minutes, so a fixed
pure-Python loop (``launch.reference``) is timed before and after each
command and each set-up batch, and the time measured between two reference
timings is multiplied by ``REFERENCE_S`` divided by their mean.  This
assumes the command slows as the loop does, which holds for compute-bound
commands; the memory-bound ``orbits`` commands barely slow when the loop
does, so they are marked ``adjust=False`` and reported as measured.  The
record keeps the unadjusted medians under ``raw_metrics``.

``--trace 1`` runs one untraced pass and then two passes under
perfbench/traced_cli.py, and reports per-layer self times and counts; the
counts of the two traced passes must agree exactly.

Human-readable lines and a JSON record of the run (machine, per-command
samples) come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The record is also
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(LAUNCH.parent))
from launch import reference  # noqa: E402

SETUP_SAMPLES = 6  # per batch; one batch before the passes, one after
PASS_TIMEOUT_S = 150  # a hung pass is killed and its commands counted as failed
TRACED_PASSES = 2
# Nominal seconds of launch.reference(): about its median on a 2-core Xeon VM
# with Python 3.11.  Reported times are in seconds at that host speed.
REFERENCE_S = 0.16

# ---------------------------------------------------------------------------
# output checks: the values recorded from the package when the benchmark was
# defined.  Each returns None when the output is right, else the reason.
# ---------------------------------------------------------------------------

Check = Callable[[bytes, str], "str | None"]


def check_verify(n_q: int) -> Check:
    def check(out: bytes, err: str) -> str | None:
        payload = json.loads(out)
        if payload["pass"] is not True or payload["failures"]:
            return f"verify failed: {payload['failures']}"
        if len(payload["checks"]) != n_q:
            return f"verify checked {len(payload['checks'])} values of q, expected {n_q}"
        return None
    return check


def check_psi2_both(count: int) -> Check:
    def check(out: bytes, err: str) -> str | None:
        lines = out.decode().splitlines()
        if lines[-1] != "match=True":
            return f"methods disagree: {lines[-1]!r}"
        if not lines[-2].startswith(f"count={count} "):
            return f"expected count={count}, got {lines[-2]!r}"
        if len(lines) - 2 != count:
            return f"listed {len(lines) - 2} pairs, expected {count}"
        return None
    return check


def check_beta_json(beta: int, psi2_count: int, bound_sha256: str) -> Check:
    def check(out: bytes, err: str) -> str | None:
        payload = json.loads(out)
        got = (payload["beta"], payload["psi2_count"], payload["beta_even"], payload["bounds_ok"])
        if got != (beta, psi2_count, True, True):
            return f"(beta, |Psi2|, even, bounds_ok) = {got}, expected ({beta}, {psi2_count}, True, True)"
        for key in ("n_lower_bound", "component_bound_at_beta"):
            digest = hashlib.sha256(payload[key]["component_bound"].encode()).hexdigest()
            if digest != bound_sha256:
                return f"{key}.component_bound differs from the recorded value"
        return None
    return check


def check_psi2_csv(pairs: int, sha256: str) -> Check:
    def check(out: bytes, err: str) -> str | None:
        rows = out.count(b"\n") - 1
        if rows != pairs:
            return f"CSV has {rows} pairs, expected {pairs}"
        if hashlib.sha256(out).hexdigest() != sha256:
            return "CSV differs from the recorded output"
        return None
    return check


def check_graph(summary: str, vertices: int, edges: int, fmt: str) -> Check:
    def check(out: bytes, err: str) -> str | None:
        got = err.strip().splitlines()[-1] if err.strip() else ""
        if got != summary:
            return f"summary {got!r}, expected {summary!r}"
        if fmt == "json":
            g = json.loads(out)
            counts = (len(g["vertices"]), len(g["edges"]))
        else:
            lines = out.decode().splitlines()
            n_edges = sum(" -- " in line for line in lines)
            counts = (len(lines) - 2 - n_edges, n_edges)
        if counts != (vertices, edges):
            return f"{fmt} output has (vertices, edges) = {counts}, expected {(vertices, edges)}"
        return None
    return check


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check
    adjust: bool = True  # scale its time to the nominal host speed; see host_scale

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# Every command takes a few seconds at most: the host speed measured just
# before and after a command says little about the middle of a long one
# (see launch.py).
WORKLOADS: dict[str, list[Command]] = {
    # Many small inputs: 196 values of q, each paying the per-q set-up.
    "sweep": [
        Command(("verify", "--q-range", "4..1024"), check_verify(196)),
    ],
    # Oracle closure dominates; characteristic 2, and the exceptional A5 at q=19.
    "oracle": [
        Command(("psi2", "--q", "8", "--method", "both"), check_psi2_both(24)),
        Command(("psi2", "--q", "19", "--method", "both"), check_psi2_both(48)),
    ],
    # Large inputs through the structural layer and union-find beta.
    "orbits": [
        Command(("beta", "--q", "512", "--format", "json"),
                check_beta_json(14504, 130536,
                                "66f0ee4c932310a45cc71aee3103b6d15be36341c843856f3ee93549c610f0e4"),
                adjust=False),
        Command(("psi2", "--q", "1024", "--format", "csv"),
                check_psi2_csv(523260,
                               "403e707a52eaaef705d8a99ba28825926db6b99cad9148b79a4032bb88352127"),
                adjust=False),
    ],
    # Explicit graphs: the O(V^2) power graph and all-sources BFS diameter.
    "graphs": [
        Command(("graph", "--q", "13", "--power", "3", "--plus"),
                check_graph("q=13 t=3 vertices=343 edges=5676 components=4 "
                            "bipartite=True diameter=3", 343, 5676, "json")),
        Command(("graph", "--q", "256", "--plus", "--format", "dot"),
                check_graph("q=256 t=1 vertices=255 edges=16256 components=1 "
                            "bipartite=True diameter=2", 255, 16256, "dot")),
    ],
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> traced span whose self time it reports
LAYER_TIMES = {
    "gf.build_s": "gf.build",
    "psl2.inventory_s": "psl2.inventory",
    "psl2.enumerate_s": "psl2.enumerate",
    "structure.profiles_s": "structure.profiles",
    "structure.census_s": "structure.census",
    "structure.covering_s": "structure.covering",
    "structure.psi2_s": "structure.psi2",
    "autorbits.action_s": "autorbits.action",
    "autorbits.beta_s": "autorbits.beta",
    "autorbits.beta_fast_s": "autorbits.beta_fast",
    "oracle.session_s": "oracle.session",
    "oracle.psi2_s": "oracle.psi2",
    "iggraph.summary_s": "iggraph.summary",
    "iggraph.graph_s": "iggraph.graph",
    "iggraph.power_s": "iggraph.power",
    "iggraph.components_s": "iggraph.components",
    "iggraph.bipartite_s": "iggraph.bipartite",
    "iggraph.diameter_s": "iggraph.diameter",
    "iggraph.export_s": "iggraph.export",
    "iggraph.bound_s": "iggraph.bound",
    "cli.self_s": "cli",
}
# per-layer counts, as traced_cli.py names its counters
LAYER_COUNTS = (
    "gf.contexts", "psl2.inventory_calls", "psl2.elements",
    "structure.census_calls", "structure.covering_calls", "structure.psi2_pairs",
    "autorbits.orbits", "oracle.pair_verdicts", "oracle.closures",
    "iggraph.power_pairs",
)
LAYER_RATIOS = ("oracle.generating_frac", "trace.overhead_frac")


def layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    return units


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    command: Command
    seconds: float
    peak_rss_mb: float
    returncode: int
    failure: str | None = None
    trace: dict | None = None
    scale: float = 1.0  # to nominal host speed; see host_scale

    @property
    def adjusted_s(self) -> float:
        return self.seconds * self.scale


def host_scale(before: float, after: float) -> float:
    """Factor from seconds measured between two reference timings to nominal seconds."""
    return 2 * REFERENCE_S / (before + after)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def command_argv(cmd: Command, spans_path: Path, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACED_CLI), str(spans_path), *cmd.argv]
    return [sys.executable, "-m", "invgen.cli", *cmd.argv]


def check_sample(sample: Sample, out_path: Path, err_path: Path) -> None:
    """Set sample.failure from the exit code and the command's output check."""
    if sample.returncode != 0:
        sample.failure = f"exit code {sample.returncode}"
        return
    out = out_path.read_bytes()
    err = err_path.read_text(errors="replace")
    try:
        sample.failure = sample.command.check(out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        sample.failure = f"unreadable output: {exc!r}"


@dataclass
class Pass:
    wall_s: float
    samples: list[Sample]

    @property
    def max_op_s(self) -> float:
        return max(s.seconds for s in self.samples)

    @property
    def adjusted_wall_s(self) -> float:
        """wall_s scaled by the time-weighted host scale of its commands."""
        return self.wall_s * (sum(s.adjusted_s for s in self.samples)
                              / sum(s.seconds for s in self.samples))

    @property
    def adjusted_max_op_s(self) -> float:
        return max(s.adjusted_s for s in self.samples)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.peak_rss_mb for s in self.samples)


def launch(spec: dict) -> dict | None:
    """Run launch.py on spec; None if the pass outlives PASS_TIMEOUT_S."""
    proc = subprocess.Popen([sys.executable, str(LAUNCH)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(json.dumps(spec).encode(), timeout=PASS_TIMEOUT_S)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command it runs
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode}")
    return json.loads(out)


def run_pass(commands: list[Command], workdir: Path, index: int, traced: bool) -> Pass:
    """Run the commands back to back in a closed loop, then check every output."""
    paths = [{suffix: workdir / f"p{index}c{i}.{suffix}" for suffix in ("out", "err", "spans")}
             for i in range(len(commands))]
    spec = {"env": child_env(), "commands": [
        {"argv": command_argv(cmd, path["spans"], traced),
         "out": str(path["out"]), "err": str(path["err"])}
        for cmd, path in zip(commands, paths)]}
    result = launch(spec)
    if result is None:
        samples = [Sample(cmd, PASS_TIMEOUT_S, 0.0, -signal.SIGKILL, "timed out")
                   for cmd in commands]
        return Pass(PASS_TIMEOUT_S, samples)
    samples = []
    refs = result["reference_s"]
    for i, (cmd, path, r) in enumerate(zip(commands, paths, result["commands"])):
        sample = Sample(cmd, r["seconds"], r["peak_rss_mb"], r["returncode"],
                        scale=host_scale(refs[i], refs[i + 1]) if cmd.adjust else 1.0)
        check_sample(sample, path["out"], path["err"])
        if traced and path["spans"].exists():
            sample.trace = json.loads(path["spans"].read_text())
        samples.append(sample)
    for path in workdir.iterdir():
        path.unlink()
    return Pass(result["wall_s"], samples)


def more_passes(elapsed: float, passes: list[Pass], seconds: float) -> bool:
    """Whether one more pass of the median length ends nearer to seconds than stopping now."""
    return elapsed + statistics.median(p.wall_s for p in passes) / 2 < seconds


def measure_setup(n: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import invgen.cli, after one warm-up:
    as measured, and adjusted by the reference timings around the batch."""
    argv = [sys.executable, "-c", "import invgen.cli"]
    env = child_env()
    times = []
    for i in range(n + 1):
        if i == 1:
            before = reference()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    scale = host_scale(before, reference())
    return times, [t * scale for t in times]


# ---------------------------------------------------------------------------
# trace aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        out[name] = out.get(name, 0.0) + (end - start)
        if parent is not None:
            parent_name = spans[parent][0]
            out[parent_name] = out.get(parent_name, 0.0) - (end - start)
    return out


def pass_layers(p: Pass) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per span name and counter totals, summed over a pass."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for sample in p.samples:
        trace = sample.trace or {"spans": [], "counters": {}}
        for name, secs in self_times(trace["spans"]).items():
            times[name] = times.get(name, 0.0) + secs * sample.scale
        for name, n in trace["counters"].items():
            counts[name] = counts.get(name, 0) + n
    return times, counts


def layer_metrics(untraced: Pass, traced: list[Pass]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics, and whether every count repeated across traced passes."""
    layers = [pass_layers(p) for p in traced]
    counts = layers[0][1]
    repeat = all(c == counts for _, c in layers[1:])
    metrics = {name: statistics.median(t.get(span, 0.0) for t, _ in layers)
               for name, span in LAYER_TIMES.items()}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    closures = counts.get("oracle.closures", 0)
    metrics["oracle.generating_frac"] = (
        counts.get("oracle.generating", 0) / closures if closures else 0.0)
    traced_wall = statistics.median(p.adjusted_wall_s for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced.adjusted_wall_s - 1
    return metrics, repeat


# ---------------------------------------------------------------------------
# results record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD commit read from .git, without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it (needs n >= 20)."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return {"pct": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}


def command_stats(passes: list[Pass]) -> list[dict]:
    by_name: dict[str, list[Sample]] = {}
    for p in passes:
        for s in p.samples:
            by_name.setdefault(s.command.name, []).append(s)
    stats = []
    for name, samples in by_name.items():
        secs = [s.seconds for s in samples]
        stats.append({
            "command": name,
            "samples": len(samples),
            "median_s": statistics.median(secs),
            "median_adjusted_s": statistics.median(s.adjusted_s for s in samples),
            "tail": tail_percentile(secs),
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
            "failures": [s.failure for s in samples if s.failure],
        })
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup below stops the launcher and its command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "invgen" / "cli.py").is_file():
        print(f"error: no invgen package under {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload]
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def shuffled() -> list[Command]:
        order = list(commands)
        rng.shuffle(order)
        return order

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # this process, the launcher and every command
    raw_metrics: dict[str, float] = {}
    try:
        if args.trace:
            setup = []
            untraced = run_pass(shuffled(), workdir, 0, traced=False)
            traced = [run_pass(shuffled(), workdir, i + 1, traced=True)
                      for i in range(TRACED_PASSES)]
            passes = [untraced, *traced]
            metrics, counts_repeat = layer_metrics(untraced, traced)
            units = layer_units()
        else:
            raw_setup, setup = measure_setup(SETUP_SAMPLES)
            passes = []
            start = time.perf_counter()
            while not passes or more_passes(time.perf_counter() - start, passes, args.seconds):
                passes.append(run_pass(shuffled(), workdir, len(passes), traced=False))
            raw_after, after = measure_setup(SETUP_SAMPLES)
            raw_setup += raw_after
            setup += after
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(p.adjusted_wall_s for p in passes),
                "max_op_s": statistics.median(p.adjusted_max_op_s for p in passes),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            }
            raw_metrics = {
                "setup_s": statistics.median(raw_setup),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "max_op_s": statistics.median(p.max_op_s for p in passes),
            }
            counts_repeat = True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for p in passes for s in p.samples]
    failed = sum(1 for s in samples if s.failure)
    for s in samples:
        if s.failure:
            print(f"FAILED {s.command.name}: {s.failure}", file=sys.stderr)
    if not counts_repeat:
        print("FAILED: counts differ between the traced passes", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "cpu": cpu_model(),
        "passes": len(passes),
        "setup_samples": len(setup),
        "commands": command_stats(passes),
        "fail_rate": failed / len(samples),
        "counts_repeat": counts_repeat,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "host_scale": statistics.median(s.scale for s in samples),
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for name, value in metrics.items():
        raw = f"  (unadjusted {raw_metrics[name]:.6g})" if name in raw_metrics else ""
        print(f"{name:24} {value:.6g} {units[name]}{raw}")
    print(f"{'fail_rate':24} {record['fail_rate']:.6g} ({failed} of {len(samples)} commands)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
