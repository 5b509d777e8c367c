"""heredit benchmark: CLI jobs timed as subprocesses, outputs checked independently.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/heredit``.  Each job
is ``python -m heredit ARGS --no-cache`` with ``PYTHONPATH=src`` and no
``HEREDIT_CACHE_DIR``, started through ``bench/launch.py`` (which runs the
CLI the same way and notes when its arguments were parsed).  Jobs run one
at a time.  Every job's output is checked by ``bench/checks.py``, which
does not use heredit.

``--trace 0`` prints the end-to-end metrics: set-up time, job wall time, job
time over the reference kernel (``bench/refkernel.py``, run in its own
process right before and after each job), and peak RSS.  ``--trace 1``
re-runs the job untraced and traced in fresh interpreters and prints the
per-layer metrics of ``bench/spans.py`` plus the tracing overhead.  The last
line of stdout is one JSON object; the samples behind it are written to
``bench/out/``.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# set-up is also sampled by launches that stop once the arguments are parsed
SETUP_PROBES = 5

CURVE_GRID = 4  # curve-c8star evaluates p = k/4, k = 0..4
SEARCH_M = 5
SEARCH_DENOMINATOR = 64  # search-m5 draws p = k/64 with k odd in [33, 63]
ESTIMATE_N = 8
ESTIMATE_P = Fraction(1, 2)
ESTIMATE_SAMPLES = 800


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed job)."""


@dataclass(frozen=True)
class Job:
    """One CLI job: its arguments and the check its stdout must pass."""

    args: tuple[str, ...]
    check: Callable[[str], None]


def _rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def curve_c8star(seed: int) -> Job:
    """The paper's C8* curve three ways; the inputs do not depend on the seed."""
    grid = [Fraction(k, CURVE_GRID) for k in range(CURVE_GRID + 1)]
    args = ("edcurve", "--family", "c8star", "--source", "closed_form,gamma,search",
            "--m", "4", "--grid", f"1/{CURVE_GRID}", "--analyze")
    return Job(args, lambda out: checks.check_curve(out, grid))


def search_m5(seed: int) -> Job:
    """Forb(C4) searched over every CRG class on at most 5 vertices, at a drawn p."""
    k = random.Random(seed).randrange(SEARCH_DENOMINATOR // 2 + 1, SEARCH_DENOMINATOR, 2)
    p = Fraction(k, SEARCH_DENOMINATOR)
    args = ("search", "--forbid", "cycle:4", "--max-size", str(SEARCH_M), "--allow-large",
            "--p", _rational(p))
    return Job(args, lambda out: checks.check_search(out, p, SEARCH_M))


def oracle_estimate(seed: int) -> Job:
    """Sampled finite-n edit distance to Forb(P4), with a drawn sampling seed."""
    sample_seed = random.Random(seed).randrange(2**31)
    args = ("estimate", "--n", str(ESTIMATE_N), "--p", _rational(ESTIMATE_P),
            "--forbid", "path:4", "--samples", str(ESTIMATE_SAMPLES),
            "--seed", str(sample_seed))
    return Job(args, lambda out: checks.check_estimate(out, ESTIMATE_N, ESTIMATE_P))


WORKLOADS = {
    "curve-c8star": curve_c8star,
    "search-m5": search_m5,
    "oracle-estimate": oracle_estimate,
}


@dataclass
class Launch:
    started: float
    wall: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str
    setup: float | None = None


class Runner:
    """Starts one process at a time and waits for it, recording its rusage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("HEREDIT_CACHE_DIR", None)

    def _spawn(self, cmd: list[str]) -> Launch:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(start, wall, proc.returncode, usage.ru_maxrss / 1024,
                      out_path.read_text(), err_path.read_text())

    def reference(self) -> float:
        launch = self._spawn([sys.executable, str(BENCH / "refkernel.py")])
        if launch.code != 0:
            raise BenchError(f"reference kernel exited with {launch.code}: {launch.stderr}")
        return launch.wall

    def job(self, job: Job, setup_only: bool = False, span_file: Path | None = None) -> Launch:
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "launch.py"), "--report", str(report)]
        if setup_only:
            cmd.append("--setup-only")
        if span_file is not None:
            cmd += ["--spans", str(span_file)]
        launch = self._spawn(cmd + ["--", *job.args, "--no-cache"])
        if report.exists():
            launch.setup = json.loads(report.read_text())["parsed"] - launch.started
        return launch


def another_round(deadline: float, round_start: float) -> bool:
    """Start a round only if one as long as the last still ends by the deadline."""
    now = time.monotonic()
    return now + (now - round_start) <= deadline


class Tally:
    """Jobs attempted and failed.

    A job fails when it exits non-zero or its output fails the check; a
    wrong output also makes the run incorrect.  Identical outputs are
    checked once.
    """

    def __init__(self, job: Job):
        self.job = job
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._checked: dict[str, str | None] = {}

    def _problem(self, launch: Launch) -> str | None:
        if launch.code != 0:
            return f"exit code {launch.code}: {launch.stderr.strip()[-500:]}"
        if launch.stdout not in self._checked:
            try:
                self.job.check(launch.stdout)
                self._checked[launch.stdout] = None
            except checks.CheckError as exc:
                self.correct = False
                self._checked[launch.stdout] = f"wrong output: {exc}"
        return self._checked[launch.stdout]

    def add(self, launch: Launch) -> bool:
        """Count a job; True when it ran to completion, so its times count."""
        self.attempted += 1
        problem = self._problem(launch)
        if problem is not None:
            self.failed += 1
            print(f"job failed: {problem}", file=sys.stderr)
        return launch.code == 0


def measure(runner: Runner, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: rounds of (job, reference kernel) until time is up."""
    deadline = time.monotonic() + seconds
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.job(tally.job, setup_only=True)
        if probe.code != 0 or probe.setup is None:
            raise BenchError(f"set-up probe exited with {probe.code}: {probe.stderr}")
        setups.append(probe.setup)
    refs = [runner.reference()]
    samples = []
    while True:
        round_start = time.monotonic()
        launch = runner.job(tally.job)
        refs.append(runner.reference())
        if tally.add(launch):
            setups.append(launch.setup)
            ref = (refs[-2] + refs[-1]) / 2
            samples.append({"job_s": launch.wall, "bracket_ref_s": ref,
                            "setup_s": launch.setup, "peak_rss_mb": launch.rss_mb})
        if not another_round(deadline, round_start):
            break
    if not samples:
        raise BenchError("no job ran to completion")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(s["job_s"] for s in samples), "s"),
        # total job time over the total of each job's bracketing kernel times:
        # a mean, not a median, because the machine's speed wanders on a scale
        # of seconds and the mean averages that wander over the whole run
        "job_ref": (sum(s["job_s"] for s in samples) / sum(s["bracket_ref_s"] for s in samples), "ref"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
    }
    return metrics, {"setup_s": setups, "ref_s": refs, "jobs": samples}


UNITS = {"calls": "count", "classes": "count", "self_s": "s", "useful_frac": "frac"}


def trace(runner: Runner, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: rounds of (untraced job, traced job) until time is up."""
    deadline = time.monotonic() + seconds
    span_file = runner.workdir / "spans.json"
    rounds, walls = [], []
    while True:
        round_start = time.monotonic()
        plain = runner.job(tally.job)
        traced = runner.job(tally.job, span_file=span_file)
        plain_ran = tally.add(plain)
        if tally.add(traced) and plain_ran:
            layers = spans.layer_metrics(json.loads(span_file.read_text()))
            layers["trace.overhead_s"] = traced.wall - plain.wall
            rounds.append(layers)
            walls.append({"untraced_s": plain.wall, "traced_s": traced.wall})
        if not another_round(deadline, round_start):
            break
    if not rounds:
        raise BenchError("no job ran to completion")
    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if isinstance(values[0], int) and len(set(values)) > 1:
            print(f"warning: {name} differs between traced runs: {values}", file=sys.stderr)
        unit = "s" if name == "trace.overhead_s" else UNITS[name.rsplit(".", 1)[-1]]
        metrics[name] = (statistics.median(values), unit)
    return metrics, {"rounds": rounds, "walls": walls}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "heredit" / "__init__.py").is_file():
        print(f"error: no heredit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"{opts.workload}-trace{opts.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    job = WORKLOADS[opts.workload](opts.seed)
    tally = Tally(job)
    run = trace if opts.trace else measure
    try:
        metrics, samples = run(runner, tally, opts.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=opts.workload, seed=opts.seed, args=list(job.args),
                  python=sys.version.split()[0], samples=samples)
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
