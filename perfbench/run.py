"""End-to-end benchmark of implicitseries, with a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
./src, so nothing needs installing.  Every job is one fresh Python process
(the package's process-global caches would otherwise be timed warm), run one
at a time.  Each job's output is checked against a reference that the
package does not supply; a failed check makes the run exit with status 1.

--trace 0 runs import-only processes and then jobs until S seconds are used,
and reports the end-to-end metrics: job_s, job_cpu_s, setup_s and
peak_rss_mb (medians), and error_rate.  Times are scaled to a reference
machine speed (see CALIBRATION_REF_S); the unscaled medians are printed too.
--trace 1 runs one untraced job, one job with spans at the package's layer
boundaries (spans.py) and one job counting Fraction operations, and reports
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference
from spans import Summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["pins"]

# Jobs still running this long after the run started are killed and counted
# as failed, so that a run ends within three minutes.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 5

# The wall time of job.calibrate() at the reference machine speed.  An
# untraced job times the calibration every 0.1 s while it works (see
# job.SpeedProbe), and its times are multiplied by CALIBRATION_REF_S / (the
# mean sample).  On a shared host, the speed at which Python runs drifts by
# tens of percent within seconds and from one minute to the next.  The
# scaling takes out most of that drift, which would otherwise hide a
# regression of the size of the bounds.
CALIBRATION_REF_S = 0.006

LAYERS = ("cli", "expr", "implicit", "series", "combinatorics", "algebra")

END_TO_END = [
    ("job_s", "s"),
    ("job_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cli.self_s", "s"),
    ("expr.table_from_expr.s", "s"),
    ("expr.self_s", "s"),
    ("implicit.expand.direct.s", "s"),
    ("implicit.expand.compose.s", "s"),
    ("implicit.expand.newton.s", "s"),
    ("implicit.y_coeff_direct.s", "s"),
    ("implicit.inverse_taylor_coeff.calls", "count"),
    ("implicit.inverse_taylor_coeff.self_s", "s"),
    ("implicit.column_power.calls", "count"),
    ("implicit.column_power.self_s", "s"),
    ("implicit.self_s", "s"),
    ("series.taylor_mul.calls", "count"),
    ("series.taylor_mul.self_s", "s"),
    ("series.taylor_add.self_s", "s"),
    ("series.bivariate_mul.calls", "count"),
    ("series.bivariate_mul.self_s", "s"),
    ("series.bivariate_add.self_s", "s"),
    ("series.substitute_y.self_s", "s"),
    ("series.self_s", "s"),
    ("combinatorics.partitions", "count"),
    ("combinatorics.compositions", "count"),
    ("combinatorics.bell_eval.calls", "count"),
    ("combinatorics.self_s", "s"),
    ("algebra.mul.calls", "count"),
    ("algebra.mul.pairs", "count"),
    ("algebra.mul.terms_out", "count"),
    ("algebra.mul.merge_ratio", "ratio"),
    ("algebra.mul.self_s", "s"),
    ("algebra.add.calls", "count"),
    ("algebra.add.self_s", "s"),
    ("algebra.self_s", "s"),
    ("scalar.mul", "count"),
    ("scalar.add", "count"),
    ("scalar.zero_tests", "count"),
    ("trace.overhead", "ratio"),
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def pinned(key):
    if key not in PINS:
        raise KeyError(f"no pinned reference for {key}")
    return PINS[key]


@dataclass
class Job:
    """What the child process runs, and how its output file is judged."""

    name: str
    spec: dict
    check: Callable[[bytes], str | None]  # None when the output is right


def census_job(order, seed):
    """Symbolic direct: the call behind --census-15."""
    def check(data):
        pin = pinned(f"census{order}")
        # compact, key-sorted JSON: every term object and nothing else
        # starts with {"c":
        count = data.count(b'{"c":')
        if count != pin["monomials"]:
            return f"{count} monomials, expected {pin['monomials']}"
        if sha256(data) != pin["sha256"]:
            return "canonical to_obj() JSON differs from the pinned digest"
        return None
    return Job(f"census{order}", {"call": "census", "order": order}, check)


def symbolic_job(order, seed):
    """Generic table through the CLI, all three methods cross-checked."""
    def check(data):
        if sha256(data) != pinned(f"symbolic{order}")["sha256"]:
            return "CLI output differs from the pinned digest"
        return None
    argv = ["--mode", "symbolic", "-N", str(order), "--method", "all"]
    return Job(f"symbolic{order}", {"call": "cli", "argv": argv}, check)


def _rational_y(data, order, method):
    body = json.loads(data)
    if body.get("order") != order or body.get("method") != method:
        return None
    return [Fraction(v) for v in body["y"]]


def lambert_job(order, seed):
    """Rational Lambert equation through the CLI, all three methods."""
    def check(data):
        if _rational_y(data, order, "all") != reference.lambert(order):
            return "y_n differs from the closed form (-n)^(n-1)"
        return None
    argv = ["--expr", "y*exp(y)-x", "-N", str(order), "--method", "all"]
    return Job(f"lambert{order}", {"call": "cli", "argv": argv}, check)


def dense_coefficients(seed):
    """(a, b, c) of log(1 + a x + y) exp(b x y) + c y for this seed.

    The seed picks the sign s of a = b = s, with c = 1.  The two equations
    are mirror images (x -> -x), so their answers differ while their
    arithmetic costs the same; other small rationals change the height of
    every coefficient and with it the cost, which would make the run time
    depend on the seed.
    """
    s = random.Random(seed).choice((1, -1))
    return s, s, 1


def _signed(value, var):
    sign = "-" if value < 0 else "+"
    mag = abs(value)
    return f"{sign}{var}" if mag == 1 else f"{sign}{mag}*{var}"


def dense_job(order, seed):
    """A dense rational table from an expression, newton only."""
    a, b, c = dense_coefficients(seed)
    expr = f"log(1{_signed(a, 'x')}+y)*exp({_signed(b, 'x*y').lstrip('+')}){_signed(c, 'y')}"
    want = reference.dense(a, b, c, order)

    def check(data):
        if _rational_y(data, order, "newton") != want:
            return f"y_n differs from the reference series of {expr}"
        if sha256(data) != pinned(f"dense{order}{'+' if a > 0 else '-'}")["sha256"]:
            return "CLI output differs from the pinned digest"
        return None
    argv = ["--expr", expr, "-N", str(order), "--method", "newton"]
    return Job(f"dense{order}", {"call": "cli", "argv": argv}, check)


# name -> (job builder, order)
WORKLOADS = {
    "census15": (census_job, 15),
    "symbolic10": (symbolic_job, 10),
    "lambert20": (lambert_job, 20),
    "dense40": (dense_job, 40),
}


def make_job(name, seed, order=None):
    builder, default_order = WORKLOADS[name]
    return builder(default_order if order is None else order, seed)


@dataclass
class Sample:
    ok: bool
    error: str | None = None
    setup_s: float = 0.0
    job_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0
    trace: dict | None = None


class Runner:
    """Spawns the jobs of one run, one at a time, and checks each output."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        self.tag = str(os.getpid())
        self.count = 0
        WORK.mkdir(exist_ok=True)

    def run(self, job, mode="plain"):
        """One job in a fresh process; mode is plain, spans or scalar.

        The trace of a spans or scalar job stays in WORK as
        <mode>-<job name>.json until the next such job overwrites it."""
        self.count += 1
        out = WORK / f"out-{self.tag}-{self.count}"
        trace_out = WORK / f"{mode}-{job.name}.json"
        spec = dict(job.spec, out=str(out), trace_out=str(trace_out),
                    job_id=f"{job.name}-{self.tag}-{self.count}")
        spec["pass"] = mode
        try:
            return self._run(job, spec, out, trace_out)
        finally:
            out.unlink(missing_ok=True)

    def _run(self, job, spec, out, trace_out):
        cmd = [sys.executable, str(HERE / "job.py"), json.dumps(spec)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Sample(False, "no time left for the job")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return Sample(False, f"killed after {timeout:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            return Sample(False, f"exit status {proc.returncode}: {tail[0]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        sample = Sample(True, setup_s=report["imported_at"] - spawned)
        if "calibration_s" in report:
            sample.scale = CALIBRATION_REF_S / report["calibration_s"]
        if spec["call"] == "import":
            return sample
        sample.job_s = report["job_s"]
        sample.cpu_s = report["cpu_s"]
        sample.rss_mb = report["maxrss_kb"] / 1024
        try:
            sample.error = job.check(out.read_bytes())
        except (OSError, ValueError, KeyError, TypeError) as e:
            sample.error = f"output not readable: {e!r}"
        sample.ok = sample.error is None
        if spec["pass"] != "plain":
            sample.trace = json.loads(trace_out.read_text(encoding="utf-8"))
        return sample


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(job, runner, seconds):
    """Import-only processes, then jobs until `seconds` are used; the
    medians of the metrics, with times scaled to the reference speed."""
    probe = Job("import", {"call": "import"}, None)
    runner.run(probe)  # writes the bytecode caches
    start = time.monotonic()
    setups = [runner.run(probe) for _ in range(SETUP_PROBES)]
    first_job = time.monotonic()
    samples = []
    while True:
        samples.append(runner.run(job))
        now = time.monotonic()
        # start another job only if it is expected to end within the budget
        if now - start + (now - first_job) / len(samples) > seconds:
            break
    good = [s for s in samples if s.ok]
    metrics = {
        "job_s": median([s.job_s * s.scale for s in good]),
        "job_cpu_s": median([s.cpu_s * s.scale for s in good]),
        "setup_s": median([s.setup_s * s.scale for s in setups + samples if s.ok]),
        "peak_rss_mb": median([s.rss_mb for s in good]),
    }
    return samples + [s for s in setups if not s.ok], metrics


def per_layer(job, runner):
    """One untraced, one span and one scalar-counting job."""
    plain = runner.run(job)
    traced = runner.run(job, "spans")
    scalar = runner.run(job, "scalar")
    samples = [plain, traced, scalar]
    if not all(s.ok for s in samples):
        return samples, {}, []
    summary = Summary(traced.trace)
    counts = dict(traced.trace["counts"], **scalar.trace["counts"])
    metrics = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead":
            value = traced.job_s / plain.job_s
        elif name == "algebra.mul.merge_ratio":
            pairs = counts.get("algebra.mul.pairs", 0)
            value = counts.get("algebra.mul.terms_out", 0) / pairs if pairs else 0.0
        elif kind == "calls":
            value = summary.calls.get(base, 0)
        elif kind == "self_s":
            value = summary.layer_self_s(base) if base in LAYERS else summary.self_s.get(base, 0.0)
        elif kind == "s":
            value = summary.inclusive_s.get(base, 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = value
    return samples, metrics, traced.trace["missing"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "implicitseries" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    job = make_job(args.workload, args.seed)
    missing = []
    if args.trace:
        samples, values, missing = per_layer(job, runner)
        units = dict(PER_LAYER)
    else:
        samples, values = end_to_end(job, runner, args.seconds)
        units = dict(END_TO_END)
    failed = [s for s in samples if not s.ok]
    attempted = len(samples)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} jobs, one fresh process each")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':40s} {len(failed) / attempted:14.6g} ratio")
    good = [s for s in samples if s.ok and s.job_s]
    print(f"  unscaled job_s of each job: {' '.join(f'{s.job_s:.3f}' for s in good)}")
    if not args.trace:
        print(f"  unscaled median job_s {median([s.job_s for s in good]):.4f} s; "
              f"machine speed {median([s.scale for s in good]):.3f} times the reference")
    for name in missing:
        print(f"  boundary not found, not traced: {name}")
    for s in failed:
        print(f"  FAILED: {s.error}")
    result = {
        "correct": not failed and bool(values),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
