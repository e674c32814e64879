"""One benchmark job, run by run.py in a fresh Python process.

    python3 perfbench/job.py SPEC_JSON

SPEC_JSON says which public entry point to call and how:

    {"call": "import" | "census" | "cli",
     "order": int,              # census: the coefficient index
     "argv": [...],             # cli: arguments of implicitseries.cli.main
     "out": path,               # where the job writes its output
     "pass": "plain" | "spans" | "scalar",
     "trace_out": path}         # spans/scalar: where the trace is written

The last line on stdout is a JSON object with the moment the package was
imported (time.monotonic, comparable with the parent's clock), the job's
wall and CPU seconds, its peak RSS, its exit status and, for an untraced
process, the mean time of the calibration samples it took.
"""

import sys
import time

import implicitseries
import implicitseries.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402

# An untraced job samples the machine's speed every SAMPLE_INTERVAL_S by
# timing calibrate() in a SIGALRM handler; a process takes at least
# MIN_SAMPLES samples.
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 10


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_kb():
    """This process's own peak RSS.  ru_maxrss is not used: Linux carries
    the parent's high-water mark over fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def calibrate(steps=1000):
    """(wall, CPU) seconds of a fixed pure-Python task of a few ms: small
    Fraction products summed into a tuple-keyed dict, the kind of work the
    package does, without the package.  Its time says how fast the machine
    runs Python at the moment."""
    wall0, cpu0 = time.monotonic(), time.process_time()
    table = {}
    for i in range(steps):
        f = Fraction(i % 89 + 1, i % 7 + 2)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + f * f
    return time.monotonic() - wall0, time.process_time() - cpu0


class SpeedProbe:
    """Calibration samples taken while a job runs."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(calibrate())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self):
        """(wall, CPU) seconds spent in samples so far."""
        return sum(s[0] for s in self.samples), sum(s[1] for s in self.samples)

    def mean_s(self):
        """Mean wall time of a sample, topped up to MIN_SAMPLES samples."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample(None, None)
        return sum(s[0] for s in self.samples) / len(self.samples)


def census(order):
    """The call behind --census-15: one generic coefficient by the direct
    sum.  Returns the value; it is written out after the timed part."""
    table = implicitseries.CoeffTable.symbolic(order)
    return implicitseries.y_coeff_direct(table, order)


def main():
    spec = json.loads(sys.argv[1])
    report = {"imported_at": IMPORTED_AT, "exit": 0}
    probe = SpeedProbe() if spec["pass"] == "plain" else None
    if spec["call"] == "import":
        report["calibration_s"] = probe.mean_s()
        print(json.dumps(report))
        return 0

    if spec["call"] == "census":
        def job():
            return census(spec["order"])
    else:
        def job():
            return implicitseries.cli.main(spec["argv"] + ["--out", spec["out"]])

    tracer = counts = None
    if spec["pass"] == "spans":
        tracer = spans.Tracer(spec["job_id"])
        tracer.install()
        job = tracer.root(job)
    elif spec["pass"] == "scalar":
        counts = {}
        spans.count_scalars(counts)

    cpu0 = cpu_seconds()
    t0 = time.monotonic()
    if probe is not None:
        probe.start()
    try:
        result = job()
    finally:
        if probe is not None:
            probe.stop()
    t1 = time.monotonic()
    cpu1 = cpu_seconds()
    if counts is not None:
        counts = dict(counts)
    # the time spent in calibration samples is not the job's
    spent_wall, spent_cpu = probe.spent() if probe is not None else (0.0, 0.0)
    report.update(
        job_s=t1 - t0 - spent_wall,
        cpu_s=cpu1 - cpu0 - spent_cpu,
        maxrss_kb=peak_rss_kb(),
    )
    if probe is not None:
        report["calibration_s"] = probe.mean_s()

    if spec["call"] == "census":
        with open(spec["out"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result.to_obj(), sort_keys=True, separators=(",", ":")))
    else:
        report["exit"] = result

    if tracer is not None or counts is not None:
        trace = tracer.to_obj() if tracer is not None else {"counts": counts}
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    print(json.dumps(report))
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
