"""Self-test of the benchmark harness at small orders (about 10 s).

    python3 perfbench/selftest.py

Runs small variants of the four workloads through the same job runner and
checks that
  * each passes its output check, and a corrupted or truncated output is
    caught;
  * two traced runs give identical counts;
  * the span self times of one job add up to its root span;
  * a boundary that no longer exists is reported as missing;
  * the metric names match BENCHMARK.json.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import time

import run
import spans

SMALL = {"census15": 6, "symbolic10": 4, "lambert20": 6, "dense40": 8}
SEEDS = (0, 1, 2, 3)  # dense40 draws both signs among these

COUNT_KINDS = ("calls", "partitions", "compositions", "pairs", "terms_out")


def corrupt(data):
    """The output with its last digit changed."""
    i = max(data.rfind(bytes([d])) for d in b"0123456789")
    return data[:i] + (b"1" if data[i:i + 1] == b"0" else b"0") + data[i + 1:]


def is_count(name):
    return name.startswith("scalar.") or name.rpartition(".")[2] in COUNT_KINDS


def main():
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "end-to-end metrics match BENCHMARK.json")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER,
           "per-layer metrics match BENCHMARK.json")
    expect(sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS),
           "workloads match BENCHMARK.json")

    runner = run.Runner(time.monotonic() + 600)
    signs = set()
    for name, order in SMALL.items():
        for seed in SEEDS if name == "dense40" else SEEDS[:1]:
            if name == "dense40":
                sign = run.dense_coefficients(seed)[0]
                if sign in signs:
                    continue
                signs.add(sign)
            label = f"{name} at order {order}, seed {seed}"
            job = run.make_job(name, seed, order)
            expect(runner.run(job).ok, f"{label}: output passes its check")
            for how, damage in (("corrupted", corrupt), ("truncated", lambda data: data[:-9])):
                bad = run.Job(job.name, job.spec,
                              lambda data, check=job.check, damage=damage: check(damage(data)))
                sample = runner.run(bad)
                expect(not sample.ok and sample.error, f"{label}: {how} output is caught")

        first = run.per_layer(job, runner)
        second = run.per_layer(job, runner)
        expect(all(s.ok for s in first[0] + second[0]), f"{name}: traced jobs pass")
        counts = [{k: v for k, v in m.items() if is_count(k)} for m in (first[1], second[1])]
        expect(bool(counts[0]) and counts[0] == counts[1],
               f"{name}: two traced runs give identical counts")
        summary = spans.Summary(first[0][1].trace)
        total = sum(summary.self_s.values())
        expect(abs(total - summary.root_s) <= 1e-9 * max(1.0, summary.root_s),
               f"{name}: span self times add up to the root span")

    sys.path.insert(0, str(run.SRC))
    import implicitseries.cli  # noqa: F401  (the tracer wraps an imported package)
    spans.BOUNDARIES.append(("implicit.gone", "implicit", "_no_such_function"))
    tracer = spans.Tracer("selftest")
    tracer.install()
    expect(tracer.missing == ["implicit._no_such_function"],
           "a boundary that no longer exists is reported as missing")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
