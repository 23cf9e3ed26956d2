"""Request benchmark for ncrewrite.

Each call of ``ncrewrite.cli.main(argv)`` is one request.  One closed-loop
client in this process sends them one at a time, with no threads: the
next request goes out when the previous one has returned.  Requests run
in-process over system documents written to disk beforehand, with their
standard output captured; every response is checked by the reference
code in ``reference.py`` after its latency has been taken, outside the
timed region.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones, measured on a traced pass that follows an untraced pass of the
same length (their throughput ratio is ``trace.overhead_ratio``).  The
spans of the traced pass go to ``.perfbench_out/``.  ``--smoke`` sends a
handful of requests per workload in both modes and checks that every
metric named in BENCHMARK.json is printed with its unit and that every
response was checked.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Recorder, per_layer
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# setup_s is the median of SETUP_REPS set-ups at the start of a run and
# SPREAD_REPS more spread over the untraced pass, so that it samples the
# machine over the same stretch of time as the request metrics
SETUP_REPS = 5
SPREAD_REPS = 10
BATCH = 16          # documents written per batch, and the first batch is set-up
WARMUP = 3          # requests sent before timing starts
FAILED_EXITS = (2, 5)


def _package_modules():
    return {m: mod for m, mod in sys.modules.items()
            if m == "ncrewrite" or m.startswith("ncrewrite.")}


def fresh_import():
    """Import the package from scratch and return ncrewrite.cli."""
    for name in _package_modules():
        del sys.modules[name]
    importlib.import_module("ncrewrite")
    return importlib.import_module("ncrewrite.cli")


class Feed:
    """Documents of one workload, written to disk a batch at a time."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.queue = []
        self.written = 0

    def refill(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        batch = []
        for _ in range(BATCH):
            item = self.workload.draw()
            item.path = os.path.relpath(self.workdir / f"{self.written:06d}.json")
            with open(item.path, "w") as fh:
                json.dump(item.doc, fh)
            self.written += 1
            batch.append(item)
        self.queue = batch[::-1]

    def next(self):
        if not self.queue:
            self.refill()
        return self.queue.pop()


def make_workload(name, seed, cli):
    if name != "homology":
        return WORKLOADS[name](seed)
    dgmodel = importlib.import_module("ncrewrite.dgmodel")

    def census(doc, bound):
        system, _ = cli.system_from_document(doc)
        return sorted(tuple(e) for e in dgmodel.ie_degree2_census(system, bound))

    return WORKLOADS[name](seed, census)


def timed_setup(name, seed, workdir):
    """One set-up: import the package afresh, then draw and write the first batch."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    cli = fresh_import()
    feed = Feed(make_workload(name, seed, cli), workdir)
    feed.refill()
    return time.perf_counter() - start, cli, feed


def setup(name, seed, workdir):
    """SETUP_REPS set-ups; the last one stays for the run."""
    times = []
    for _ in range(SETUP_REPS):
        elapsed, cli, feed = timed_setup(name, seed, workdir)
        times.append(elapsed)
    return cli, feed, times


def spare_setup(name, seed, workdir):
    """A set-up timed like the others that leaves the live package in place."""
    live = _package_modules()
    try:
        elapsed, _, _ = timed_setup(name, seed, workdir)
    finally:
        for module in _package_modules():
            del sys.modules[module]
        sys.modules.update(live)
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def send(cli, item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(item.argv())
        except Exception as e:      # a crash is a failed request, not a failed run
            code = f"{type(e).__name__}: {e}"
    return code, out.getvalue()


class Pass:
    """Outcome of one timed pass."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.checked = 0
        self.output_bytes = 0
        self.problems = []

    @property
    def throughput(self):
        return len(self.latencies) / sum(self.latencies)


def measure(cli, feed, seconds, recorder=None, between=None):
    """Closed loop for `seconds` of request time.

    Responses are checked a batch at a time, between batches of
    requests, so that the reference code does not run between two
    timed requests; ``between(busy)`` runs there too when given.
    """
    result = Pass()
    busy = 0.0
    responses = []
    while busy < seconds:
        item = feed.next()
        start = time.perf_counter()
        if recorder is None:
            code, stdout = send(cli, item)
        else:
            recorder.start_request(len(result.latencies))
            try:
                code, stdout = send(cli, item)
            finally:
                recorder.finish_request()
        elapsed = time.perf_counter() - start
        busy += elapsed
        result.latencies.append(elapsed)
        responses.append((item, code, stdout))
        if not feed.queue or busy >= seconds:
            check(feed.workload, responses, result)
            responses = []
            if between is not None:
                between(busy)
    return result


def check(workload, responses, result):
    for item, code, stdout in responses:
        result.output_bytes += len(stdout)
        try:
            if code in FAILED_EXITS or not isinstance(code, int):
                raise CheckError(f"exit {code}")
            workload.check(item, code, stdout)
        except (CheckError, KeyError, TypeError, ValueError) as e:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append(f"{' '.join(item.argv()[:2])}: {e!r}")
        result.checked += 1


def warm_up(cli, feed):
    for _ in range(WARMUP):
        send(cli, feed.next())


def run(name, seed, seconds, trace):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "ncrewrite").is_dir():
        raise SystemExit(f"no package source at {ROOT / 'src' / 'ncrewrite'}")
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cli, feed, setup_times = setup(name, seed, workdir)
        warm_up(cli, feed)
        between = None
        if not trace:
            def between(busy):
                spread = len(setup_times) - SETUP_REPS
                if spread < SPREAD_REPS and busy >= spread * seconds / SPREAD_REPS:
                    setup_times.append(spare_setup(name, seed, workdir / "spare"))
        plain = measure(cli, feed, seconds, between=between)
        passes = [plain]
        if trace:
            recorder = Recorder()
            recorder.install()
            try:
                traced = measure(cli, feed, seconds, recorder)
            finally:
                recorder.uninstall()
            passes.append(traced)
            recorder.write(OUT / f"trace-{name}-{seed}.jsonl")
            metrics = per_layer(recorder, len(traced.latencies), traced.output_bytes,
                                traced.throughput / plain.throughput)
        else:
            lat = sorted(plain.latencies)
            deciles = statistics.quantiles(lat, n=10, method="inclusive")
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "throughput_rps": {"value": plain.throughput, "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
                "latency_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    summary = (f"{name} seed {seed}: {len(plain.latencies)} requests, "
               f"error_rate {plain.failed / len(plain.latencies):.4f}")
    if len(plain.latencies) >= 1000:
        p99 = statistics.quantiles(plain.latencies, n=100, method="inclusive")[98]
        summary += f", latency_p99_ms {p99 * 1e3:.3f}"
    print(summary, file=sys.stderr)
    for p in passes:
        for problem in p.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    checked = sum(p.checked for p in passes)
    return report, checked


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((Path(__file__).parent / "record.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    problems = []
    for row in record["predictions"]:
        for name in row["per_layer"]:
            if name not in layer_names:
                problems.append(f"record.json predicts with unknown metric {name}")
        for target in row["moves"]:
            workload, _, metric = target.partition(".")
            if workload not in WORKLOADS or metric not in e2e_names:
                problems.append(f"record.json predicts a move of unknown {target}")
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            report, checked = run(name, 1, 0.3, trace)
            metrics = report["metrics"]
            want = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if checked != report["attempted"] or report["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {checked} of "
                                f"{report['attempted']} responses checked")
            if not report["correct"]:
                problems.append(f"{name} trace {trace}: {report['failed']} failed")
            print(f"smoke {name} trace {trace}: {report['attempted']} requests, "
                  f"{len(metrics)} metrics")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few requests per workload; check the metric set")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
