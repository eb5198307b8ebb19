"""Run one hypermat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

One single-threaded, closed-loop caller drives hypermat in-process through
``hypermat.cli.run``: it sends the next request only after the previous
verdict has returned.  A run repeats passes over the workload's requests
until ``--seconds`` have elapsed (always at least one pass), checks every
verdict against its known answer after the timed region, prints one line
per metric and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` runs one untraced pass, then traced passes, and
reports the per-layer metrics; the spans of the last traced pass are
written to ``.perfbench/spans-<workload>.tsv.gz``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 9
TAIL = 10  # samples a reported percentile must have above it
_ELAPSED = re.compile(r'^\s*"elapsed_ms": \d+,?\n', re.MULTILINE)


def import_cli():
    """Import hypermat from this checkout's sources, never from elsewhere."""
    package = SRC / "hypermat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hypermat sources in {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hypermat import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hypermat from {cli.__file__}, not {package}")
    return cli


@dataclass(frozen=True)
class Outcome:
    """What one ``cli.run`` call left behind."""

    code: int | None
    error: str | None  # an exception that escaped cli.run
    stderr: str
    report: str | None  # report text without the elapsed_ms fields

    def doc(self):
        return json.loads(self.report) if self.report is not None else None


def normalized_report(path) -> str | None:
    """Report text without the elapsed_ms fields, or None if none was written."""
    try:
        with open(path) as fh:
            return _ELAPSED.sub("", fh.read())
    except FileNotFoundError:
        return None


def call(cli, request):
    """Send one request; returns (seconds, exit code, escaped error, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code, error = cli.run(request.argv), None
        except Exception as exc:  # an escaped exception is a failed verdict, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return seconds, code, error, err.getvalue()


def run_pass(cli, requests, seen):
    """One pass over the requests.

    Returns (wall seconds, verdict samples in ms, outcomes).  Every pass
    starts from a collected heap; reports are read back and removed only
    after the last verdict of the pass.  ``seen`` interns outcomes, so that
    identical reports of later passes take no memory of their own.
    """
    gc.collect()
    t0 = time.perf_counter()
    calls = [call(cli, r) for r in requests]
    wall = time.perf_counter() - t0
    samples, outcomes = [], []
    for i, (r, (seconds, code, error, stderr)) in enumerate(zip(requests, calls)):
        report = normalized_report(r.out)
        if r.per_record and report is not None:
            with open(r.out) as fh:
                samples += [float(c["elapsed_ms"]) for c in json.load(fh)["checks"]]
        elif not r.per_record:
            samples.append(seconds * 1000)
        if report is not None:
            os.remove(r.out)
        outcome = Outcome(code, error, stderr, report)
        outcomes.append(seen.setdefault((i, outcome), outcome))
    return wall, samples, outcomes


def measure(cli, requests, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed; with a tracer, one untraced pass first.

    Returns (passes, per-pass layer metrics).
    """
    from layers import per_layer_metrics

    deadline = time.perf_counter() + seconds
    seen = {}
    passes, layer = [], []
    if tracer is None:
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(cli, requests, seen))
        return passes, layer
    passes.append(run_pass(cli, requests, seen))
    with tracer:
        while len(passes) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            passes.append(run_pass(cli, requests, seen))
            layer.append(per_layer_metrics(tracer))
    return passes, layer


def verify(requests, passes):
    """Statuses of every verdict of every pass, and lines that group the requests not ok.

    Each distinct outcome of a request is checked once.
    """
    seen = {}
    statuses = []
    for _, _, outcomes in passes:
        for i, (request, outcome) in enumerate(zip(requests, outcomes)):
            key = (i, outcome)
            if key not in seen:
                seen[key] = request.check(outcome)
            statuses += seen[key]
    groups = {}
    for (i, outcome), st in seen.items():
        bad = "/".join(sorted(set(st) - {"ok"}))
        if bad:
            kind = outcome.error.split(":")[0] if outcome.error else f"exit {outcome.code}"
            groups.setdefault((bad, kind), []).append(requests[i].label)
    notes = [f"{len(labels)} requests {bad} with {kind}, e.g. {labels[0]}"
             for (bad, kind), labels in groups.items()]
    return statuses, notes


def percentile(samples, q):
    """Nearest rank: the smallest sample with at least q% of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def time_setup(name, seed, workdir):
    """Median wall time of fresh interpreters that import hypermat and write the inputs.

    Each one writes into its own directory; the inputs must equal the ones
    this process wrote for the same seed.
    """
    times = []
    inputs = sorted(p.name for p in Path(workdir).iterdir() if p.is_file())
    for k in range(SETUP_RUNS):
        target = Path(workdir) / f"setup-{k}"
        target.mkdir()
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", "0", "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        _, mismatch, errors = filecmp.cmpfiles(workdir, target, inputs, shallow=False)
        if mismatch or errors or sorted(p.name for p in target.iterdir()) != inputs:
            raise SystemExit(f"error: seed {seed} gave different inputs in a fresh process")
    return statistics.median(times)


def end_to_end(setup_s, passes, statuses, rss_kb):
    """End-to-end metrics; every timing is a median over passes.

    A pass's verdict percentiles are nearest-rank percentiles of its own
    verdict times, so one slow copy of one request moves them only in
    its own pass.
    """
    timed = [samples for _, samples, _ in passes if samples]

    def over_passes(q):
        return statistics.median(percentile(s, q) for s in timed) if timed else 0.0

    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for wall, _, _ in passes), "s"),
        "verdict_p50_ms": (over_passes(50), "ms"),
        "verdict_p90_ms": (over_passes(90), "ms"),
        "ok_frac": (statuses.count("ok") / len(statuses), "fraction"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }, [s for samples in timed for s in samples]


def layer_report(passes, layer):
    untraced = passes[0][0]
    traced = statistics.median(wall for wall, _, _ in passes[1:])
    out = {
        name: (statistics.median_low(m[name][0] for m in layer), unit)
        for name, (_, unit, _) in layer[-1].items()
    }
    out["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return out


def main(argv=None) -> int:
    cli = import_cli()
    import layers
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only write the seeded inputs into DIR (used to time set-up)")
    args = parser.parse_args(argv)
    make = WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, args.setup_only)
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        requests = make(args.seed, workdir)
        if args.trace:
            tracer = layers.tracer()
            passes, layer = measure(cli, requests, args.seconds, tracer)
            tracer.write(WORK / f"spans-{args.workload}.tsv.gz")
            statuses, notes = verify(requests, passes)
            metrics, samples = layer_report(passes, layer), []
        else:
            setup_s = time_setup(args.workload, args.seed, workdir)
            passes, _ = measure(cli, requests, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            statuses, notes = verify(requests, passes)
            metrics, samples = end_to_end(setup_s, passes, statuses, rss_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(statuses) - statuses.count("ok")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"verdicts {len(statuses)}  failed {failed}  wrong {statuses.count('wrong')}")
    for note in notes:
        print(f"  not ok: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:>16.6f} {unit}")
    if samples:
        above = sum(s > metrics["verdict_p90_ms"][0] for s in samples)
        highest = 100 * (len(samples) - TAIL) / len(samples)
        print(f"verdict samples {len(samples)} in {len(passes)} passes; {above} above p90; "
              f"highest percentile of all samples with {TAIL} above: p{max(highest, 0):.1f}")
    result = {
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict iteration order inside hypermat,
        # and with it a few percent of run time; one fixed hash seed keeps
        # runs comparable.  exec replaces this process; it starts none.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)
    sys.exit(main())
