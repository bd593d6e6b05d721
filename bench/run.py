"""Benchmark for fockpoisson: one workload per process, stdlib only.

    python3 bench/run.py --workload cauchy --seed 1 --seconds 40 --trace 0

Drives the public CLI in-process (``fockpoisson.cli.main(argv)`` with its
stdout captured) from a single thread, over the workload's item list, pass
after pass for about ``--seconds`` seconds.  The first pass's outputs are
checked against the reference routes in workloads.py; every later pass must
reproduce their sha256 hashes exactly.

With ``--trace 0`` it reports the end-to-end metrics (setup_s, wall_s,
peak_rss_kib).  With ``--trace 1`` it runs untraced passes, then traced ones
with the wrappers of tracing.py installed, checks that both give the same
hashes, and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a readable summary.  A
record of the run, and the spans of the first traced pass, are written under
bench/results/.  Exits 0 when every output is correct, 1 when one is not,
2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_kib": "KiB"}
SETUP_RUNS = 9  # at least, per run
SETUP_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

# Run in a fresh interpreter: the time to import the package and build the
# CLI parser, which every command pays before its first item.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fockpoisson.cli
fockpoisson.cli.build_parser()
elapsed = time.perf_counter() - t0
print(fockpoisson.cli.__file__)
print(repr(elapsed))
"""


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(runs: int):
    """setup_s of `runs` fresh interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        path, elapsed = proc.stdout.split()
        if not _from_src(path):
            raise RuntimeError(f"setup imported fockpoisson from {path}")
        samples.append(float(elapsed))
    return samples


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    from fockpoisson import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Passes over one workload's items, with their checks and hashes."""

    def __init__(self, items):
        self.items = items
        self.hashes = None  # item name -> sha256 of the checked first pass
        self.attempted = 0
        self.failures = []

    def one_pass(self) -> float:
        """Time one pass, summing the CLI calls only; check its outputs."""
        gc.collect()
        outputs, codes, wall = {}, {}, 0.0
        for item in self.items:
            t0 = time.perf_counter()
            codes[item.name], outputs[item.name] = run_cli(item.argv)
            wall += time.perf_counter() - t0
        self.attempted += len(self.items)
        if self.hashes is None:
            self.hashes = {name: _sha(out) for name, out in outputs.items()}
            for item in self.items:
                self._check(item, codes[item.name], outputs)
        else:
            for item in self.items:
                if codes[item.name] != 0:
                    self._fail(item, f"exit code {codes[item.name]}")
                elif _sha(outputs[item.name]) != self.hashes[item.name]:
                    self._fail(item, "output differs from the checked first pass")
        return wall

    def _check(self, item, code, outputs):
        if code != 0:
            self._fail(item, f"exit code {code}")
            return
        try:
            item.check(outputs[item.name], outputs, run_cli)
        except Exception as exc:  # a malformed output fails the item, not the run
            self._fail(item, f"{type(exc).__name__}: {exc}")

    def _fail(self, item, why):
        self.failures.append(f"{item.name}: {why}")

    def output_sha256(self) -> str:
        return _sha("".join(f"{n} {h}\n" for n, h in self.hashes.items()))

    def passes(self, seconds: float, minimum: int, between=None):
        """Pass times until the next pass would likely overrun `seconds`;
        `between()` runs after each pass, untimed."""
        walls, spans = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            walls.append(self.one_pass())
            if between is not None:
                between()
            spans.append(time.perf_counter() - t0)
            spent = time.perf_counter() - start
            if len(walls) >= minimum and spent + statistics.median(spans) > seconds:
                return walls


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockpoisson" / "__init__.py").is_file():
        print(f"error: no fockpoisson sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fockpoisson

    if not _from_src(fockpoisson.__file__):
        print(f"error: fockpoisson imported from {fockpoisson.__file__}", file=sys.stderr)
        return 2

    run = Run(workloads.build(args.workload, args.seed))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "machine": platform.machine(),
        "items": len(run.items),
    }
    spans = []  # of the first traced pass
    if args.trace == 0:
        # Set-up is sampled between passes, so that its samples span the
        # run as the passes do; the first interpreter fills __pycache__.
        measure_setup(1)
        setup = []
        walls = run.passes(args.seconds, MIN_PASSES,
                           between=lambda: setup.extend(measure_setup(SETUP_PER_PASS)))
        setup += measure_setup(max(0, SETUP_RUNS - len(setup)))
        wall = summary(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall["median"],
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        units = END_TO_END
        record.update(setup_s_samples=setup, wall_s=wall, pass_s=walls)
    else:
        untraced = run.passes(args.seconds / 3, MIN_TRACE_PASSES)
        tracer, per_pass = tracing.Tracer(), []

        def collect():
            per_pass.append(tracer.metrics())
            if not spans:
                spans.extend(list(s) for s in tracer.spans)
            tracer.reset()

        tracer.install()
        try:
            traced = run.passes(args.seconds * 2 / 3, MIN_TRACE_PASSES, between=collect)
        finally:
            tracer.uninstall()
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["bench.untraced_wall_s"] = statistics.median(untraced)
        metrics["bench.traced_wall_s"] = statistics.median(traced)
        metrics["bench.trace_overhead_s"] = (
            metrics["bench.traced_wall_s"] - metrics["bench.untraced_wall_s"])
        units = tracing.PER_LAYER
        metrics = {name: metrics[name] for name in units}
        record.update(untraced_pass_s=untraced, traced_pass_s=traced,
                      computed=list(tracing.COMPUTED),
                      computed_per_pass={k: [p[k] for p in per_pass] for k in tracing.COMPUTED})

    failed = len(run.failures)
    record.update(attempted=run.attempted, failed=failed,
                  failed_frac=failed / run.attempted, failures=run.failures[:50],
                  output_sha256=run.output_sha256(), item_sha256=run.hashes,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    write_record(record, spans)

    shown = " ".join(f"{k}={v:.6g}{units[k]}" for k, v in metrics.items()
                     if not args.trace or k.startswith(("bench.", "cli.")))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={record['nproc']} "
          f"python={record['python']} items={len(run.items)} "
          + (f"passes={wall['n']} wall_s_q1={wall['q1']:.6g} wall_s_q3={wall['q3']:.6g} "
             if not args.trace else "")
          + f"failed_frac={record['failed_frac']:.6g}frac {shown} "
          f"output_sha256={record['output_sha256'][:16]}")
    for failure in run.failures[:10]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def write_record(record, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{os.getpid()}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for sid, parent, name, start, end in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
