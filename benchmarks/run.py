"""Benchmark of the hdts compile and check pipelines.

    python3 benchmarks/run.py --workload compile-par --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Each workload is a closed loop with one client in one process and one
thread: every item is a call into the public API the way a user makes
it, and the next item starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics: a warm-up deck from a
different seed, then whole decks until ``--seconds`` have passed.
``--trace 1`` runs a fixed number of decks untraced and as many again
traced, and reports the per-layer metrics of the traced pass; its counts
repeat exactly for one seed.  Either way every output is checked against
the independent references in ``bench_items``, a digest of each output
goes to ``.bench_results/``, and the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_items

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 9
ITEM_TIMEOUT_S = 60  # an item still running after this counts as hung
# decks per pass of a traced run, so that each pass takes a few seconds
TRACE_DECKS = {"compile-par": 2, "compile-rec": 3, "check": 4}


def measure_setup() -> float:
    """Median wall time, over fresh interpreters, to import hdts and hdts.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import hdts, hdts.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        # no timeout here: with one, the wait polls and rounds the time up
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Runner:
    """Writes each item's files, times the call, checks the output."""

    def __init__(self, workdir: Path):
        from hdts import cli, core, serialize

        self.cli, self.core = cli, core
        # bound now, before any tracing, so that the runner's own use stays out of the trace
        self.load_system, self.validate = serialize.hdts_from_json, core.validate
        self.workdir = workdir
        self.records: list[dict] = []

    def prepare(self, item: bench_items.Item):
        for name, text in item.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        if item.argv is None:
            doc, word = item.orthogonal
            return self.load_system(doc), tuple(word)
        return [str(self.workdir / a) if a in item.files else a for a in item.argv]

    def call(self, prepared, is_cli: bool):
        """One timed item: (seconds, exit code, stdout, stderr)."""
        if not is_cli:
            system, word = prepared
            start = time.perf_counter()
            verdict = self.core.is_orthogonal(system, self.core.cube_inclusion(word))
            elapsed = time.perf_counter() - start
            return elapsed, 0, json.dumps(verdict), ""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(prepared)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def run(self, item: bench_items.Item, timed: bool = True) -> float:
        """Run one item; it fails if it raises, hangs or exits with another
        code than expected, and is wrong if its output disagrees with the
        reference."""
        prepared = self.prepare(item)
        failed = wrong = None
        signal.alarm(ITEM_TIMEOUT_S)
        try:
            elapsed, code, out, err = self.call(prepared, item.argv is not None)
        except Exception as exc:  # the item failed; the run goes on
            elapsed, code, out, err = 0.0, None, "", ""
            failed = f"{type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
        if failed is None and code != item.exit:
            failed = f"exit {code}, expected {item.exit}: {err.strip()[:200]}"
        if failed is None:
            try:
                wrong = item.check(out, err)
            except (ValueError, KeyError, TypeError) as exc:
                wrong = f"unreadable output: {exc}"
            if wrong is None and item.argv is None:
                uisa = self.validate(prepared[0]).uisa
                if json.dumps(uisa) != out:
                    wrong = f"is_orthogonal {out} disagrees with validate uisa {uisa}"
        if timed:
            self.records.append({
                "tag": item.tag,
                "argv": item.argv,
                "ms": elapsed * 1000,
                "exit": code,
                "digest": hashlib.sha256(out.encode("utf-8")).hexdigest()[:16],
                "failed": failed,
                "wrong": wrong,
            })
        return elapsed


def warm_up(workload: str, seed: int, runner: Runner) -> set[str]:
    """One untimed deck from another seed; returns the keys of the items seen."""
    seen: set[str] = set()
    for item in bench_items.make_deck(workload, random.Random(f"warm-up:{seed}"), seen, 0):
        runner.run(item, timed=False)
    return seen


def timed_pass(workload: str, seed: int, seconds: float, runner: Runner) -> float:
    """Whole decks until ``seconds`` have passed; returns the wall time."""
    seen = warm_up(workload, seed, runner)
    rng = random.Random(seed)
    start = time.perf_counter()
    deck = 0
    while time.perf_counter() - start < seconds:
        for item in bench_items.make_deck(workload, rng, seen, deck):
            runner.run(item)
        deck += 1
    return time.perf_counter() - start


def traced_pass(workload: str, seed: int, runner: Runner):
    """Untraced then traced decks of one seed.

    Returns the tracer, untraced and traced items per second, the least
    share of an item's wall time that its top-level spans cover, and
    whether every item is covered: to 95%, or to within 0.1 ms, since a
    scheduler hiccup of a few tens of microseconds is a large share of a
    library item that takes 0.2 ms.
    """
    from bench_trace import Tracer

    seen = warm_up(workload, seed, runner)
    decks = TRACE_DECKS[workload]
    plain_rng = random.Random(f"untraced:{seed}")
    plain = [runner.run(item, timed=False)
             for d in range(decks) for item in bench_items.make_deck(workload, plain_rng, seen, d)]
    rng = random.Random(seed)
    tracer = Tracer()
    tracer.install()
    coverage, covered = 1.0, True
    try:
        for d in range(decks):
            for item in bench_items.make_deck(workload, rng, seen, d):
                mark = tracer.mark()
                elapsed = runner.run(item)
                if elapsed:  # zero when the item raised
                    top = tracer.top_level_ns(mark) / 1e9
                    coverage = min(coverage, top / elapsed)
                    covered = covered and (top >= 0.95 * elapsed or elapsed - top < 1e-4)
    finally:
        tracer.uninstall()
    traced = [r["ms"] / 1000 for r in runner.records]
    return tracer, len(plain) / sum(plain), len(traced) / sum(traced), coverage, covered


def end_to_end(records, setup_s: float) -> dict:
    ms = [r["ms"] for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


PER_LAYER_SPANS = [
    "cli.main", "serialize.load", "serialize.dump", "ccs.parse",
    "sync.tensor_sync", "precube.check_precube_map", "precube.colimit_presheaf",
    "precube.iso_check_precube", "precube.make_precube", "precube.hda_check",
    "realize.realize", "realize.cubify", "realize.cube_maps_into",
    "core.validate", "core.coherence_closure", "core.is_orthogonal", "core.hom_enumerate",
] + [f"ccs.semantics.{op}" for op in ("Nil", "Prefix", "Sum", "Restrict", "Par", "Rec")]

PER_LAYER_COUNTERS = [
    "sync.tensor_sync.cells_out", "encoding.compose.calls",
    "encoding.all_encodings.calls", "encoding.all_encodings.misses",
    "precube.colimit_presheaf.arrows", "precube.colimit_presheaf.cells_in",
    "precube.colimit_presheaf.cells_out", "precube.iso_check_precube.hits",
    "core.coherence_closure.added", "realize.realize.closure_added",
    "realize.cube_maps_into.maps", "core.hom_enumerate.found", "serialize.dump.out_bytes",
]


def per_layer(tracer, plain_ips: float, traced_ips: float, coverage: float, items: int) -> dict:
    calls, self_ns = tracer.calls(), tracer.self_ns()
    out = {}
    for name in PER_LAYER_SPANS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6, "ms")
    for name in PER_LAYER_COUNTERS:
        out[name] = (tracer.counters.get(name, 0), "B" if name.endswith("_bytes") else "count")
    out["trace.items"] = (items, "count")
    out["trace.items_per_s_untraced"] = (plain_ips, "1/s")
    out["trace.items_per_s_traced"] = (traced_ips, "1/s")
    out["trace.overhead_frac"] = (plain_ips / traced_ips - 1, "ratio")
    out["trace.top_span_coverage_min"] = (coverage, "ratio")
    return out


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "hdts").glob("*.py")))


def commit() -> str | None:
    """The checked-out commit, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _hung(signum, frame):
    raise TimeoutError(f"still running after {ITEM_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_items.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hdts" / "__init__.py").is_file():
        print(f"error: no hdts package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _hung)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        if args.trace:
            tracer, plain_ips, traced_ips, coverage, covered = traced_pass(
                args.workload, args.seed, runner)
            metrics = per_layer(tracer, plain_ips, traced_ips, coverage, len(runner.records))
        else:
            setup_s = measure_setup()
            wall = timed_pass(args.workload, args.seed, args.seconds, runner)
            metrics = end_to_end(runner.records, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    records = runner.records
    attempted = len(records)
    failed = sum(r["failed"] is not None for r in records)
    wrong = sum(r["wrong"] is not None for r in records)
    shown = dict(metrics)
    shown["failed_frac"] = (failed / attempted, "ratio")
    shown["wrong_frac"] = (wrong / attempted, "ratio")
    correct = failed == 0 and wrong == 0 and (not args.trace or covered)

    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_hdts_lines": source_lines(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "items": records,
    }
    if args.trace:
        document["spans"] = tracer.dump()
    else:
        document["timed_wall_s"] = wall
    result_file.write_text(json.dumps(document) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {attempted} items, {failed} failed, "
          f"{wrong} wrong; details in {result_file.relative_to(ROOT)}")
    for r in records:
        if r["failed"] or r["wrong"]:
            print(f"  {r['tag']} {r['argv']}: {r['failed'] or r['wrong']}")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
