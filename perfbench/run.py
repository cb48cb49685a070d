#!/usr/bin/env python3
"""Benchmark of the volrigid CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload census --steady 5

A run builds the workload's seeded round of operations and repeats it in
process for ``--seconds`` (one client, each call starts when the last
ended); every operation is one ``volrigid.cli.run(argv)`` call with
stdout and stderr captured.  Fresh-interpreter runs of the round's
smallest call, spread over the rounds, give ``setup_s``.  Every time is
scaled by ``Clock``'s reference probe, so a host that drifts slower or
faster moves the probe and the call together.  After the timed rounds
every distinct output is checked by ``checks.py``, and the last line of
stdout is the JSON result.

``--trace 1`` alternates untraced rounds with rounds whose layer
functions are wrapped in spans (``layers.py``) and reports the per-layer
metrics instead.  ``--steady K`` runs K seeds in fresh processes and
prints each end-to-end metric's median and quartile spread, raw and
drift-corrected, next to its bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# One probe is the fastest of PROBE_REPEATS runs of the kernel; taking
# the fastest keeps a single interrupt from scaling a whole call.
PROBE_ITERS = 1300
PROBE_REPEATS = 3
PROBE_REF_S = 0.00015
SAMPLE_S = 0.02

SETUP_SPAWNS = 21  # plus one untimed spawn that writes the bytecode cache
SPAWN_EVERY = 12  # calls between set-up spawns during the rounds
SETUP_KIND = {"search": "prime-seq", "certify": "certify", "census": "mutant-graph"}
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # ops beyond the reported tail percentile


def _probe_kernel(n: int) -> int:
    acc, table = 0, {}
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        table[acc & 255] = i
    return acc + len(table)


def probe() -> float:
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_kernel(PROBE_ITERS)
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Times a call and scales it by the machine speed the probe saw.

    The probe runs before and after every call and, for in-process calls,
    every SAMPLE_S seconds during it from a SIGALRM handler, whose own
    time is taken out of the call's time: drift inside a long call is
    seen, not only at its edges.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.samples: list[float] = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.stolen += time.perf_counter() - start

    def now(self) -> float:
        """perf_counter() less all time spent in in-call probes so far."""
        return time.perf_counter() - self.stolen

    def time(self, fn, sample: bool = True):
        """(result, seconds, drift factor PROBE_REF_S / mean probe)."""
        before = self.last
        self.samples = []
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = self.now()
        try:
            result = fn()
        finally:
            elapsed = self.now() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.last = probe()
        speed = statistics.fmean([before, *self.samples, self.last])
        return result, elapsed, PROBE_REF_S / speed


def invoke(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv))
        except Exception:  # a crash is a failed operation, not a dead run
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def spawn(argv) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "volrigid", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics, so
    samples of similar size that trade ranks from run to run barely move
    it, where a single order statistic jumps between them.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 50 * n
    cdf = [0.0]
    for j in range(steps):
        t = (j + 0.5) / steps
        cdf.append(cdf[-1] + math.exp(log_norm + (a - 1) * math.log(t)
                                      + (b - 1) * math.log1p(-t)) / steps)
    weights = [cdf[50 * (i + 1)] - cdf[50 * i] for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(rounds: list[list[float]]) -> dict[str, float]:
    """job_s: the median round.  op_p50_ms: the median over every
    execution timed.  op_tail_ms: over the ops' median times, the highest
    percentile with TAIL_BEYOND ops beyond it (1 - 10/60: p83.3)."""
    per_op = [statistics.median(col) for col in zip(*rounds)]
    return {
        "job_s": statistics.median(sum(r) for r in rounds),
        "op_p50_ms": hd_quantile([t for r in rounds for t in r], 0.5) * 1e3,
        "op_tail_ms": hd_quantile(per_op, 1 - TAIL_BEYOND / len(per_op)) * 1e3,
    }


class Outputs:
    """First output of every op (on disk) and failed executions per op.

    An execution fails when it exits non-zero or writes to stderr, or when
    its exit code, stderr or stdout differ from the op's first execution;
    ``tally`` adds every execution of an op whose output the checker rejects.
    """

    def __init__(self, workdir: Path, n_ops: int) -> None:
        self.workdir = workdir
        self.first: list[tuple[int, str, str] | None] = [None] * n_ops
        self.runs = [0] * n_ops
        self.failures = [0] * n_ops
        self.changed: set[int] = set()

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    def record(self, i: int, rc: int, out: str, err: str) -> None:
        self.runs[i] += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.first[i] is None:
            self.first[i] = (rc, err, digest)
            (self.workdir / f"out-{i}.txt").write_text(out, encoding="utf-8")
        elif self.first[i] != (rc, err, digest):
            self.changed.add(i)
            self.failures[i] += 1
            return
        if rc != 0 or err:
            self.failures[i] += 1

    def text(self, i: int) -> str:
        return (self.workdir / f"out-{i}.txt").read_text(encoding="utf-8")


def tally(ops, outputs: Outputs) -> set[int]:
    """Check each op's first output; return the ops with a wrong answer.

    A wrong answer is one the checker rejects or one that changed between
    rounds.  Every execution of a rejected op is counted as failed.
    """
    import checks

    wrong = set(outputs.changed)
    for i, op in enumerate(ops):
        rc, err, _ = outputs.first[i]
        label = f"op {i} {' '.join(op.argv)[:100]}"
        if rc != 0 or err:
            print(f"{label}: exit {rc}: {err.strip()[-300:]}", file=sys.stderr)
            continue
        try:
            checks.check(op, outputs.text(i))
        except checks.CheckError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            wrong.add(i)
            outputs.failures[i] = outputs.runs[i]
    for i in sorted(outputs.changed):
        print(f"op {i}: output changed between rounds", file=sys.stderr)
    return wrong


def measure(args, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import volrigid  # noqa: F401  (loads every layer module for the tracer)
    import volrigid.cli as cli

    from layers import Tracer, per_layer, unit

    # Calls, probes and set-up spawns (which inherit the mask) share one
    # core, so each probe sees the core that ran the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    phase = time.perf_counter()
    ops = workloads.make_ops(args.workload, args.seed, str(workdir))
    phases = {"inputs_s": time.perf_counter() - phase}
    outputs = Outputs(workdir, len(ops))
    clock = Clock()

    setup_op = min((op for op in ops if op.kind == SETUP_KIND[args.workload]),
                   key=lambda op: op.size)
    setup_out = []
    setup = {"raw": [], "corrected": []}

    def spawn_setup(timed: bool) -> None:
        # No sampling: a probe in this process would compete with the
        # child for the shared core.
        (rc, out), elapsed, factor = clock.time(lambda: spawn(setup_op.argv), sample=False)
        setup_out.append((rc, out))
        if timed:
            setup["raw"].append(elapsed)
            setup["corrected"].append(elapsed * factor)

    spawn_setup(timed=False)  # writes the bytecode cache
    tracer = Tracer(clock.now)
    plain = {"raw": [], "corrected": []}
    traced = {"raw": [], "corrected": []}
    round_spans = []
    start = time.perf_counter()
    n_rounds = 0
    while True:
        tracing = bool(args.trace) and n_rounds % 2 == 1
        if tracing:
            tracer.install()
        raw, corrected, spans = [], [], {}
        for i, op in enumerate(ops):
            gc.collect()
            (rc, out, err), elapsed, factor = clock.time(lambda: invoke(cli, op.argv))
            outputs.record(i, rc, out, err)
            raw.append(elapsed)
            corrected.append(elapsed * factor)
            # Set-up spawns are spread over the rounds, so they see the
            # run's drift as the calls do rather than one burst of it.
            if (i + 1) % SPAWN_EVERY == 0 and len(setup["raw"]) < SETUP_SPAWNS:
                spawn_setup(timed=True)
            if tracing:
                for name, (calls, s, self_s, count) in tracer.take().items():
                    acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
                    acc[0] += calls
                    acc[1] += s * factor
                    acc[2] += self_s * factor
                    acc[3] += count
        if tracing:
            tracer.remove()
            round_spans.append(spans)
        bucket = traced if tracing else plain
        bucket["raw"].append(raw)
        bucket["corrected"].append(corrected)
        n_rounds += 1
        elapsed = time.perf_counter() - start
        min_rounds = 2 * MIN_ROUNDS - 2 if args.trace else MIN_ROUNDS
        if n_rounds >= min_rounds and elapsed * (1 + 0.5 / n_rounds) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup["raw"]) < SETUP_SPAWNS:
        spawn_setup(timed=True)

    phases["rounds_s"] = time.perf_counter() - start
    phase = time.perf_counter()
    wrong = tally(ops, outputs)
    reference = (0, outputs.text(ops.index(setup_op)))
    setup_failed = sum(1 for r in setup_out if r != reference)
    if setup_failed:
        print(f"setup spawns: {setup_failed} outputs differ from in-process", file=sys.stderr)
        wrong.add(-1)

    phases["checks_s"] = time.perf_counter() - phase
    result = {
        "correct": not wrong,
        "attempted": outputs.attempted + len(setup_out),
        "failed": sum(outputs.failures) + setup_failed,
        "metrics": {},
    }
    if args.trace:
        layer_rounds = [per_layer(s) for s in round_spans]
        values = {m: statistics.median(r[m] for r in layer_rounds) for m in layer_rounds[0]}
        values["trace.overhead_s"] = (
            end_to_end(traced["corrected"])["job_s"] - end_to_end(plain["corrected"])["job_s"]
        )
        result["metrics"] = {m: {"value": v, "unit": unit(m)} for m, v in values.items()}
        return {"result": result}

    units = {"setup_s": "s", "job_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
    corrected = end_to_end(plain["corrected"])
    corrected["setup_s"] = statistics.median(setup["corrected"])
    raw = end_to_end(plain["raw"])
    raw["setup_s"] = statistics.median(setup["raw"])
    corrected["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
    result["metrics"] = {m: {"value": corrected[m], "unit": units[m]} for m in units}
    info = {"rounds": n_rounds, "ops": len(ops), "tail_percentile":
            round(100 * (len(ops) - TAIL_BEYOND) / len(ops), 1),
            "phases": phases, "raw": raw}
    return {"result": result, "info": info}


def run_once(args) -> int:
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        report = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    if "info" in report:
        print(json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(args, bench: dict) -> int:
    """Run the workload on K seeds and report each metric's spread."""
    results, infos = [], []
    for k in range(args.steady):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            return 1
        infos.append(json.loads(lines[-2]))
        results.append(json.loads(lines[-1]))
        print(f"seed {args.seed + k}: " + ", ".join(
            f"{m}={v['value']:.4g}" for m, v in results[-1]["metrics"].items()),
            flush=True)
    print(f"{'metric':<12} {'unit':<5} {'median':>10} {'spread':>8} {'raw med':>10} "
          f"{'raw spr':>8} {'bound':>6} {'spr/bnd':>7}")
    summary = {}
    for spec in bench["end_to_end"]:
        m = spec["name"]
        vals = [r["metrics"][m]["value"] for r in results]
        raws = [i["raw"][m] for i in infos]
        spread = _spread(vals)
        summary[m] = {"median": statistics.median(vals), "spread": spread,
                      "raw_spread": _spread(raws), "bound": spec["bound"]}
        print(f"{m:<12} {spec['unit']:<5} {statistics.median(vals):>10.4g} {spread:>8.3f} "
              f"{statistics.median(raws):>10.4g} {_spread(raws):>8.3f} {spec['bound']:>6} "
              f"{spread / spec['bound']:>7.2f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct: {all(r['correct'] for r in results)}, failed shares: {sorted(shares)}, "
          f"rounds: {[i['rounds'] for i in infos]}")
    print(json.dumps({"workload": args.workload, "runs": args.steady, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run K seeds and report each metric's spread")
    args = parser.parse_args(argv)
    if not (SRC / "volrigid" / "__init__.py").is_file():
        print(f"error: no volrigid sources under {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        return steady(args, bench)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
