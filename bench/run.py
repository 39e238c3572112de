"""Benchmark of the selfdual CLI: fixed tasks timed from spec text to report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One pass over a workload's task list is a round.  Round ``r``
passes every task ``--seed`` derived from ``(N, r)``; only the fixed specs
in ``workloads.py`` and those seeds reach the program, through
``selfdual.cli.main`` called in this process.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
wall and CPU time of a round in units of a fixed reference work timed
beside it, set-up seconds in fresh interpreters, peak resident memory and
the share of tasks whose outputs pass every check.  ``--trace 1`` prints
the per-layer metrics from rounds run under the span recorder of
``spans.py``, alternated with untraced rounds of the same seeds, which give
the rounds' plain seconds and the tracing overhead; it also checks that
tracing changes no output.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from scipy import integrate

from workloads import PREDICTIONS, WORKLOADS, KnownMiss, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 7  # fresh interpreters per run: 4 before the rounds, 3 after
VERDICTS = {0: "pass", 1: "fail", 2: "inconclusive"}  # CLI exit codes

# Run in a fresh interpreter: import the package, then parse the spec,
# which builds the model (for a path config, with its martingale check).
SETUP_CODE = """\
import sys
from pathlib import Path
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import selfdual.cli
selfdual.cli.parse_model_spec(Path(sys.argv[2]).read_text())
print(repr(perf_counter() - t0))
"""


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0]) >> 1


class Runner:
    """Runs a workload's tasks through ``cli.main`` and checks what they produce."""

    def __init__(self, cli, tasks, workdir: Path):
        self.cli = cli
        self.tasks = tasks
        self.workdir = workdir
        self.specs = {}
        for task in tasks:
            path = workdir / f"{task.name}.yaml"
            path.write_text(task.spec)
            self.specs[task.name] = path
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.known_misses = 0  # check messages that name a known program defect
        self.known_seen = set()
        self.first_output = {}  # (task, seed) -> Outcome of the first run
        self.verdicts = {}  # (task, seed) -> verdict, for tallied tasks
        self.mismatched = 0  # runs whose output differed from the first run of their seed

    def _invoke(self, task, seed: int) -> Outcome:
        out_dir = self.workdir / "out" / task.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [task.command, str(self.specs[task.name]), "--seed", str(seed), "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
        if code == 3:
            error = stderr.getvalue() or stdout.getvalue()
        artifacts = {}
        if out_dir.is_dir():
            artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return Outcome(code, stdout.getvalue(), artifacts, error, wall, cpu)

    def run_round(self, seed: int, label: str) -> tuple[float, float]:
        """Run and check every task once; returns the round's (wall, CPU) seconds."""
        wall = cpu = 0.0
        for task in self.tasks:
            out = self._invoke(task, seed)
            wall += out.wall_s
            cpu += out.cpu_s
            bad = task.check(out)
            for msg in bad:
                if isinstance(msg, KnownMiss):
                    self.known_misses += 1
                    if msg not in self.known_seen:
                        self.known_seen.add(msg)
                        print(f"KNOWN {label} {task.name}: {msg}")
            bad = [msg for msg in bad if not isinstance(msg, KnownMiss)]
            key = (task.name, seed)
            if not out.same_output(self.first_output.setdefault(key, out)):
                self.mismatched += 1
                bad.append("report differs from an earlier run of the same spec and seed")
            if task.tally_verdict and out.code in VERDICTS:
                self.verdicts[key] = VERDICTS[out.code]
            self.attempted += 1
            if bad:
                self.failed += 1
                for msg in bad[:5]:
                    print(f"FAILED {label} {task.name} seed={seed}: {msg}", file=sys.stderr)
        self.rounds += 1
        return wall, cpu

    def verdict_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(VERDICTS.values(), 0)
        for verdict in self.verdicts.values():
            counts[verdict] += 1
        return counts


def setup_seconds(spec: Path, starts: int) -> list[float]:
    times = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(spec)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


_REFERENCE_X = np.linspace(-3.0, 3.0, 200_000)


def _reference_once() -> float:
    t0 = perf_counter()
    for _ in range(4):
        float(np.maximum(0.1 + 0.3 * _REFERENCE_X, 0.0).mean())
    acc = 0
    for i in range(60_000):
        acc += i * i
    for c in range(6):
        integrate.quad(
            lambda t: math.exp(-t * t) * (1.0 + c * abs(t - 1.0)),
            -math.inf, math.inf, epsabs=1e-12, epsrel=1e-10, limit=400,
        )
    return perf_counter() - t0


def reference_s() -> float:
    """Seconds that a fixed piece of work takes now: the fastest of five passes.

    The work mixes what the workloads spend their time on (numpy
    elementwise reductions, a Python loop, QUADPACK with a Python
    integrand) and uses neither the program nor BLAS, so it measures the
    machine's current speed and nothing else.
    """
    return min(_reference_once() for _ in range(5))


def untraced(runner: Runner, seed: int, seconds: float) -> dict[str, float]:
    # Set-up time follows the host's speed, which drifts over minutes, so
    # it is sampled at both ends of the run rather than only at the start.
    spec = runner.specs[runner.tasks[0].name]
    setup = setup_seconds(spec, SETUP_STARTS - SETUP_STARTS // 2)
    # a warm-up round of seed 0, which timed round 0 must then reproduce
    runner.run_round(round_seed(seed, 0), "warm-up")
    walls, cpus, refs = [], [], [reference_s()]
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, cpu = runner.run_round(round_seed(seed, len(walls)), f"round {len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        refs.append(reference_s())
    setup += setup_seconds(spec, SETUP_STARTS // 2)
    # On a shared host other tenants can slow every computation by up to 2x
    # for minutes at a time, so each round is timed in units of the
    # reference work measured on either side of it (see NOTES.md).
    scale = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    print(f"verdict_ref, cpu_ref: median of {len(walls)} rounds; setup_s: median of {len(setup)} fresh starts")
    print(f"rounds_s: {[round(w, 4) for w in walls]}; cpu_s: {[round(c, 4) for c in cpus]}")
    print(f"reference_s: {[round(r, 5) for r in refs]}; setup_s: {[round(t, 4) for t in setup]}")
    return {
        "verdict_ref": statistics.median(w / k for w, k in zip(walls, scale)),
        "cpu_ref": statistics.median(c / k for c, k in zip(cpus, scale)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def traced(runner: Runner, workload: str, seed: int, seconds: float, names: list[str]):
    """Per-layer metrics; returns (metrics, self-test passed)."""
    import spans  # imports selfdual, so only once src/ is on the path

    recorder = spans.Recorder()
    rounds = []  # (wall seconds, layer metrics, layer self seconds) per traced round

    def traced_round(r: int) -> list:
        with recorder.recording() as recorded:
            wall, _ = runner.run_round(round_seed(seed, r), f"traced round {r}")
        rounds.append((wall, spans.layer_metrics(recorded), spans.layer_self_s(recorded)))
        return list(recorded)

    # untraced, traced and traced again on one seed: outputs must agree
    # (Runner compares them) and the second traced run repeats every count
    runner.run_round(round_seed(seed, 0), "warm-up")
    first_spans = traced_round(0)
    traced_round(0)
    repeat_ok = True
    for key in spans.REPEATABLE:
        a, b = (rounds[i][1].get(key, 0) for i in (0, 1))
        if a != b:
            repeat_ok = False
            print(f"SELF-TEST {key}: {a} then {b} on one seed", file=sys.stderr)

    plain, paired = [], []  # untraced (wall, CPU) and traced wall seconds
    start = perf_counter()
    r = 1
    while r == 1 or perf_counter() - start < seconds:
        plain.append(runner.run_round(round_seed(seed, r), f"round {r}"))
        traced_round(r)
        paired.append(rounds[-1][0])
        r += 1
    out_dir = ROOT / ".bench-spans"
    out_dir.mkdir(exist_ok=True)
    spans.write_jsonl(first_spans, out_dir / f"{workload}.jsonl")

    metrics = {k: statistics.median(m.get(k, 0) for _, m, _ in rounds) for k in names}
    metrics["trace.overhead_s"] = min(paired) - min(w for w, _ in plain)
    metrics["verdict_s"] = statistics.median(w for w, _ in plain)
    metrics["cpu_s"] = statistics.median(c for _, c in plain)
    metrics.update({f"verdicts.{k}": v for k, v in runner.verdict_counts().items()})
    metrics["checks.known_misses"] = runner.known_misses / runner.rounds
    layer_s = {k: statistics.median(s[k] for _, _, s in rounds) for k in spans.LAYERS}
    round_s = statistics.median(w for w, _, _ in rounds)
    print(f"traced rounds: {len(rounds)}; untraced rounds: {len(plain) + 1}; "
          f"traced round median {round_s:.4f} s; overhead {metrics['trace.overhead_s']:.4f} s")
    print("layer self seconds (median): " + ", ".join(f"{k}={v:.4f}" for k, v in layer_s.items()))
    claim, predicate = PREDICTIONS[workload]
    confirmed, detail = predicate(metrics, layer_s, round_s)
    print(f"prediction [{workload}] {claim}: {'confirmed' if confirmed else 'REFUTED'} ({detail})")
    self_test_ok = repeat_ok and runner.mismatched == 0
    print(f"self-test (counts repeat, traced outputs match untraced): {'pass' if self_test_ok else 'FAIL'}")
    return metrics, self_test_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "selfdual" / "__init__.py").is_file():
        print(f"error: no selfdual package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import selfdual.cli

    if Path(selfdual.cli.__file__).resolve().parent != (SRC / "selfdual").resolve():
        print(f"error: imported selfdual from {selfdual.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        runner = Runner(selfdual.cli, WORKLOADS[args.workload], Path(tmp))
        if args.trace:
            names = [m["name"] for m in declared]
            values, self_test_ok = traced(runner, args.workload, args.seed, args.seconds, names)
        else:
            values, self_test_ok = untraced(runner, args.seed, args.seconds), True
    print(f"verdicts over distinct seeds: {runner.verdict_counts()}")
    print(f"tasks attempted={runner.attempted} failed={runner.failed} "
          f"known-defect misses={runner.known_misses} in {runner.rounds} rounds")
    result = {
        "correct": runner.failed == 0 and self_test_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
