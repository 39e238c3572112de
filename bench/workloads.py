"""The benchmark's workloads: fixed CLI tasks per round and the checks on their outputs.

A workload is a list of tasks.  Each task is one ``selfdual <command> spec.yaml``
invocation on a fixed spec; the benchmark supplies ``--seed`` and ``--out``.
Why each workload exists, and which layer it stresses, is in ``NOTES.md``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import yaml

# The quadrature module's promise for every value it returns (ABS_TOL and
# REL_TOL in quadrature.py).  Fixed here rather than imported so that the
# program under test cannot move the bar it is judged by.
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
ALPHA_TOL = 1e-10

# The program's one known miss of that promise (see NOTES.md): QUADPACK's
# error estimate at the HeavyTail(1) density's kink at 1 is trusted, so the
# zonoid row at k = 0.0608022 misses the closed form by 1.154e-7, about 11x
# the promise.  This program defect is reported on every run and counted
# apart, not as a failed task.  It is keyed by (column, k as printed) to
# the largest miss allowed; any other miss, or this one grown, fails.
KNOWN_MISSES = {("gc_over_f", "0.0608022"): 1.16e-7}


class KnownMiss(str):
    """A check message about a known program defect: reported, not counted as a failure."""


@dataclass(frozen=True)
class Outcome:
    """What one CLI invocation produced."""

    code: int | None  # None when main raised
    report: str  # the YAML written to stdout
    artifacts: dict[str, bytes]  # files written under --out
    error: str | None  # traceback or stderr text on an error exit
    wall_s: float
    cpu_s: float

    def same_output(self, other: "Outcome") -> bool:
        return (self.code, self.report, self.artifacts) == (other.code, other.report, other.artifacts)


@dataclass(frozen=True)
class Task:
    name: str
    command: str
    spec: str
    # returns the violations, empty when correct; KnownMiss entries are not failures
    check: Callable[[Outcome], list[str]]
    # positive controls whose verdicts are tallied rather than gated
    tally_verdict: bool = False


def _no_error(out: Outcome) -> list[str]:
    if out.code is None:
        return [f"raised: {out.error}"]
    if out.code == 3:
        return [f"exit 3: {out.error}"]
    return []


def _exit_code(want: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        bad = _no_error(out)
        if not bad and out.code != want:
            bad.append(f"exit {out.code}, expected {want}")
        return bad

    return check


def _alpha_check(out: Outcome) -> list[str]:
    bad = _exit_code(0)(out)
    if bad:
        return bad
    results = yaml.safe_load(out.report)["results"]
    if results["method"] != "closed_laplace":
        bad.append(f"alpha method {results['method']!r}, expected 'closed_laplace'")
    if not abs(results["alpha"] - 0.5) <= ALPHA_TOL:
        bad.append(f"alpha {results['alpha']!r} differs from 0.5 by more than {ALPHA_TOL}")
    return bad


def heavy_tail_1(k: float) -> tuple[float, float]:
    """(P(eta > k), E[eta 1{eta > k}]) for HeavyTail(gamma=1)."""
    if k <= 1.0:
        return 1.0 - 0.6 * k * k, 0.4 * (1.0 - k**3) + 0.6
    return 0.4 * k**-3, 0.6 * k**-2


def lp_self_dual_2(k: float) -> tuple[float, float]:
    """(P(eta > k), E[eta 1{eta > k}]) for LpSelfDual(p=2)."""
    r = math.sqrt(1.0 + k * k)
    return 1.0 - k / r, 1.0 / r


def _boundary_check(closed_form, points: int) -> Callable[[Outcome], list[str]]:
    def check(out: Outcome) -> list[str]:
        bad = _exit_code(0)(out)
        if bad:
            return bad
        text = out.artifacts.get("boundary.csv", b"").decode()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != points:
            return [f"boundary.csv has {len(rows)} rows, expected {points}"]
        for row in rows:
            k = float(row["k"])
            for col, want in zip(("bc", "gc_over_f"), closed_form(k)):
                got = float(row[col])
                miss = abs(got - want)
                if not miss <= QUAD_ABS_TOL + QUAD_REL_TOL * abs(want):
                    msg = f"k={k:.6g} {col}={got!r} misses closed form {want!r} by {got - want:.3e}"
                    known = miss <= KNOWN_MISSES.get((col, f"{k:.6g}"), -1.0)
                    bad.append(KnownMiss(f"known program defect: {msg}") if known else msg)
        return bad

    return check


_CRN_PASS = """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125, -0.125]
  cov: [[0.25, 0.125, 0.125], [0.125, 0.25, 0.125], [0.125, 0.125, 0.25]]
samples: 200000
task: {kind: check, checks: [joint]}
"""

_CRN_FAIL = """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
samples: 200000
task: {kind: check, checks: [payoff], numeraire: 1}
"""

_HEDGE = """\
model:
  kind: path_config
  s0: [1.0, 1.0]
  steps: 250
  driver: {kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  alpha: 1.0
  knock: in
"""

_ZONOID_HEAVY_TAIL = "model: {kind: heavy_tail, gamma: 1.0}\ntask: {kind: zonoid, points: 200}\n"
_ZONOID_LP = "model: {kind: lp_self_dual, p: 2.0}\ntask: {kind: zonoid, points: 200}\n"
_ALPHA = f"""\
model:
  kind: levy_triplet
  a: 0.0
  tilted_gaussian: {{cov: 1.0, tilt: 0.5, mass: 1.0, numeraire: 1}}
task: {{kind: alpha, carry: {math.exp(0.25) - 1.0!r}}}
"""
_CHECK_HEAVY_TAIL = """\
model: {kind: heavy_tail, gamma: 2.0}
task: {kind: check, checks: [density, integrated_tail, moments]}
"""

WORKLOADS: dict[str, list[Task]] = {
    "crn-pass": [Task("joint", "check", _CRN_PASS, _no_error, tally_verdict=True)],
    "crn-fail": [Task("payoff", "check", _CRN_FAIL, _exit_code(1))],
    "hedge": [Task("hedge", "hedge", _HEDGE, _no_error, tally_verdict=True)],
    "exact": [
        Task("zonoid-heavy-tail", "zonoid", _ZONOID_HEAVY_TAIL, _boundary_check(heavy_tail_1, 200)),
        Task("zonoid-lp", "zonoid", _ZONOID_LP, _boundary_check(lp_self_dual_2, 200)),
        Task("alpha", "alpha", _ALPHA, _alpha_check),
        Task("check-heavy-tail", "check", _CHECK_HEAVY_TAIL, _exit_code(0)),
    ],
}


def _top_layer(layer: str):
    def predicate(metrics, layer_s, round_s):
        top = max(layer_s, key=layer_s.get)
        return top == layer, f"largest self time: {top} {layer_s[top]:.3f} s of a {round_s:.3f} s round"

    return predicate


def _resample_ratio(metrics, layer_s, round_s):
    ratio = metrics["duality.resample_ratio"]
    return 6.5 <= ratio <= 7.5, f"resample ratio {ratio:.4f}"


def _levy_hedging(metrics, layer_s, round_s):
    share = (layer_s["levy"] + layer_s["hedging"]) / round_s
    return share >= 0.5, f"levy+hedging self time {share:.1%} of the round"


def _quadrature(metrics, layer_s, round_s):
    share = metrics["quadrature.s"] / round_s
    draws = metrics["rng.draws"]
    return share >= 0.5 and draws == 0, f"quadrature {share:.1%} of the round, rng.draws={draws}"


# The layer each workload was built to load, checked on every traced run.
PREDICTIONS = {
    "crn-pass": ("duality self time is the largest layer", _top_layer("duality")),
    "crn-fail": ("confirmation resamples about 7x the first batch", _resample_ratio),
    "hedge": ("levy + hedging take at least half the round", _levy_hedging),
    "exact": ("quadrature takes at least half the round and no variate is drawn", _quadrature),
}
