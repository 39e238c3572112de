"""Calibration of the Monte Carlo verdicts: rates per control, and the confirmation boundary.

    PYTHONPATH=src python tests/calibrate_confirmation.py [--seeds 200] [--start 0]
        [--only NAME] [--lattice POINTS SHIFTS]

For each control law or hedge and seed it runs the spec through ``cli.run`` and
tallies the exit codes: 0 pass, 2 inconclusive, 1 fail.  A jump-free law, and a
continuous driver's terminal prices, are drawn on randomly shifted lattices, each
shift a replicate, so their SEs have ``R - 1`` degrees of freedom for ``R``
replicates; the other laws are drawn i.i.d.

* Positive controls, laws for which every checked identity holds, are run with the
  decisive boundary off (``DECISIVE_Z`` infinite).  The table gives the largest
  ``|z| = |residual| / std_error`` of any failing point at any look (the first
  look and each pooled one), and the two-sided ``t_{R-1}`` tail of ``DECISIVE_Z``
  at the first look's ``R``: the chance that one point of a positive control
  reaches the boundary by accident.  A boundary above every such ``|z|`` leaves
  their reports as they are.
* Negative controls, laws that are not self-dual, are run with the boundary on;
  ``crn-fail`` also with it off, and the seeds whose status vectors differ are
  listed.  The draws per seed count every point's pooled draws at its largest.
* Hedges: a point is the price gap, and its looks are those of the gap.  The
  positive controls are the benchmark's hedge and the indicator-form knock-in and
  knock-out hedges of the golden pins; the negative controls are the benchmark's
  hedge at the wrong orders 1.1 and 1.3, which the exact exchange fails, and with
  the power of ``S_1 / H`` in its reflected claim moved by +-0.1, which only the
  price gap can see.  Their line also gives the spread of the final looks' ``z``.

``--lattice POINTS SHIFTS`` sets ``duality.LATTICE_POINTS`` and ``LATTICE_SHIFTS``
for the run, to size them.  The file name has no ``test_`` prefix, so pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import collections
import math
import statistics
import time
from dataclasses import replace

from scipy import stats as scipy_stats

from selfdual import cli, duality, hedging

_LOGNORMAL_2D = """\
model:
  kind: multi_lognormal
  mean: [{mean}, -0.125]
  cov: [[0.25, 0.125], [0.125, 0.25]]
"""
_PAYOFF_AND_JOINT = "samples: 200000\ntask: {kind: check, checks: [payoff, joint], numeraire: 1}\n"

POSITIVE = {
    # the benchmark's crn-pass spec
    "crn-pass": """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125, -0.125]
  cov: [[0.25, 0.125, 0.125], [0.125, 0.25, 0.125], [0.125, 0.125, 0.25]]
samples: 200000
task: {kind: check, checks: [joint]}
""",
    "lognormal-2d": _LOGNORMAL_2D.format(mean=-0.125) + _PAYOFF_AND_JOINT,
    # heavy tails, whose first batch can understate its SE
    "heavy_tail-0": "model: {kind: heavy_tail, gamma: 0.0}\n" + _PAYOFF_AND_JOINT,
    "lp_self_dual-1.5": "model: {kind: lp_self_dual, p: 1.5}\n" + _PAYOFF_AND_JOINT,
}
NEGATIVE = {
    # the benchmark's crn-fail spec: independent log-normals are not self-dual
    "crn-fail": """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
samples: 200000
task: {kind: check, checks: [payoff], numeraire: 1}
""",
    # lognormal-2d with a carry of 0.01 on asset 1: E eta_1 = e^0.01
    "lognormal-2d-carry": _LOGNORMAL_2D.format(mean=-0.115) + _PAYOFF_AND_JOINT,
}
_BENCH_HEDGE = """\
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
# a basket call has no indicator-free hedge, so these run the indicator-form claim
_INDICATOR_HEDGE = """\
model:
  kind: path_config
  s0: [1.0, 1.0]
  driver: {kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.85}
  target: {kind: basket_call, weights: [1, 0.5], strike: 1.2}
  knock: KNOCK
"""
# name -> (spec, the shift of the reflected claim's power of S_1 / H)
POSITIVE_HEDGES = {
    "hedge": (_BENCH_HEDGE, 0.0),
    "hedge-indicator-in": (_INDICATOR_HEDGE.replace("KNOCK", "in"), 0.0),
    "hedge-indicator-out": (_INDICATOR_HEDGE.replace("KNOCK", "out"), 0.0),
}
NEGATIVE_HEDGES = {
    "hedge-alpha-1.1": (_BENCH_HEDGE.replace("alpha: 1.0", "alpha: 1.1"), 0.0),
    "hedge-alpha-1.3": (_BENCH_HEDGE.replace("alpha: 1.0", "alpha: 1.3"), 0.0),
    "hedge-exponent+0.1": (_BENCH_HEDGE, 0.1),
    "hedge-exponent-0.1": (_BENCH_HEDGE, -0.1),
}
VERDICTS = {0: "pass", 2: "inconclusive", 1: "fail"}
DEFAULT_Z = duality.DECISIVE_Z
LOOKS: list[duality.ReportPoint] = []
GAPS: list[hedging.HedgeReport] = []  # a hedge's report at each look of its price gap


def _recording(*args, **kwargs):
    point = _mc_point(*args, **kwargs)
    LOOKS.append(point)
    return point


def _recording_report(*args, **kwargs):
    report = _HedgeReport(*args, **kwargs)
    if report.price_gap is not None:
        GAPS.append(report)
    return report


_mc_point, duality._mc_point = duality._mc_point, _recording
_HedgeReport, hedging.HedgeReport = hedging.HedgeReport, _recording_report
_build_hedge = hedging.build_hedge


def run(text: str, seed: int, decisive_z: float):
    """Exit code and points of one spec at one seed, and every point looked at."""
    duality.DECISIVE_Z = decisive_z
    LOOKS.clear()
    spec = cli.parse_model_spec(text)
    spec["seed"] = seed
    code, doc, _ = cli.run(spec)
    points = [p for check in doc["results"]["checks"] for p in check["points"]]
    return code, points, list(LOOKS)


def run_hedge(text: str, shift: float, seed: int, decisive_z: float):
    """Exit code and results of one hedge spec at one seed, and its report at each look.
    ``shift`` moves the power of ``S_i / H`` of the reflected claim."""
    def shifted(*args):
        plan = _build_hedge(*args)
        return replace(plan, hedge=replace(plan.hedge, b=plan.hedge.b + shift)) if shift else plan

    duality.DECISIVE_Z = hedging.DECISIVE_Z = decisive_z
    GAPS.clear()
    hedging.build_hedge = shifted
    try:
        spec = cli.parse_model_spec(text)
        spec["seed"] = seed
        code, doc, _ = cli.run(spec)
    finally:
        hedging.build_hedge = _build_hedge
    return code, doc["results"], list(GAPS)


def _rates(exits: collections.Counter, seeds) -> str:
    return " | ".join(f"{exits[code] / len(seeds):.3f}" for code in VERDICTS)


def check_looks(text: str):
    """The looks of a check spec: ``looks(seed, decisive_z)`` gives its exit code, its draws,
    the replicates of its first looks (0: i.i.d.), each failing look's ``|z|`` and no final z."""
    def looks(seed, decisive_z):
        code, points, seen = run(text, seed, decisive_z)
        failing = [abs(p.residual) / p.std_error for p in seen if p.status == "fail"]
        first = {getattr(p, "replicates", 0) for p in seen if p.rounds == 0}
        return code, max(p["n_samples"] for p in points), first, failing, None

    return looks


def hedge_looks(text: str, shift: float):
    """The looks of a hedge spec's price gap, as :func:`check_looks` gives them, and the gap's
    final ``z``; a hedge without ``price_check`` drew its ``samples`` i.i.d."""
    def looks(seed, decisive_z):
        code, results, seen = run_hedge(text, shift, seed, decisive_z)
        units = [gap / se for gap, se in (r.price_gap for r in seen)]
        failing = [
            abs(u) for r, u in zip(seen, units)
            if r._miss(r.price_gap[0]) > hedging.SE_BAND * r.price_gap[1]
        ]
        first = getattr(seen[0], "price_check", None)
        draws = results.get("price_check", {}).get("n_samples", duality.DEFAULT_SAMPLES)
        return code, draws, {first[1] if first else 0}, failing, units[-1]

    return looks


def calibrate(name: str, looks, seeds, positive: bool) -> None:
    top, top_seed, failing_seeds, exits, drawn, shifts, z = 0.0, None, 0, collections.Counter(), [], set(), []
    start = time.perf_counter()
    for seed in seeds:
        code, draws, first, failing, final = looks(seed, math.inf if positive else DEFAULT_Z)
        exits[code] += 1
        drawn.append(draws)
        shifts |= first
        failing_seeds += bool(failing)
        if failing and max(failing) > top:
            top, top_seed = max(failing), seed
        if final is not None:
            z.append(final)
    first = min(shifts) or math.inf  # replicates of a first look; none: i.i.d. draws
    tail = 2.0 * (scipy_stats.t.sf(DEFAULT_Z, first - 1) if first < math.inf else scipy_stats.norm.sf(DEFAULT_Z))
    spread = f" final z: mean {statistics.mean(z):.2f}, SD {statistics.stdev(z):.2f}" if z else ""
    print(
        f"| {name} | {'+' if positive else '-'} | {len(seeds)} | {_rates(exits, seeds)} | {failing_seeds} "
        f"| {top:.2f} (seed {top_seed}) | {'-' if first == math.inf else first} | {tail:.1e} "
        f"| {statistics.median(drawn):,.0f} / {max(drawn):,} | {time.perf_counter() - start:.0f} s |{spread}"
    )


def boundary_keeps_statuses(name: str, text: str, seeds) -> None:
    mismatched, exits = [], collections.Counter()
    for seed in seeds:
        code_off, off, _ = run(text, seed, math.inf)
        code_on, on, _ = run(text, seed, DEFAULT_Z)
        exits[code_off, code_on] += 1
        if code_on != code_off or [p["status"] for p in on] != [p["status"] for p in off]:
            mismatched.append(seed)
    print(f"{name}: exit codes (boundary off, on) {dict(exits)}; status vectors differ on "
          f"{len(mismatched)} seeds {mismatched}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds per control")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument(
        "--only", choices=[*POSITIVE, *NEGATIVE, *POSITIVE_HEDGES, *NEGATIVE_HEDGES],
        help="run one control",
    )
    parser.add_argument("--lattice", type=int, nargs=2, metavar=("POINTS", "SHIFTS"))
    args = parser.parse_args()
    if args.lattice:
        duality.LATTICE_POINTS, duality.LATTICE_SHIFTS = args.lattice
    seeds = range(args.start, args.start + args.seeds)
    lattice = [getattr(duality, name, None) for name in ("LATTICE_POINTS", "LATTICE_SHIFTS")]
    print(f"DECISIVE_Z = {DEFAULT_Z}; SE_BAND = {duality.SE_BAND}; lattice points, shifts {lattice}; "
          f"seeds {seeds.start}..{seeds.stop - 1}")
    print("| control | sign | seeds | pass | inconclusive | fail | seeds with a failing look "
          "| largest failing abs z | first-look replicates R | P(abs t_(R-1) > DECISIVE_Z) "
          "| draws per seed, median / max | time |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for controls, positive in ((POSITIVE, True), (NEGATIVE, False)):
        for name, text in controls.items():
            if args.only in (None, name):
                calibrate(name, check_looks(text), seeds, positive)
    for controls, positive in ((POSITIVE_HEDGES, True), (NEGATIVE_HEDGES, False)):
        for name, (text, shift) in controls.items():
            if args.only in (None, name):
                calibrate(name, hedge_looks(text, shift), seeds, positive)
    if args.only in (None, "crn-fail"):
        boundary_keeps_statuses("crn-fail", NEGATIVE["crn-fail"], seeds)


if __name__ == "__main__":
    main()
