"""Calibration of the confirmation boundary ``duality.DECISIVE_Z``.

    PYTHONPATH=src python tests/calibrate_confirmation.py [--seeds 200] [--start 0]

A failing Monte Carlo point stops confirming at the first look where
``|residual| > DECISIVE_Z * std_error``.  This script measures how far that
boundary sits from the points it must never stop, and what it saves:

* Positive controls, laws for which every checked identity holds: with the
  boundary off, the largest ``|z| = |residual| / std_error`` of any failing
  point at any look (the first batch and each pooled round).  A boundary above
  it leaves each of their reports as it was.
* The negative control ``crn-fail``: per seed, the confirmation rounds drawn
  with the boundary on, and whether the exit code and every point status match
  the run with the boundary off.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import math
import statistics
import time

from selfdual import cli, duality

_LOGNORMAL_2D = """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
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
    "lognormal-2d": _LOGNORMAL_2D + _PAYOFF_AND_JOINT,
    # heavy tails, whose first batch can understate its SE
    "heavy_tail-0": "model: {kind: heavy_tail, gamma: 0.0}\n" + _PAYOFF_AND_JOINT,
    "lp_self_dual-1.5": "model: {kind: lp_self_dual, p: 1.5}\n" + _PAYOFF_AND_JOINT,
}
# the benchmark's crn-fail spec: independent log-normals are not self-dual
NEGATIVE = """\
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
samples: 200000
task: {kind: check, checks: [payoff], numeraire: 1}
"""

DEFAULT_Z = duality.DECISIVE_Z
LOOKS: list[duality.ReportPoint] = []


def _recording(label, stats, scale, rounds=0):
    point = _mc_point(label, stats, scale, rounds)
    LOOKS.append(point)
    return point


_mc_point, duality._mc_point = duality._mc_point, _recording


def run(text: str, seed: int, decisive_z: float):
    """Exit code and points of one spec at one seed, and every point looked at."""
    duality.DECISIVE_Z = decisive_z
    LOOKS.clear()
    spec = cli.parse_model_spec(text)
    spec["seed"] = seed
    code, doc, _ = cli.run(spec)
    points = [p for check in doc["results"]["checks"] for p in check["points"]]
    return code, points, list(LOOKS)


def calibrate_positive(name: str, text: str, seeds) -> None:
    top, top_seed, failing_seeds, looks, exits = 0.0, None, 0, 0, collections.Counter()
    start = time.perf_counter()
    for seed in seeds:
        code, _, seen = run(text, seed, math.inf)
        exits[code] += 1
        failing = [abs(p.residual) / p.std_error for p in seen if p.status == "fail"]
        looks += len(seen)
        failing_seeds += bool(failing)
        if failing and max(failing) > top:
            top, top_seed = max(failing), seed
    print(
        f"| {name} | {len(seeds)} | {looks} | {failing_seeds} | {top:.2f} (seed {top_seed}) "
        f"| {dict(sorted(exits.items()))} | {time.perf_counter() - start:.0f} s |"
    )


def calibrate_negative(seeds) -> None:
    drawn, mismatched, exits, rows = collections.Counter(), [], collections.Counter(), []
    start = time.perf_counter()
    for seed in seeds:
        code_off, off, _ = run(NEGATIVE, seed, math.inf)
        code_on, on, _ = run(NEGATIVE, seed, DEFAULT_Z)
        rounds = max(p["rounds"] for p in on)
        drawn[rounds] += 1
        exits[code_off, code_on] += 1
        rows.append(200_000 * (2 ** (rounds + 1) - 1))  # N, then 2N and 4N more
        same = code_on == code_off and [p["status"] for p in on] == [p["status"] for p in off]
        print(f"seed {seed}: rounds drawn {rounds}, statuses {'match' if same else 'DIFFER'}")
        if not same:
            mismatched.append(seed)
            for a, b in zip(off, on):
                if a["status"] != b["status"]:
                    print(f"    {b['label']}: off {a} on {b}")
    print(
        f"crn-fail: {len(seeds)} seeds in {time.perf_counter() - start:.0f} s; "
        f"exit codes (off, on) {dict(exits)}; rounds drawn {dict(sorted(drawn.items()))}; "
        f"rows drawn median {statistics.median(rows):,.0f}, mean {statistics.mean(rows):,.0f}; "
        f"status vectors differ on {len(mismatched)} seeds {mismatched}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds per control")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--only", choices=[*POSITIVE, "crn-fail"], help="run one control")
    args = parser.parse_args()
    seeds = range(args.start, args.start + args.seeds)
    print(f"DECISIVE_Z = {DEFAULT_Z}; SE_BAND = {duality.SE_BAND}; seeds {seeds.start}..{seeds.stop - 1}")
    print("| control | seeds | looks | seeds with a failing look | largest failing abs z | exits | time |")
    print("|---|---|---|---|---|---|---|")
    for name, text in POSITIVE.items():
        if args.only in (None, name):
            calibrate_positive(name, text, seeds)
    if args.only in (None, "crn-fail"):
        calibrate_negative(seeds)


if __name__ == "__main__":
    main()
