"""Command-line front end: model-spec ingestion and task dispatch.

A model spec is one YAML document with a ``model`` section, a ``task``
section, and optional ``seed``/``samples``/``tol``/``out`` settings.
Parsing validates the whole tree and reports every violation with the
path to the offending field; defaults are injected and echoed back in
the output.  Reports are deterministic given (spec, seed): YAML to
stdout plus optional files under ``--out``, with no timing fields.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from . import __version__, dist, duality, geometry, hedging, levy, pricing
from .errors import SchemaError, SelfDualError
from .rng import RngStream

DEFAULTS = {"version": 1, "seed": 12345, "samples": 200_000, "out": None}
TASK_KINDS = ("check", "alpha", "price", "hedge", "zonoid")

SCALAR_KINDS = ("lognormal", "lp_self_dual", "heavy_tail", "discrete")
VECTOR_KINDS = ("multi_lognormal", "common_factor", "unit_ball_max", "independent_product")
MODEL_KINDS = SCALAR_KINDS + VECTOR_KINDS + ("levy_triplet", "path_config")


# --------------------------------------------------------------------------- #
# Validation helpers
# --------------------------------------------------------------------------- #


class _Check:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def mapping(self, node, path, allowed, required=()) -> dict:
        if not isinstance(node, dict):
            self.fail(path, f"expected a mapping, got {type(node).__name__}")
            return {}
        for key in node:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        for key in required:
            if key not in node:
                self.fail(f"{path}.{key}", "missing required key")
        return node

    def number(self, node, path, *, gt=None, ge=None, lt=None, default=None, required=False):
        if node is None:
            if required:
                self.fail(path, "missing required number")
            return default
        if isinstance(node, str):
            try:
                node = float(Fraction(node))
            except (ValueError, ZeroDivisionError):
                self.fail(path, f"not a number: {node!r}")
                return default
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            self.fail(path, f"expected a number, got {type(node).__name__}")
            return default
        val = float(node)
        if not math.isfinite(val):
            self.fail(path, "must be finite")
            return default
        if gt is not None and not val > gt:
            self.fail(path, f"must be > {gt}, got {val!r}")
        if ge is not None and not val >= ge:
            self.fail(path, f"must be >= {ge}, got {val!r}")
        if lt is not None and not val < lt:
            self.fail(path, f"must be < {lt}, got {val!r}")
        return val

    def integer(self, node, path, *, ge=None, default=None, required=False):
        if node is None:
            if required:
                self.fail(path, "missing required integer")
            return default
        if not isinstance(node, int) or isinstance(node, bool):
            self.fail(path, f"expected an integer, got {type(node).__name__}")
            return default
        if ge is not None and node < ge:
            self.fail(path, f"must be >= {ge}, got {node}")
        return int(node)

    def vector(self, node, path, *, required=False):
        if node is None:
            if required:
                self.fail(path, "missing required list of numbers")
            return None
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return [float(node)]
        if not isinstance(node, list) or not node:
            self.fail(path, "expected a nonempty list of numbers")
            return None
        out = []
        for idx, v in enumerate(node):
            out.append(self.number(v, f"{path}[{idx}]", required=True))
        return None if any(v is None for v in out) else out

    def matrix(self, node, path, *, required=False):
        if node is None:
            if required:
                self.fail(path, "missing required matrix")
            return None
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return [[float(node)]]
        if not isinstance(node, list) or not node:
            self.fail(path, "expected a nonempty list of rows")
            return None
        rows = []
        for idx, row in enumerate(node):
            rows.append(self.vector(row, f"{path}[{idx}]", required=True))
        if any(r is None for r in rows):
            return None
        if len({len(r) for r in rows}) != 1:
            self.fail(path, "rows have unequal lengths")
            return None
        return rows


def _rational(node):
    """Numbers stay numbers; strings like '1/3' become exact Fractions."""
    if isinstance(node, str):
        return Fraction(node)
    return node


# --------------------------------------------------------------------------- #
# Model construction
# --------------------------------------------------------------------------- #


def _build_scalar(node, path, chk: _Check):
    kind = node.get("kind")
    if kind == "lognormal":
        chk.mapping(node, path, ("kind", "mu", "sigma"), ("sigma",))
        sigma = chk.number(node.get("sigma"), f"{path}.sigma", gt=0.0, required=True)
        if sigma is None:
            return None
        mu = chk.number(node.get("mu"), f"{path}.mu", default=-0.5 * sigma * sigma)
        return dist.LogNormal(mu, sigma) if not chk.errors else None
    if kind == "lp_self_dual":
        chk.mapping(node, path, ("kind", "p"), ("p",))
        p = chk.number(node.get("p"), f"{path}.p", gt=1.0, required=True)
        return dist.LpSelfDual(p) if p is not None and not chk.errors else None
    if kind == "heavy_tail":
        chk.mapping(node, path, ("kind", "gamma"), ("gamma",))
        g = chk.number(node.get("gamma"), f"{path}.gamma", gt=-1.0, required=True)
        return dist.HeavyTail(g) if g is not None and not chk.errors else None
    if kind == "discrete":
        chk.mapping(node, path, ("kind", "atoms"), ("atoms",))
        atoms_node = node.get("atoms")
        if not isinstance(atoms_node, list) or not atoms_node:
            chk.fail(f"{path}.atoms", "expected a nonempty list of [value, prob] pairs")
            return None
        atoms = []
        for idx, pair in enumerate(atoms_node):
            if not isinstance(pair, list) or len(pair) != 2:
                chk.fail(f"{path}.atoms[{idx}]", "expected [value, prob]")
                continue
            try:
                v, p = _rational(pair[0]), _rational(pair[1])
            except (ValueError, ZeroDivisionError):
                chk.fail(f"{path}.atoms[{idx}]", "values must be numbers or fraction strings")
                continue
            atoms.append((v, p))
        if chk.errors:
            return None
        try:
            return dist.DiscreteAtoms(atoms)
        except SelfDualError as exc:
            chk.fail(f"{path}.atoms", str(exc))
            return None
    chk.fail(f"{path}.kind", f"expected one of {SCALAR_KINDS}, got {kind!r}")
    return None


def _build_vector(node, path, chk: _Check):
    kind = node.get("kind")
    if kind == "multi_lognormal":
        chk.mapping(node, path, ("kind", "mean", "cov"), ("mean", "cov"))
        mean = chk.vector(node.get("mean"), f"{path}.mean", required=True)
        cov = chk.matrix(node.get("cov"), f"{path}.cov", required=True)
        if mean is None or cov is None or chk.errors:
            return None
        try:
            return dist.MultiLogNormal(mean, cov)
        except SelfDualError as exc:
            chk.fail(path, str(exc))
            return None
    if kind in ("common_factor", "independent_product"):
        chk.mapping(node, path, ("kind", "factors"), ("factors",))
        factors_node = node.get("factors")
        if not isinstance(factors_node, list) or not factors_node:
            chk.fail(f"{path}.factors", "expected a nonempty list of scalar models")
            return None
        factors = []
        for idx, sub in enumerate(factors_node):
            if isinstance(sub, dict):  # _build_scalar checks the keys of each kind
                factors.append(_build_scalar(sub, f"{path}.factors[{idx}]", chk))
            else:
                chk.fail(f"{path}.factors[{idx}]", f"expected a mapping, got {type(sub).__name__}")
                factors.append(None)
        if any(f is None for f in factors) or chk.errors:
            return None
        cls = dist.CommonFactor if kind == "common_factor" else dist.IndependentProduct
        try:
            return cls(factors)
        except SelfDualError as exc:
            chk.fail(path, str(exc))
            return None
    if kind == "unit_ball_max":
        chk.mapping(node, path, ("kind", "dim"), ("dim",))
        n = chk.integer(node.get("dim"), f"{path}.dim", ge=1, required=True)
        return dist.UnitBallMax(n) if n is not None and not chk.errors else None
    chk.fail(f"{path}.kind", f"expected one of {VECTOR_KINDS}, got {kind!r}")
    return None


def _build_triplet(node, path, chk: _Check):
    chk.mapping(
        node,
        path,
        ("kind", "a", "drift", "convention", "norm_index", "atoms", "tilted_gaussian"),
        ("a",),
    )
    a = chk.matrix(node.get("a"), f"{path}.a", required=True)
    convention = node.get("convention", "mean")
    if convention not in levy.CONVENTIONS:
        chk.fail(f"{path}.convention", f"expected one of {levy.CONVENTIONS}")
    norm_index = chk.integer(node.get("norm_index"), f"{path}.norm_index", ge=1, default=1)

    atoms = []
    for idx, entry in enumerate(node.get("atoms", []) or []):
        if not isinstance(entry, dict):
            chk.fail(f"{path}.atoms[{idx}]", "expected {x: [...], mass: m}")
            continue
        chk.mapping(entry, f"{path}.atoms[{idx}]", ("x", "mass"), ("x", "mass"))
        x = chk.vector(entry.get("x"), f"{path}.atoms[{idx}].x", required=True)
        m = chk.number(entry.get("mass"), f"{path}.atoms[{idx}].mass", gt=0.0, required=True)
        if x is not None and m is not None:
            atoms.append((x, m))
    gaussian = None
    tg = node.get("tilted_gaussian")
    if tg is not None:
        chk.mapping(tg, f"{path}.tilted_gaussian", ("cov", "tilt", "mass", "numeraire"),
                    ("cov", "tilt", "mass", "numeraire"))
        cov = chk.matrix(tg.get("cov"), f"{path}.tilted_gaussian.cov", required=True)
        tilt = chk.number(tg.get("tilt"), f"{path}.tilted_gaussian.tilt", required=True)
        mass = chk.number(tg.get("mass"), f"{path}.tilted_gaussian.mass", gt=0.0, required=True)
        numeraire = chk.integer(
            tg.get("numeraire"), f"{path}.tilted_gaussian.numeraire", ge=1, required=True
        )
        if chk.errors:
            return None
        try:
            gaussian = levy.build_tilted_gaussian_measure(cov, tilt, mass, numeraire).gaussian
        except SelfDualError as exc:
            chk.fail(f"{path}.tilted_gaussian", str(exc))
            return None
    if chk.errors:
        return None
    nu = levy.JumpMeasure(atoms=tuple(atoms), gaussian=gaussian)

    drift = node.get("drift", "martingale")
    try:
        if drift == "martingale":
            return levy.martingale_normalized(a, nu, convention=convention, norm_index=norm_index)
        if isinstance(drift, dict) and set(drift) == {"mu"}:
            mu = chk.vector(drift.get("mu"), f"{path}.drift.mu", required=True)
            return levy.LevyTriplet(a, nu, mu=mu, norm_index=norm_index) if mu else None
        if isinstance(drift, dict) and set(drift) == {"gamma"}:
            gamma = chk.vector(drift.get("gamma"), f"{path}.drift.gamma", required=True)
            if gamma is None:
                return None
            return levy.LevyTriplet(
                a, nu, gamma=gamma,
                convention=convention if convention != "mean" else "truncated",
                norm_index=norm_index,
            )
    except SelfDualError as exc:
        chk.fail(path, str(exc))
        return None
    chk.fail(f"{path}.drift", "expected 'martingale', {mu: [...]}, or {gamma: [...]}")
    return None


def _build_path_config(node, path, chk: _Check):
    chk.mapping(
        node, path, ("kind", "s0", "carry", "horizon", "steps", "driver"), ("s0", "driver")
    )
    s0 = chk.vector(node.get("s0"), f"{path}.s0", required=True)
    horizon = chk.number(node.get("horizon"), f"{path}.horizon", gt=0.0, default=1.0)
    steps = chk.integer(node.get("steps"), f"{path}.steps", ge=1, default=250)
    carry = chk.vector(node.get("carry"), f"{path}.carry") or ([0.0] * len(s0 or []))
    driver_node = node.get("driver")
    if not isinstance(driver_node, dict):
        chk.fail(f"{path}.driver", "expected a model mapping")
        return None
    dkind = driver_node.get("kind")
    if dkind == "levy_triplet":
        driver = _build_triplet(driver_node, f"{path}.driver", chk)
    elif dkind == "multi_lognormal":
        driver = _build_vector(driver_node, f"{path}.driver", chk)
    else:
        chk.fail(f"{path}.driver.kind", "expected levy_triplet or multi_lognormal")
        return None
    if driver is None or s0 is None or chk.errors:
        return None
    if len(carry) == 1 and len(s0) > 1:
        carry = carry * len(s0)
    try:
        return hedging.PathConfig(s0, carry, driver, horizon=horizon, steps=steps)
    except SelfDualError as exc:
        chk.fail(path, str(exc))
        return None


def build_model(node, path, chk: _Check):
    if not isinstance(node, dict):
        chk.fail(path, "expected a mapping")
        return None
    kind = node.get("kind")
    if kind in SCALAR_KINDS:
        return _build_scalar(node, path, chk)
    if kind in VECTOR_KINDS:
        return _build_vector(node, path, chk)
    if kind == "levy_triplet":
        return _build_triplet(node, path, chk)
    if kind == "path_config":
        return _build_path_config(node, path, chk)
    chk.fail(f"{path}.kind", f"expected one of {MODEL_KINDS}, got {kind!r}")
    return None


# kind -> (constructor, its arguments in order); _payoff_field validates each by name
_PAYOFFS = {
    "basket_call": (pricing.BasketCall, ("weights", "strike")),
    "basket_put": (pricing.BasketPut, ("weights", "strike")),
    "max_option": (pricing.MaxOption, ("u0", "weights")),
    "binary_call": (pricing.BinaryCall, ("strike", "asset")),
    "binary_put": (pricing.BinaryPut, ("strike", "asset")),
    "gap_call": (pricing.GapCall, ("strike", "asset")),
    "gap_put": (pricing.GapPut, ("strike", "asset")),
    "spread_call": (pricing.SpreadCall, ("long_weights", "short_weights", "strike")),
    "power_call": (pricing.PowerCall, ("weights", "strike", "alpha")),
    "min_combo": (hedging.TwoAssetMinCombo, ("strike",)),
}
PAYOFF_KINDS = tuple(_PAYOFFS)


def _payoff_field(node, path, name, kind, chk: _Check):
    if name.endswith("weights"):
        return chk.vector(node.get(name), f"{path}.{name}", required=True)
    if name == "asset":
        return chk.integer(node.get(name), f"{path}.{name}", ge=1, default=1)
    # alpha and the min-combo strike must be positive; u0 and other strikes nonnegative
    bound = {"gt": 0.0} if name == "alpha" or kind == "min_combo" else {"ge": 0.0}
    return chk.number(node.get(name), f"{path}.{name}", required=True, **bound)


def build_payoff(node, path, chk: _Check):
    if not isinstance(node, dict):
        chk.fail(path, "expected a payoff mapping")
        return None
    kind = node.get("kind")
    if kind not in _PAYOFFS:
        chk.fail(f"{path}.kind", f"expected one of {PAYOFF_KINDS}, got {kind!r}")
        return None
    make, fields = _PAYOFFS[kind]
    chk.mapping(node, path, ("kind",) + fields, tuple(f for f in fields if f != "asset"))
    args = [_payoff_field(node, path, name, kind, chk) for name in fields]
    if any(a is None for a in args) or chk.errors:
        return None
    try:
        return make(*args)
    except SelfDualError as exc:
        chk.fail(path, str(exc))
        return None


# --------------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------------- #

_CHECK_TASK_KEYS = ("kind", "numeraire", "checks", "alpha", "carry")
_KNOWN_CHECKS = (
    "density",
    "integrated_tail",
    "moments",
    "discrete",
    "payoff",
    "joint",
    "quasi",
    "triplet",
)


def parse_model_spec(document: str) -> dict:
    """Parse and validate a YAML model spec; returns the normalized tree.

    Raises :class:`SchemaError` carrying every violation (not just the
    first) with ``section.field`` paths.
    """
    try:
        raw = yaml.safe_load(document)
    except yaml.YAMLError as exc:
        raise SchemaError([f"document: invalid YAML ({exc})"]) from None
    chk = _Check()
    if not isinstance(raw, dict):
        raise SchemaError(["document: expected a mapping at the top level"])
    chk.mapping(raw, "spec", ("version", "seed", "samples", "tol", "out", "model", "task"),
                ("model", "task"))

    spec = dict(DEFAULTS)
    spec["version"] = chk.integer(raw.get("version"), "spec.version", ge=1, default=1)
    spec["seed"] = chk.integer(raw.get("seed"), "spec.seed", ge=0, default=DEFAULTS["seed"])
    spec["samples"] = chk.integer(
        raw.get("samples"), "spec.samples", ge=100, default=DEFAULTS["samples"]
    )
    if raw.get("out") is not None and not isinstance(raw.get("out"), str):
        chk.fail("spec.out", "expected a directory path string")
    spec["out"] = raw.get("out")
    tol_node = raw.get("tol") or {}
    chk.mapping(tol_node, "spec.tol", ("exact",))
    spec["tol"] = {
        "exact": chk.number(tol_node.get("exact"), "spec.tol.exact", gt=0.0, default=1e-10),
    }

    model_node = raw.get("model")
    model = build_model(model_node, "spec.model", chk) if model_node is not None else None

    task_node = raw.get("task")
    task: dict = {}
    payoff = None
    if isinstance(task_node, dict):
        kind = task_node.get("kind")
        if kind not in TASK_KINDS:
            chk.fail("spec.task.kind", f"expected one of {TASK_KINDS}, got {kind!r}")
        task["kind"] = kind
        if kind == "check":
            chk.mapping(task_node, "spec.task", _CHECK_TASK_KEYS, ("kind",))
            # left None when omitted: a vector model then defaults to the joint check
            task["numeraire"] = chk.integer(task_node.get("numeraire"), "spec.task.numeraire", ge=1)
            checks = task_node.get("checks")
            if checks is not None:
                if not isinstance(checks, list) or not all(c in _KNOWN_CHECKS for c in checks):
                    chk.fail("spec.task.checks", f"expected a list drawn from {_KNOWN_CHECKS}")
                else:
                    task["checks"] = checks
            task["alpha"] = chk.number(task_node.get("alpha"), "spec.task.alpha", default=None)
            task["carry"] = chk.vector(task_node.get("carry"), "spec.task.carry")
        elif kind == "alpha":
            chk.mapping(task_node, "spec.task", ("kind", "numeraire", "carry"), ("kind", "carry"))
            task["numeraire"] = chk.integer(
                task_node.get("numeraire"), "spec.task.numeraire", ge=1, default=1
            )
            task["carry"] = chk.number(task_node.get("carry"), "spec.task.carry", required=True)
        elif kind == "price":
            chk.mapping(
                task_node, "spec.task",
                ("kind", "payoff", "rate", "maturity", "forward"), ("kind", "payoff"),
            )
            payoff = build_payoff(task_node.get("payoff"), "spec.task.payoff", chk)
            task["rate"] = chk.number(task_node.get("rate"), "spec.task.rate", default=0.0)
            task["maturity"] = chk.number(
                task_node.get("maturity"), "spec.task.maturity", gt=0.0, default=1.0
            )
            task["forward"] = chk.vector(task_node.get("forward"), "spec.task.forward") or [1.0]
        elif kind == "hedge":
            chk.mapping(
                task_node, "spec.task",
                ("kind", "barrier", "target", "alpha", "knock", "n_outer", "n_inner",
                 "hit_states"),
                ("kind", "barrier", "target"),
            )
            b = task_node.get("barrier")
            bchk = chk.mapping(b, "spec.task.barrier", ("asset", "level", "direction"),
                               ("asset", "level"))
            if bchk:
                asset = chk.integer(b.get("asset"), "spec.task.barrier.asset", ge=1, required=True)
                level = chk.number(b.get("level"), "spec.task.barrier.level", gt=0.0, required=True)
                direction = b.get("direction", "down")
                if direction not in ("down", "up"):
                    chk.fail("spec.task.barrier.direction", "expected 'down' or 'up'")
                if asset is not None and level is not None and not chk.errors:
                    task["barrier"] = hedging.Barrier(asset, level, direction)
            payoff = build_payoff(task_node.get("target"), "spec.task.target", chk)
            alpha_node = task_node.get("alpha", 1.0)
            if alpha_node == "solve":
                task["alpha"] = "solve"
            else:
                task["alpha"] = chk.number(alpha_node, "spec.task.alpha", default=1.0)
            knock = task_node.get("knock", "in")
            if knock not in ("in", "out", "super"):
                chk.fail("spec.task.knock", "expected 'in', 'out' or 'super'")
            task["knock"] = knock
            task["n_outer"] = chk.integer(
                task_node.get("n_outer"), "spec.task.n_outer", ge=100, default=10_000
            )
            task["n_inner"] = chk.integer(
                task_node.get("n_inner"), "spec.task.n_inner", ge=100, default=20_000
            )
            task["hit_states"] = chk.integer(
                task_node.get("hit_states"), "spec.task.hit_states", ge=1, default=50
            )
        elif kind == "zonoid":
            chk.mapping(task_node, "spec.task", ("kind", "k_min", "k_max", "points"), ("kind",))
            task["k_min"] = chk.number(task_node.get("k_min"), "spec.task.k_min", gt=0.0,
                                       default=1e-2)
            task["k_max"] = chk.number(task_node.get("k_max"), "spec.task.k_max", gt=0.0,
                                       default=1e2)
            task["points"] = chk.integer(task_node.get("points"), "spec.task.points", ge=2,
                                         default=200)
    elif task_node is not None:
        chk.fail("spec.task", "expected a mapping")

    if chk.errors:
        raise SchemaError(chk.errors)
    spec["model"] = model
    spec["model_node"] = _normalize(model_node)
    spec["task"] = task
    spec["task_node"] = _normalize(task_node)
    spec["payoff"] = payoff
    return spec


def _normalize(node):
    """Round-trippable echo of a spec subtree."""
    if isinstance(node, dict):
        return {k: _normalize(v) for k, v in sorted(node.items())}
    if isinstance(node, list):
        return [_normalize(v) for v in node]
    return node


def serialize_spec(spec: dict) -> str:
    # 'out' is an I/O disposition, not part of the computation: reports
    # must be byte-identical for identical (spec, seed) wherever written
    echo = {
        "version": spec["version"],
        "seed": spec["seed"],
        "samples": spec["samples"],
        "tol": spec["tol"],
        "model": spec["model_node"],
        "task": spec["task_node"],
    }
    return yaml.safe_dump(echo, sort_keys=True)


# --------------------------------------------------------------------------- #
# Task execution
# --------------------------------------------------------------------------- #


def _report_of(sym_report) -> dict:
    return {
        "name": sym_report.test_name,
        "verdict": sym_report.verdict,
        "max_abs_residual": float(sym_report.max_abs_residual),
        "max_se_units": float(sym_report.max_residual_in_se_units),
        "points": [
            {
                "label": p.label,
                "residual": float(p.residual),
                "std_error": float(p.std_error),
                "status": p.status,
                "n_samples": int(p.n_samples),
                "rounds": int(p.rounds),
            }
            for p in sym_report.points
        ],
        "extras": {k: float(v) for k, v in sym_report.extras.items()},
    }


def _default_checks(model, task) -> list[str]:
    if isinstance(model, levy.LevyTriplet):
        return ["triplet"]
    if isinstance(model, dist.DiscreteAtoms):
        return ["discrete", "integrated_tail", "moments"]
    if isinstance(model, dist.ScalarModel):
        out = ["density", "integrated_tail", "moments"]
        if task.get("alpha") is not None:
            out.append("quasi")
        return out
    if isinstance(model, dist.VectorModel):
        return ["joint"] if task.get("numeraire") is None else ["payoff"]
    return []


def _run_check(spec: dict) -> tuple[int, dict, dict]:
    model, task = spec["model"], spec["task"]
    rng = RngStream(spec["seed"])
    i = task.get("numeraire") or 1
    checks = task.get("checks") or _default_checks(model, task)
    reports = []
    for idx, name in enumerate(checks):
        if name == "density":
            reports.append(duality.check_density_self_dual(model, i, tol=spec["tol"]["exact"]))
        elif name == "integrated_tail":
            reports.append(duality.check_integrated_tail_symmetry(model))
        elif name == "moments":
            reports.append(duality.check_moment_and_skewness(model))
        elif name == "discrete":
            reports.append(duality.check_discrete_self_dual(model, i))
        elif name == "payoff":
            reports.append(
                duality.check_payoff_symmetry(
                    model, i, rng=rng.child(idx), n_samples=spec["samples"]
                )
            )
        elif name == "joint":
            reports.append(
                duality.check_joint_self_duality(model, rng.child(idx), n_samples=spec["samples"])
            )
        elif name == "quasi":
            reports.append(
                duality.check_quasi_self_dual(
                    model, i, task.get("carry") or 0.0, task["alpha"],
                    rng=rng.child(idx), n_samples=spec["samples"],
                )
            )
        elif name == "triplet":
            if task.get("alpha") is not None:
                reports.append(
                    levy.check_qsd_triplet(
                        model, i, task.get("carry") or 0.0, task["alpha"],
                        tol=spec["tol"]["exact"],
                    )
                )
            else:
                reports.append(levy.check_sd_triplet(model, i, tol=spec["tol"]["exact"]))
    verdicts = {r.verdict for r in reports}
    verdict = "fail" if "fail" in verdicts else (
        "inconclusive" if "inconclusive" in verdicts else "pass"
    )
    code = {"pass": 0, "fail": 1, "inconclusive": 2}[verdict]
    lines = "\n".join(r.one_line() for r in reports)
    return code, {"verdict": verdict, "checks": [_report_of(r) for r in reports]}, {
        "verdicts.txt": lines + "\n"
    }


def _run_alpha(spec: dict) -> tuple[int, dict, dict]:
    model, task = spec["model"], spec["task"]
    if not isinstance(model, levy.LevyTriplet):
        raise SelfDualError("alpha task requires a levy_triplet model")
    sol = levy.solve_alpha(model, task["numeraire"], task["carry"])
    doc = {
        "alpha": sol.alpha,
        "method": sol.method,
        "residual": sol.residual,
        "bracket": list(sol.bracket) if sol.bracket else None,
    }
    line = f"alpha={sol.alpha:.12g} method={sol.method} residual={sol.residual:.3e}\n"
    return 0, doc, {"alpha.txt": line}


def _run_price(spec: dict) -> tuple[int, dict, dict]:
    model, task, payoff = spec["model"], spec["task"], spec["payoff"]
    rng = RngStream(spec["seed"])
    forward = task["forward"]
    est = pricing.price(
        model, payoff, r=task["rate"], maturity=task["maturity"], rng=rng,
        n_samples=spec["samples"],
        forward=forward[0] if len(forward) == 1 else np.asarray(forward),
    )
    doc = {
        "value": est.value,
        "std_error": est.std_error,
        "discounted": est.discounted,
        "discount_factor": est.discount_factor,
        "method": est.method,
        "n_samples": est.n_samples,
    }
    line = (
        f"value={est.value:.12g} std_error={est.std_error:.3e} "
        f"discounted={est.discounted:.12g} method={est.method}\n"
    )
    return 0, doc, {"price.txt": line}


def _run_hedge(spec: dict) -> tuple[int, dict, dict]:
    cfg, task, payoff = spec["model"], spec["task"], spec["payoff"]
    if not isinstance(cfg, hedging.PathConfig):
        raise SelfDualError("hedge task requires a path_config model")
    alpha = task["alpha"]
    if alpha == "solve":
        i = task["barrier"].asset
        lam = float(cfg.carry[i - 1])
        alpha = levy.solve_alpha(cfg.driver, i, lam).alpha
    plan = hedging.build_hedge(payoff, task["barrier"], float(alpha), task["knock"])
    rng = RngStream(spec["seed"])
    report = hedging.evaluate_hedge(
        plan, cfg, n_outer=task["n_outer"], n_inner=task["n_inner"], rng=rng,
        n_hit_states=task["hit_states"],
    )
    doc = {
        "verdict": report.verdict,
        "alpha": float(alpha),
        "simplification": plan.simplification,
        "knock_in_fraction": report.knock_in_fraction,
        "knock_in_se": report.knock_in_se,
        "overshoot_fraction": report.overshoot_fraction,
        "one_sided": report.one_sided,
        "max_gap_se_units": report.max_gap_se_units,
        "terminal_max_mismatch": report.terminal_max_mismatch,
        "price_plain": list(report.price_plain),
        "price_knock_in": list(report.price_knock_in),
        "price_knock_out": list(report.price_knock_out),
        "hit_states": len(report.hit_gaps),
    }
    buf = io.StringIO()
    report.gaps_csv(buf)
    code = {"pass": 0, "fail": 1, "inconclusive": 2}[report.verdict]
    return code, doc, {"hedge_gaps.csv": buf.getvalue(), "hedge.txt": report.one_line() + "\n"}


def _run_zonoid(spec: dict) -> tuple[int, dict, dict]:
    model, task = spec["model"], spec["task"]
    if not isinstance(model, dist.ScalarModel):
        raise SelfDualError("zonoid task requires a scalar model")
    rows = geometry.boundary_polyline(model, task["k_min"], task["k_max"], task["points"])
    buf = io.StringIO()
    geometry.write_boundary_csv(rows, buf)
    doc = {"points": int(rows.shape[0]), "k_min": task["k_min"], "k_max": task["k_max"]}
    return 0, doc, {"boundary.csv": buf.getvalue()}


_RUNNERS = {
    "check": _run_check,
    "alpha": _run_alpha,
    "price": _run_price,
    "hedge": _run_hedge,
    "zonoid": _run_zonoid,
}


def run(spec: dict) -> tuple[int, dict, dict]:
    """Execute a parsed spec; returns (exit code, report doc, artifacts)."""
    kind = spec["task"].get("kind")
    header = {
        "tool": {
            "name": "selfdual",
            "version": __version__,
            "seed": spec["seed"],
            "spec_sha256": hashlib.sha256(serialize_spec(spec).encode()).hexdigest(),
        },
        "spec": yaml.safe_load(serialize_spec(spec)),
    }
    try:
        code, results, artifacts = _RUNNERS[kind](spec)
    except SelfDualError as exc:
        doc = dict(header)
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return 3, doc, {}
    doc = dict(header)
    doc["results"] = results
    return code, doc, artifacts


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfdual",
        description="Self-dual model checks, order solving, pricing, and hedges",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASK_KINDS:
        p = sub.add_parser(name, help=f"run a '{name}' task from a model spec")
        p.add_argument("spec", help="path to the YAML model spec")
        p.add_argument("--seed", type=int, default=None, help="override the spec seed")
        p.add_argument("--samples", type=int, default=None, help="override sample counts")
        p.add_argument("--tol", type=float, default=None, help="override the exact tolerance")
        p.add_argument("--out", type=str, default=None, help="directory for report artifacts")
    args = parser.parse_args(argv)

    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 3
    try:
        spec = parse_model_spec(text)
    except SchemaError as exc:
        for violation in exc.violations:
            print(f"schema error: {violation}", file=sys.stderr)
        return 3

    task_kind = spec["task"].get("kind")
    if task_kind != args.command:
        print(
            f"error: spec task kind {task_kind!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 3
    if args.seed is not None:
        spec["seed"] = args.seed
    if args.samples is not None:
        spec["samples"] = args.samples
    if args.tol is not None:
        spec["tol"]["exact"] = args.tol
    if args.out is not None:
        spec["out"] = args.out

    code, doc, artifacts = run(spec)
    out_text = yaml.safe_dump(doc, sort_keys=True)
    sys.stdout.write(out_text)
    if spec["out"]:
        out_dir = Path(spec["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.yaml").write_text(out_text)
        for fname, content in artifacts.items():
            (out_dir / fname).write_text(content)
    return code


if __name__ == "__main__":
    sys.exit(main())
