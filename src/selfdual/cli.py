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
from functools import cache, partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__, dist, duality, geometry, hedging, levy, pricing
from .errors import MomentDiverges, SchemaError, SelfDualError
from .rng import RngStream

# libyaml where PyYAML was built with it; both read and write the same YAML
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


# --------------------------------------------------------------------------- #
# The schema walker and its readers
# --------------------------------------------------------------------------- #
#
# A table is ``(constructor, fields)``; each field maps a YAML key to
# ``(reader, options)``.  Readers take ``(chk, node, path, options)`` and
# record violations on ``chk``; options are the bounds ``gt``/``ge``/``le``, a
# ``default`` and ``required`` (or ``needed_by``: required when the list under
# another key holds a value), plus what a reader reads (``of``, ``item``,
# ``table``).


class _Check:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")


def _build(chk: _Check, node, path: str, table):
    """Check the keys of a mapping, read its fields and call the constructor by key.

    Unknown and missing required keys are each reported once.  A null
    stands for an absent key where the field is optional and its default
    is not a word; elsewhere its reader judges it.  The constructor runs
    only when the mapping read cleanly, and its :class:`SelfDualError` is
    recorded at ``path``.
    """
    make, fields = table[:2]
    if not isinstance(node, dict):
        return chk.fail(path, f"expected a mapping, got {type(node).__name__}")
    before = len(chk.errors)
    for key in node:
        if key not in fields:
            chk.fail(f"{path}.{key}", "unknown key")
    args = {}
    for key, (read, opt) in fields.items():
        value = node.get(key)
        if value is not None or (key in node and _reads_null(opt)):
            args[key] = read(chk, value, f"{path}.{key}", opt)
        elif opt.get("required") or _needed_by(node, opt):
            chk.fail(f"{path}.{key}", "missing required key")
        else:
            args[key] = opt.get("default")
    if len(chk.errors) > before:
        return None
    try:
        return make(**args)
    except SelfDualError as exc:
        chk.fail(path, str(exc))


def _reads_null(opt) -> bool:
    return bool(opt.get("required")) or isinstance(opt.get("default"), str)


def _needed_by(node: dict, opt) -> bool:
    key, value = opt.get("needed_by", (None, None))
    return isinstance(node.get(key), list) and value in node[key]


def _bounded(chk: _Check, val, path: str, opt):
    if "gt" in opt and not val > opt["gt"]:
        chk.fail(path, f"must be > {opt['gt']}, got {val!r}")
    if "ge" in opt and not val >= opt["ge"]:
        chk.fail(path, f"must be >= {opt['ge']}, got {val!r}")
    if "le" in opt and not val <= opt["le"]:
        chk.fail(path, f"must be <= {opt['le']}, got {val!r}")
    return val


def _number(chk: _Check, node, path: str, opt):
    """A finite float; strings like '1/3' are read as fractions, words in ``or`` kept."""
    if isinstance(node, str):
        if node in opt.get("or", ()):
            return node
        try:
            node = float(Fraction(node))
        except (ValueError, ZeroDivisionError):
            return chk.fail(path, f"not a number: {node!r}")
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        got = f"expected a number, got {type(node).__name__}"
        return chk.fail(path, "missing required number" if node is None else got)
    val = float(node)
    if not math.isfinite(val):
        return chk.fail(path, "must be finite")
    return _bounded(chk, val, path, opt)


def _integer(chk: _Check, node, path: str, opt):
    if not isinstance(node, int) or isinstance(node, bool):
        got = f"expected an integer, got {type(node).__name__}"
        return chk.fail(path, "missing required integer" if node is None else got)
    return _bounded(chk, node, path, opt)


def _vector(chk: _Check, node, path: str, opt=None):
    """A nonempty list of numbers; a lone number is a list of one."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [float(node)]
    if not isinstance(node, list) or not node:
        got = "expected a nonempty list of numbers"
        return chk.fail(path, "missing required list of numbers" if node is None else got)
    out = [_number(chk, v, f"{path}[{idx}]", {}) for idx, v in enumerate(node)]
    return None if None in out else out


def _matrix(chk: _Check, node, path: str, opt):
    """Equal-length rows of numbers; a lone number is a 1 x 1 matrix."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [[float(node)]]
    if not isinstance(node, list) or not node:
        got = "expected a nonempty list of rows"
        return chk.fail(path, "missing required matrix" if node is None else got)
    rows = [_vector(chk, row, f"{path}[{idx}]") for idx, row in enumerate(node)]
    if None in rows:
        return None
    if len({len(r) for r in rows}) != 1:
        return chk.fail(path, "rows have unequal lengths")
    return rows


def _choice(chk: _Check, node, path: str, opt):
    """One of ``opt['of']``, or with ``many`` a list drawn from them."""
    of = opt["of"]
    if opt.get("many"):
        if isinstance(node, list) and all(v in of for v in node):
            return node
        return chk.fail(path, f"expected a list drawn from {of}")
    if node in of:
        return node
    return chk.fail(path, f"expected one of {of}, got {node!r}")


def _list_of(chk: _Check, node, path: str, opt):
    """A list read item by item with ``opt['item']``; nonempty unless ``ge`` is 0."""
    least = opt.get("ge", 1)
    if not isinstance(node, list) or len(node) < least:
        return chk.fail(path, "expected a nonempty list" if least else "expected a list")
    read, item = opt["item"]
    return [read(chk, v, f"{path}[{idx}]", item) for idx, v in enumerate(node)]


def _table(chk: _Check, node, path: str, opt):
    return _build(chk, node, path, opt["table"])


def _kinded(chk: _Check, node, path: str, opt):
    """A mapping whose ``kind`` names its table in ``opt['of']``."""
    if not isinstance(node, dict):
        return chk.fail(path, f"expected a mapping, got {type(node).__name__}")
    tables, kind = opt["of"], node.get("kind")
    if not isinstance(kind, str) or kind not in tables:
        return chk.fail(f"{path}.kind", f"expected one of {tuple(tables)}, got {kind!r}")
    return _build(chk, {k: v for k, v in node.items() if k != "kind"}, path, tables[kind])


def _atom(chk: _Check, node, path: str, opt):
    """A discrete atom [value, prob]; strings like '1/3' become exact Fractions."""
    if not isinstance(node, list) or len(node) != 2:
        return chk.fail(path, "expected [value, prob]")
    if all(isinstance(v, (int, float, str)) for v in node):
        try:
            return tuple(Fraction(v) if isinstance(v, str) else v for v in node)
        except (ValueError, ZeroDivisionError):
            pass
    return chk.fail(path, "values must be numbers or fraction strings")


def _drift(chk: _Check, node, path: str, opt):
    """A triplet drift: 'martingale', {mu: [...]} or {gamma: [...]}."""
    if node == "martingale":
        return node
    if isinstance(node, dict) and len(node) == 1 and set(node) <= {"mu", "gamma"}:
        return _build(chk, node, path, (dict, dict.fromkeys(node, _REQUIRED_VECTOR)))
    return chk.fail(path, "expected 'martingale', {mu: [...]}, or {gamma: [...]}")


def _text(chk: _Check, node, path: str, opt):
    return node if isinstance(node, str) else chk.fail(path, "expected a directory path string")


# --------------------------------------------------------------------------- #
# Models, payoffs and tasks
# --------------------------------------------------------------------------- #


def _lognormal(mu, sigma):
    # the mean-one member when the drift is omitted
    return dist.LogNormal(-0.5 * sigma * sigma if mu is None else mu, sigma)


def _triplet(a, drift, convention, norm_index, atoms, tilted_gaussian):
    nu = levy.JumpMeasure(atoms=tuple(atoms), gaussian=tilted_gaussian)
    if drift == "martingale":
        return levy.martingale_normalized(a, nu, convention=convention, norm_index=norm_index)
    # mu is a mean drift; gamma a truncated one, in the Euclidean ball if the spec says so
    [(key, value)] = drift.items()
    if key == "mu":
        convention = "mean"
    elif convention == "mean":
        convention = "truncated"
    return levy.LevyTriplet(a, nu, value, convention, norm_index)


def _path_config(s0, carry, horizon, steps, driver):
    # no carry by default; one carry applies to every asset
    carry = carry or [0.0] * len(s0)
    if len(carry) == 1 and len(s0) > 1:
        carry = carry * len(s0)
    return hedging.PathConfig(s0, carry, driver, horizon=horizon, steps=steps)


# each setting that a task may leave unread, at its default
_DEFAULTS = {"samples": 200_000, "tol": 1e-10, "steps": 250, "n_outer": 10_000, "n_inner": 20_000,
             "hit_states": 50}
# the settings of a hedge's grid, each with the section of the spec that holds it
_GRID = {"steps": "model", "n_outer": "task", "n_inner": "task", "hit_states": "task"}
_REQUIRED_VECTOR = (_vector, {"required": True})
_REQUIRED_MATRIX = (_matrix, {"required": True})
_STRIKE = (_number, {"ge": 0.0, "required": True})
_ASSET = (_integer, {"ge": 1, "default": 1})

SCALARS = {
    "lognormal": (_lognormal, {
        "mu": (_number, {}),
        "sigma": (_number, {"gt": 0.0, "required": True}),
    }),
    "lp_self_dual": (dist.LpSelfDual, {"p": (_number, {"gt": 1.0, "required": True})}),
    "heavy_tail": (dist.HeavyTail, {"gamma": (_number, {"gt": -1.0, "required": True})}),
    "discrete": (dist.DiscreteAtoms, {
        "atoms": (_list_of, {"item": (_atom, {}), "required": True}),
    }),
}
_FACTORS = {"factors": (_list_of, {"item": (_kinded, {"of": SCALARS}), "required": True})}
_MULTI_LOGNORMAL = (levy.MultiLogNormal, {"mean": _REQUIRED_VECTOR, "cov": _REQUIRED_MATRIX})
_TRIPLET = (_triplet, {
    "a": _REQUIRED_MATRIX,
    "drift": (_drift, {"default": "martingale"}),
    "convention": (_choice, {"of": levy.CONVENTIONS, "default": "mean"}),
    "norm_index": (_integer, {"ge": 1, "default": 1}),
    "atoms": (_list_of, {"ge": 0, "default": (), "item": (_table, {"table": (
        lambda x, mass: (x, mass),
        {"x": _REQUIRED_VECTOR, "mass": (_number, {"gt": 0.0, "required": True})},
    )})}),
    "tilted_gaussian": (_table, {"table": (
        lambda cov, tilt, mass, numeraire:
            levy.build_tilted_gaussian_measure(cov, tilt, mass, numeraire).gaussian,
        {
            "cov": _REQUIRED_MATRIX,
            "tilt": (_number, {"required": True}),
            "mass": (_number, {"gt": 0.0, "required": True}),
            "numeraire": (_integer, {"ge": 1, "required": True}),
        },
    )}),
})
MODELS = {
    **SCALARS,
    "multi_lognormal": _MULTI_LOGNORMAL,
    "common_factor": (dist.CommonFactor, _FACTORS),
    "unit_ball_max": (lambda dim: dist.UnitBallMax(dim), {
        "dim": (_integer, {"ge": 1, "required": True}),
    }),
    "independent_product": (lambda factors: dist.IndependentProduct(factors), _FACTORS),
    "levy_triplet": _TRIPLET,
    "path_config": (_path_config, {
        "s0": _REQUIRED_VECTOR,
        "carry": (_vector, {}),
        "horizon": (_number, {"gt": 0.0, "default": 1.0}),
        "steps": (_integer, {"ge": 1, "default": _DEFAULTS["steps"]}),
        "driver": (_kinded, {
            "of": {"levy_triplet": _TRIPLET, "multi_lognormal": _MULTI_LOGNORMAL},
            "required": True,
        }),
    }),
}

PAYOFFS = {
    "basket_call": (pricing.BasketCall, {"weights": _REQUIRED_VECTOR, "strike": _STRIKE}),
    "basket_put": (pricing.BasketPut, {"weights": _REQUIRED_VECTOR, "strike": _STRIKE}),
    "max_option": (pricing.MaxOption, {
        "u0": (_number, {"ge": 0.0, "required": True}),
        "weights": _REQUIRED_VECTOR,
    }),
    "binary_call": (pricing.BinaryCall, {"strike": _STRIKE, "asset": _ASSET}),
    "binary_put": (pricing.BinaryPut, {"strike": _STRIKE, "asset": _ASSET}),
    "gap_call": (pricing.GapCall, {"strike": _STRIKE, "asset": _ASSET}),
    "gap_put": (pricing.GapPut, {"strike": _STRIKE, "asset": _ASSET}),
    "spread_call": (pricing.SpreadCall, {
        "long_weights": _REQUIRED_VECTOR,
        "short_weights": _REQUIRED_VECTOR,
        "strike": _STRIKE,
    }),
    "power_call": (pricing.PowerCall, {
        "weights": _REQUIRED_VECTOR,
        "strike": _STRIKE,
        "alpha": (_number, {"gt": 0.0, "required": True}),
    }),
    "min_combo": (hedging.TwoAssetMinCombo, {
        "strike": (_number, {"gt": 0.0, "required": True}),
    }),
}


def _carry(spec: dict) -> float:
    return spec["task"].get("carry") or 0.0


def _check_triplet(model, i, spec, rng):
    tol, alpha = spec["tol"]["exact"], spec["task"]["alpha"]
    if alpha is None:
        return levy.check_sd_triplet(model, i, tol=tol)
    return levy.check_qsd_triplet(model, i, _carry(spec), alpha, tol=tol)


# name -> (the settings it reads, of ``samples`` and ``tol``, and the check of (model,
# numeraire, spec, the maker of its own random stream)); on a jump-free law, whose draws
# are lattice replicates, ``samples`` caps a Monte Carlo check's draws rather than counting them.
# On a triplet, whose exponent decides its order exactly, the quasi check is the triplet check.
CHECKS = {
    "density": (("tol",), lambda m, i, spec, rng: duality.check_density_self_dual(
        m, i, tol=spec["tol"]["exact"]
    )),
    "integrated_tail": ((), lambda m, i, spec, rng: duality.check_integrated_tail_symmetry(m)),
    "moments": ((), lambda m, i, spec, rng: duality.check_moment_and_skewness(m)),
    "discrete": ((), lambda m, i, spec, rng: duality.check_discrete_self_dual(m, i)),
    "payoff": (("samples",), lambda m, i, spec, rng: duality.check_payoff_symmetry(
        m, i, rng=rng(), n_samples=spec["samples"]
    )),
    "joint": (("samples",), lambda m, i, spec, rng: duality.check_joint_self_duality(
        m, rng(), n_samples=spec["samples"]
    )),
    "quasi": (("samples",), lambda m, i, spec, rng: duality.check_quasi_self_dual(
        m, i, _carry(spec), spec["task"]["alpha"], rng=rng(), n_samples=spec["samples"]
    )),
    "triplet": (("tol",), _check_triplet),
}

# the model class each check and task needs, and its name in a refusal; the
# density check refuses a model without a density itself
NEEDS = {
    **dict.fromkeys(
        ("payoff check", "joint check", "quasi check", "price task"),
        ((dist.ScalarModel, dist.VectorModel), "a scalar or vector"),
    ),
    **dict.fromkeys(
        ("integrated_tail check", "moments check", "zonoid task"), (dist.ScalarModel, "a scalar")
    ),
    **dict.fromkeys(("triplet check", "alpha task"), (levy.LevyTriplet, "a levy_triplet")),
    "discrete check": (dist.DiscreteAtoms, "a discrete"),
    "hedge task": (hedging.PathConfig, "a path_config"),
}


def _require(what: str, model) -> None:
    if what in NEEDS and not isinstance(model, NEEDS[what][0]):
        raise SelfDualError(f"{what} requires {NEEDS[what][1]} model")


_PAYOFF = (_kinded, {"of": PAYOFFS, "required": True})
# each task kind's table ends in a function of the task and the model that names the spec
# settings, of ``samples`` and ``tol``, that the task reads; one it does not read, given
# away from its default, is a schema error
TASKS = {
    "check": (dict, {
        # left None when omitted: a vector model then defaults to the joint check
        "numeraire": (_integer, {"ge": 1}),
        "checks": (_choice, {"of": tuple(CHECKS), "many": True}),
        "alpha": (_number, {"needed_by": ("checks", "quasi")}),
        "carry": (_vector, {}),
    }, lambda task, model: {s for name in _checks_of(task, model) for s in CHECKS[name][0]}),
    "alpha": (dict, {
        "numeraire": (_integer, {"ge": 1, "default": 1}),
        "carry": (_number, {"required": True}),
    }, lambda task, model: ("tol",)),
    "price": (dict, {
        "payoff": _PAYOFF,
        "rate": (_number, {"default": 0.0}),
        "maturity": (_number, {"gt": 0.0, "default": 1.0}),
        "forward": (_vector, {"default": (1.0,)}),
    }, lambda task, model: () if _closed_form(task, model) else ("samples",)),
    # a hedge reads tol for its exact exchange; a continuous driver's hedge reads samples as
    # the cap on its price check's lattice draws, and simulates no path; a jump driver's
    # hedge checks and prices on its grid
    "hedge": (dict, {
        "barrier": (_table, {"required": True, "table": (hedging.Barrier, {
            "asset": (_integer, {"ge": 1, "required": True}),
            "level": (_number, {"gt": 0.0, "required": True}),
            "direction": (_choice, {"of": ("down", "up"), "default": "down"}),
        })}),
        "target": _PAYOFF,
        "alpha": (_number, {"or": ("solve",), "default": 1.0}),
        "knock": (_choice, {"of": ("in", "out", "super"), "default": "in"}),
        "n_outer": (_integer, {"ge": 100, "default": _DEFAULTS["n_outer"]}),
        "n_inner": (_integer, {"ge": 100, "default": _DEFAULTS["n_inner"]}),
        "hit_states": (_integer, {"ge": 1, "default": _DEFAULTS["hit_states"]}),
    }, lambda task, cfg: ("samples", "tol") if getattr(cfg, "is_continuous", True) else (*_GRID, "tol")),
    "zonoid": (dict, {
        "k_min": (_number, {"gt": 0.0, "default": 1e-2}),
        "k_max": (_number, {"gt": 0.0, "default": 1e2}),
        "points": (_integer, {"ge": 2, "default": 200}),
    }, lambda task, model: ()),
}
TASK_KINDS = tuple(TASKS)

_TOL = (dict, {"exact": (_number, {"gt": 0.0, "default": _DEFAULTS["tol"]})})
_SPEC = (dict, {
    "version": (_integer, {"ge": 1, "le": 1, "default": 1}),
    "seed": (_integer, {"ge": 0, "default": 12345}),
    "samples": (_integer, {"ge": 100, "default": _DEFAULTS["samples"]}),
    "tol": (_table, {"table": _TOL}),
    "out": (_text, {}),
    "model": (_kinded, {"of": MODELS, "required": True}),
    "task": (_kinded, {"of": TASKS, "required": True}),
})


# --------------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------------- #


def parse_model_spec(document: str) -> dict:
    """Parse and validate a YAML model spec; returns the normalized tree.

    Raises :class:`SchemaError` carrying every violation (not just the
    first) with ``section.field`` paths.
    """
    try:
        raw = yaml.load(document, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError([f"document: invalid YAML ({exc})"]) from None
    if not isinstance(raw, dict):
        raise SchemaError(["document: expected a mapping at the top level"])
    chk = _Check()
    # an empty tol section leaves every tolerance at its default
    spec = _build(chk, {**raw, "tol": raw.get("tol") or {}}, "spec", _SPEC)
    if chk.errors:
        raise SchemaError(chk.errors)
    spec["task"]["kind"] = raw["task"]["kind"]
    given = {
        "samples": ("spec.samples", raw.get("samples")),
        "tol": ("spec.tol.exact", (raw.get("tol") or {}).get("exact")),
    }
    if spec["task"]["kind"] == "hedge":
        given |= {key: (f"spec.{part}.{key}", raw[part].get(key)) for key, part in _GRID.items()}
    _refuse_unread(spec, given)
    spec["model_node"] = _normalize(raw["model"])
    spec["task_node"] = _normalize(raw["task"])
    return spec


def _refuse_unread(spec: dict, given: dict) -> None:
    """Refuse each setting of ``given``, ``{setting: (where, value or None)}``, that was
    given away from its default and that the spec's task does not read.  Every report
    echoes the defaults, so an echo parses again."""
    kind = spec["task"]["kind"]
    given = {s: where for s, (where, value) in given.items() if value not in (None, _DEFAULTS[s])}
    reads = TASKS[kind][2](spec["task"], spec["model"]) if given else ()
    unread = [
        f"{where}: the {kind} task does not read {setting}"
        for setting, where in given.items()
        if setting not in reads
    ]
    if unread:
        raise SchemaError(unread)


def _normalize(node):
    """Round-trippable echo of a spec subtree."""
    if isinstance(node, dict):
        return {k: _normalize(v) for k, v in sorted(node.items())}
    if isinstance(node, list):
        return [_normalize(v) for v in node]
    return node


# --------------------------------------------------------------------------- #
# Report text
# --------------------------------------------------------------------------- #
#
# Reports and the spec echo are written as ``yaml.dump(doc, sort_keys=True)``
# writes them.  A walk turns the document into the events that PyYAML's safe
# representer and serializer would make, and PyYAML's own emitter lays them
# out: indentation, folding, quoting and ``? `` keys are the emitter's.  A
# container held twice (PyYAML writes an alias) or a type outside the walk
# (one the safe representer may have no rule for) goes to ``yaml.dump``.

_TAG = "tag:yaml.org,2002:"
# both safe dumpers resolve through this class
_RESOLVE = yaml.resolver.Resolver().resolve


class _Defer(Exception):
    """The document holds something the walk leaves to ``yaml.dump``."""


def _dump(doc) -> str:
    events = [yaml.StreamStartEvent(), yaml.DocumentStartEvent()]
    try:
        _walk(doc, events, {}, set())
    except _Defer:
        return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=True)
    events += [yaml.DocumentEndEvent(), yaml.StreamEndEvent()]
    return yaml.emit(events, Dumper=YAML_DUMPER)


def _walk(node, events: list, memo: dict, seen: set[int]) -> None:
    """Append the events of ``node``.  The emitters only read events, so ``memo`` gives each
    str, int, bool and None scalar of one document a single event, keyed by ``(type, value)``
    but for strings so that ``True`` and ``1`` stay apart; a float's text is made each time."""
    kind = type(node)
    if kind is float:
        events.append(yaml.ScalarEvent(None, _TAG + "float", (True, False), _float(node)))
    elif kind in _SCALARS:
        key = node if kind is str else (kind, node)
        if (event := memo.get(key)) is None:
            event = memo[key] = yaml.ScalarEvent(None, *_SCALARS[kind](node))
        events.append(event)
    elif (kind is dict or kind is list) and id(node) not in seen:
        seen.add(id(node))
        start, end = _MAPPING if kind is dict else _SEQUENCE
        events.append(start)
        if kind is list:
            for item in node:
                _walk(item, events, memo, seen)
        else:
            try:
                items = sorted(node.items())
            except TypeError:  # keys of unlike types, which PyYAML leaves in insertion order
                items = node.items()
            for key, value in items:
                _walk(key, events, memo, seen)
                _walk(value, events, memo, seen)
        events.append(end)
    else:
        raise _Defer


def _float(value: float) -> str:
    """PyYAML's text for a float."""
    if value != value:
        return ".nan"
    if value == math.inf:
        return ".inf"
    if value == -math.inf:
        return "-.inf"
    text = repr(value)
    # a repr such as '1e+16' needs a '.' to read back as a YAML float
    return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text


# type -> (tag, implicit, text) of the other scalars; the text of all but a string
# reads back as its own tag, and a string is plain if its text reads back as a string
_SCALARS = {
    str: lambda value: (
        _TAG + "str", (_RESOLVE(yaml.ScalarNode, value, (True, False)) == _TAG + "str", True), value
    ),
    int: lambda value: (_TAG + "int", (True, False), str(value)),
    bool: lambda value: (_TAG + "bool", (True, False), "true" if value else "false"),
    type(None): lambda value: (_TAG + "null", (True, False), "null"),
}
# the emitters only read events: one pair serves every mapping, one every sequence
_MAPPING = (yaml.MappingStartEvent(None, _TAG + "map", True, flow_style=False), yaml.MappingEndEvent())
_SEQUENCE = (yaml.SequenceStartEvent(None, _TAG + "seq", True, flow_style=False), yaml.SequenceEndEvent())


def _spec_echo(spec: dict) -> dict:
    """The computation's inputs as echoed in every report."""
    # 'out' is an I/O disposition, not part of the computation: reports
    # must be byte-identical for identical (spec, seed) wherever written
    return {
        "version": spec["version"],
        "seed": spec["seed"],
        "samples": spec["samples"],
        "tol": dict(spec["tol"]),
        "model": spec["model_node"],
        "task": spec["task_node"],
    }


def serialize_spec(spec: dict) -> str:
    return _dump(_spec_echo(spec))


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
                **({"replicates": p.replicates} if p.replicates else {}),
            }
            for p in sym_report.points
        ],
        "extras": {k: float(v) for k, v in sym_report.extras.items()},
    }


def _checks_of(task: dict, model) -> list[str]:
    """The checks a check task runs: those it names, or the model's defaults, none when no
    check applies."""
    if task.get("checks"):
        triplet = isinstance(model, levy.LevyTriplet)
        return ["triplet" if triplet and name == "quasi" else name for name in task["checks"]]
    if isinstance(model, levy.LevyTriplet) and not isinstance(model, levy.MultiLogNormal):
        return ["triplet"]
    if isinstance(model, dist.ScalarModel):
        discrete = isinstance(model, dist.DiscreteAtoms)
        out = ["discrete" if discrete else "density", "integrated_tail"]
        try:  # the moment identities need E eta^3 and E eta^-2
            model.raw_moment(3.0)
            model.raw_moment(-2.0)
            out.append("moments")
        except MomentDiverges:
            pass
        if task.get("alpha") is not None and not discrete:
            out.append("quasi")
        return out
    if isinstance(model, dist.VectorModel):
        return ["joint"] if task.get("numeraire") is None else ["payoff"]
    return []


def _run_check(spec: dict) -> tuple[str, dict, dict]:
    model, task = spec["model"], spec["task"]
    rng = RngStream(spec["seed"])
    i = task.get("numeraire") or 1
    checks = _checks_of(task, model)
    if not checks:
        raise SelfDualError(f"no check applies to a {spec['model_node']['kind']} model")
    for name in checks:
        _require(f"{name} check", model)
    reports = [
        CHECKS[name][1](model, i, spec, partial(rng.child, idx)) for idx, name in enumerate(checks)
    ]
    verdict = duality.worst_verdict(r.verdict for r in reports)
    lines = "\n".join(r.one_line() for r in reports)
    return verdict, {"verdict": verdict, "checks": [_report_of(r) for r in reports]}, {
        "verdicts.txt": lines + "\n"
    }


def _run_alpha(spec: dict) -> tuple[str, dict, dict]:
    model, task, tol = spec["model"], spec["task"], spec["tol"]["exact"]
    sol = levy.solve_alpha(model, task["numeraire"], task["carry"])
    # the root is the law's order only where the law is quasi-self-dual of that order
    check = levy.check_qsd_triplet(model, task["numeraire"], task["carry"], sol.alpha, tol=tol)
    doc = {
        "verdict": check.verdict,
        "alpha": sol.alpha,
        "method": sol.method,
        "residual": sol.residual,
        "bracket": list(sol.bracket) if sol.bracket else None,
        "check": {"method": "exponent", "tol": tol, **_report_of(check)},
    }
    line = f"alpha={sol.alpha:.12g} method={sol.method} residual={sol.residual:.3e}\n"
    return check.verdict, doc, {"alpha.txt": line + check.one_line() + "\n"}


def _closed_form(task: dict, model) -> bool:
    """Whether the price task's payoff has a closed form under the model: it draws nothing then."""
    forward, payoff = task["forward"], task["payoff"]
    return len(forward) == 1 and pricing._closed_forms(model, [(payoff, forward[0])]) is not None


def _run_price(spec: dict) -> tuple[str, dict, dict]:
    model, task = spec["model"], spec["task"]
    rng = RngStream(spec["seed"])
    forward = task["forward"]
    est = pricing.price(
        model, task["payoff"], r=task["rate"], maturity=task["maturity"], rng=rng,
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
    return "pass", doc, {"price.txt": line}


def _run_hedge(spec: dict) -> tuple[str, dict, dict]:
    cfg, task = spec["model"], spec["task"]
    # before the barrier's asset picks a carry or a hedge weight
    task["barrier"].validate(cfg)
    alpha = task["alpha"]
    if alpha == "solve":
        i = task["barrier"].asset
        lam = float(cfg.carry[i - 1])
        alpha = levy.solve_alpha(cfg.driver, i, lam).alpha
    plan = hedging.build_hedge(task["target"], task["barrier"], float(alpha), task["knock"])
    rng = RngStream(spec["seed"])
    report = hedging.evaluate_hedge(
        plan, cfg, n_outer=task["n_outer"], n_inner=task["n_inner"], rng=rng,
        n_hit_states=task["hit_states"], n_samples=spec["samples"], tol=spec["tol"]["exact"],
    )
    doc = {
        "verdict": report.verdict,
        "alpha": float(alpha),
        "simplification": plan.simplification,
        "knock_in_fraction": report.knock_in_fraction,
        "knock_in_se": report.knock_in_se,
        "overshoot_fraction": report.overshoot_fraction,
        "one_sided": report.one_sided,
        "terminal_max_mismatch": report.terminal_max_mismatch,
        "price_plain": list(report.price_plain),
        "price_knock_in": list(report.price_knock_in),
        "price_knock_out": list(report.price_knock_out),
        "price_gap": None if report.price_gap is None else list(report.price_gap),
    }
    artifacts = {"hedge.txt": report.one_line() + "\n"}
    # the exact exchange, in three parts
    exchange = _report_of(report.exchange)
    doc["exchange"] = {"method": "exponent", "tol": spec["tol"]["exact"], **exchange}
    if report.price_gap is None:  # the grid's hit states
        buf = io.StringIO()
        report.gaps_csv(buf)
        artifacts["hedge_gaps.csv"] = buf.getvalue()
        doc |= {"max_gap_se_units": report.max_gap_se_units, "hit_states": len(report.hit_gaps)}
    else:
        doc["price_check"] = dict(zip(("n_samples", "replicates", "rounds"), report.price_check))
    return report.verdict, doc, artifacts


def _run_zonoid(spec: dict) -> tuple[str, dict, dict]:
    model, task = spec["model"], spec["task"]
    rows = geometry.boundary_polyline(model, task["k_min"], task["k_max"], task["points"])
    buf = io.StringIO()
    geometry.write_boundary_csv(rows, buf)
    doc = {"points": int(rows.shape[0]), "k_min": task["k_min"], "k_max": task["k_max"]}
    return "pass", doc, {"boundary.csv": buf.getvalue()}


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
    echo = _spec_echo(spec)
    header = {
        "tool": {
            "name": "selfdual",
            "version": __version__,
            "seed": spec["seed"],
            "spec_sha256": hashlib.sha256(_dump(echo).encode()).hexdigest(),
        },
        "spec": echo,
    }
    try:
        _require(f"{kind} task", spec["model"])
        verdict, results, artifacts = _RUNNERS[kind](spec)
    except SelfDualError as exc:
        doc = dict(header)
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return 3, doc, {}
    doc = dict(header)
    doc["results"] = results
    return {"pass": 0, "fail": 1, "inconclusive": 2}[verdict], doc, artifacts


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def _apply_overrides(spec: dict, args: argparse.Namespace) -> None:
    """Apply ``--seed``/``--samples``/``--tol`` under the spec's own checks."""
    chk = _Check()
    for flag, value, owner, key, (_, fields) in (
        ("--seed", args.seed, spec, "seed", _SPEC),
        ("--samples", args.samples, spec, "samples", _SPEC),
        ("--tol", args.tol, spec["tol"], "exact", _TOL),
    ):
        if value is not None:
            read, opt = fields[key]
            owner[key] = read(chk, value, flag, opt)
    if chk.errors:
        raise SchemaError(chk.errors)
    _refuse_unread(spec, {"samples": ("--samples", args.samples), "tol": ("--tol", args.tol)})


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="selfdual",
        description="Self-dual model checks, order solving, pricing, and hedges",
    )
    parser.add_argument("command", choices=TASK_KINDS, help="the task kind the spec holds")
    parser.add_argument("spec", help="path to the YAML model spec")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--samples", type=int, default=None, help="override sample counts")
    parser.add_argument("--tol", type=float, default=None, help="override the exact tolerance")
    parser.add_argument("--out", type=str, default=None, help="directory for report artifacts")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 3
    try:
        spec = parse_model_spec(text)
        _apply_overrides(spec, args)
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
    if args.out is not None:
        spec["out"] = args.out

    code, doc, artifacts = run(spec)
    out_text = _dump(doc)
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
