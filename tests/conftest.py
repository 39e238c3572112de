import numpy as np
import pytest
import yaml

from selfdual.rng import RngStream

# (loader, dumper) of each YAML backend; PyYAML may be built without libyaml
YAML_BACKENDS = {
    "libyaml": (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None)),
    "python": (yaml.SafeLoader, yaml.SafeDumper),
}


@pytest.fixture
def rng():
    return RngStream(20240901)


def use_yaml_backend(monkeypatch, name: str) -> None:
    """Make the CLI read specs and write reports through backend ``name``."""
    from selfdual import cli

    loader, dumper = YAML_BACKENDS[name]
    monkeypatch.setattr(cli, "YAML_LOADER", loader)
    monkeypatch.setattr(cli, "YAML_DUMPER", dumper)


@pytest.fixture(params=sorted(YAML_BACKENDS))
def yaml_backend(request, monkeypatch):
    """Run a CLI test once through libyaml and once through pure-Python PyYAML."""
    if YAML_BACKENDS[request.param][0] is None:
        pytest.skip("PyYAML is built without libyaml")
    use_yaml_backend(monkeypatch, request.param)
    return request.param


@pytest.fixture(params=["inline", "pool"])
def kernel_workers(request, monkeypatch):
    """Run a test once with the CRN kernel's blocks inline on one worker, once on a pool
    of at least two kernel threads, which a one-CPU runner would otherwise run inline."""
    from selfdual import duality

    monkeypatch.setattr(duality, "WORKERS", 1 if request.param == "inline" else max(duality.WORKERS, 2))
    return duality.WORKERS


def make_rng(tag: int) -> RngStream:
    return RngStream(20240901, tag)


def drawn_columns(model, n: int, rng: RngStream):
    """The whole column-major (dim, n) draw that ``model.column_chunks`` streams."""
    for cols, _ in model.column_chunks(n, rng):
        pass
    return cols


def self_dual_scalar_fixtures():
    """Built-in self-dual scalar models (all have mean one)."""
    from fractions import Fraction as F

    from selfdual import dist

    return [
        dist.LogNormal.mean_one(0.25),
        dist.LogNormal.mean_one(0.5),
        dist.LogNormal.mean_one(0.75),
        dist.LpSelfDual(1.5),
        dist.LpSelfDual(2.0),
        dist.LpSelfDual(3.0),
        dist.HeavyTail(-0.5),
        dist.HeavyTail(0.0),
        dist.HeavyTail(1.0),
        dist.HeavyTail(3.0),
        dist.DiscreteAtoms([(F(1, 2), F(1, 3)), (F(1), F(1, 2)), (F(2), F(1, 6))]),
        dist.DiscreteAtoms([(F(1), F(1))]),
    ]


def moment_range(model):
    """Open interval of finite moments (lo, hi) for a fixture."""
    from selfdual import dist

    if isinstance(model, (dist.LogNormal, dist.DiscreteAtoms)):
        return (-np.inf, np.inf)
    if isinstance(model, dist.LpSelfDual):
        return (1.0 - model.p, model.p)
    if isinstance(model, dist.HeavyTail):
        return (-(1.0 + model.gamma), 2.0 + model.gamma)
    return (-np.inf, np.inf)
