import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfdual import cli, dist, duality, hedging, levy, pricing
from selfdual.errors import SchemaError
from selfdual.rng import RngStream

import byte_sweep
import hedge_oracle
from conftest import use_yaml_backend

MINIMAL = """
model:
  kind: lognormal
  sigma: 0.25
task:
  kind: check
"""

DISCRETE = """
seed: 7
model:
  kind: discrete
  atoms:
    - ["1/2", "1/3"]
    - ["1", "1/2"]
    - ["2", "1/6"]
task:
  kind: check
"""


def test_parse_minimal_spec_injects_defaults():
    spec = cli.parse_model_spec(MINIMAL)
    assert spec["seed"] == 12345
    assert spec["samples"] == 200_000
    assert spec["tol"]["exact"] == 1e-10
    model = spec["model"]
    assert isinstance(model, dist.LogNormal)
    assert model.mu == pytest.approx(-0.5 * 0.25**2)  # mean-one default drift


def test_parse_reports_every_violation():
    bad = """
model:
  kind: lognormal
  sigma: -1
  junk: true
task:
  kind: check
  numeraire: 0
"""
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(bad)
    text = "\n".join(exc.value.violations)
    assert "spec.model.sigma" in text
    assert "spec.model.junk" in text
    assert "spec.task.numeraire" in text
    assert len(exc.value.violations) == 3


def test_parse_rejects_unknown_keys_and_kinds():
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec("model: {kind: mystery}\ntask: {kind: check}\nbogus: 1\n")
    text = "\n".join(exc.value.violations)
    assert "spec.bogus" in text and "spec.model.kind" in text


def test_round_trip_is_stable():
    spec = cli.parse_model_spec(DISCRETE)
    echoed = cli.serialize_spec(spec)
    again = cli.parse_model_spec(echoed)
    assert cli.serialize_spec(again) == echoed


def test_run_check_discrete_paper_example():
    spec = cli.parse_model_spec(DISCRETE)
    code, doc, artifacts = cli.run(spec)
    assert code == 0
    assert doc["results"]["verdict"] == "pass"
    names = [c["name"] for c in doc["results"]["checks"]]
    assert any(name.startswith("discrete_self_dual") for name in names)
    assert "verdicts.txt" in artifacts


def test_run_alpha_closed_lognormal():
    spec = cli.parse_model_spec(
        "model: {kind: levy_triplet, a: 0.04}\ntask: {kind: alpha, carry: 0.01}\n"
    )
    code, doc, artifacts = cli.run(spec)
    assert code == 0
    assert doc["results"]["alpha"] == pytest.approx(0.5, abs=1e-15)
    assert "alpha=0.5" in artifacts["alpha.txt"]
    assert "method=closed_lognormal" in artifacts["alpha.txt"]


def test_run_price_closed_form():
    spec = cli.parse_model_spec(
        """
model: {kind: lognormal, sigma: 0.25}
task:
  kind: price
  payoff: {kind: basket_call, weights: [1.0], strike: 1.0}
  rate: 0.05
"""
    )
    code, doc, _ = cli.run(spec)
    assert code == 0
    res = doc["results"]
    assert res["method"] == "closed_form"
    assert res["value"] == pytest.approx(0.09948, abs=5e-6)
    assert res["discounted"] == pytest.approx(res["value"] * math.exp(-0.05), rel=1e-12)


def test_run_zonoid_emits_csv():
    spec = cli.parse_model_spec(
        "model: {kind: lognormal, sigma: 0.5}\ntask: {kind: zonoid, points: 25}\n"
    )
    code, doc, artifacts = cli.run(spec)
    assert code == 0
    lines = artifacts["boundary.csv"].splitlines()
    assert lines[0] == "k,bc,gc_over_f"
    assert len(lines) == 26


def test_run_check_failure_exit_code():
    spec = cli.parse_model_spec(
        "model: {kind: lognormal, mu: 0.0, sigma: 0.5}\ntask: {kind: check, checks: [density]}\n"
    )
    code, doc, _ = cli.run(spec)
    assert code == 1
    assert doc["results"]["verdict"] == "fail"


def test_run_hedge_task():
    spec = cli.parse_model_spec(
        """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  driver:
    kind: levy_triplet
    a: [[0.0625, 0.03125], [0.03125, 0.0625]]
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
"""
    )
    assert isinstance(spec["model"], hedging.PathConfig)
    code, doc, artifacts = cli.run(spec)
    assert code == 0, doc
    assert doc["results"]["verdict"] == "pass"
    # a continuous driver's exchange is exact, so it writes no hit states
    assert doc["results"]["exchange"]["method"] == "exponent"
    assert sorted(artifacts) == ["hedge.txt"]


def test_run_hedge_with_solved_alpha():
    spec = cli.parse_model_spec(
        """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  carry: [0.01, 0.01]
  driver:
    kind: levy_triplet
    a: [[0.04, 0.02], [0.02, 0.04]]
task:
  kind: hedge
  barrier: {asset: 1, level: 0.85}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.85}
  alpha: solve
"""
    )
    code, doc, _ = cli.run(spec)
    assert code == 0 and doc["results"]["exchange"]["verdict"] == "pass"
    assert doc["results"]["alpha"] == pytest.approx(0.5, abs=1e-12)


def test_main_determinism(tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(DISCRETE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["check", str(spec_file), "--out", str(out1)]) == 0
    assert cli.main(["check", str(spec_file), "--out", str(out2)]) == 0
    assert (out1 / "report.yaml").read_text() == (out2 / "report.yaml").read_text()
    doc = yaml.safe_load((out1 / "report.yaml").read_text())
    assert doc["tool"]["seed"] == 7
    assert len(doc["tool"]["spec_sha256"]) == 64


def test_main_subcommand_mismatch(tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(DISCRETE)
    assert cli.main(["alpha", str(spec_file)]) == 3


@pytest.mark.parametrize(
    "model", ["{kind: lp_self_dual, p: 3}", "{kind: lp_self_dual, p: 2.5}", "{kind: heavy_tail, gamma: 0.5}"]
)
def test_default_checks_leave_out_moments_that_diverge(model, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(f"model: {model}\ntask: {{kind: check}}\n")
    assert cli.main(["check", str(spec_file)]) == 0
    checks = yaml.safe_load(capsys.readouterr().out)["results"]["checks"]
    assert [c["name"] for c in checks] == ["density_self_dual", "integrated_tail_symmetry"]
    # named, the moment check still refuses the model
    spec_file.write_text(f"model: {model}\ntask: {{kind: check, checks: [moments]}}\n")
    assert cli.main(["check", str(spec_file)]) == 3
    assert yaml.safe_load(capsys.readouterr().out)["error"]["type"] == "MomentDiverges"


def test_main_schema_errors_exit_three(tmp_path, capsys):
    spec_file = tmp_path / "bad.yaml"
    spec_file.write_text("model: {kind: lognormal, sigma: -2}\ntask: {kind: check}\n")
    assert cli.main(["check", str(spec_file)]) == 3
    err = capsys.readouterr().err
    assert "spec.model.sigma" in err


def test_error_surfaces_as_diagnostic_not_crash():
    # alpha task on a non-triplet model: structured error, exit 3
    spec = cli.parse_model_spec(
        "model: {kind: lognormal, sigma: 0.3}\ntask: {kind: alpha, carry: 0.01}\n"
    )
    code, doc, _ = cli.run(spec)
    assert code == 3
    assert doc["error"]["type"] == "SelfDualError"


def test_common_factor_of_lognormal_factors_parses():
    spec = cli.parse_model_spec(
        """
model:
  kind: common_factor
  factors:
    - {kind: lognormal, sigma: 0.5}
    - {kind: lognormal, sigma: 0.5}
    - {kind: lognormal, sigma: 0.5}
task: {kind: check}
"""
    )
    assert isinstance(spec["model"], dist.CommonFactor)
    assert spec["model"].dim == 2
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(
            "model: {kind: common_factor, factors: [{kind: lognormal, sigma: 0.5, junk: 1}, 3]}\n"
            "task: {kind: check}\n"
        )
    text = "\n".join(exc.value.violations)
    assert "spec.model.factors[0].junk: unknown key" in text
    assert "spec.model.factors[1]: expected a mapping" in text


def test_vector_check_without_numeraire_runs_joint():
    doc = """
samples: 2000
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.125], [0.125, 0.25]]
task: {kind: check%s}
"""
    spec = cli.parse_model_spec(doc % "")
    assert spec["task"]["numeraire"] is None
    _, out, _ = cli.run(spec)
    assert [c["name"] for c in out["results"]["checks"]] == ["joint_self_duality"]
    spec = cli.parse_model_spec(doc % ", numeraire: 1")
    _, out, _ = cli.run(spec)
    assert out["results"]["checks"][0]["name"].startswith("payoff_symmetry")


def test_tol_se_band_is_not_a_setting():
    spec = cli.parse_model_spec(MINIMAL)
    assert spec["tol"] == {"exact": 1e-10}
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(MINIMAL + "tol: {se_band: 4.0}\n")
    assert exc.value.violations == ["spec.tol.se_band: unknown key"]


def test_report_points_record_samples_and_rounds():
    # a jump law's draws are i.i.d.: passing points rest on the first batch; failing ones
    # pool 20k + 40k + 80k, unless they were beyond DECISIVE_Z SE at the first look or
    # after the first round
    code, doc, _ = cli.run(cli.parse_model_spec(PAYOFF_JUMP_TRIPLET))
    assert code == 1
    points = doc["results"]["checks"][0]["points"]
    seen = {(p["status"], p["n_samples"], p["rounds"]) for p in points}
    assert seen <= {("pass", 20_000, 0), ("fail", 20_000, 0), ("fail", 60_000, 1), ("fail", 140_000, 2)}
    assert ("fail", 140_000, 2) in seen
    for p in points:
        assert "replicates" not in p
        if p["status"] == "fail" and p["rounds"] < 2:
            assert abs(p["residual"]) > duality.DECISIVE_Z * p["std_error"]
    exact = cli.parse_model_spec(MINIMAL)
    _, doc, _ = cli.run(exact)
    for check in doc["results"]["checks"]:
        assert all((p["n_samples"], p["rounds"]) == (0, 0) and "replicates" not in p for p in check["points"])


def test_lattice_points_record_their_replicates():
    # a jump-free law's draws are lattice replicates of 251 points: the first look takes
    # 64, and a look that confirms a point takes the 15 more that a cap of 20k leaves
    spec = cli.parse_model_spec("samples: 20000\n" + INDEPENDENT_PAYOFF)
    code, doc, _ = cli.run(spec)
    assert code == 1
    points = doc["results"]["checks"][0]["points"]
    for p in points:
        assert (p["rounds"], p["replicates"]) in ((0, 64), (1, 79))
        assert p["n_samples"] == 251 * p["replicates"] <= 20_000
        if p["status"] == "fail" and p["rounds"] == 0:
            assert abs(p["residual"]) > duality.DECISIVE_Z * p["std_error"]


INDEPENDENT_PAYOFF = """
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
task: {kind: check, checks: [payoff], numeraire: 1}
"""

HEAVY_TAIL_SELF_DUAL = """
model: {kind: heavy_tail, gamma: 2.0}
task: {kind: check, checks: [density, integrated_tail, moments]}
"""


def test_samples_override_is_checked_like_the_spec(tmp_path, capsys):
    # 5 draws would leave the negative control inconclusive instead of failing
    spec_file = tmp_path / "independent.yaml"
    spec_file.write_text(INDEPENDENT_PAYOFF)
    assert cli.main(["check", str(spec_file), "--samples", "5"]) == 3
    captured = capsys.readouterr()
    assert "schema error: --samples: must be >= 100, got 5" in captured.err
    assert captured.out == ""


def test_tol_override_is_checked_like_the_spec(tmp_path, capsys):
    # a negative tolerance would fail a self-dual law
    spec_file = tmp_path / "heavy_tail.yaml"
    spec_file.write_text(HEAVY_TAIL_SELF_DUAL)
    assert cli.main(["check", str(spec_file), "--tol", "-1"]) == 3
    assert "schema error: --tol: must be > 0.0, got -1.0" in capsys.readouterr().err
    assert cli.main(["check", str(spec_file), "--tol", "1e-9", "--seed", "-2"]) == 3
    assert "schema error: --seed: must be >= 0, got -2" in capsys.readouterr().err
    assert cli.main(["check", str(spec_file), "--tol", "1e-9"]) == 0


# --------------------------------------------------------------------------- #
# Report bytes: the spec echo and the YAML backend
# --------------------------------------------------------------------------- #

# its checks read both settings: the density check reads tol and the payoff check samples
ECHO_SPEC = """
seed: 7
samples: 5000
tol: {exact: 1.0e-9}
model:
  kind: lognormal
  sigma: 0.25
task:
  kind: check
  checks: [density, payoff]
"""

# The echo and hash of ECHO_SPEC; building the echo once must not move a byte of either
ECHO = {
    "model": {"kind": "lognormal", "sigma": 0.25},
    "samples": 5000,
    "seed": 7,
    "task": {"checks": ["density", "payoff"], "kind": "check"},
    "tol": {"exact": 1e-09},
    "version": 1,
}
ECHO_TEXT = (
    "model:\n  kind: lognormal\n  sigma: 0.25\nsamples: 5000\nseed: 7\ntask:\n  checks:\n"
    "  - density\n  - payoff\n  kind: check\ntol:\n  exact: 1.0e-09\nversion: 1\n"
)


def test_spec_echo_and_hash_match_golden_values(yaml_backend, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(ECHO_SPEC)
    assert cli.serialize_spec(cli.parse_model_spec(ECHO_SPEC)) == ECHO_TEXT
    runs = [
        ([], "2fedb2e7528eec05f9fb782a9280c4de5b81f29b3b4698c5e0d1996db4f3d15c", {}),
        (
            ["--seed", "99", "--samples", "1234", "--tol", "3e-7"],
            "78e008c5f485a0b6a5a911c653614faf2072081786a1bf0b8db1ae25f4bf9054",
            {"seed": 99, "samples": 1234, "tol": {"exact": 3e-07}},
        ),
    ]
    for overrides, sha, changed in runs:
        # a payoff check of a few thousand draws is inconclusive at the SE floor
        assert cli.main(["check", str(spec_file), *overrides]) == 2
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["tool"]["spec_sha256"] == sha
        assert doc["spec"] == {**ECHO, **changed}


HEDGE_SMALL = """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  driver: {kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
"""

REPORT_SPECS = {
    "check": DISCRETE,
    "alpha": "model: {kind: levy_triplet, a: 0.04}\ntask: {kind: alpha, carry: 0.01}\n",
    "price": "model: {kind: lognormal, sigma: 0.25}\n"
    "task: {kind: price, payoff: {kind: basket_call, weights: [1.0], strike: 1.0}}\n",
    "hedge": HEDGE_SMALL,
    "zonoid": "model: {kind: heavy_tail, gamma: 1.0}\ntask: {kind: zonoid, points: 40}\n",
}


def _cli_output(kind, spec_file, out_dir, capsys):
    code = cli.main([kind, str(spec_file), "--out", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("kind", cli.TASK_KINDS)
def test_report_bytes_do_not_depend_on_the_yaml_backend(
    kind, yaml_backend, tmp_path, monkeypatch, capsys
):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(REPORT_SPECS[kind])
    got = _cli_output(kind, spec_file, tmp_path / "got", capsys)
    use_yaml_backend(monkeypatch, "python")
    want = _cli_output(kind, spec_file, tmp_path / "want", capsys)
    assert got == want
    assert "report.yaml" in got[2]


# the benchmark's crn-pass and crn-fail specs; on its lattice draws crn-pass decides every
# point on the first look at this seed, and crn-fail confirms failing points
CRN_SPECS = {
    "pass": """
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125, -0.125]
  cov: [[0.25, 0.125, 0.125], [0.125, 0.25, 0.125], [0.125, 0.125, 0.25]]
samples: 200000
seed: 838640110
task: {kind: check, checks: [joint]}
""",
    "fail": """
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
samples: 200000
seed: 838640110
task: {kind: check, checks: [payoff], numeraire: 1}
""",
}


def test_the_negative_control_fails_on_every_seed():
    spec = cli.parse_model_spec(CRN_SPECS["fail"])
    codes = [cli.run({**spec, "seed": seed})[0] for seed in range(1, 31)]
    assert codes == [1] * 30


# at seed 22 a joint point confirms over two looks, so the looks of several streams run too
@pytest.mark.parametrize(
    "name, seed", [("fail", None), ("pass", None), ("pass", 22)], ids=["fail", "pass", "pass-seed-22"]
)
def test_report_bytes_do_not_depend_on_the_kernel_workers(name, seed, tmp_path, monkeypatch, capsys):
    text = CRN_SPECS[name]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text if seed is None else text.replace("seed: 838640110", f"seed: {seed}"))
    outputs = []
    # one worker runs the blocks inline; more run them on the default pool
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        outputs.append(_cli_output("check", spec_file, tmp_path / f"out{workers}", capsys))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == {"pass": 0, "fail": 1}[name]
    assert seed is None or "rounds: 2" in outputs[0][1]


def _hedge_specs():
    bench = _bench_specs()["bench-hedge"][1]
    return {
        "bench": bench,
        "knock-out": bench.replace("knock: in", "knock: out"),
        "super": bench.replace("knock: in", "knock: super"),
        "jump-spread": JUMP_SPREAD.replace("ALPHA", "1").replace("KNOCK", "in"),
        "jump-super": HEDGE_JUMP_SUPER,
    }


@pytest.mark.parametrize("name", ["bench", "knock-out", "super", "jump-spread", "jump-super"])
def test_hedge_bytes_do_not_depend_on_the_kernel_workers(name, tmp_path, monkeypatch, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(_hedge_specs()[name])
    outputs = []
    # one worker or more: a hedge draws on the calling thread either way
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        outputs.append(_cli_output("hedge", spec_file, tmp_path / f"out{workers}", capsys))
    assert outputs[0] == outputs[1]
    # only the grid of a jump driver writes hit states
    assert outputs[0][0] in (0, 1, 2)
    assert ("hedge_gaps.csv" in outputs[0][2]) == name.startswith("jump")


# --------------------------------------------------------------------------- #
# The report writer: yaml.dump's bytes through PyYAML's own emitter
# --------------------------------------------------------------------------- #

WRITER_SPECS = {
    **{kind: (kind, REPORT_SPECS[kind]) for kind in cli.TASK_KINDS},
    **{f"crn-{name}": ("check", CRN_SPECS[name]) for name in CRN_SPECS},
    "echo": ("check", ECHO_SPEC),
    # an exit-3 report: an alpha task on a model that is not a triplet
    "error": ("alpha", "model: {kind: lognormal, sigma: 0.3}\ntask: {kind: alpha, carry: 0.01}\n"),
}


def _assert_dumps_as_pyyaml(doc):
    """``cli._dump`` writes ``yaml.dump``'s bytes, or raises the same error."""
    try:
        want = yaml.dump(doc, Dumper=cli.YAML_DUMPER, sort_keys=True)
    except yaml.YAMLError as exc:
        with pytest.raises(type(exc)):
            cli._dump(doc)
    else:
        assert cli._dump(doc) == want


@pytest.mark.parametrize("name", sorted(WRITER_SPECS))
def test_writer_gives_pyyaml_bytes_for_cli_reports(name, yaml_backend):
    kind, text = WRITER_SPECS[name]
    spec = cli.parse_model_spec(text)
    assert spec["task"]["kind"] == kind
    code, doc, _ = cli.run(spec)
    assert (code == 3) == ("error" in doc) == (name == "error")
    for node in (doc, cli._spec_echo(spec)):
        _assert_dumps_as_pyyaml(node)


def _shared(node):
    """A document holding ``node`` twice, which PyYAML writes as an anchor and an alias."""
    return {"a": node, "b": [{}, [], node]}


# the documents the hand-laid block writer used to leave to yaml.dump, and
# types the safe dumper writes that the walk leaves to it
@pytest.mark.parametrize(
    "doc",
    [
        _shared([1.0, 2.0]),
        _shared({}),
        {"a": (1.0, 2.0)},
        {"a": np.float64(1.0)},
        {"a": b"\x00bytes"},
        {"a": {1, 2}},
        {"a": datetime.date(2026, 1, 2)},
        {"a": 1, 2: "b"},
        {"label": "word " * 17},
        {"label": "two\nlines"},
        {"label": "caf\u00e9"},
        {"x" * 130: 1},
        {"": 1},
        {},
    ],
)
def test_writer_matches_pyyaml_on_what_it_used_to_defer(doc, yaml_backend):
    _assert_dumps_as_pyyaml(doc)


# the program's own label formats and strings YAML reads as something else
LABELS = [
    "x=0.2",
    "joint:u=(0.500,0.250)",
    "E eta^2 - E eta^-1",
    "",
    "1",
    "yes",
    "null",
    "a: b",
    "#x",
    "- x",
    "a label of more than eighty characters, with spaces in it, to fold past the column",
]
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16]
)
_LABEL = (
    st.text()
    | st.text(st.characters(min_codepoint=32, max_codepoint=126))
    | st.sampled_from(LABELS)
)
_POINT = st.fixed_dictionaries({
    "label": _LABEL,
    "residual": FLOATS,
    "std_error": FLOATS,
    "status": st.sampled_from(["pass", "fail", "inconclusive"]),
    "n_samples": st.integers(),
    "rounds": st.integers(),
})
_CHECK = st.fixed_dictionaries({
    "name": _LABEL,
    "verdict": _LABEL,
    "max_abs_residual": FLOATS,
    "max_se_units": FLOATS,
    "points": st.lists(_POINT, max_size=4),
    "extras": st.dictionaries(_LABEL, FLOATS, max_size=3),
})
CHECK_DOCS = st.fixed_dictionaries({
    "tool": st.fixed_dictionaries({"name": _LABEL, "seed": st.integers(), "spec_sha256": _LABEL}),
    "results": st.fixed_dictionaries({"verdict": _LABEL, "checks": st.lists(_CHECK, max_size=3)}),
})
# keys up to 140 characters reach PyYAML's '? ' keys, long printable text its folding
_KEY = (
    st.text(max_size=140)
    | st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=120, max_size=140)
    | st.integers()
)
_SCALAR = (
    _LABEL
    | st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=60, max_size=200)
    | st.integers()
    | st.booleans()
    | st.none()
    | FLOATS
)
NESTED_DOCS = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEY, inner, max_size=4),
    max_leaves=20,
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=CHECK_DOCS | NESTED_DOCS)
def test_writer_matches_pyyaml_on_any_document(doc, yaml_backend):
    _assert_dumps_as_pyyaml(doc)


def _no_fallback(*args, **kwargs):
    raise AssertionError("a report went to yaml.dump")


def test_writer_writes_the_program_labels_itself(yaml_backend, monkeypatch):
    doc = {"labels": LABELS, "floats": [-0.0, 5e-324, 1e-05, 1e16, math.inf, -math.inf]}
    want = yaml.dump(doc, Dumper=cli.YAML_DUMPER, sort_keys=True)
    monkeypatch.setattr(yaml, "dump", _no_fallback)
    assert cli._dump(doc) == want


def test_writer_gives_pyyaml_bytes_for_a_report_of_many_points(yaml_backend, monkeypatch):
    # one event serves each repeated scalar and container of the document
    code, doc, _ = cli.run(cli.parse_model_spec(CRN_SPECS["pass"]))
    assert code == 0 and sum(len(c["points"]) for c in doc["results"]["checks"]) >= 150
    want = yaml.dump(doc, Dumper=cli.YAML_DUMPER, sort_keys=True)
    monkeypatch.setattr(yaml, "dump", _no_fallback)
    assert cli._dump(doc) == want


def test_writer_keeps_repeated_scalars_of_unlike_types_apart(yaml_backend, monkeypatch):
    # equal values of unlike types share no event: True == 1 and 0.0 == -0.0
    scalars = ["true", "1", "", 1, True, None, 0.0, -0.0, False, 0]
    doc = {
        "true": list(scalars),
        "1": {"": list(scalars), "true": "1", "1": "true"},
        "": [{"true": s, "1": s, "": s} for s in scalars],
        "repeated": [list(scalars), scalars[::-1]],
    }
    want = yaml.dump(doc, Dumper=cli.YAML_DUMPER, sort_keys=True)
    monkeypatch.setattr(yaml, "dump", _no_fallback)
    assert cli._dump(doc) == want
    back = yaml.load(want, Loader=cli.YAML_LOADER)["repeated"][1][::-1]
    assert [(type(s), repr(s)) for s in back] == [(type(s), repr(s)) for s in scalars]


# --------------------------------------------------------------------------- #
# Start-up: scipy is imported by the code that calls it, on its first call
# --------------------------------------------------------------------------- #

SRC = Path(cli.__file__).resolve().parents[1]

# Parses the specs on stdin, runs its tasks, and prints their exit codes and
# the scipy modules loaded, all in one fresh interpreter.
NO_SCIPY = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from selfdual import cli
job = json.load(sys.stdin)
for text in job["parse"]:
    cli.parse_model_spec(text)
codes = []
for n, (kind, text, *extra) in enumerate(job["run"]):
    spec = Path(sys.argv[2]) / f"{n}.yaml"
    spec.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([kind, str(spec), "--out", str(spec.with_suffix("")), *extra]))
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_tasks_without_quadrature_or_special_functions_never_import_scipy(tmp_path):
    job = {
        "parse": [INDEPENDENT_PAYOFF, HEDGE_SMALL, HEAVY_TAIL_SELF_DUAL],
        "run": [
            ["check", INDEPENDENT_PAYOFF, "--samples", "20000"],
            ["hedge", HEDGE_SMALL],
            ["zonoid", REPORT_SPECS["zonoid"]],
        ],
    }
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(SRC), str(tmp_path)],
        input=json.dumps(job), capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"codes": [1, 0, 0], "scipy": []}


# Tasks that need scipy: the closed LambertW order (lambert_w0 and the
# brentq scan) and a common-factor density check (one quadrature per point)
SCIPY_SPECS = {
    "alpha": """
model:
  kind: levy_triplet
  a: 0.04
  tilted_gaussian: {cov: 1.0, tilt: 0.9808575969854374, mass: 1.0, numeraire: 1}
task: {kind: alpha, carry: 0.01}
""",
    "check": """
model:
  kind: common_factor
  factors: [{kind: lognormal, sigma: 0.5}, {kind: lognormal, sigma: 0.25}]
task: {kind: check, checks: [density]}
""",
}

# cli.main in a fresh interpreter, where scipy is first imported mid-task
COLD_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from selfdual import cli
assert "scipy" not in sys.modules
sys.exit(cli.main(sys.argv[2:]))
"""


# how a fresh interpreter reaches cli.main: the script above, or runpy on the module
LAUNCHERS = {"cold_main": ["-c", COLD_MAIN, str(SRC)], "run_module": ["-m", "selfdual.cli"]}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("kind", sorted(SCIPY_SPECS))
def test_first_use_of_scipy_gives_the_in_process_output(kind, launcher, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(SCIPY_SPECS[kind])
    args = [kind, str(spec_file), "--seed", "11", "--out"]
    cold = subprocess.run(
        [sys.executable, *LAUNCHERS[launcher], *args, str(tmp_path / "cold")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code = cli.main([*args, str(tmp_path / "warm")])
    warm = capsys.readouterr()
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, warm.out, warm.err)
    assert code == 0
    cold_files, warm_files = (
        {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())} for d in ("cold", "warm")
    )
    assert cold_files == warm_files
    assert "report.yaml" in cold_files


# --------------------------------------------------------------------------- #
# The spec schema: one walker over the model, payoff and task tables
# --------------------------------------------------------------------------- #
def _model(node):
    return f"model: {node}\ntask: {{kind: check}}\n"


def _triplet(fields):
    return _model("{kind: levy_triplet, a: 0.04, %s}" % fields)


def _task(node):
    return f"model: {{kind: lognormal, sigma: 0.25}}\ntask: {node}\n"


def _payoff(node):
    return _task("{kind: price, payoff: %s}" % node)


def _hedge(fields):
    return (
        "model: {kind: path_config, s0: [1.0], driver: {kind: levy_triplet, a: 0.04}}\n"
        "task: {kind: hedge, %s}\n" % fields
    )


_MODEL_KINDS, _SCALAR_KINDS = tuple(cli.MODELS), tuple(cli.SCALARS)
_PAYOFF_KINDS = tuple(cli.PAYOFFS)
_TARGET = "target: {kind: basket_put, weights: [1], strike: 1}"

SCHEMA_CORPUS = [
    (_model("{kind: lognormal}"), ["spec.model.sigma: missing required key"]),
    (
        _model("{kind: lognormal, sigma: abc, mu: .inf}"),
        ["spec.model.mu: must be finite", "spec.model.sigma: not a number: 'abc'"],
    ),
    (
        _model("{kind: lognormal, sigma: -1, junk: 1}"),
        ["spec.model.junk: unknown key", "spec.model.sigma: must be > 0.0, got -1.0"],
    ),
    (_model("{kind: lognormal, sigma: null}"), ["spec.model.sigma: missing required number"]),
    (
        _model("{kind: mystery}"),
        [f"spec.model.kind: expected one of {_MODEL_KINDS}, got 'mystery'"],
    ),
    (_model("{sigma: 0.2}"), [f"spec.model.kind: expected one of {_MODEL_KINDS}, got None"]),
    (_model("3"), ["spec.model: expected a mapping, got int"]),
    (_model("{kind: lp_self_dual, p: 1}"), ["spec.model.p: must be > 1.0, got 1.0"]),
    (_model("{kind: heavy_tail, gamma: [1]}"), ["spec.model.gamma: expected a number, got list"]),
    (_model("{kind: discrete, atoms: []}"), ["spec.model.atoms: expected a nonempty list"]),
    (
        _model("{kind: discrete, atoms: [[1, 0.5]]}"),
        ["spec.model: atom probabilities sum to 0.5, not 1"],
    ),
    (
        _model("{kind: discrete, atoms: [[1], [x, 1], [1, '1/0'], [null, 1]]}"),
        [
            "spec.model.atoms[0]: expected [value, prob]",
            "spec.model.atoms[1]: values must be numbers or fraction strings",
            "spec.model.atoms[2]: values must be numbers or fraction strings",
            "spec.model.atoms[3]: values must be numbers or fraction strings",
        ],
    ),
    (
        _model("{kind: multi_lognormal, mean: x, cov: [[1], [1, 2]]}"),
        [
            "spec.model.mean: expected a nonempty list of numbers",
            "spec.model.cov: rows have unequal lengths",
        ],
    ),
    (
        _model("{kind: multi_lognormal, mean: [0, null]}"),
        ["spec.model.mean[1]: missing required number", "spec.model.cov: missing required key"],
    ),
    (
        _model("{kind: multi_lognormal, mean: [0], cov: [[1, 0]]}"),
        ["spec.model: covariance shape does not match mean"],
    ),
    (
        _model("{kind: common_factor, factors: [{kind: lognormal, sigma: 0.5, junk: 1}, 3]}"),
        [
            "spec.model.factors[0].junk: unknown key",
            "spec.model.factors[1]: expected a mapping, got int",
        ],
    ),
    (
        _model("{kind: common_factor, factors: []}"),
        ["spec.model.factors: expected a nonempty list"],
    ),
    (
        _model("{kind: independent_product, factors: [{kind: multi_lognormal}]}"),
        [f"spec.model.factors[0].kind: expected one of {_SCALAR_KINDS}, got 'multi_lognormal'"],
    ),
    (_model("{kind: unit_ball_max, dim: 0}"), ["spec.model.dim: must be >= 1, got 0"]),
    (_model("{kind: unit_ball_max, dim: 1.5}"), ["spec.model.dim: expected an integer, got float"]),
    (_model("{kind: levy_triplet}"), ["spec.model.a: missing required key"]),
    (
        _triplet("convention: bogus, norm_index: 0"),
        [
            f"spec.model.convention: expected one of {levy.CONVENTIONS}, got 'bogus'",
            "spec.model.norm_index: must be >= 1, got 0",
        ],
    ),
    # the index of the |||.||| ball is a coordinate: once an IndexError, or ignored under mean
    (
        _model(
            "{kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]], convention: truncated,"
            " norm_index: 3, atoms: [{x: [0.3, 0.1], mass: 0.2}]}"
        ),
        ["spec.model: norm_index 3 out of range 1..2"],
    ),
    (_triplet("norm_index: 2"), ["spec.model: norm_index 2 out of range 1..1"]),
    (
        _triplet("convention: null"),
        [f"spec.model.convention: expected one of {levy.CONVENTIONS}, got None"],
    ),
    (
        _triplet("drift: {mu: [0.1], gamma: [0.1]}"),
        ["spec.model.drift: expected 'martingale', {mu: [...]}, or {gamma: [...]}"],
    ),
    (_triplet("drift: {mu: null}"), ["spec.model.drift.mu: missing required list of numbers"]),
    (
        _triplet("drift: null"),
        ["spec.model.drift: expected 'martingale', {mu: [...]}, or {gamma: [...]}"],
    ),
    (_triplet("drift: {mu: [0.1, 0.2]}"), ["spec.model: drift must have length 1, as A is 1 x 1"]),
    (_triplet("atoms: 3"), ["spec.model.atoms: expected a list"]),
    (
        _triplet("atoms: [{x: [1.0]}, 5, {x: [0.5], mass: -1, y: 2}]"),
        [
            "spec.model.atoms[0].mass: missing required key",
            "spec.model.atoms[1]: expected a mapping, got int",
            "spec.model.atoms[2].y: unknown key",
            "spec.model.atoms[2].mass: must be > 0.0, got -1.0",
        ],
    ),
    (
        _triplet("atoms: [{x: [0.0], mass: 1.0}]"),
        ["spec.model: Levy measure must not charge the origin"],
    ),
    (_triplet("tilted_gaussian: 3"), ["spec.model.tilted_gaussian: expected a mapping, got int"]),
    (
        _triplet("tilted_gaussian: {cov: 1.0}"),
        [
            "spec.model.tilted_gaussian.tilt: missing required key",
            "spec.model.tilted_gaussian.mass: missing required key",
            "spec.model.tilted_gaussian.numeraire: missing required key",
        ],
    ),
    (
        _triplet("tilted_gaussian: {cov: [[1, 0.2], [0.2, 1]], tilt: 0.5, mass: 1, numeraire: 1}"),
        [
            "spec.model.tilted_gaussian: "
            "base covariance must satisfy b[j,1] = b[1,1]/2 for K_1-invariance",
        ],
    ),
    (
        _model("{kind: path_config, s0: [1.0], driver: 3}"),
        ["spec.model.driver: expected a mapping, got int"],
    ),
    (
        _model("{kind: path_config, s0: [1.0], driver: {kind: lognormal, sigma: 0.2}}"),
        [
            "spec.model.driver.kind: "
            "expected one of ('levy_triplet', 'multi_lognormal'), got 'lognormal'",
        ],
    ),
    (
        _model("{kind: path_config, driver: {kind: levy_triplet, a: 0.04}, steps: 0, horizon: 0}"),
        [
            "spec.model.s0: missing required key",
            "spec.model.horizon: must be > 0.0, got 0.0",
            "spec.model.steps: must be >= 1, got 0",
        ],
    ),
    (
        _model("{kind: path_config, s0: [1, 1], driver: {kind: levy_triplet, a: 0.04}}"),
        ["spec.model: s0/carry length must match the driver dimension"],
    ),
    (
        _payoff("{kind: basket_call, weights: [1]}"),
        ["spec.task.payoff.strike: missing required key"],
    ),
    (
        _payoff("{kind: basket_put, weights: [1], strike: -1}"),
        ["spec.task.payoff.strike: must be >= 0.0, got -1.0"],
    ),
    (
        _payoff("{kind: max_option, u0: 1, weights: []}"),
        ["spec.task.payoff.weights: expected a nonempty list of numbers"],
    ),
    (
        _payoff("{kind: binary_call, strike: 1, asset: 0}"),
        ["spec.task.payoff.asset: must be >= 1, got 0"],
    ),
    (
        _payoff("{kind: binary_put, strike: 1, asset: x}"),
        ["spec.task.payoff.asset: expected an integer, got str"],
    ),
    (_payoff("{kind: gap_call}"), ["spec.task.payoff.strike: missing required key"]),
    (_payoff("{kind: gap_put, strike: 1, junk: 2}"), ["spec.task.payoff.junk: unknown key"]),
    (
        _payoff("{kind: spread_call, long_weights: [1, 0], short_weights: [1], strike: 0.5}"),
        ["spec.task.payoff: long/short weight lengths differ"],
    ),
    (
        _payoff("{kind: power_call, weights: [1], strike: 1, alpha: 0}"),
        ["spec.task.payoff.alpha: must be > 0.0, got 0.0"],
    ),
    (_payoff("{kind: min_combo, strike: 0}"), ["spec.task.payoff.strike: must be > 0.0, got 0.0"]),
    (
        _payoff("{kind: nope}"),
        [f"spec.task.payoff.kind: expected one of {_PAYOFF_KINDS}, got 'nope'"],
    ),
    (_payoff("{kind: [1]}"), [f"spec.task.payoff.kind: expected one of {_PAYOFF_KINDS}, got [1]"]),
    (_payoff("3"), ["spec.task.payoff: expected a mapping, got int"]),
    (
        _task("{kind: check, checks: [density, bogus]}"),
        [f"spec.task.checks: expected a list drawn from {tuple(cli.CHECKS)}"],
    ),
    (
        _task("{kind: check, numeraire: 0, alpha: x, carry: []}"),
        [
            "spec.task.numeraire: must be >= 1, got 0",
            "spec.task.alpha: not a number: 'x'",
            "spec.task.carry: expected a nonempty list of numbers",
        ],
    ),
    (_task("{kind: alpha}"), ["spec.task.carry: missing required key"]),
    (
        _task("{kind: alpha, carry: 0.01, numeraire: 1.5}"),
        ["spec.task.numeraire: expected an integer, got float"],
    ),
    (
        _task("{kind: price, maturity: 0, forward: x, rate: y}"),
        [
            "spec.task.payoff: missing required key",
            "spec.task.rate: not a number: 'y'",
            "spec.task.maturity: must be > 0.0, got 0.0",
            "spec.task.forward: expected a nonempty list of numbers",
        ],
    ),
    (
        _hedge("knock: in"),
        [
            "spec.task.barrier: missing required key",
            "spec.task.target: missing required key",
        ],
    ),
    (
        _hedge("barrier: {asset: 0, level: -1, direction: sideways}, " + _TARGET),
        [
            "spec.task.barrier.asset: must be >= 1, got 0",
            "spec.task.barrier.level: must be > 0.0, got -1.0",
            "spec.task.barrier.direction: expected one of ('down', 'up'), got 'sideways'",
        ],
    ),
    (_hedge("barrier: 3, " + _TARGET), ["spec.task.barrier: expected a mapping, got int"]),
    (
        _hedge("barrier: {level: 0.8, kind: x}, alpha: x, n_outer: 10, hit_states: 0, " + _TARGET),
        [
            "spec.task.barrier.kind: unknown key",
            "spec.task.barrier.asset: missing required key",
            "spec.task.alpha: not a number: 'x'",
            "spec.task.n_outer: must be >= 100, got 10",
            "spec.task.hit_states: must be >= 1, got 0",
        ],
    ),
    (
        _hedge("barrier: {asset: 1, level: 0.8}, knock: null, " + _TARGET),
        ["spec.task.knock: expected one of ('in', 'out', 'super'), got None"],
    ),
    (
        _task("{kind: zonoid, k_min: 0, k_max: -1, points: 1}"),
        [
            "spec.task.k_min: must be > 0.0, got 0.0",
            "spec.task.k_max: must be > 0.0, got -1.0",
            "spec.task.points: must be >= 2, got 1",
        ],
    ),
    (
        _task("{kind: frobnicate}"),
        [f"spec.task.kind: expected one of {cli.TASK_KINDS}, got 'frobnicate'"],
    ),
    (_task("{}"), [f"spec.task.kind: expected one of {cli.TASK_KINDS}, got None"]),
    (_task("[1]"), ["spec.task: expected a mapping, got list"]),
    (MINIMAL + "tol: 3\n", ["spec.tol: expected a mapping, got int"]),
    (
        MINIMAL + "tol: {exact: 0, se_band: 4.0}\n",
        ["spec.tol.se_band: unknown key", "spec.tol.exact: must be > 0.0, got 0.0"],
    ),
    (
        MINIMAL + "seed: -1\nsamples: 5.5\nversion: 0\nout: 3\nbogus: 1\n",
        [
            "spec.bogus: unknown key",
            "spec.version: must be >= 1, got 0",
            "spec.seed: must be >= 0, got -1",
            "spec.samples: expected an integer, got float",
            "spec.out: expected a directory path string",
        ],
    ),
    ("seed: 1\n", ["spec.model: missing required key", "spec.task: missing required key"]),
    # the one version the program knows; a later one was accepted, echoed and ignored
    (MINIMAL + "version: 7\n", ["spec.version: must be <= 1, got 7"]),
    (MINIMAL + "version: true\n", ["spec.version: expected an integer, got bool"]),
    # the quasi check compares against alpha: without one it multiplied None
    (
        "model: {kind: lognormal, sigma: 0.5}\ntask: {kind: check, checks: [quasi]}\n",
        ["spec.task.alpha: missing required key"],
    ),
    (
        _task("{kind: check, checks: [density, quasi], alpha: null, numeraire: 0}"),
        ["spec.task.numeraire: must be >= 1, got 0", "spec.task.alpha: missing required key"],
    ),
    (
        _model("{kind: multi_lognormal, mean: [0, 0], cov: []}"),
        ["spec.model.cov: expected a nonempty list of rows"],
    ),
    (
        _model("{kind: multi_lognormal, mean: [0, 0], cov: [[0.04, 0], [0, x]]}"),
        ["spec.model.cov[1][1]: not a number: 'x'"],
    ),
    (
        _model("{kind: multi_lognormal, mean: [0, 0], cov: [[0.04, 0], abc]}"),
        ["spec.model.cov[1]: expected a nonempty list of numbers"],
    ),
]


@pytest.mark.parametrize("doc, violations", SCHEMA_CORPUS)
def test_schema_corpus_reports_each_violation_once(doc, violations):
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(doc)
    assert exc.value.violations == violations


@pytest.mark.parametrize(
    "doc, path",
    [
        (MINIMAL + "tol: 3\n", "spec.tol"),
        (_triplet("tilted_gaussian: 3"), "spec.model.tilted_gaussian"),
        (_triplet("atoms: 3"), "spec.model.atoms"),
        (_task("{kind: check, checks: [quasi]}"), "spec.task.alpha"),
    ],
)
def test_malformed_nodes_are_schema_errors_not_tracebacks(doc, path, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(doc)
    assert cli.main(["check", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: {path}: ")


# specs that read cleanly but cannot run: each is a report with an error, not a traceback
RUN_ERRORS = {
    "hedge": (
        "model: {kind: path_config, s0: [1.0, 1.0], "
        "driver: {kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]]}}\n"
        "task: {kind: hedge, barrier: {asset: 3, level: 0.8}, alpha: solve, " + _TARGET + "}\n",
        "barrier asset 3 out of range 1..2",
    ),
    # with alpha given, the plan is built before evaluate_hedge checks the barrier
    "hedge-alpha-given": (
        "model: {kind: path_config, s0: [1.0, 1.0], "
        "driver: {kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]]}}\n"
        "task: {kind: hedge, barrier: {asset: 3, level: 0.8}, alpha: 1.0, " + _TARGET + "}\n",
        "barrier asset 3 out of range 1..2",
    ),
    "price": (
        "model: {kind: multi_lognormal, mean: [-0.125, -0.125], cov: [[0.25, 0.0], [0.0, 0.25]]}\n"
        "task: {kind: price, payoff: {kind: max_option, u0: 1, weights: [1, 1]}, "
        "forward: [1, 2, 3]}\n",
        "forward has 3 entries; the model has dimension 2",
    ),
    # a scalar model's density check is the one-dimensional one, whose only numeraire is 1
    "check-scalar-numeraire": (
        "model: {kind: lognormal, sigma: 0.25}\ntask: {kind: check, checks: [density], numeraire: 2}\n",
        "numeraire index 2 out of range 1..1",
    ),
    # a binary or gap on an asset the model lacks: once an IndexError, once asset 1's price
    "price-binary-asset": (
        "model: {kind: multi_lognormal, mean: [0, 0], cov: [[0.04, 0], [0, 0.04]]}\n"
        "task: {kind: price, payoff: {kind: binary_call, strike: 1, asset: 3}}\n",
        "payoff asset 3 out of range 1..2",
    ),
    "price-gap-asset": (
        "model: {kind: lognormal, sigma: 0.2}\n"
        "task: {kind: price, payoff: {kind: gap_call, strike: 1.1, asset: 2}}\n",
        "payoff asset 2 out of range 1..1",
    ),
    # an empty strike range used to print one strike three times, a reversed one a descending curve
    "zonoid-equal": (
        "model: {kind: heavy_tail, gamma: 1.0}\ntask: {kind: zonoid, k_min: 5, k_max: 5, points: 3}\n",
        "strike range needs 0 < k_min < k_max, got k_min=5.0, k_max=5.0",
    ),
    "zonoid-reversed": (
        "model: {kind: lognormal, sigma: 0.5}\ntask: {kind: zonoid, k_min: 10, k_max: 0.1}\n",
        "strike range needs 0 < k_min < k_max, got k_min=10.0, k_max=0.1",
    ),
    "price-basket-weights": (
        "model: {kind: multi_lognormal, mean: [0, 0], cov: [[0.04, 0], [0, 0.04]]}\n"
        "task: {kind: price, payoff: {kind: basket_call, weights: [1, 1, 1], strike: 1}}\n",
        "payoff expects 3 assets, got 2",
    ),
    # a task or check on a model of the wrong class: once an AttributeError
    "price-path": (
        "model: {kind: path_config, s0: [1.0], driver: {kind: levy_triplet, a: 0.04}}\n"
        "task: {kind: price, payoff: {kind: basket_call, weights: [1], strike: 1}}\n",
        "price task requires a scalar or vector model",
        "SelfDualError",
    ),
    # no default check applies to a path config: it ran nothing and passed
    "check-path": (
        "model: {kind: path_config, s0: [1.0], driver: {kind: levy_triplet, a: 0.04}}\n"
        "task: {kind: check}\n",
        "no check applies to a path_config model",
        "SelfDualError",
    ),
}


@pytest.mark.parametrize("kind", sorted(RUN_ERRORS))
def test_a_spec_that_cannot_run_is_an_exit_three_report(kind, tmp_path, capsys):
    text, message, error_type = (*RUN_ERRORS[kind], "DomainError")[:3]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text)
    spec = cli.parse_model_spec(text)
    reads = cli.TASKS[spec["task"]["kind"]][2](spec["task"], spec["model"])
    flags = ["--samples", "1000"] if "samples" in reads else []  # a speed-up where it is read
    assert cli.main([kind.split("-")[0], str(spec_file), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert yaml.safe_load(captured.out)["error"] == {"type": error_type, "message": message}


# the counted sampler's control: a payoff that fits draws its rows
PRICE_FITS = (
    "model: {kind: multi_lognormal, mean: [0, 0], cov: [[0.04, 0], [0, 0.04]]}\n"
    "task: {kind: price, payoff: {kind: basket_call, weights: [1, 1], strike: 1}}\n"
)

# one model of each kind, for the checks and tasks that each kind does or does not fit
MODEL_OF_KIND = {
    "lognormal": "{kind: lognormal, sigma: 0.25}",
    "lp_self_dual": "{kind: lp_self_dual, p: 3}",
    "heavy_tail": "{kind: heavy_tail, gamma: 3}",
    "discrete": "{kind: discrete, atoms: [['1/2', '1/3'], ['1', '1/2'], ['2', '1/6']]}",
    "multi_lognormal": "{kind: multi_lognormal, mean: [-0.125, -0.125], "
    "cov: [[0.25, 0.1], [0.1, 0.25]]}",
    "common_factor": "{kind: common_factor, factors: [{kind: lognormal, sigma: 0.25}, "
    "{kind: heavy_tail, gamma: 1}]}",
    "unit_ball_max": "{kind: unit_ball_max, dim: 2}",
    "independent_product": "{kind: independent_product, factors: "
    "[{kind: lognormal, sigma: 0.25}, {kind: lognormal, sigma: 0.5}]}",
    "levy_triplet": "{kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]]}",
    "path_config": "{kind: path_config, s0: [1, 1], steps: 4, "
    "driver: {kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]]}}",
}


def test_every_model_kind_has_a_model_for_the_check_matrix():
    assert sorted(MODEL_OF_KIND) == sorted(cli.MODELS)


# the pairs whose model class a check admits but whose law it cannot test
DOMAIN_REFUSALS = {("discrete", "density"), ("path_config", "density"), ("lp_self_dual", "moments")}


@pytest.mark.parametrize("check", sorted(cli.CHECKS))
@pytest.mark.parametrize("kind", sorted(MODEL_OF_KIND))
def test_every_check_on_every_model_kind_ends_in_an_exit_code(kind, check, tmp_path, capsys):
    alpha = ", alpha: 1.0" if check == "quasi" else ""
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(
        f"model: {MODEL_OF_KIND[kind]}\ntask: {{kind: check, checks: [{check}]{alpha}}}\n"
    )
    spec = cli.parse_model_spec(spec_file.read_text())
    # a speed-up, where the check reads samples: a triplet's quasi check reads tol
    flags = ["--samples", "1000"] if "samples" in cli.TASKS["check"][2](spec["task"], spec["model"]) else []
    code = cli.main(["check", str(spec_file), *flags])
    assert code in (0, 1, 2, 3)
    model = spec["model"]
    need = cli.NEEDS.get(f"{check} check")
    refused = bool(need) and not isinstance(model, need[0])
    # every other pair reaches a verdict
    assert (code == 3) == (refused or (kind, check) in DOMAIN_REFUSALS)
    if refused:
        message = yaml.safe_load(capsys.readouterr().out)["error"]["message"]
        assert message == f"{check} check requires {need[1]} model"


@pytest.mark.parametrize("task", ["alpha", "price"])
@pytest.mark.parametrize("kind", sorted(MODEL_OF_KIND))
def test_every_alpha_and_price_task_on_every_model_kind_reports_or_is_refused(
    kind, task, tmp_path, capsys
):
    model = cli.parse_model_spec(f"model: {MODEL_OF_KIND[kind]}\ntask: {{kind: zonoid}}\n")["model"]
    weights = [1] * getattr(model, "dim", 1)  # a path config is refused before its payoff is read
    node = {
        "alpha": "{kind: alpha, carry: 0.01}",
        "price": f"{{kind: price, payoff: {{kind: max_option, u0: 1, weights: {weights}}}}}",
    }[task]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(f"model: {MODEL_OF_KIND[kind]}\ntask: {node}\n")
    spec = cli.parse_model_spec(spec_file.read_text())
    flags = ["--samples", "1000"] if "samples" in cli.TASKS[task][2](spec["task"], spec["model"]) else []
    code = cli.main([task, str(spec_file), *flags])
    need = cli.NEEDS[f"{task} task"]
    if isinstance(spec["model"], need[0]):
        # the multi_lognormal's covariance lacks the pattern a[1,2] = a[1,1] / 2 that an order
        # for numeraire 1 needs, so the alpha task's check of its root fails
        assert code == (1 if (task, kind) == ("alpha", "multi_lognormal") else 0)
    else:
        assert code == 3
        message = yaml.safe_load(capsys.readouterr().out)["error"]["message"]
        assert message == f"{task} task requires {need[1]} model"


@pytest.mark.parametrize(
    "kind, rows",
    [("price", []), ("price-binary-asset", []), ("price-gap-asset", []),
     ("price-basket-weights", []), ("price-fits", [1000])],
)
def test_a_price_of_the_wrong_shape_is_refused_before_the_draw(kind, rows, tmp_path, monkeypatch):
    drawn = []
    for model in (dist.LogNormal, levy.LevyTriplet):
        def counted(self, n, rng, sample=model.sample):
            drawn.append(n)
            return sample(self, n, rng)

        monkeypatch.setattr(model, "sample", counted)
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(RUN_ERRORS[kind][0] if kind in RUN_ERRORS else PRICE_FITS)
    assert cli.main(["price", str(spec_file), "--samples", "1000"]) == (3 if rows == [] else 0)
    assert drawn == rows


@pytest.mark.parametrize(
    "doc, path",
    [
        (_model("{kind: lognormal}"), "spec.model.sigma"),
        (_payoff("{kind: basket_call, weights: [1]}"), "spec.task.payoff.strike"),
        (_hedge("barrier: {level: 0.8}, " + _TARGET), "spec.task.barrier.asset"),
        (
            _triplet("tilted_gaussian: {cov: 1, tilt: 0, mass: 1}"),
            "spec.model.tilted_gaussian.numeraire",
        ),
        (_task("{kind: alpha}"), "spec.task.carry"),
    ],
)
def test_each_missing_key_is_reported_once(doc, path):
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(doc)
    assert exc.value.violations == [f"{path}: missing required key"]


def test_a_drift_of_the_wrong_length_is_a_schema_error(tmp_path, capsys):
    # unchecked, a 1-long mu on a 2-d triplet solves alpha and exits 0
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(
        "model: {kind: levy_triplet, a: [[0.04, 0.02], [0.02, 0.04]], drift: {mu: [0.1]}}\n"
        "task: {kind: alpha, carry: 0.01}\n"
    )
    assert cli.main(["alpha", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "schema error: spec.model: drift must have length 2, as A is 2 x 2\n"


@pytest.mark.parametrize(
    "doc",
    [
        _triplet("tilted_gaussian: null, atoms: null, norm_index: null"),
        _triplet("atoms: []"),
        _model("{kind: lognormal, sigma: '1/4', mu: null}"),
        _task("{kind: check, checks: null, numeraire: null, alpha: null}"),
        _task("{kind: check, checks: []}"),
        _hedge("barrier: {asset: 1, level: 0.8}, alpha: null, " + _TARGET),
        _payoff("{kind: binary_call, strike: 1, asset: null}"),
        MINIMAL + "tol: null\nout: null\nseed: null\n",
        MINIMAL + "tol: []\n",
    ],
)
def test_a_null_in_an_optional_field_takes_its_default(doc):
    cli.parse_model_spec(doc)


def test_a_spec_needs_a_model_and_a_task():
    # with a null model, a check task would run no check at all and pass
    for doc in ("model: null\ntask: {kind: check}\n", _task("null")):
        with pytest.raises(SchemaError) as exc:
            cli.parse_model_spec(doc)
        assert exc.value.violations[0].endswith(": expected a mapping, got NoneType")


def test_a_lone_carry_is_the_carry_of_every_asset():
    path = (
        "{kind: path_config, s0: [1, 1], carry: %s, "
        "driver: {kind: multi_lognormal, mean: [-0.02, -0.02], cov: [[0.04, 0.02], [0.02, 0.04]]}}"
    )
    for carry in ("0.01", "[0.01]"):
        assert cli.parse_model_spec(_model(path % carry))["model"].carry.tolist() == [0.01, 0.01]
    # a check task's carry is a vector too, and a lone number is a list of one
    assert cli.parse_model_spec(_task("{kind: check, carry: 0.01}"))["task"]["carry"] == [0.01]


_JUMPY = "a: 0.04, atoms: [{x: [0.3], mass: 0.5}, {x: [-0.2], mass: 0.4}]"


def test_an_explicit_martingale_drift_is_the_default():
    default = cli.parse_model_spec(_triplet(_JUMPY))["model"]
    explicit = cli.parse_model_spec(_triplet(_JUMPY + ", drift: martingale"))["model"]
    assert (explicit.convention, explicit.drift.tolist()) == ("mean", default.drift.tolist())
    assert abs(levy.char_exponent(explicit, np.array([-1j]))) <= 1e-15


def test_a_gamma_drift_under_the_default_convention_is_truncated():
    read = cli.parse_model_spec(_triplet(_JUMPY + ", drift: {gamma: [0.01]}"))["model"]
    named = cli.parse_model_spec(
        _triplet(_JUMPY + ", drift: {gamma: [0.01]}, convention: truncated")
    )["model"]
    assert (read.convention, read.drift.tolist()) == ("truncated", [0.01])
    u = np.array([0.7])
    assert levy.char_exponent(read, u) == levy.char_exponent(named, u)


@pytest.mark.parametrize(
    "text, message",
    [
        ("model: [unclosed\n", "document: invalid YAML ("),
        ("- model: {kind: lognormal, sigma: 0.25}\n", "document: expected a mapping at the top level"),
    ],
)
def test_a_document_that_is_no_spec_mapping_is_a_schema_error(text, message, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text)
    assert cli.main(["check", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema error: {message}")
    with pytest.raises(SchemaError) as exc:
        cli.parse_model_spec(text)
    assert len(exc.value.violations) == 1


def test_a_spec_path_that_cannot_be_read_exits_three(tmp_path, capsys):
    missing = tmp_path / "no-such-spec.yaml"
    assert cli.main(["check", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read spec: ") and str(missing) in captured.err


def test_default_checks_add_quasi_when_alpha_is_given():
    plain = cli.parse_model_spec(_task("{kind: check}"))
    spec = cli.parse_model_spec(_task("{kind: check, alpha: 1.0}") + "samples: 20000\n")
    defaults = ["density", "integrated_tail", "moments"]
    assert cli._checks_of(plain["task"], plain["model"]) == defaults
    assert cli._checks_of(spec["task"], spec["model"]) == [*defaults, "quasi"]
    code, doc, _ = cli.run(spec)  # the log-normal is self-dual: quasi-self-dual of order 1
    names = [c["name"] for c in doc["results"]["checks"]]
    assert names[-1] == "quasi_self_dual[i=1,alpha=1]" and len(names) == 4 and code == 0


# a spread on a driver with two atoms, self-dual for numeraire 1: order 1 is its own
JUMP_SPREAD = """
model:
  kind: path_config
  s0: [1.0, 1.0]
  steps: 100
  driver:
    kind: levy_triplet
    a: [[0.0225, 0.01125], [0.01125, 0.0225]]
    atoms:
    - {x: [0.3, 0.15], mass: 1.0}
    - {x: [-0.3, -0.15], mass: 1.3498588075760032}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  alpha: ALPHA
  knock: KNOCK
  n_outer: 4000
  n_inner: 20000
  hit_states: 20
"""


def _run_at(text, seed):
    spec = cli.parse_model_spec(text)
    spec["seed"] = seed
    code, doc, artifacts = cli.run(spec)
    return code, doc["results"], artifacts


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_a_jump_driver_knock_out_hedge_sub_replicates(seed):
    # overshoot makes the knock-in hedge super-replicate, so target minus it sub-replicates:
    # its hit-state gaps are the knock-in gaps negated, and they fail only above zero
    runs = {
        (alpha, knock): _run_at(JUMP_SPREAD.replace("ALPHA", alpha).replace("KNOCK", knock), seed)
        for alpha in ("1", "1.5")
        for knock in ("in", "out")
    }
    for alpha in ("1", "1.5"):
        (_, into, in_csv), (_, out, out_csv) = runs[alpha, "in"], runs[alpha, "out"]
        gaps = [[float(row.split(",")[5]) for row in csv["hedge_gaps.csv"].splitlines()[1:]]
                for csv in (in_csv, out_csv)]
        assert len(gaps[0]) == 20 and gaps[1] == [-g for g in gaps[0]]
        assert out["max_gap_se_units"] == into["max_gap_se_units"]
    assert runs["1", "in"][0] == runs["1", "out"][0] == 0
    # the wrong order fails its exchange and a hit state: a jump driver has no price check
    for knock in ("in", "out"):
        code, results, _ = runs["1.5", knock]
        assert code == 1 and results["max_gap_se_units"] > 3.0
        assert results["exchange"]["verdict"] == "fail"
        assert results["price_gap"] is None and results["terminal_max_mismatch"] == 0.0


# the atoms of JUMP_SPREAD at equal masses: the law has no order for numeraire 1, though
# its order equation has a root near 1.0033
JUMP_NO_ORDER = JUMP_SPREAD.replace("mass: 1.3498588075760032", "mass: 1.0").replace(
    "steps: 100", "steps: 50"
).replace("ALPHA", "solve")


@pytest.mark.parametrize("knock", ["in", "super"])
def test_a_jump_hedge_on_a_law_with_no_order_fails_its_exchange(knock):
    runs = [_run_at(JUMP_NO_ORDER.replace("KNOCK", knock), seed) for seed in range(10)]
    assert [code for code, _, _ in runs] == [1] * 10
    exchanges = [results["exchange"] for _, results, _ in runs]
    assert {(e["verdict"], e["tol"]) for e in exchanges} == {("fail", 1e-10)}
    assert min(e["max_abs_residual"] for e in exchanges) > 0.5
    # the one-sided hit-state gaps alone pass the hedge on some of these seeds
    assert min(results["max_gap_se_units"] for _, results, _ in runs) < 3.0


HEDGE_MAX_OPTION = HEDGE_SMALL.replace(
    "{kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}",
    "{kind: max_option, u0: 0.5, weights: [1, 1]}",
)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_a_max_option_hedge_reflects_through_the_generic_claim(seed):
    # a max option is no affine-power claim, so its reflection is the generic wrapper
    assert isinstance(hedging.reflect_claim(pricing.MaxOption(0.5, (1, 1)), 1, 0.8, 1.0),
                      hedging.ReflectedClaim)
    code, results, _ = _run_at(HEDGE_MAX_OPTION, seed)
    assert code == 0 and results["simplification"] == "indicator"
    gap, se = results["price_gap"]
    assert abs(gap) <= 3.0 * se
    # the exchange the exponent identity licenses, measured at hit states by the oracle
    spec = cli.parse_model_spec(HEDGE_MAX_OPTION)
    plan = hedging.build_hedge(spec["task"]["target"], spec["task"]["barrier"], 1.0, "in")
    rows = hedge_oracle.hit_state_gaps(plan, spec["model"], 500, 20_000, RngStream(seed), 6)
    assert len(rows) == 6 and all(abs(r.gap) <= 3.0 * r.std_error for r in rows)


# the benchmark's hedge at a wrong order: the driver is quasi-self-dual of order 1 only
@pytest.mark.parametrize("alpha, residual", [("1.1", 0.020135507897563257), ("1.3", 0.07138952800045151)])
def test_a_hedge_at_a_wrong_order_fails_on_every_seed(alpha, residual):
    text = _bench_specs()["bench-hedge"][1].replace("alpha: 1.0", f"alpha: {alpha}")
    for seed in range(10):
        code, results, artifacts = _run_at(text, seed)
        exchange = results["exchange"]
        assert code == 1 and exchange["verdict"] == "fail" and exchange["method"] == "exponent"
        got = exchange["max_abs_residual"]
        assert got == pytest.approx(residual, rel=1e-9)
        assert f" exchange={got:.3e} " in artifacts["hedge.txt"]


# an order solved from the carry licenses the hedge only where the law has that order
SOLVED_HEDGE = """
model:
  kind: path_config
  s0: [1.0, 1.0]
  carry: [0.03, 0.03]
  driver: {kind: levy_triplet, a: [[0.04, C], [C, 0.09]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  alpha: solve
"""


@pytest.mark.parametrize("c, want, residual", [("0.02", 0, 1e-16), ("0.0", 1, 0.0713), ("0.035", 1, 0.0535)])
def test_a_solved_order_licenses_a_hedge_only_where_the_law_has_one(c, want, residual):
    for seed in range(1, 11):
        code, results, _ = _run_at(SOLVED_HEDGE.replace("C", c), seed)
        assert (code, results["alpha"]) == (want, pytest.approx(-0.5, abs=1e-12)), seed
        got = results["exchange"]["max_abs_residual"]
        assert got == pytest.approx(residual, abs=1e-4)


@pytest.mark.parametrize("c, want", [("0.02", 0), ("0.0", 1), ("0.035", 1)])
def test_the_alpha_task_passes_only_a_law_that_has_its_root_as_order(c, want, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(ALPHA_AT_CARRY.replace("C", c))
    assert cli.main(["alpha", str(spec_file)]) == want
    results = yaml.safe_load(capsys.readouterr().out)["results"]
    assert results["alpha"] == pytest.approx(-0.5, abs=1e-12)  # reported where it fails too
    assert results["verdict"] == results["check"]["verdict"] == ("fail" if want else "pass")
    assert (results["check"]["method"], len(results["check"]["points"])) == ("exponent", 3)


def test_an_alpha_task_whose_root_is_zero_is_refused():
    # alpha = 1 - 2 carry / a = 0: every law is quasi-self-dual of order 0, so it decides nothing
    spec = cli.parse_model_spec("model: {kind: levy_triplet, a: 0.04}\ntask: {kind: alpha, carry: 0.02}\n")
    code, doc, _ = cli.run(spec)
    assert (code, doc["error"]["type"]) == (3, "DomainError")
    assert doc["error"]["message"].startswith("order alpha must be nonzero")


def test_the_quasi_check_of_a_jump_triplet_fails_an_atom_pair_on_every_seed(tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(QUASI_ATOM_PAIR)
    for seed in range(1, 11):
        assert cli.main(["check", str(spec_file), "--seed", str(seed)]) == 1, seed
        (check,) = yaml.safe_load(capsys.readouterr().out)["results"]["checks"]
        assert check["name"] == "qsd_triplet[i=1,alpha=1]"


# the grid of the jump driver's pin: a continuous driver's hedge reads none of it
JUMP_GRID = {"steps": 60, "n_outer": 400, "n_inner": 2000, "hit_states": 6}


@pytest.mark.parametrize("key, default", [
    ("steps", 250), ("n_outer", 10_000), ("n_inner", 20_000), ("hit_states", 50),
])
def test_a_continuous_hedge_refuses_the_grid_settings_it_does_not_read(key, default, tmp_path, capsys):
    where = "model" if key == "steps" else "task"

    def run(text):
        spec_file = tmp_path / "spec.yaml"
        spec_file.write_text(text)
        code = cli.main(["hedge", str(spec_file), "--seed", "11"])
        out, err = capsys.readouterr()
        return code, out and yaml.safe_load(out)["results"], err

    def continuous(value):  # the task section ends the spec
        line = f"  {key}: {value}\n"
        if where == "model":
            return HEDGE_SMALL.replace("  s0: [1.0, 1.0]\n", "  s0: [1.0, 1.0]\n" + line)
        return HEDGE_SMALL + line

    given = JUMP_GRID[key]
    assert run(continuous(given)) == (
        3, "", f"schema error: spec.{where}.{key}: the hedge task does not read {key}\n"
    )
    # the default is accepted, as every echo writes it, and a jump driver's grid reads the setting
    assert run(continuous(default)) == run(HEDGE_SMALL) and run(HEDGE_SMALL)[0] == 0
    doubled = HEDGE_JUMP_SUPER.replace(f"  {key}: {given}\n", f"  {key}: {2 * given}\n")
    assert doubled != HEDGE_JUMP_SUPER and run(doubled)[1] != run(HEDGE_JUMP_SUPER)[1]


# (seed, the price check's draws): the bench hedge's gap fails 3 SE at seed 18's first look,
# within DECISIVE_Z, so 128 fresh shifts are pooled with its 64 and it passes
@pytest.mark.parametrize("seed, draws", [
    (11, {"n_samples": 16_064, "replicates": 64, "rounds": 0}),
    (18, {"n_samples": 48_192, "replicates": 192, "rounds": 1}),
])
def test_a_continuous_hedge_records_the_draws_of_its_price_check(seed, draws):
    code, results, _ = _run_at(_bench_specs()["bench-hedge"][1], seed)
    assert (code, results["price_check"]) == (0, draws)
    gap, se = results["price_gap"]
    assert abs(gap) <= 3.0 * se
    # a jump driver prices on its grid and has no price check
    assert "price_check" not in _run_at(HEDGE_JUMP_SUPER, seed)[1]


def test_a_hedge_of_order_zero_is_refused(tmp_path, capsys):
    # on a continuous driver and on a jump driver alike, before anything is drawn
    spec_file = tmp_path / "spec.yaml"
    for text in (
        _bench_specs()["bench-hedge"][1].replace("alpha: 1.0", "alpha: 0"),
        JUMP_SPREAD.replace("ALPHA", "0").replace("KNOCK", "in"),
    ):
        spec_file.write_text(text)
        assert cli.main(["hedge", str(spec_file)]) == 3
        error = yaml.safe_load(capsys.readouterr().out)["error"]
        assert error == {
            "type": "DomainError",
            "message": "order alpha must be nonzero: every law is quasi-self-dual of order 0",
        }


def test_readme_lists_every_model_payoff_task_and_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = [*cli.MODELS, *cli.PAYOFFS, *cli.TASKS, *cli.CHECKS]
    assert [name for name in names if f"`{name}`" not in readme] == []


# --------------------------------------------------------------------------- #
# Golden report bytes: sha256 of report.yaml and every artifact at --seed 11
# --------------------------------------------------------------------------- #

# a reflected atom pair: mass 0.5 at (0.3, 0.1), 0.5 e^0.3 at K_1 (0.3, 0.1) = (-0.3, -0.2)
_ATOM_PAIR = """
  atoms:
  - {x: [0.3, 0.1], mass: 0.5}
  - {x: [-0.3, -0.2], mass: 0.6749294037880016}
"""
# gamma is the truncated-convention martingale drift, so the pair is self-dual
TRIPLET_TRUNCATED_GAMMA = """
model:
  kind: levy_triplet
  a: [[0.04, 0.02], [0.02, 0.04]]
  convention: truncated
  drift: {gamma: [-0.07247882113640049, -0.03522739504524644]}""" + _ATOM_PAIR + """
task: {kind: check, checks: [triplet]}
"""
TRIPLET_EUCLIDEAN_MARTINGALE = """
model:
  kind: levy_triplet
  a: [[0.04, 0.02], [0.02, 0.04]]
  convention: truncated_euclidean""" + _ATOM_PAIR + """
task: {kind: check, alpha: 1.0}
"""
TRIPLET_TILTED_GAUSSIAN = """
model:
  kind: levy_triplet
  a: [[0.04, 0.02], [0.02, 0.04]]
  tilted_gaussian: {cov: [[0.09, 0.045], [0.045, 0.16]], tilt: 1.0, mass: 0.5, numeraire: 1}
task: {kind: check}
"""
# the tilted Gaussian jump part of order 1/2 with its carry e^0.25 - 1
TRIPLET_QSD_TILTED_GAUSSIAN = """
model:
  kind: levy_triplet
  a: 0.0
  tilted_gaussian: {cov: 1.0, tilt: 0.5, mass: 1.0, numeraire: 1}
task: {kind: check, checks: [triplet], alpha: 0.5, carry: 0.2840254166877414}
"""
# a reflected pair that straddles the Euclidean unit ball: (0.9, 0.5) lies outside, K_1 of it inside
TRIPLET_EUCLIDEAN_STRADDLE = """
model:
  kind: levy_triplet
  a: [[0.04, 0.02], [0.02, 0.04]]
  convention: truncated_euclidean
  atoms:
  - {x: [0.9, 0.5], mass: 0.5}
  - {x: [-0.9, -0.4], mass: 1.229801555578475}
task: {kind: check}
"""
HEDGE_JUMP_SUPER = """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  steps: 60
  driver:
    kind: levy_triplet
    a: [[0.0625, 0.03125], [0.03125, 0.0625]]
    convention: truncated
    atoms:
    - {x: [0.2, 0.1], mass: 0.5}
    - {x: [-0.2, -0.1], mass: 0.6107013790800849}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  knock: super
  n_outer: 400
  n_inner: 2000
  hit_states: 6
"""
# a basket call has no indicator-free hedge, so these run the indicator-form claim
HEDGE_INDICATOR = """
seed: 5
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

PRICE_MAX_OPTION = (
    "model: {kind: multi_lognormal, mean: [-0.02, -0.02], cov: [[0.04, 0], [0, 0.04]]}\n"
    "task: {kind: price, payoff: {kind: max_option, u0: 1, weights: [1, 1]}}\n"
)
# self-dual for numeraire 1, so quasi-self-dual of order 1 under a carry on asset 2 only
MULTI_LOGNORMAL_DENSITY_QUASI = (
    "model: {kind: multi_lognormal, mean: [-0.125, -0.2], cov: [[0.25, 0.125], [0.125, 0.3]]}\n"
    "task: {kind: check, numeraire: 1, checks: [density, quasi], alpha: 1.0, carry: [0.0, 0.05]}\n"
)
# the order equation's one root at carry 0.03 is -0.5 for every C; the law has that order
# only where a[1,2] = a[1,1] / 2, at C = 0.02
ALPHA_AT_CARRY = "model: {kind: levy_triplet, a: [[0.04, C], [C, 0.09]]}\ntask: {kind: alpha, carry: 0.03}\n"
# at alpha 1 the atom at -0.3 would need mass e^0.3 = 1.3499 to reflect the one at 0.3
QUASI_ATOM_PAIR = (
    "model: {kind: levy_triplet, a: 0.0225, atoms: [{x: 0.3, mass: 1.0}, {x: -0.3, mass: 1.2}]}\n"
    "task: {kind: check, checks: [quasi], alpha: 1.0}\n"
)
# a jump triplet's payoff check, drawn i.i.d. and confirmed by rounds of 2x and 4x the first
PAYOFF_JUMP_TRIPLET = """
model:
  kind: levy_triplet
  a: [[0.25, 0.0], [0.0, 0.25]]
  atoms: [{x: [0.05, 0.0], mass: 0.1}]
samples: 20000
task: {kind: check, checks: [payoff], numeraire: 1}
"""
# the joint check of a 1-d law, whose set of marginal traces is empty
JOINT_ONE_DIM = """
model: {kind: multi_lognormal, mean: [-0.125], cov: [[0.25]]}
task: {kind: check, checks: [joint]}
"""
# the joint check of a jump triplet: a streamed i.i.d. first look, then confirmation batches
JOINT_JUMP_TRIPLET = """
model:
  kind: levy_triplet
  a: [[0.04, 0.02], [0.02, 0.04]]
  atoms:
  - {x: [0.1, 0.05], mass: 0.5}
  - {x: [-0.1, -0.05], mass: 0.5}
samples: 50000
task: {kind: check, checks: [joint]}
"""

# the benchmark's four exact-workload specs, copied so the pins do not move with bench/
GOLDEN_SPECS = {
    "zonoid-heavy-tail": (
        "zonoid", "model: {kind: heavy_tail, gamma: 1.0}\ntask: {kind: zonoid, points: 200}\n"
    ),
    "zonoid-lp": ("zonoid", "model: {kind: lp_self_dual, p: 2.0}\ntask: {kind: zonoid, points: 200}\n"),
    "alpha": (
        "alpha",
        "model:\n  kind: levy_triplet\n  a: 0.0\n"
        "  tilted_gaussian: {cov: 1.0, tilt: 0.5, mass: 1.0, numeraire: 1}\n"
        "task: {kind: alpha, carry: 0.2840254166877414}\n",
    ),
    "check-heavy-tail": ("check", HEAVY_TAIL_SELF_DUAL),
    # a law whose order equation has a root but which has no order: the root's check fails
    "alpha-no-order": ("alpha", ALPHA_AT_CARRY.replace("C", "0.0")),
    # a jump triplet's quasi check, decided by its exponent: the atoms are not reflected pairs
    "quasi-atom-pair": ("check", QUASI_ATOM_PAIR),
    "hedge-small": ("hedge", HEDGE_SMALL),
    # the truncated drift conventions, a Gaussian jump part and a jump driver
    "triplet-truncated-gamma": ("check", TRIPLET_TRUNCATED_GAMMA),
    "triplet-euclidean-martingale": ("check", TRIPLET_EUCLIDEAN_MARTINGALE),
    "triplet-tilted-gaussian": ("check", TRIPLET_TILTED_GAUSSIAN),
    "triplet-qsd-tilted-gaussian": ("check", TRIPLET_QSD_TILTED_GAUSSIAN),
    "triplet-euclidean-straddle": ("check", TRIPLET_EUCLIDEAN_STRADDLE),
    "hedge-jump-super": ("hedge", HEDGE_JUMP_SUPER),
    # a jump driver's grid at 20 hit states, some of them overshooting the level
    "hedge-jump-spread": ("hedge", JUMP_SPREAD.replace("ALPHA", "1").replace("KNOCK", "in")),
    "hedge-indicator-in": ("hedge", HEDGE_INDICATOR.replace("KNOCK", "in")),
    "hedge-indicator-out": ("hedge", HEDGE_INDICATOR.replace("KNOCK", "out")),
    # a multi_lognormal's streamed and row-major draws, its density and its power transform
    "crn-pass": ("check", CRN_SPECS["pass"]),
    "crn-fail": ("check", CRN_SPECS["fail"]),
    "price-multi-lognormal": ("price", PRICE_MAX_OPTION),
    "check-density-quasi": ("check", MULTI_LOGNORMAL_DENSITY_QUASI),
    "payoff-jump-triplet": ("check", PAYOFF_JUMP_TRIPLET),
    "joint-one-dim": ("check", JOINT_ONE_DIM),
    "joint-jump-triplet": ("check", JOINT_JUMP_TRIPLET),
    "hedge-small-multi-lognormal": ("hedge", HEDGE_SMALL.replace(
        "{kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}",
        "{kind: multi_lognormal, mean: [-0.03125, -0.03125], "
        "cov: [[0.0625, 0.03125], [0.03125, 0.0625]]}",
    )),
}
# the exit code of each pin that does not pass
GOLDEN_EXIT = {
    "crn-fail": 1, "payoff-jump-triplet": 1, "joint-jump-triplet": 1, "alpha-no-order": 1, "quasi-atom-pair": 1,
}
GOLDEN_SHA256 = {
    "zonoid-heavy-tail": {
        "boundary.csv": "3d7b8aa6b09dc9b7b40572098d642c6586527e074a77e4b32333bb1860f20527",
        "report.yaml": "d3b32158656faf2436b2414d310e3161e595c0cdbfba15b807cb0fcd7fca2ca7",
    },
    "zonoid-lp": {
        "boundary.csv": "af057ceb81946c4814afa78eb4965283c9389626887fbfe221153b1dac3b0e91",
        "report.yaml": "e45031b674ff9e6c275e1bdb2e6a131229c3c344871c67bb5049a41f83baf61c",
    },
    "alpha": {
        "alpha.txt": "185e24d14057c620cdbd304e353941218b9e80578b7497418ff2516cc40de863",
        "report.yaml": "70cddfb33c29e7eb15aaeca157698a322c80697fdb1ab320597b02e7a6600035",
    },
    "alpha-no-order": {
        "alpha.txt": "861e92cac3d4eae97438b4cf766299720231b8bad2afba0ad9bc57b79024105f",
        "report.yaml": "aa0253202b8cc19ef636540f5f74a19271e3fe2f4cd3be03765178544425c54b",
    },
    "quasi-atom-pair": {
        "report.yaml": "e0f0325c34f6b788b0636294a4ad3f94920424cb5e9167bf61fefb189aafe35f",
        "verdicts.txt": "ae455da3110333c063eeca0be19802f3f81648708517a6bd81df97e13738728e",
    },
    "check-heavy-tail": {
        "report.yaml": "a4beb2fab465d0023dc47bcb9fde433cd915f8354fde5fc603a19d9d53152dc2",
        "verdicts.txt": "ee2afbe083dc049f56ce74fab44d1fac6e38249c716eb543b368362646a7b643",
    },
    "hedge-small": {
        "hedge.txt": "c18c569d49b47ad2681b2922c202b732aac6eb05478d34c86a8880659e1bbb56",
        "report.yaml": "56b6f055a675aac38f0eecf14f198ec0e395d1c80e41fdea27df6aaaacf15ff1",
    },
    "triplet-truncated-gamma": {
        "report.yaml": "fe22cb199bee17427a16bc3af82a1f359662798d5b7b202989d6d8c980cf55d1",
        "verdicts.txt": "968d94f2212dd70af31faafd0c1fcf8edf4105daae46be624528363f7b59cf58",
    },
    "triplet-euclidean-martingale": {
        "report.yaml": "618da5356e6a2dcb6e8075920ea0ff422359bdedcfd654a60902df3075d80371",
        "verdicts.txt": "1b5620636351e79f8a2d3c10804540d905e9672f73f261075228a0a09ff772be",
    },
    "triplet-tilted-gaussian": {
        "report.yaml": "aca60535f4e3d9a33d1fe33e9868f2c6306a47d0561ceebc18a64d20b79719f0",
        "verdicts.txt": "92a12ba605fc7eff435dca9173400c2730b9f617ce4aceb61d53e8d1aba20641",
    },
    "triplet-qsd-tilted-gaussian": {
        "report.yaml": "dca1d35e54a66935cd1688ce2117727e409aab1f357a73896026a08a7bc5f7a5",
        "verdicts.txt": "45197b9dd2b739923844bc0d38b5c8c1dc68b6767f5f4f0355a372cade8726dc",
    },
    "triplet-euclidean-straddle": {
        "report.yaml": "1ed3f86809ffd00d9964eb28e5e024f03f4cf2acc06278e07d5afc6701c2eac7",
        "verdicts.txt": "a5d3cc7cfaef657bc24b749a82c61c0a30faa416ab60107ae653ae38a4d3bce6",
    },
    "hedge-jump-super": {
        "hedge.txt": "4d61da03cafae198b1c6f1e9e8bbffcd3ba93d4f27a2bbf1177d57293d99a91e",
        "hedge_gaps.csv": "9c578e1028c7f4c984fe1c4f13b9c70ff109607f1a69d5f8f0509646b229d095",
        "report.yaml": "817f32761f42d21ecb8f69228e6ee7401df993989a01e41d779766378ed2f8e4",
    },
    "hedge-jump-spread": {
        "hedge.txt": "7f11282e85e9b13536f3ec964c1331d0a1ab570662398e471ee05cb78f9a5df5",
        "hedge_gaps.csv": "c6ca196f57bf4b603f378ea1b9ebfe29b1b44534290733533d1547ddfa2040a5",
        "report.yaml": "af284a36d132d7c8f55009d5627194dd814548d5d973e3279353e210a06a61cd",
    },
    "hedge-indicator-in": {
        "hedge.txt": "231f03ec8cc5c74fbde7bd2652fc7911813066a33fd7b5a649e926b10aaa7cbf",
        "report.yaml": "fb9e096146f3a210a98ac571f85e38cc179ff2d7f2ec9a266770f02bd275b609",
    },
    "hedge-indicator-out": {
        "hedge.txt": "a023236779f37a042e8831b8f8adc7c886ec095d3682ffa8a4c6ed3e78e3bc96",
        "report.yaml": "b5e8d9b52e7c028ed4b193995e09eb161fa944ad45e2054ebc93f7868c28943d",
    },
    "crn-pass": {
        "report.yaml": "c6179694445925cdb2c80663979ab0c6646cc4f893cdecfcdccc553655118a87",
        "verdicts.txt": "91cd75dbbaff296f1f2150543f9f99c31cbb8662d8e281071874823c925fd5c6",
    },
    "crn-fail": {
        "report.yaml": "cb1bc5ff74412427803bd45122571e2b51e9c878934307de95c3b63f90fbef58",
        "verdicts.txt": "fd0a3fc679728cd11b4bf16842ef92b030f7b0a97fcd296c7dd7218bfe1b9305",
    },
    "price-multi-lognormal": {
        "price.txt": "5cbeebacc8b0840eec475c90e99adb4787a902383b4263c1219efdbf21de02c0",
        "report.yaml": "438bcf87adf431db72389ffd476a2b94b01f2d5aeff27492cd10c495bf32901c",
    },
    "check-density-quasi": {
        "report.yaml": "33ed20b6b690e74549af88e357ec1bf2639f6c2438b8c102c4b51bc2bd61695c",
        "verdicts.txt": "d5bf0b6b6bf6ff1161105d5b44fe6f194eb0f5e8041f7f231de360ec497d5bc9",
    },
    "payoff-jump-triplet": {
        "report.yaml": "0d37b83b332957ff63ad0927a32a902fb438560bb1dde11a3acac719d8b64fa6",
        "verdicts.txt": "4ed35a41e6c76ab6588ee80af07b7185c311b675a1798a1db360cb8fbbea8c1b",
    },
    "joint-one-dim": {
        "report.yaml": "4a7628064837e6de8c167e02b04b292bfb366fa3d013cc0f202cb45ba37c9f83",
        "verdicts.txt": "51a898c13936a4f2780da7ccb6e2878e7edb05d8d6224cffdeed46ef71e4860e",
    },
    "joint-jump-triplet": {
        "report.yaml": "8dd95f5f076dac71e6dace6ec8547d09f7a4d9233cb3dd6dc823f5c11e8d56b5",
        "verdicts.txt": "28ce810df6b77ca5765c6845daa897fbac25805252aa437a75a5d54dd09120a3",
    },
    # the same paths as hedge-small's: only the spec echo differs
    "hedge-small-multi-lognormal": {
        "hedge.txt": "c18c569d49b47ad2681b2922c202b732aac6eb05478d34c86a8880659e1bbb56",
        "report.yaml": "5470f7e5f3b306abaada195057883ee9e4754c72661be12f9055fbedaba5d7e3",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_report_and_artifact_bytes_match_golden_hashes(name, yaml_backend, tmp_path, capsys):
    kind, text = GOLDEN_SPECS[name]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text)
    out_dir = tmp_path / "out"
    code = cli.main([kind, str(spec_file), "--seed", "11", "--out", str(out_dir)])
    assert code == GOLDEN_EXIT.get(name, 0)
    assert capsys.readouterr().out.encode() == (out_dir / "report.yaml").read_bytes()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    assert got == GOLDEN_SHA256[name]


def test_the_byte_sweep_hashes_as_the_golden_pins_do():
    # tests/byte_sweep.py writes a second copy of these hashes into every manifest
    for name, (kind, text) in GOLDEN_SPECS.items():
        entries = byte_sweep.outputs(kind, text, 11)
        files = {key[len("file/"):]: sha for key, sha in entries.items() if key.startswith("file/")}
        assert (entries["exit"], files) == (GOLDEN_EXIT.get(name, 0), GOLDEN_SHA256[name]), name
        assert entries["stdout"] == files["report.yaml"] and entries["stderr"] == byte_sweep._sha("")


def _joint(text: str, seed: int | None = None):
    """The joint check of spec ``text`` at ``seed`` or the spec's, on the stream that
    ``cli.run`` gives it."""
    spec = cli.parse_model_spec(text)
    rng = RngStream(spec["seed"] if seed is None else seed).child(0)
    return duality.check_joint_self_duality(spec["model"], rng, spec["samples"])


@pytest.mark.parametrize("seed", [19, 22])  # seeds at which points confirm, over one and two looks
def test_the_joint_check_gives_the_points_of_each_set_confirmed_alone(
    seed, kernel_workers, monkeypatch
):
    confirmed, calls = duality._confirmed_mc_points, []

    def spy(groups, first, streams):
        calls.append((groups, first, streams, confirmed(groups, first, streams)))
        return calls[-1][-1]

    monkeypatch.setattr(duality, "_confirmed_mc_points", spy)
    _joint(CRN_SPECS["pass"], seed)
    ((groups, first, streams, points),) = calls
    sets = list(dict.fromkeys(streams))  # the three numeraires' and the traces'
    assert len(groups) == 3 * 3 + 2 and len(sets) == 4
    alone = []
    for stream in sets:  # each set alone, on the first look that the fused pass drew
        alone += confirmed([g for g, s in zip(groups, streams) if s is stream], first, stream)
    assert points == alone
    assert max(p.rounds for p in points) == {19: 1, 22: 2}[seed]


@pytest.mark.parametrize(
    "text, live", [(CRN_SPECS["pass"], 11), (JOINT_ONE_DIM, 4)], ids=["crn-pass", "one-dim"]
)
def test_the_joint_check_reduces_its_first_look_in_one_kernel_pass(text, live, monkeypatch):
    moments, passes = duality._block_moments, []

    def counted(groups, rows, chunks, levels):
        passes.append((len(groups), levels))
        return moments(groups, rows, chunks, levels)

    monkeypatch.setattr(duality, "_block_moments", counted)
    _joint(text)
    # only the first look reads the levels; its one pass reduces every group with a point:
    # all 3 x 3 + 2 in 3-d, and in 1-d all but the empty set of marginal traces
    assert passes[0] == (live, True)
    assert [levels for _, levels in passes].count(True) == 1


def _bench_specs():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return {
        f"bench-{task.name}": (task.command, task.spec)
        for tasks in workloads.WORKLOADS.values()
        for task in tasks
    }


# every report these write must reach PyYAML's emitter through the walk
UNSHARED_SPECS = {**_bench_specs(), **GOLDEN_SPECS}


@pytest.mark.parametrize("name", sorted(UNSHARED_SPECS))
def test_no_cli_report_takes_the_yaml_dump_fallback(name, tmp_path, monkeypatch, capsys):
    kind, text = UNSHARED_SPECS[name]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text)
    monkeypatch.setattr(yaml, "dump", _no_fallback)
    assert cli.main([kind, str(spec_file), "--seed", "11", "--out", str(tmp_path)]) in (0, 1, 2)
    assert capsys.readouterr().out == (tmp_path / "report.yaml").read_text()


@pytest.mark.parametrize("name", ["hedge-small", "hedge-jump-super"])
def test_samples_size_the_price_check_of_continuous_hedges_only(name, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(GOLDEN_SPECS[name][1])
    assert cli.main(["hedge", str(spec_file), "--seed", "11"]) == 0
    default = yaml.safe_load(capsys.readouterr().out)["results"]
    code = cli.main(["hedge", str(spec_file), "--seed", "11", "--samples", "1000"])
    captured = capsys.readouterr()
    if name == "hedge-jump-super":  # grid-monitored: no price gap, and samples are refused
        assert default["price_gap"] is None
        assert (code, captured.out) == (3, "")
        assert captured.err == "schema error: --samples: the hedge task does not read samples\n"
    else:
        assert code == 0
        small = yaml.safe_load(captured.out)["results"]
        assert small["price_gap"] != default["price_gap"]
        # 64 replicates of 15 points against 64 of 251: 960 draws against 16,064
        assert (small["price_check"]["n_samples"], default["price_check"]["n_samples"]) == (960, 16_064)
        assert small["price_gap"][1] > 5.0 * default["price_gap"][1]
        assert small["exchange"] == default["exchange"]  # exact: it draws nothing


# one spec of each task kind, and a jump driver's hedge; each reads what its kind declares
SETTING_SPECS = {
    "check": "model: {kind: multi_lognormal, mean: [-0.125, -0.125], "
    "cov: [[0.25, 0.125], [0.125, 0.25]]}\ntask: {kind: check, checks: [density, payoff], numeraire: 1}\n",
    # a check task reads what its checks read: exact checks, Monte Carlo ones, the defaults
    "check-exact": "model: {kind: heavy_tail, gamma: 2.0}\n"
    "task: {kind: check, checks: [density, integrated_tail, moments]}\n",
    "check-payoff": "model: {kind: multi_lognormal, mean: [-0.125, -0.125], "
    "cov: [[0.25, 0.0], [0.0, 0.25]]}\ntask: {kind: check, checks: [payoff], numeraire: 1}\n",
    "check-default": "model: {kind: lognormal, sigma: 0.25}\ntask: {kind: check}\n",
    "check-triplet": "model: {kind: levy_triplet, a: 0.0225, "
    "atoms: [{x: 0.3, mass: 1.0}, {x: -0.3, mass: 1.3498588075760032}]}\ntask: {kind: check}\n",
    "alpha": REPORT_SPECS["alpha"],
    "price": PRICE_MAX_OPTION,
    # a payoff with a closed form under the model draws nothing, so it reads no samples
    "price-closed": REPORT_SPECS["price"],
    "hedge": HEDGE_SMALL,
    "hedge-jump": HEDGE_JUMP_SUPER,
    "zonoid": REPORT_SPECS["zonoid"],
}
@pytest.mark.parametrize("name", sorted(SETTING_SPECS))
def test_every_echo_parses_again(name):
    # the echo writes every default, and a default is accepted where it is not read
    echoed = cli.serialize_spec(cli.parse_model_spec(SETTING_SPECS[name]))
    assert cli.serialize_spec(cli.parse_model_spec(echoed)) == echoed


# each setting as a flag and as a spec key, away from its default
SETTINGS = {"samples": ("1000", "samples: 1000\n"), "tol": ("1e-300", "tol: {exact: 1.0e-300}\n")}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("name", sorted(SETTING_SPECS))
def test_every_explicit_setting_acts_or_is_refused(name, setting, tmp_path, capsys):
    kind, text = name.split("-")[0], SETTING_SPECS[name]
    flag, key = SETTINGS[setting]
    spec_file = tmp_path / "spec.yaml"
    runs = []
    for doc, flags in ((text, []), (text, [f"--{setting}", flag]), (text + key, [])):
        spec_file.write_text(doc)
        code = cli.main([kind, str(spec_file), "--seed", "11", *flags])
        out, err = capsys.readouterr()
        runs.append((code, out and yaml.safe_load(out)["results"], err))
    (code, default, _), by_flag, by_key = runs
    assert code in (0, 1, 2)
    spec = cli.parse_model_spec(text)
    if setting in cli.TASKS[kind][2](spec["task"], spec["model"]):
        assert by_flag[0] in (0, 1, 2) and by_flag[1] != default
    else:
        assert by_flag == (3, "", f"schema error: --{setting}: the {kind} task does not read {setting}\n")
        assert by_key[2].endswith(f": the {kind} task does not read {setting}\n")
    assert by_flag[:2] == by_key[:2]


# --------------------------------------------------------------------------- #
# Usage: the command line that argparse accepts and rejects
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate", "spec.yaml"], ["check"], ["check", "spec.yaml", "--seed", "abc"]],
)
def test_bad_usage_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: selfdual ")


def test_help_lists_every_task_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert [kind for kind in cli.TASK_KINDS if kind not in text] == []


HELP_TEXT = """\
usage: selfdual [-h] [--seed SEED] [--samples SAMPLES] [--tol TOL] [--out OUT]
                {check,alpha,price,hedge,zonoid} spec

Self-dual model checks, order solving, pricing, and hedges

positional arguments:
  {check,alpha,price,hedge,zonoid}
                        the task kind the spec holds
  spec                  path to the YAML model spec

options:
  -h, --help            show this help message and exit
  --seed SEED           override the spec seed
  --samples SAMPLES     override sample counts
  --tol TOL             override the exact tolerance
  --out OUT             directory for report artifacts
"""


def test_help_and_usage_error_texts_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP_TEXT, "")
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "spec.yaml"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            HELP_TEXT.split("\n\n")[0]
            + "\nselfdual: error: argument command: invalid choice: 'frobnicate'"
        )


def test_one_process_gives_each_call_the_output_of_a_fresh_one(tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(REPORT_SPECS["zonoid"])
    flags = ["--seed", "3", "--out", str(tmp_path / "first")]
    assert cli.main(["zonoid", str(spec_file), *flags]) == 0
    # settings that a zonoid task does not read are refused
    assert cli.main(["zonoid", str(spec_file), "--samples", "1000", "--tol", "1e-9"]) == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["zonoid", "--seed"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, files = _cli_output("zonoid", spec_file, tmp_path / "warm", capsys)
    fresh = subprocess.run(
        [sys.executable, "-m", "selfdual.cli", "zonoid", str(spec_file), "--out", str(tmp_path / "cold")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, "")
    assert {p.name: p.read_bytes() for p in sorted((tmp_path / "cold").iterdir())} == files
    assert yaml.safe_load(out)["spec"]["seed"] == 12345


def test_a_kind_mismatch_names_both_kinds(tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(DISCRETE)
    assert cli.main(["alpha", str(spec_file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spec task kind 'check' does not match subcommand 'alpha'\n"
