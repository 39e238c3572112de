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
  steps: 60
  driver:
    kind: levy_triplet
    a: [[0.0625, 0.03125], [0.03125, 0.0625]]
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  n_outer: 500
  n_inner: 4000
  hit_states: 6
"""
    )
    assert isinstance(spec["model"], hedging.PathConfig)
    code, doc, artifacts = cli.run(spec)
    assert code == 0, doc
    assert doc["results"]["verdict"] == "pass"
    assert artifacts["hedge_gaps.csv"].startswith("path,step,time,")


def test_run_hedge_with_solved_alpha():
    spec = cli.parse_model_spec(
        """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  carry: [0.01, 0.01]
  steps: 60
  driver:
    kind: levy_triplet
    a: [[0.04, 0.02], [0.02, 0.04]]
task:
  kind: hedge
  barrier: {asset: 1, level: 0.85}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.85}
  alpha: solve
  n_outer: 400
  n_inner: 2000
  hit_states: 4
"""
    )
    code, doc, _ = cli.run(spec)
    assert code in (0, 2)
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
    spec = cli.parse_model_spec(
        """
samples: 20000
model:
  kind: multi_lognormal
  mean: [-0.125, -0.125]
  cov: [[0.25, 0.0], [0.0, 0.25]]
task: {kind: check, checks: [payoff], numeraire: 1}
"""
    )
    code, doc, _ = cli.run(spec)
    assert code == 1
    points = doc["results"]["checks"][0]["points"]
    seen = {(p["status"], p["n_samples"], p["rounds"]) for p in points}
    # passing points rest on the first batch; failing ones pooled 20k + 40k + 80k
    assert seen <= {("pass", 20_000, 0), ("fail", 140_000, 2)}
    assert ("fail", 140_000, 2) in seen
    exact = cli.parse_model_spec(MINIMAL)
    _, doc, _ = cli.run(exact)
    for check in doc["results"]["checks"]:
        assert all((p["n_samples"], p["rounds"]) == (0, 0) for p in check["points"])


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

ECHO_SPEC = """
seed: 7
samples: 5000
tol: {exact: 1.0e-9}
model:
  kind: discrete
  atoms:
    - ["1/2", "1/3"]
    - ["1", "1/2"]
    - ["2", "1/6"]
task:
  kind: check
  checks: [discrete, moments]
"""

# The echo and hash of ECHO_SPEC as reports have carried them since the echo
# was first hashed; building the echo once must not move a byte of either
ECHO = {
    "model": {"atoms": [["1/2", "1/3"], ["1", "1/2"], ["2", "1/6"]], "kind": "discrete"},
    "samples": 5000,
    "seed": 7,
    "task": {"checks": ["discrete", "moments"], "kind": "check"},
    "tol": {"exact": 1e-09},
    "version": 1,
}
ECHO_TEXT = (
    "model:\n  atoms:\n  - - 1/2\n    - 1/3\n  - - '1'\n    - 1/2\n  - - '2'\n    - 1/6\n"
    "  kind: discrete\nsamples: 5000\nseed: 7\ntask:\n  checks:\n  - discrete\n  - moments\n"
    "  kind: check\ntol:\n  exact: 1.0e-09\nversion: 1\n"
)


def test_spec_echo_and_hash_match_golden_values(yaml_backend, tmp_path, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(ECHO_SPEC)
    assert cli.serialize_spec(cli.parse_model_spec(ECHO_SPEC)) == ECHO_TEXT
    runs = [
        ([], "1c61b1f41e9df664f8b9005bf778046fb84f8d5d14b0de3c22991603a879f3c9", {}),
        (
            ["--seed", "99", "--samples", "1234", "--tol", "3e-7"],
            "583902a5319317985da59e45d4f53648d4b19bc9371038d2302d70090f86bde3",
            {"seed": 99, "samples": 1234, "tol": {"exact": 3e-07}},
        ),
    ]
    for overrides, sha, changed in runs:
        assert cli.main(["check", str(spec_file), *overrides]) == 0
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["tool"]["spec_sha256"] == sha
        assert doc["spec"] == {**ECHO, **changed}


HEDGE_SMALL = """
seed: 5
model:
  kind: path_config
  s0: [1.0, 1.0]
  steps: 60
  driver: {kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.8}
  target: {kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}
  n_outer: 500
  n_inner: 4000
  hit_states: 6
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


# the benchmark's crn-pass and crn-fail specs, at a seed where both confirm failing points
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


@pytest.mark.parametrize("name", sorted(CRN_SPECS))
def test_report_bytes_do_not_depend_on_the_kernel_workers(name, tmp_path, monkeypatch, capsys):
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(CRN_SPECS[name])
    outputs = []
    # one worker runs the blocks inline; more run them on the default pool
    for workers in (1, max(duality.WORKERS, 2)):
        monkeypatch.setattr(duality, "WORKERS", workers)
        outputs.append(_cli_output("check", spec_file, tmp_path / f"out{workers}", capsys))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == {"pass": 0, "fail": 1}[name]


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
    "price-triplet": (
        "model: {kind: levy_triplet, a: 0.04}\n"
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
    assert cli.main([kind.split("-")[0], str(spec_file), "--samples", "1000"]) == 3
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


@pytest.mark.parametrize("check", sorted(cli.CHECKS))
@pytest.mark.parametrize("kind", sorted(MODEL_OF_KIND))
def test_every_check_on_every_model_kind_ends_in_an_exit_code(kind, check, tmp_path, capsys):
    alpha = ", alpha: 1.0" if check == "quasi" else ""
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(
        f"model: {MODEL_OF_KIND[kind]}\ntask: {{kind: check, checks: [{check}]{alpha}}}\n"
    )
    code = cli.main(["check", str(spec_file), "--samples", "1000"])
    assert code in (0, 1, 2, 3)
    model = cli.parse_model_spec(spec_file.read_text())["model"]
    need = cli.NEEDS.get(f"{check} check")
    if need and not isinstance(model, need[0]):
        assert code == 3
        message = yaml.safe_load(capsys.readouterr().out)["error"]["message"]
        assert message == f"{check} check requires {need[1]} model"


@pytest.mark.parametrize(
    "kind, rows",
    [("price", []), ("price-binary-asset", []), ("price-gap-asset", []),
     ("price-basket-weights", []), ("price-fits", [1000])],
)
def test_a_price_of_the_wrong_shape_is_refused_before_the_draw(kind, rows, tmp_path, monkeypatch):
    drawn = []
    for model in (dist.LogNormal, dist.MultiLogNormal):
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
    assert cli._default_checks(plain) == ["density", "integrated_tail", "moments"]
    assert cli._default_checks(spec) == ["density", "integrated_tail", "moments", "quasi"]
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
samples: 20000
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
    # the wrong order fails through a hit state alone: a jump driver has no price check
    for knock in ("in", "out"):
        code, results, _ = runs["1.5", knock]
        assert code == 1 and results["max_gap_se_units"] > 3.0
        assert results["price_gap"] is None and results["terminal_max_mismatch"] == 0.0


HEDGE_MAX_OPTION = HEDGE_SMALL.replace(
    "{kind: spread_call, long_weights: [1, 0], short_weights: [0, 0.1], strike: 0.8}",
    "{kind: max_option, u0: 0.5, weights: [1, 1]}",
).replace("n_inner: 4000", "n_inner: 20000")


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_a_max_option_hedge_reflects_through_the_generic_claim(seed):
    # a max option is no affine-power claim, so its reflection is the generic wrapper
    assert isinstance(hedging.reflect_claim(pricing.MaxOption(0.5, (1, 1)), 1, 0.8, 1.0),
                      hedging.ReflectedClaim)
    code, results, artifacts = _run_at(HEDGE_MAX_OPTION, seed)
    assert code != 1 and results["simplification"] == "indicator"
    rows = [row.split(",") for row in artifacts["hedge_gaps.csv"].splitlines()[1:]]
    assert len(rows) == 6 and all(abs(float(r[5])) <= 3.0 * float(r[6]) for r in rows)
    gap, se = results["price_gap"]
    assert abs(gap) <= 3.0 * se


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
  steps: 60
  driver: {kind: levy_triplet, a: [[0.0625, 0.03125], [0.03125, 0.0625]]}
task:
  kind: hedge
  barrier: {asset: 1, level: 0.85}
  target: {kind: basket_call, weights: [1, 0.5], strike: 1.2}
  knock: KNOCK
  n_outer: 500
  n_inner: 20000
  hit_states: 6
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
    "hedge-small": ("hedge", HEDGE_SMALL),
    # the truncated drift conventions, a Gaussian jump part and a jump driver
    "triplet-truncated-gamma": ("check", TRIPLET_TRUNCATED_GAMMA),
    "triplet-euclidean-martingale": ("check", TRIPLET_EUCLIDEAN_MARTINGALE),
    "triplet-tilted-gaussian": ("check", TRIPLET_TILTED_GAUSSIAN),
    "hedge-jump-super": ("hedge", HEDGE_JUMP_SUPER),
    "hedge-indicator-in": ("hedge", HEDGE_INDICATOR.replace("KNOCK", "in")),
    "hedge-indicator-out": ("hedge", HEDGE_INDICATOR.replace("KNOCK", "out")),
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
        "alpha.txt": "c174baa2c35ecf6fd9b98472a781a982c6112c12f3ec80333e1ced8631cb117b",
        "report.yaml": "d5bebf7f1934c509031435e18422e99baca06b650c1380334eb6f4cf93af9da8",
    },
    "check-heavy-tail": {
        "report.yaml": "a4beb2fab465d0023dc47bcb9fde433cd915f8354fde5fc603a19d9d53152dc2",
        "verdicts.txt": "ee2afbe083dc049f56ce74fab44d1fac6e38249c716eb543b368362646a7b643",
    },
    "hedge-small": {
        "hedge.txt": "0ae309d68d4b180487529d99d4c96775d324f211662bdf3f894150a3083dc614",
        "hedge_gaps.csv": "dc608bb6ed5b44c21a50e658afdda6b42997cb21df648894db5a4b41a54a8913",
        "report.yaml": "96905bcd460fe302ffa4f8e76a1f953aa03725c8b1a8940015e6558f58dca6a5",
    },
    "triplet-truncated-gamma": {
        "report.yaml": "caed6e3f40207fcc8ca91a6e65231a6c4694fb789bd4065bb5a6907efca8351c",
        "verdicts.txt": "8f5b3beb18fc151e714ec47415e02548b03da4a70cd3f78315ffcda630a795a7",
    },
    "triplet-euclidean-martingale": {
        "report.yaml": "125689df1225a118b0e58960a97d9479264e28899d7d017a367ce5e0998eef30",
        "verdicts.txt": "ba378c7475cf493f36f11730c47dbb439814cac0dee2d14e84548d32a5a99bfb",
    },
    "triplet-tilted-gaussian": {
        "report.yaml": "b895c2be1f3fb8373222c0ae434f81d126a7211075a838603c12e73233e07d7c",
        "verdicts.txt": "780919f1dc7271799b49c20e167d1ed0d8f74e72afd471b3a8fda6749e4c8151",
    },
    "hedge-jump-super": {
        "hedge.txt": "af1bff4f4258b42daef750c0269c33bfeb39ed5be320238c6932bb3fd2d28349",
        "hedge_gaps.csv": "9c578e1028c7f4c984fe1c4f13b9c70ff109607f1a69d5f8f0509646b229d095",
        "report.yaml": "e7ed9d838ac1bc75c84d286bad53c5b7b8ade20b6accc9fb8b1734582dfa3aa1",
    },
    "hedge-indicator-in": {
        "hedge.txt": "90b50f885bd5c56e862b04af7c08801ef6560e45456ac1a01c45b405adcf42df",
        "hedge_gaps.csv": "398eb3483ad70caf69a472a65f6eb0641495fd7a56e9dc682c1ab4af48396ace",
        "report.yaml": "5a916c67ca32decc91c12f83a3f426f6da720132f829d5a6c1fd0a20f84d9801",
    },
    "hedge-indicator-out": {
        "hedge.txt": "e31bbf343c3723a37f4fe468afb13a25705c21cc0692e14fcaeceb14ac8a1035",
        "hedge_gaps.csv": "8823460d02a4d473e0096c735346597e4f2a952bc1b6bb4dbe8621ed3379a264",
        "report.yaml": "2fec6474e371dc5a4296686ab641f089850587f2225e676853371655fa6f3ee7",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_report_and_artifact_bytes_match_golden_hashes(name, yaml_backend, tmp_path, capsys):
    kind, text = GOLDEN_SPECS[name]
    spec_file = tmp_path / "spec.yaml"
    spec_file.write_text(text)
    out_dir = tmp_path / "out"
    assert cli.main([kind, str(spec_file), "--seed", "11", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.encode() == (out_dir / "report.yaml").read_bytes()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    assert got == GOLDEN_SHA256[name]


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
    results = []
    for flags in ([], ["--samples", "1000"]):
        assert cli.main(["hedge", str(spec_file), "--seed", "11", *flags]) == 0
        results.append(yaml.safe_load(capsys.readouterr().out)["results"])
    default, small = results
    if name == "hedge-jump-super":  # grid-monitored: no price gap, and samples do nothing
        assert default["price_gap"] is None and small == default
    else:
        assert small["price_gap"] != default["price_gap"]
        assert small["price_gap"][1] > 5.0 * default["price_gap"][1]  # 200x fewer draws
        assert small["hit_states"] == default["hit_states"] == 6


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
    flags = ["--samples", "1000", "--tol", "1e-9", "--seed", "3", "--out", str(tmp_path / "first")]
    assert cli.main(["zonoid", str(spec_file), *flags]) == 0
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
