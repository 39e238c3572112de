import math

import pytest
import yaml

from selfdual import cli, dist, hedging, levy
from selfdual.errors import SchemaError

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
