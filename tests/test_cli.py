import csv
import io
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from rareweak.cli import main
from rareweak.harness import TrialSpec
from rareweak.ifpca import ifpca_pipeline, load_labeled_csv
from rareweak.model import ArwParams


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundaryCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["boundary", "--theta", "0.5", "--problem", "clustering", "--grid", "50"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 50
        assert set(rows[0]) == {"beta", "alpha_boundary", "segment"}
        assert rows[0]["segment"] == "simple_agg"

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, _, _ = run_cli(["boundary", "--theta", "0.4", "--out", str(path)], capsys)
        assert code == 0
        assert path.exists() and "alpha_boundary" in path.read_text()

    def test_theta_out_of_range_exit_2(self, capsys):
        code, out, err = run_cli(["boundary", "--theta", "1.5"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("invalid query:") and "theta must lie in (0, 1)" in err

    @pytest.mark.parametrize("args", [["--grid", "0"], ["--grid", "-3"], ["--theta", "5", "--grid", "0"]])
    def test_grid_below_one_exit_2(self, capsys, args):
        # an empty grid used to exit 0 with a bare line break and no header, never checking theta
        code, out, err = run_cli(["boundary", "--theta", "0.5", *args], capsys)
        assert code == 2 and out == ""
        assert err.startswith("invalid query:") and "--grid must be at least 1" in err


class TestSimulateCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--p", "300", "--theta", "0.5", "--beta", "0.4", "--alpha", "0.15",
                "--methods", "simple_agg,agg_chi2", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert "hamming" in payload["clustering"]["simple_agg"]
        assert "reject" in payload["tests"]["agg_chi2"]

    PARAMS = {"p": 300, "theta": 0.5, "beta": 0.4, "alpha": 0.15}
    ONE = {"simple_agg": {}}

    @pytest.mark.parametrize(
        "spec, needle",
        [
            (None, "alpha"),
            ({"params": PARAMS, "seed": 1}, "methods"),
            ({"methods": {"simple_agg": {}}, "seed": 1}, "params"),
            ([{"params": PARAMS, "methods": {"simple_agg": {}}, "seed": 1}], "JSON object"),
            ({"params": PARAMS, "methods": {"signed_sparse_agg": ["N"]}, "seed": 1}, "signed_sparse_agg"),
            ({"params": PARAMS, "methods": {"recover_sa_n": {"greedy": True}}, "seed": 1}, "does not accept ['greedy']"),
            ({"params": PARAMS, "methods": ONE, "seed": 1.5}, "seed must be an integer of at least 0, got 1.5"),
            ({"params": PARAMS, "methods": ONE, "seed": True}, "seed must be an integer of at least 0, got True"),
            (
                {"params": {**PARAMS, "p": 300.9}, "methods": ONE, "seed": 1},
                "params: p must be an integer of at least 2, got 300.9",
            ),
            (
                {"params": {**PARAMS, "alpha": "nan"}, "methods": ONE, "seed": 1},
                "params: alpha must be a real number or null, got 'nan'",
            ),
            ({"params": PARAMS, "methods": ONE, "seed": -1}, "seed must be an integer of at least 0"),
            ({"params": {**PARAMS, "p": 100, "theta": 0.05}, "methods": ONE, "seed": 1}, "calibration gives n=1 < 2"),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1, "noise": {"kind": "colored", "A": np.eye(2).tolist()}},
                "A must be 17x17, got (2, 2)",
            ),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1, "noise": {"kind": "colored", "B": [1.0] * 300}},
                "B must be 300x300, got (300,)",
            ),
            ({"params": PARAMS, "methods": ONE, "seed": 1, "sed": 2}, "unknown fields ['sed']"),
            ({"params": {**PARAMS, "sign_mix": 0.5}, "methods": ONE, "seed": 1}, "params: unknown fields ['sign_mix']"),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1, "noise": {"kind": "white", "a": 1}},
                "noise: unknown fields ['a']",
            ),
            ({"params": PARAMS, "methods": ONE, "seed": 1, "noise": "white"}, "noise: expected a JSON object, got str"),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1,
                 "noise": {"kind": "colored", "B": [[True, False], [False, True]]}},
                "noise: B[0][0] must be a real number, got True",
            ),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1,
                 "noise": {"kind": "colored", "B": [[1.0, None], [0.0, 1.0]]}},
                "noise: B[0][1] must be a real number, got None",
            ),
            (
                {"params": PARAMS, "methods": ONE, "seed": 1,
                 "noise": {"kind": "colored", "A": [[1.0, 0.0], [0.0, 1.0, 2.0]]}},
                "noise: A[1] must be a list of 2 entries, got a list of 3",
            ),
        ],
        ids=[
            "flags",
            "no_methods",
            "no_params",
            "top_level_list",
            "options_not_object",
            "greedy_option",
            "fractional_seed",
            "bool_seed",
            "fractional_p",
            "nan_alpha",
            "negative_seed",
            "n_one",
            "A_wrong_shape",
            "B_one_dimensional",
            "unknown_trial_field",
            "unknown_params_field",
            "unknown_noise_field",
            "noise_not_object",
            "B_bool_entries",
            "B_null_entry",
            "A_ragged_rows",
        ],
    )
    def test_invalid_spec_exit_2(self, tmp_path, capsys, spec, needle):
        args = ["simulate", "--p", "300"]
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            args = ["simulate", "--spec", str(path)]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("invalid spec:") and needle in err

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--seed", "-1"], "seed must be an integer of at least 0"),
            (["--p", "1"], "p must be an integer of at least 2"),
            (["--p", "100", "--theta", "0.05", "--beta", "0.5"], "calibration gives n=1 < 2"),
        ],
        ids=["negative_seed", "p_one", "n_one"],
    )
    def test_invalid_flags_exit_2(self, capsys, flags, needle):
        code, _, err = run_cli(["simulate", "--alpha", "0.1", *flags], capsys)
        assert code == 2
        assert err.startswith("invalid spec:") and needle in err

    def test_partial_failure_exit_3(self, tmp_path, capsys):
        spec = {
            "params": {"p": 300, "theta": 0.5, "beta": 0.4, "alpha": 0.15, "r": None, "sign_mix_a": 0.0},
            "methods": {"sparse_agg_exact": {"N": 50}, "simple_agg": {}},
            "seed": 1,
            "noise": {"kind": "white"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["simulate", "--spec", str(path)], capsys)
        assert code == 3
        assert "error" in json.loads(out)["clustering"]["sparse_agg_exact"]

    def test_null_cell_spec_round_trip(self, tmp_path, capsys):
        # the record hashes the spec as written: alpha = inf is "inf" in the JSON and in the hash
        spec = TrialSpec(ArwParams(p=2000, theta=0.5, beta=0.4, alpha=math.inf), {"simple_agg": {}}, seed=3)
        assert spec.spec_hash() == "656a39109a2fd89f"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        code, out, _ = run_cli(["simulate", "--spec", str(path)], capsys)
        assert code == 0
        record = json.loads(out)
        assert '"alpha": "inf"' in out and record["spec"]["params"]["alpha"] == "inf"
        assert record["spec_hash"] == "656a39109a2fd89f"
        assert TrialSpec.from_dict(record["spec"]) == spec

    def test_method_presets(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--p", "300", "--theta", "0.5", "--beta", "0.3", "--alpha", "0.1",
                "--methods", "preset:cluster-then-recover", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["clustering"]) == {"simple_agg", "classical_pca"}
        assert set(payload["recovery"]) == {"recover_sa_star", "recover_if_star"}
        code, _, err = run_cli(
            ["simulate", "--p", "300", "--theta", "0.5", "--beta", "0.3", "--alpha", "0.1",
             "--methods", "preset:nope"],
            capsys,
        )
        assert code == 2 and "preset" in err

    def test_flags_reach_methods_that_accept_them(self, capsys):
        base = ["simulate", "--p", "60", "--theta", "0.5", "--beta", "0.8", "--alpha", "0.2", "--seed", "1"]
        code, out, _ = run_cli(base + ["--N", "2", "--methods", "signed_sparse_agg,recover_sa_n,simple_agg"], capsys)
        assert code == 0
        methods = json.loads(out)["spec"]["methods"]
        assert methods == {"signed_sparse_agg": {"N": 2}, "recover_sa_n": {"N": 2}, "simple_agg": {}}
        names = "if_pca,recover_if_q,classical_pca,recover_if_star,sparse_agg_greedy,higher_criticism"
        code, out, _ = run_cli(base + ["--q", "0.5", "--methods", names], capsys)
        assert code == 0
        methods = json.loads(out)["spec"]["methods"]
        assert {name for name, opts in methods.items() if opts} == {"if_pca", "recover_if_q"}
        assert methods["if_pca"] == methods["recover_if_q"] == {"q": 0.5}

    def test_unknown_method_lists_available(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--p", "300", "--alpha", "0.1", "--methods", "simple_agg,magic"], capsys
        )
        assert code == 2
        assert "magic" in err and "higher_criticism" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate",
                "--p", "200", "--theta", "0.5", "--beta", "0.4", "--alpha", "0.2",
                "--methods", "simple_agg", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["method"] == "simple_agg"


class TestSweepCommand:
    def sweep_spec(self, tmp_path):
        spec = {
            "p": 300,
            "theta": 0.5,
            "betas": [0.3],
            "strength_kind": "alpha",
            "strengths": [0.1, 0.4],
            "reps": 2,
            "methods": {"simple_agg": {}},
            "master_seed": 5,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_writes_json_and_csv(self, tmp_path, capsys):
        path = self.sweep_spec(tmp_path)
        out = tmp_path / "result"
        code, _, _ = run_cli(["sweep", "--spec", str(path), "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "result.json").read_text())
        assert len(payload["cells"]) == 2
        rows = list(csv.DictReader(io.StringIO((tmp_path / "result.csv").read_text())))
        assert len(rows) == 2

    def test_csv_to_stdout(self, tmp_path, capsys):
        # without --out, --format csv prints the CSV that --out writes
        path = self.sweep_spec(tmp_path)
        code, out, _ = run_cli(["sweep", "--spec", str(path), "--format", "csv"], capsys)
        assert code == 0
        run_cli(["sweep", "--spec", str(path), "--out", str(tmp_path / "result")], capsys)
        assert out == (tmp_path / "result.csv").read_bytes().decode()
        assert len(list(csv.DictReader(io.StringIO(out)))) == 2

    def test_json_to_stdout(self, tmp_path, capsys):
        # without --out, the JSON printed is the JSON --out writes, trailing newline included;
        # only the times in "meta" differ
        path = self.sweep_spec(tmp_path)
        code, out, _ = run_cli(["sweep", "--spec", str(path)], capsys)
        assert code == 0
        run_cli(["sweep", "--spec", str(path), "--out", str(tmp_path / "result")], capsys)
        written = (tmp_path / "result.json").read_bytes().decode()
        no_meta = lambda text: re.sub(r'"meta": \{[^}]*\}', '"meta": {}', text)
        assert no_meta(out) == no_meta(written) and written.endswith("}\n")

    def test_out_with_invalid_cell(self, tmp_path, capsys):
        # a beta of 1.5 fails only its own cell, whose CSV row carries the error
        path = self.sweep_spec(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "betas": [0.3, 1.5]}))
        code, out, _ = run_cli(["sweep", "--spec", str(path), "--out", str(tmp_path / "result")], capsys)
        assert code == 3 and out == ""
        cells = json.loads((tmp_path / "result.json").read_text())["cells"]
        rows = list(csv.DictReader(io.StringIO((tmp_path / "result.csv").read_text())))
        assert len(cells) == len(rows) == 4
        for cell, row in zip(cells, rows):
            assert row["cell"] == str(cell["cell"]) and row["beta"] == str(cell["beta"])
            if cell["beta"] == 1.5:
                assert row["error"] == cell["error"] == "beta must lie in (0, 1)"
                assert row["clustering_hamming:simple_agg"] == ""
            else:
                assert row["error"] == "" and row["clustering_hamming:simple_agg"] != ""

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda spec: {"p": 300}, "theta"),
            (lambda spec: {**spec, "betas": 0.3}, "betas"),
            (lambda spec: [spec], "JSON object"),
            (lambda spec: {**spec, "p": math.inf}, "p must be an integer of at least 2, got inf"),
            (lambda spec: {**spec, "p": 300.9}, "p must be an integer of at least 2, got 300.9"),
            (lambda spec: {**spec, "reps": 2.7}, "reps must be an integer of at least 1, got 2.7"),
            (lambda spec: {**spec, "reps": True}, "reps must be an integer of at least 1, got True"),
            (lambda spec: {**spec, "master_seed": 5.5}, "master_seed must be an integer of at least 0, got 5.5"),
            (lambda spec: {**spec, "master_seed": -1}, "master_seed must be an integer of at least 0"),
            (lambda spec: {**spec, "reps": 0}, "reps must be an integer of at least 1"),
            (lambda spec: {**spec, "betas": ["x"]}, "betas entries must be real numbers, got 'x'"),
            (lambda spec: {**spec, "betas": [0.3, False]}, "betas entries must be real numbers, got False"),
            (lambda spec: {**spec, "strengths": [0.1, None]}, "strengths entries must be real numbers, got None"),
            (lambda spec: {**spec, "theta": 1.5}, "theta must lie in (0, 1)"),
            (lambda spec: {**spec, "sign_mix_a": 0.9}, "sign_mix_a must lie in [0, 1/2]"),
            (lambda spec: {**spec, "ratio_reference": ["nope", "x"]}, "unknown problem 'nope'"),
            (lambda spec: {**spec, "p": 100, "theta": 0.05, "strengths": [0.1]}, "calibration gives n=1 < 2"),
            (lambda spec: {**spec, "rep": 3, "method": {"if_pca": {}}}, "unknown fields ['method', 'rep']"),
            (lambda spec: {**spec, "methods": ["simple_agg"]}, "methods must be an object"),
            (lambda spec: {**spec, "ratio_reference": "clustering"}, "ratio_reference must be a list"),
        ],
        ids=[
            "missing_fields",
            "betas_not_list",
            "top_level_list",
            "p_infinite",
            "p_fractional",
            "reps_fractional",
            "reps_bool",
            "master_seed_fractional",
            "master_seed_negative",
            "reps_zero",
            "beta_string",
            "beta_bool",
            "strength_null",
            "theta_out_of_range",
            "sign_mix_out_of_range",
            "unknown_ratio_reference",
            "n_one",
            "misspelled_fields",
            "methods_list",
            "ratio_reference_string",
        ],
    )
    def test_bad_spec_exit_2(self, tmp_path, capsys, edit, needle):
        path = self.sweep_spec(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, _, err = run_cli(["sweep", "--spec", str(path)], capsys)
        assert code == 2
        assert err.startswith("invalid sweep spec:") and needle in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_exit_2(self, tmp_path, capsys, workers):
        path = self.sweep_spec(tmp_path)
        code, out, err = run_cli(["sweep", "--spec", str(path), "--workers", workers], capsys)
        assert code == 2 and out == ""
        assert err.startswith("invalid --workers:")

    @pytest.mark.parametrize(
        "methods",
        [
            {"if_pca": {"Q": 0.1}},
            {"magic": {}},
            {"signed_sparse_agg": {"greedy": False}},
            {"sparse_agg_l1": {"greedy": True}},
            {"sparse_agg_exact": {"N": 2.7}},
            {"sparse_agg_exact": {"N": True}},
            {"sparse_agg_exact": {"budget": 10}},
            {"sparse_agg_greedy": {"restarts": 2}},
            {"if_pca": {"q": "3"}},
            {"recover_if_q": {"q": False}},
        ],
        ids=[
            "bad_option",
            "unknown",
            "greedy_false",
            "greedy_true",
            "N_fractional",
            "N_bool",
            "budget",
            "restarts",
            "q_string",
            "q_bool",
        ],
    )
    def test_bad_methods_exit_2(self, tmp_path, capsys, methods):
        path = self.sweep_spec(tmp_path)
        spec = json.loads(path.read_text())
        spec["methods"] = methods
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(["sweep", "--spec", str(path)], capsys)
        assert code == 2
        assert err.startswith("invalid sweep spec:")

    def test_nan_q_is_a_method_error(self, tmp_path, capsys):
        # json.loads accepts NaN; the screen then refuses it instead of selecting nothing
        path = self.sweep_spec(tmp_path)
        spec = json.loads(path.read_text())
        spec["methods"] = {"if_pca": {"q": math.nan}, "recover_if_q": {"q": math.nan}, "simple_agg": {}}
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["sweep", "--spec", str(path)], capsys)
        assert code == 3
        for cell in json.loads(out)["cells"]:
            assert cell["results"]["clustering"]["if_pca"] == {"error": "q must be positive"}
            assert cell["results"]["recovery"]["recover_if_q"] == {"error": "q must be positive"}
            assert "hamming" in cell["results"]["clustering"]["simple_agg"]


class TestIfpcaCommand:
    def data_files(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 15))
        X[:10] += 6.0
        lines = [",".join(f"g{j}" for j in range(15))]
        for row in X:
            lines.append(",".join(repr(float(v)) for v in row))
        dpath = tmp_path / "expr.csv"
        dpath.write_text("\n".join(lines) + "\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("\n".join(["u"] * 10 + ["v"] * 10) + "\n")
        return dpath, lpath

    def test_fixed_q_run(self, tmp_path, capsys):
        dpath, lpath = self.data_files(tmp_path)
        code, out, _ = run_cli(
            ["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--q", "0.3", "--baseline-kmeans"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["errors"] == 0
        assert payload["baseline_kmeans_errors"] == 0

    @pytest.mark.parametrize("flag, kwargs", [("--fdr", {"fdr": 0.05}), ("--top-k", {"top_k": 4})], ids=["fdr", "top_k"])
    def test_fdr_and_top_k_modes(self, tmp_path, capsys, flag, kwargs):
        dpath, lpath = self.data_files(tmp_path)
        [(mode, value)] = kwargs.items()
        code, out, _ = run_cli(["ifpca-run", "--data", str(dpath), "--labels", str(lpath), flag, str(value)], capsys)
        assert code == 0
        payload = json.loads(out)
        report = ifpca_pipeline(load_labeled_csv(dpath, labels_path=lpath), **kwargs)
        assert payload["mode"] == report.mode == mode
        assert payload["rows"] == [asdict(row) for row in report.rows]
        if mode == "top_k":
            assert payload["rows"][0]["n_selected"] == 4

    @pytest.mark.parametrize(
        "mode", [["--q", "1"], ["--sweep", "0.5:1:0.5"], ["--top-k", "1"], ["--fdr", "0.1"]], ids=lambda m: m[0]
    )
    def test_all_features_zero_mad_exit_2(self, tmp_path, capsys, mode):
        # every mode used to fail with its own unclear message
        dpath = tmp_path / "flat.csv"
        dpath.write_text("a,b,c,label\n1,2,3,u\n1,2,3,u\n1,2,3,v\n1,5,3,v\n")
        code, out, err = run_cli(["ifpca-run", "--data", str(dpath), "--label-column", "label", *mode], capsys)
        assert code == 2 and out == ""
        assert err == "pipeline error: every feature has zero median absolute deviation; no column is left to cluster\n"

    def test_top_k_zero_exit_2(self, tmp_path, capsys):
        dpath, lpath = self.data_files(tmp_path)
        code, out, err = run_cli(["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--top-k", "0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("pipeline error:") and "top_k must lie in [1, 15]" in err

    def test_literal_scaling_is_unknown(self, tmp_path, capsys):
        # the screen has one statistic; the flag that divided it by 2n instead of sqrt(2n) is gone
        dpath, lpath = self.data_files(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--q", "0.3", "--literal-scaling"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --literal-scaling" in capsys.readouterr().err

    def test_labels_and_label_column_exit_2(self, tmp_path, capsys):
        # labels come from one place; with both flags the labels file used to be ignored
        dpath = tmp_path / "expr.csv"
        dpath.write_text("g0,g1,group\n1,2,a\n3,4,b\n5,7,a\n7,8,b\n")
        lpath = tmp_path / "labels.txt"
        lpath.write_text("a\nb\na\nb\na\n")
        code, _, err = run_cli(
            ["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--label-column", "group", "--q", "0.3"], capsys
        )
        assert code == 2
        assert "cannot load data: provide labels_path or label_column, not both" in err

    def test_sweep_mode(self, tmp_path, capsys):
        dpath, lpath = self.data_files(tmp_path)
        code, out, _ = run_cli(
            ["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--sweep", "0.2:0.6:0.2"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == 3

    @pytest.mark.parametrize("grid", ["1:0:1", "0.5:1:0", "0.5:1:-0.1", "a:b:c", "0.5:1"])
    def test_bad_sweep_grid_exit_2(self, tmp_path, capsys, grid):
        dpath, lpath = self.data_files(tmp_path)
        code, out, err = run_cli(["ifpca-run", "--data", str(dpath), "--labels", str(lpath), "--sweep", grid], capsys)
        assert code == 2
        assert out == "" and err.startswith("bad --sweep")

    def test_missing_data_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["ifpca-run", "--data", str(tmp_path / "nope.csv"), "--q", "1.0"], capsys
        )
        assert code == 2
