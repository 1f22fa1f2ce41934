import ast
import functools
import json
import operator
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import koopid
from koopid import cli
from conftest import EX2_EXPONENTS

GEN_LINEAR = ["generate", "--system", "linear", "--A", "0.8,0.5,-0.5,0.8",
              "--n", "2000", "--box", "-2,2,-2,2", "--seed", "42"]


@pytest.fixture()
def workdir(tmp_path):
    snap = tmp_path / "snap.csv"
    assert cli.main(GEN_LINEAR + ["--out", str(snap)]) == 0
    dict_file = tmp_path / "dict9.json"
    dict_file.write_text(json.dumps({
        "state_dim": 2,
        "exponents": [list(e) for e in EX2_EXPONENTS],
        "coeffs": None,
    }))
    return tmp_path


def run_identify(workdir, *extra):
    out = workdir / "result.json"
    code = cli.main([
        "identify", "--snapshots", str(workdir / "snap.csv"),
        "--dict-file", str(workdir / "dict9.json"),
        "--out", str(out), *extra,
    ])
    return code, out


class TestGenerate:
    def test_writes_csv_and_provenance(self, tmp_path):
        out = tmp_path / "data.csv"
        assert cli.main(GEN_LINEAR + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_1,x_2,y_1,y_2"
        assert len(lines) == 2001
        prov = json.loads((tmp_path / "data.provenance.json").read_text())
        assert prov["seed"] == 42
        assert prov["system"] == "linear"

    def test_vanderpol_parameters(self, tmp_path):
        out = tmp_path / "vdp.csv"
        code = cli.main(["generate", "--system", "vanderpol", "--n", "500",
                         "--box", "-4,4,-4,4", "--dt", "5e-3", "--seed", "7",
                         "--out", str(out)])
        assert code == 0
        prov = json.loads((tmp_path / "vdp.provenance.json").read_text())
        assert prov["dt"] == 5e-3
        assert prov["integrator"] == "rk4"

    def test_rejects_zero_samples_without_writing(self, tmp_path):
        out = tmp_path / "never.csv"
        code = cli.main(["generate", "--system", "linear",
                         "--A", "1,0,0,1", "--n", "0",
                         "--box", "-1,1,-1,1", "--out", str(out)])
        assert code == cli.EXIT_INVALID_INPUT
        assert not out.exists()

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(GEN_LINEAR + ["--out", str(a)])
        cli.main(GEN_LINEAR + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_linear_requires_map(self, tmp_path):
        code = cli.main(["generate", "--system", "linear", "--n", "10",
                         "--box", "-1,1,-1,1", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INVALID_INPUT

    def test_negative_seed_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = cli.main(GEN_LINEAR[:-1] + ["-1", "--out", str(out)])
        assert code == cli.EXIT_INVALID_INPUT
        assert "error[invalid-input]: seed" in capsys.readouterr().err
        assert not out.exists()


class TestIdentify:
    def test_ssd_finds_six_evolutions(self, workdir):
        code, out = run_identify(workdir, "--method", "ssd")
        assert code == 0
        result = json.loads(out.read_text())
        assert result["ssd"]["mode"] == "exact"
        assert result["ssd"]["subspace_dim"] == 6
        assert len(result["evolutions"]) == 6
        lams = {complex(e["lambda_re"], e["lambda_im"])
                for e in result["evolutions"]}
        assert any(abs(lam - 0.89) <= 1e-8 for lam in lams)
        assert result["e_r"] <= 1e-10

    def test_fb_edmd_method(self, workdir):
        code, out = run_identify(workdir, "--method", "fb-edmd")
        assert code == 0
        result = json.loads(out.read_text())
        assert result["ssd"] is None
        assert len(result["evolutions"]) == 6
        for e in result["evolutions"]:
            assert e["data_defect"] <= 1e-8
        # the command runs exactly the documented library calls on the factor
        snapshots = koopid.read_snapshot_csv(workdir / "snap.csv")
        dictionary = koopid.dictionary.dictionary_from_descriptor(
            json.loads((workdir / "dict9.json").read_text()))
        factor = koopid.evaluate_factor(dictionary, snapshots.X, snapshots.Y)
        tol = koopid.ToleranceConfig()
        library = [{"lambda_re": ev.eigenvalue.real, "lambda_im": ev.eigenvalue.imag,
                    "coefficients_re": ev.coefficients.real.tolist(),
                    "coefficients_im": ev.coefficients.imag.tolist(),
                    "forward_defect": ev.forward_defect,
                    "backward_defect": ev.backward_defect,
                    "data_defect": ev.data_defect}
                   for ev in koopid.forward_backward_eigenpairs(factor.RX, factor.RY, tol)]
        # float reprs round-trip, so equal dumps mean equal bits
        assert json.dumps(library, sort_keys=True) == json.dumps(result["evolutions"],
                                                                 sort_keys=True)
        assert result["e_r"] == koopid.relative_residual(
            factor.RX, factor.RY, koopid.edmd_matrix(factor.RX, factor.RY, tol).matrix)

    def test_ssd_approx_requires_eps(self, workdir):
        code, _ = run_identify(workdir, "--method", "ssd-approx")
        assert code == cli.EXIT_INVALID_INPUT

    def test_eps_only_valid_for_approx(self, workdir):
        code, _ = run_identify(workdir, "--method", "ssd", "--eps", "1e-4")
        assert code == cli.EXIT_INVALID_INPUT

    def test_ssd_approx_runs(self, workdir):
        code, out = run_identify(workdir, "--method", "ssd-approx",
                                 "--eps", "1e-4")
        assert code == 0
        result = json.loads(out.read_text())
        assert result["ssd"]["mode"] == "approximate"
        assert result["ssd"]["epsilon"] == 1e-4
        assert result["ssd"]["subspace_dim"] == 6

    def test_degree_beyond_the_sample_count_stops_before_building(
            self, workdir, capsys, monkeypatch):
        # comb(2 + 10**6, 2) monomials would take without end to build
        def unreachable(*args):
            raise AssertionError("the dictionary was built")

        monkeypatch.setattr(cli.dict_mod, "monomials_up_to_degree", unreachable)
        code = cli.main(["identify", "--snapshots", str(workdir / "snap.csv"),
                         "--degree", "1000000", "--method", "ssd"])
        assert code == cli.EXIT_ASSUMPTION_VIOLATION
        assert "need at least N_d = 500001500001 snapshots, got 2000" in \
            capsys.readouterr().err

    def test_degree_guard_counts_the_rows_of_a_csv_without_twin(
            self, workdir, capsys, monkeypatch):
        # the count comes from the twin's header, or else from the CSV
        (workdir / "snap.snapshots.npy").unlink()
        self.test_degree_beyond_the_sample_count_stops_before_building(
            workdir, capsys, monkeypatch)

    def test_degree_and_dict_file_are_exclusive(self, workdir):
        out = workdir / "result.json"
        code = cli.main(["identify", "--snapshots", str(workdir / "snap.csv"),
                         "--degree", "3",
                         "--dict-file", str(workdir / "dict9.json"),
                         "--method", "ssd", "--out", str(out)])
        assert code == cli.EXIT_INVALID_INPUT
        code = cli.main(["identify", "--snapshots", str(workdir / "snap.csv"),
                         "--method", "ssd", "--out", str(out)])
        assert code == cli.EXIT_INVALID_INPUT

    def test_degree_dictionary(self, workdir):
        out = workdir / "deg.json"
        code = cli.main(["identify", "--snapshots", str(workdir / "snap.csv"),
                         "--degree", "2", "--method", "ssd",
                         "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        # all monomials up to degree 2 span an invariant subspace of the
        # linear map, so nothing is pruned
        assert result["ssd"]["subspace_dim"] == 6
        assert result["dictionary"]["exponents"][0] == [0, 0]

    def test_missing_snapshot_file_is_io_error(self, workdir):
        code = cli.main(["identify", "--snapshots", str(workdir / "nope.csv"),
                         "--degree", "2", "--method", "ssd",
                         "--out", str(workdir / "r.json")])
        assert code == cli.EXIT_IO_ERROR

    def test_byte_identical_results(self, workdir):
        _, first = run_identify(workdir, "--method", "ssd")
        first_bytes = first.read_bytes()
        _, second = run_identify(workdir, "--method", "ssd")
        assert first_bytes == second.read_bytes()

    def test_binary_twin_leaves_the_result_bytes_unchanged(self, workdir):
        _, first = run_identify(workdir, "--method", "ssd")
        with_twin = first.read_bytes()
        (workdir / "snap.snapshots.npy").unlink()
        _, second = run_identify(workdir, "--method", "ssd")
        assert second.read_bytes() == with_twin

    def test_grid_export(self, workdir):
        code, out = run_identify(
            workdir, "--method", "ssd",
            "--grid-box", "-2,2,-2,2", "--grid-resolution", "9",
            "--grid-eigenvalues", "0.8+0.5j,0.39+0.8j")
        assert code == 0
        result = json.loads(out.read_text())
        assert len(result["grids"]) == 2
        for entry in result["grids"]:
            grid_file = workdir / entry["file"]
            lines = grid_file.read_text().splitlines()
            assert lines[0] == "x_1,x_2,abs,angle"
            assert len(lines) == 1 + 81
            data = np.loadtxt(grid_file, delimiter=",", skiprows=1)
            assert np.all(np.isfinite(data))

    def test_grid_dir_under_a_file_is_io_error(self, workdir, capsys):
        (workdir / "blocker").write_text("")
        code, _ = run_identify(workdir, "--method", "ssd",
                               "--grid-box", "-2,2,-2,2", "--grid-resolution", "5",
                               "--out-dir", str(workdir / "blocker" / "sub"))
        assert code == cli.EXIT_IO_ERROR
        assert "error[io-error]" in capsys.readouterr().err

    def test_a_library_warning_is_a_line_of_the_output(self, tmp_path, capsys):
        # 60 samples for the 36 monomials of degree 7: fewer than 2 * N_d
        snap = tmp_path / "vdp.csv"
        assert cli.main(["generate", "--system", "vanderpol", "--n", "60", "--box",
                         "-4,4,-4,4", "--dt", "5e-3", "--seed", "7",
                         "--out", str(snap)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["identify", "--snapshots", str(snap), "--degree", "7",
                             "--method", "ssd", "--out", str(tmp_path / "r.json")]) == 0
        assert ("identify: warning: fewer than 2 * N_d snapshots; rank decisions may be "
                "fragile\n") in capsys.readouterr().out

    def test_grid_eigenvalue_selector_must_match(self, workdir):
        code, _ = run_identify(workdir, "--method", "ssd",
                               "--grid-box", "-2,2,-2,2",
                               "--grid-eigenvalues", "3.5")
        assert code == cli.EXIT_INVALID_INPUT

    @pytest.mark.parametrize("grid, named", [
        (["--grid-box", "1,2,3", "--grid-resolution", "0", "--grid-eigenvalues", "zz"],
         "--grid-box"),
        (["--grid-box", "-2,2,-2,2", "--grid-resolution", "0"], "--grid-resolution"),
        (["--grid-box", "-2,2,-2,2", "--grid-eigenvalues", "zz"], "--grid-eigenvalues"),
    ], ids=["box", "resolution", "eigenvalues"])
    def test_grid_options_are_checked_when_nothing_is_identified(self, tmp_path, capsys,
                                                                 grid, named):
        # the five non-constant monomials of degree <= 2 hold no function
        # that evolves linearly under Van der Pol, so no grid is drawn
        snap, dict_file = tmp_path / "vdp.csv", tmp_path / "dict5.json"
        assert cli.main(["generate", "--system", "vanderpol", "--n", "2000",
                         "--box", "-4,4,-4,4", "--dt", "5e-3", "--seed", "0",
                         "--out", str(snap)]) == 0
        dict_file.write_text(json.dumps({"state_dim": 2, "coeffs": None, "exponents": [
            [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]}))
        argv = ["identify", "--snapshots", str(snap), "--dict-file", str(dict_file),
                "--method", "ssd", "--out", str(tmp_path / "vdp.json")]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads((tmp_path / "vdp.json").read_text())["ssd"]["C"] is None
        capsys.readouterr()
        assert cli.main(argv + grid) == cli.EXIT_INVALID_INPUT
        assert named in capsys.readouterr().err

    def test_vanderpol_pipeline_has_trivial_subspace(self, tmp_path):
        snap = tmp_path / "vdp.csv"
        assert cli.main(["generate", "--system", "vanderpol", "--n", "10000",
                         "--box", "-4,4,-4,4", "--dt", "5e-3", "--seed", "0",
                         "--out", str(snap)]) == 0
        out = tmp_path / "vdp.json"
        code = cli.main(["identify", "--snapshots", str(snap), "--degree", "7",
                         "--method", "ssd", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["ssd"]["subspace_dim"] == 1
        assert cli.main(["verify", str(out), str(snap)]) == 0
        approx_out = tmp_path / "vdp_approx.json"
        code = cli.main(["identify", "--snapshots", str(snap), "--degree", "7",
                         "--method", "ssd-approx", "--eps", "1e-4",
                         "--out", str(approx_out)])
        assert code == 0
        approx = json.loads(approx_out.read_text())
        assert approx["e_r"] < 1e-3
        assert 20 <= approx["ssd"]["subspace_dim"] <= 28
        assert cli.main(["verify", str(approx_out), str(snap)]) == 0
        fb_out = tmp_path / "vdp_fb.json"
        assert cli.main(["identify", "--snapshots", str(snap), "--degree", "7",
                         "--method", "fb-edmd", "--out", str(fb_out)]) == 0
        assert cli.main(["verify", str(fb_out), str(snap)]) == 0


class TestVerify:
    def test_own_output_passes(self, workdir, capsys):
        _, out = run_identify(workdir, "--method", "ssd")
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "range equality" in printed
        assert "FAIL" not in printed

    def test_fb_output_passes(self, workdir):
        _, out = run_identify(workdir, "--method", "fb-edmd")
        assert cli.main(["verify", str(out), str(workdir / "snap.csv")]) == 0

    def test_approximate_output_passes(self, workdir):
        _, out = run_identify(workdir, "--method", "ssd-approx", "--eps", "1e-4")
        assert cli.main(["verify", str(out), str(workdir / "snap.csv")]) == 0

    def test_corrupted_subspace_fails_range_check(self, workdir, capsys):
        _, out = run_identify(workdir, "--method", "ssd")
        result = json.loads(out.read_text())
        result["ssd"]["C"][0][0] += 0.1
        out.write_text(json.dumps(result))
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "range equality" in capsys.readouterr().out

    def test_tampered_eigenvalue_fails_defect_check(self, workdir, capsys):
        _, out = run_identify(workdir, "--method", "fb-edmd")
        result = json.loads(out.read_text())
        result["evolutions"][0]["lambda_re"] += 0.05
        out.write_text(json.dumps(result))
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_VERIFY_FAILED
        assert "data defects" in capsys.readouterr().out

    def test_tampered_fb_residual_fails(self, workdir, capsys):
        _, out = run_identify(workdir, "--method", "fb-edmd")
        result = json.loads(out.read_text())
        result["e_r"] = 123.0
        out.write_text(json.dumps(result))
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_VERIFY_FAILED
        printed = capsys.readouterr().out
        assert "EDMD residual e_r reproducible" in printed and "FAIL" in printed


@pytest.fixture(scope="module")
def linear3(tmp_path_factory):
    """Linear data (N = 2000, seed 3) and its degree-3 result of each method."""
    root = tmp_path_factory.mktemp("linear3")
    snap = root / "snap.csv"
    assert cli.main(["generate", "--system", "linear", "--A", "0.8,0.5,-0.5,0.8",
                     "--n", "2000", "--box", "-2,2,-2,2", "--seed", "3",
                     "--out", str(snap)]) == 0
    results = {}
    for method in ("ssd", "ssd-approx", "fb-edmd"):
        extra = ["--eps", "1e-4"] if method == "ssd-approx" else []
        out = root / f"{method}.json"
        assert cli.main(["identify", "--snapshots", str(snap), "--degree", "3",
                         "--method", method, "--out", str(out), *extra]) == 0
        results[method] = json.loads(out.read_text())
    return snap, results


def _verify_edited(linear3, tmp_path, method, edit):
    """verify's exit code on the linear3 result of method after edit(result)."""
    snap, results = linear3
    result = json.loads(json.dumps(results[method]))
    edit(result)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(result))
    return cli.main(["verify", str(out), str(snap)])


def _set_defects(result):
    for entry in result["evolutions"]:
        entry["forward_defect"] = entry["backward_defect"] = 9.9


def _constant_subspace(result):
    # the constant function alone: invariant, but not the largest
    # invariant subspace of the span
    C = result["ssd"]["C"]
    result["ssd"].update(C=[[1.0]] + [[0.0]] * (len(C) - 1), subspace_dim=1)
    result.update(reduced_koopman=[[1.0]], e_r=0.0, evolutions=[
        e for e in result["evolutions"]
        if abs(e["lambda_re"] - 1.0) < 1e-9 and e["lambda_im"] == 0.0])
    assert len(result["evolutions"]) == 1


def _surplus_column(column):
    """An edit appending column(C) to the stored C, with the reduced matrix
    padded to match: a basis claiming one dimension more than it spans."""
    def edit(result):
        C = result["ssd"]["C"]
        extra = column(C)
        result["ssd"].update(C=[row + [v] for row, v in zip(C, extra)],
                             subspace_dim=len(C[0]) + 1)
        result["reduced_koopman"] = ([row + [0.0] for row in result["reduced_koopman"]]
                                     + [[0.0] * (len(C[0]) + 1)])
    return edit


def _scale_floats(value, factor):
    if isinstance(value, float):
        return value * factor
    if isinstance(value, list):
        return [_scale_floats(v, factor) for v in value]
    if isinstance(value, dict):
        return {k: _scale_floats(v, factor) for k, v in value.items()}
    return value


class TestTamperedArtifacts:
    """verify replays every stage of the stored run, so no stored claim can
    be changed without a failed comparison (exit 1) or invalid input (exit 2)."""

    @pytest.mark.parametrize("method, edit", [
        ("fb-edmd", _set_defects),
        ("ssd", _set_defects),
        ("ssd", lambda r: r.update(evolutions=r["evolutions"][:1])),
        ("ssd", _constant_subspace),
        ("ssd-approx", lambda r: r["ssd"]["log"][0].update(kept_rank=1)),
        ("ssd-approx", lambda r: r["ssd"].update(max_range_angle=0.5)),
        ("ssd", lambda r: r["reduced_koopman"][0].__setitem__(0, 2.0)),
        ("ssd", _surplus_column(lambda C: [0.0] * len(C))),
        ("ssd-approx", _surplus_column(lambda C: [row[0] for row in C])),
        ("fb-edmd", lambda r: r["snapshots"].update(count=7, state_dim=5)),
    ], ids=["fb-edmd-defects", "ssd-defects", "ssd-incomplete-evolutions",
            "ssd-non-maximal-subspace", "approx-decision", "approx-range-angle",
            "ssd-reduced-matrix", "ssd-zero-column", "approx-repeated-column",
            "snapshot-count-and-dim"])
    def test_changed_claim_fails(self, linear3, tmp_path, method, edit):
        assert _verify_edited(linear3, tmp_path, method, lambda r: None) == cli.EXIT_OK
        assert _verify_edited(linear3, tmp_path, method, edit) == cli.EXIT_VERIFY_FAILED

    def test_a_replay_warning_is_a_line_of_the_report(self, linear3, tmp_path, capsys):
        # the zero column makes the replayed reduced matrix singular
        edit = _surplus_column(lambda C: [0.0] * len(C))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _verify_edited(linear3, tmp_path, "ssd", edit) == cli.EXIT_VERIFY_FAILED
        assert ("verify: warning in the replay: exact-mode reduced Koopman matrix is "
                "singular\n") in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(reduced_koopman=None, ssd={
            **r["ssd"], "C": [row[:1] for row in r["ssd"]["C"]]}),
        lambda r: r.update(e_r=123.0, reduced_koopman=None),
    ], ids=["cut-C-without-reduced-matrix", "e_r-without-reduced-matrix"])
    def test_stored_C_needs_its_reduced_matrix(self, linear3, tmp_path, capsys, edit):
        assert _verify_edited(linear3, tmp_path, "ssd", edit) == cli.EXIT_INVALID_INPUT
        assert "'reduced_koopman'" in capsys.readouterr().err

    @pytest.mark.parametrize("method, edit", [
        ("ssd-approx", lambda r: r["ssd"].update(epsilon=None)),
        ("ssd", lambda r: r["ssd"].update(subspace_dim=2)),
        ("fb-edmd", lambda r: r.update(reduced_koopman=[[1.0]])),
        ("ssd", lambda r: r.update(method="dmd")),
        ("ssd", lambda r: r.pop("snapshots")),
        ("fb-edmd", lambda r: r["snapshots"].update(count="2000")),
    ], ids=["approx-without-epsilon", "ssd-wrong-subspace-dim", "fb-edmd-with-reduced-matrix",
            "unknown-method", "missing-snapshots", "snapshot-count-not-an-integer"])
    def test_inconsistent_artifact_is_invalid_input(self, linear3, tmp_path, capsys,
                                                    method, edit):
        assert _verify_edited(linear3, tmp_path, method, edit) == cli.EXIT_INVALID_INPUT
        assert "error[invalid-input]" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["ssd", "ssd-approx", "fb-edmd"])
    def test_rounding_passes_and_a_moved_coefficient_fails(self, linear3, tmp_path,
                                                           method):
        def scaled(result):
            result.update(_scale_floats(result, 1.0 + 1e-12))

        def moved(result):
            result["evolutions"][0]["coefficients_re"][1] += 1e-6

        assert _verify_edited(linear3, tmp_path, method, scaled) == cli.EXIT_OK
        assert _verify_edited(linear3, tmp_path, method, moved) == cli.EXIT_VERIFY_FAILED


    @pytest.mark.parametrize("method", ["ssd", "fb-edmd"])
    def test_any_basis_of_a_repeated_eigenvalue_verifies(self, tmp_path, method):
        # a rotation: 1 and x1^2 + x2^2 share the eigenvalue 1, and so do
        # z and z |z|^2 (z = x1 + i x2) their non-real one, so each
        # eigenspace has a basis of the identifier's choosing
        snap, out = tmp_path / "rot.csv", tmp_path / "rot.json"
        assert cli.main(["generate", "--system", "linear", "--A", "0.6,-0.8,0.8,0.6",
                         "--n", "2000", "--box", "-2,2,-2,2", "--seed", "3",
                         "--out", str(snap)]) == 0
        assert cli.main(["identify", "--snapshots", str(snap), "--degree", "3",
                         "--method", method, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        entries = result["evolutions"]
        lams = [complex(e["lambda_re"], e["lambda_im"]) for e in entries]
        for target in (1.0, 0.6 + 0.8j, 0.6 - 0.8j):
            a, b = [i for i, lam in enumerate(lams) if abs(lam - target) < 1e-9]
            va, vb = (np.array(entries[i]["coefficients_re"])
                      + 1j * np.array(entries[i]["coefficients_im"]) for i in (a, b))
            # a unitary change of basis inside the eigenspace
            for i, v in ((a, 0.6 * va + 0.8 * vb), (b, -0.8 * va + 0.6 * vb)):
                entries[i].update(coefficients_re=list(v.real), coefficients_im=list(v.imag))
        out.write_text(json.dumps(result))
        assert cli.main(["verify", str(out), str(snap)]) == cli.EXIT_OK
        entries[a]["coefficients_re"][1] += 1e-6
        out.write_text(json.dumps(result))
        assert cli.main(["verify", str(out), str(snap)]) == cli.EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("method", ["ssd", "fb-edmd"])
    def test_stored_evolutions_in_another_order_verify(self, linear3, tmp_path, method):
        # identify stores them by descending real part, conjugate pairs
        # adjacent and +Im first; verify puts the stored ones in that order
        lams = [complex(e["lambda_re"], e["lambda_im"])
                for e in linear3[1][method]["evolutions"]]
        assert lams == [ev.eigenvalue for ev in koopid.edmd.sort_evolutions(
            [koopid.MatchedEvolution(lam, None, 0.0, 0.0, 0.0) for lam in lams])]
        assert [lam.real for lam in lams] == sorted((lam.real for lam in lams), reverse=True)

        def reverse(result):
            result["evolutions"].reverse()

        assert _verify_edited(linear3, tmp_path, method, reverse) == cli.EXIT_OK


class TestStreamedFactor:
    @pytest.mark.parametrize("twin", ["kept", "deleted"])
    @pytest.mark.parametrize("rows", [63, 64, 65, 3 * 64 + 7])
    def test_cli_factor_is_the_in_memory_factor(self, tmp_path, monkeypatch,
                                                small_blocks, rows, twin):
        # the reader's 50-row blocks straddle the factor's 64-row ones
        monkeypatch.setattr(koopid.systems, "_READ_BYTES", 50 * 32)
        factors = []
        evaluate_factor = koopid.dictionary.evaluate_factor

        def recorded(*args):
            factors.append(evaluate_factor(*args))
            return factors[-1]

        monkeypatch.setattr(cli.dict_mod, "evaluate_factor", recorded)
        snap = tmp_path / "snap.csv"
        assert cli.main(["generate", "--system", "linear", "--A", "0.8,0.5,-0.5,0.8",
                         "--n", str(rows), "--box", "-2,2,-2,2", "--seed", "3",
                         "--out", str(snap)]) == 0
        if twin == "deleted":
            snap.with_suffix(".snapshots.npy").unlink()
        out = tmp_path / "result.json"
        assert cli.main(["identify", "--snapshots", str(snap), "--degree", "3",
                         "--method", "ssd", "--out", str(out)]) == 0
        assert cli.main(["verify", str(out), str(snap)]) == 0
        assert json.loads(out.read_text())["snapshots"]["count"] == rows
        data = koopid.generate(koopid.SystemSpec.discrete_linear(
            [[0.8, 0.5], [-0.5, 0.8]], [(-2, 2), (-2, 2)], seed=3), rows)
        expected = evaluate_factor(koopid.monomials_up_to_degree(2, 3), data.X, data.Y)
        assert len(factors) == 2
        for factor in factors:
            assert np.array_equal(factor.RX, expected.RX)
            assert np.array_equal(factor.RY, expected.RY)


class TestConfigFile:
    def test_config_supplies_defaults(self, workdir):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({
            "snapshots": str(workdir / "snap.csv"),
            "dict_file": str(workdir / "dict9.json"),
            "method": "ssd",
        }))
        out = workdir / "from_config.json"
        code = cli.main(["identify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ssd"]["subspace_dim"] == 6

    def test_cli_flags_override_config(self, workdir):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({
            "snapshots": str(workdir / "snap.csv"),
            "dict_file": str(workdir / "dict9.json"),
            "method": "ssd",
        }))
        out = workdir / "override.json"
        code = cli.main(["identify", "--config", str(cfg),
                         "--method", "fb-edmd", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["method"] == "fb-edmd"

    def test_unknown_key_is_named(self, workdir, capsys):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({"methd": "ssd"}))
        assert cli.main(["identify", "--config", str(cfg)]) == cli.EXIT_INVALID_INPUT
        assert "config key 'methd' is not a known option" in capsys.readouterr().err

    def test_verify_takes_no_config(self, workdir):
        # verify has no options for a config file to supply
        cfg = workdir / "run.json"
        cfg.write_text("{}")
        _, out = run_identify(workdir, "--method", "ssd")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--config", str(cfg), str(out), str(workdir / "snap.csv")])
        assert excinfo.value.code == 2

    def test_config_belongs_to_the_subcommand(self, workdir):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({"method": "ssd"}))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--config", str(cfg), "identify"])
        assert excinfo.value.code == cli.EXIT_INVALID_INPUT


_DELETE = object()


class TestMalformedInputs:
    """Malformed JSON inputs exit 2 with error[invalid-input], never with a
    traceback or the verification-failed code."""

    @pytest.mark.parametrize("keys, value", [
        (("evolutions", 0, "lambda_re"), _DELETE),
        (("ssd", "mode"), _DELETE),
        (("ssd", "C", 0, 0), "x"),
        (("evolutions", 0, "coefficients_re"), "abc"),
        (("evolutions",), {"lambda_re": 1.0}),
        (("dictionary", "exponents", 1, 0), "a"),
    ], ids=["evolution-without-lambda_re", "ssd-without-mode", "non-numeric-C",
            "string-coefficients", "evolutions-object", "non-numeric-stored-exponent"])
    def test_malformed_result_field(self, workdir, capsys, keys, value):
        _, out = run_identify(workdir, "--method", "ssd")
        result = json.loads(out.read_text())
        *parents, last = keys
        target = functools.reduce(operator.getitem, parents, result)
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        out.write_text(json.dumps(result))
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_INVALID_INPUT
        assert "error[invalid-input]" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor", [
        {"state_dim": 2},
        {"state_dim": "x", "exponents": [[0, 0]]},
        {"state_dim": 2, "exponents": 5},
        {"state_dim": 2, "exponents": [[0, 0], [1, "a"]]},
        {"state_dim": 2, "exponents": [[0, 0], [1, 0]], "coeffs": [[1.0], ["b"]]},
    ], ids=["no-exponents", "string-state_dim", "number-exponents",
            "non-numeric-exponent", "non-numeric-coefficient"])
    def test_malformed_dict_file(self, workdir, capsys, descriptor):
        (workdir / "dict9.json").write_text(json.dumps(descriptor))
        code, _ = run_identify(workdir, "--method", "ssd")
        assert code == cli.EXIT_INVALID_INPUT
        assert "error[invalid-input]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("identify", "rank_rtol", "tiny"),
        ("identify", "method", "nope"),
        ("generate", "box", [-2, 2, -2, 2]),
    ])
    def test_config_value_of_the_wrong_type_names_its_key(self, workdir, capsys,
                                                          command, key, value):
        # every other option the command needs is given, so only the bad
        # value can stop it
        options = {
            "identify": {"snapshots": str(workdir / "snap.csv"), "method": "ssd",
                         "dict_file": str(workdir / "dict9.json"),
                         "out": str(workdir / "r.json")},
            "generate": {"system": "linear", "A": "1,0,0,1", "n": 10,
                         "out": str(workdir / "g.csv")},
        }[command]
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({**options, key: value}))
        code = cli.main([command, "--config", str(cfg)])
        assert code == cli.EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "error[invalid-input]" in err and repr(key) in err

    @pytest.mark.parametrize("where", ["flag", "stored"])
    def test_infinite_tolerance(self, workdir, capsys, where):
        # an infinite eig_match_atol would pass any data defect
        if where == "flag":
            code, _ = run_identify(workdir, "--method", "fb-edmd", "--eig-atol", "inf")
        else:
            _, out = run_identify(workdir, "--method", "fb-edmd")
            result = json.loads(out.read_text())
            result["tolerances"]["eig_match_atol"] = float("inf")
            for entry in result["evolutions"]:
                entry["lambda_re"] += 0.3
            out.write_text(json.dumps(result))
            code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_INVALID_INPUT
        assert "error[invalid-input]" in capsys.readouterr().err

    # an infinite stored bound passes its check whatever the data: even
    # with every eigenvalue moved off the data by 0.3, or a wrong e_r or
    # angle, verify would pass
    @pytest.mark.parametrize("method, field", [
        ("ssd", "data_defect"), ("ssd", "e_r"), ("fb-edmd", "e_r"),
        ("ssd-approx", "ssd.max_range_angle")])
    def test_non_finite_stored_bound(self, workdir, capsys, method, field):
        extra = ["--eps", "1e-4"] if method == "ssd-approx" else []
        _, out = run_identify(workdir, "--method", method, *extra)
        result = json.loads(out.read_text())
        if field == "data_defect":
            for entry in result["evolutions"]:
                entry["lambda_re"] += 0.3
                entry["data_defect"] = float("inf")
        elif field == "e_r":
            result["e_r"] = float("inf")
        else:
            result["ssd"]["max_range_angle"] = float("inf")
        out.write_text(json.dumps(result))
        code = cli.main(["verify", str(out), str(workdir / "snap.csv")])
        assert code == cli.EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "error[invalid-input]" in err and repr(field) in err

    def test_config_value_is_converted_like_its_flag(self, workdir):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({"rank_rtol": "1e-10", "grid_resolution": "5"}))
        code, out = run_identify(workdir, "--config", str(cfg), "--method", "ssd",
                                 "--grid-box", "-2,2,-2,2")
        assert code == 0
        result = json.loads(out.read_text())
        assert result["tolerances"]["rank_rtol"] == 1e-10
        assert {g["resolution"] for g in result["grids"]} == {5}


_IDENTIFY = ["identify", "--snapshots", "{d}/snap.csv", "--dict-file", "{d}/dict9.json",
             "--method", "ssd", "--out", "{d}/result.json"]


class TestFileFailures:
    """A file the CLI cannot read or write is an I/O error (exit 4) that
    names what was being done; a file that is not UTF-8 text is invalid
    input (exit 2).  Neither ends in a traceback."""

    # (the argv, "{d}" standing for the directory; the path that is made a
    # directory, or for the grid a file; the message)
    @pytest.mark.parametrize("argv, target, message", [
        (GEN_LINEAR + ["--out", "{d}/new.csv"], "new.csv", "cannot write CSV file"),
        (GEN_LINEAR + ["--out", "{d}/new.csv"], "new.snapshots.npy",
         "cannot write binary snapshot file"),
        (GEN_LINEAR + ["--out", "{d}/new.csv"], "new.provenance.json",
         "cannot write provenance file"),
        (_IDENTIFY, "result.json", "cannot write result file"),
        (_IDENTIFY + ["--grid-box", "-2,2,-2,2", "--out-dir", "{d}/grids"], "grids",
         "cannot create grid directory"),
        (_IDENTIFY, "snap.csv", "cannot read snapshot file"),
        (["verify", "{d}/result.json", "{d}/snap.csv"], "result.json",
         "cannot read result file"),
        (["identify", "--config", "{d}/run.json"], "run.json", "cannot read config file"),
        (_IDENTIFY, "dict9.json", "cannot read dictionary file"),
    ], ids=["csv", "binary-twin", "provenance", "result", "grid-directory", "snapshots",
            "verify-result", "config", "dictionary"])
    def test_an_unusable_path_is_an_io_error_naming_the_action(self, workdir, capsys,
                                                              argv, target, message):
        path = workdir / target
        if path.exists():
            path.unlink()
        if target == "grids":
            path.write_text("")
        else:
            path.mkdir()
        code = cli.main([arg.replace("{d}", str(workdir)) for arg in argv])
        assert code == cli.EXIT_IO_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error[io-error]: {message}: [Errno ")
        assert err.endswith(f" {str(path)!r}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, target", [
        (["verify", "{d}/result.json", "{d}/snap.csv"], "result.json"),
        (["identify", "--config", "{d}/run.json"], "run.json"),
        (_IDENTIFY, "dict9.json"),
    ], ids=["verify-result", "config", "dictionary"])
    def test_a_file_that_is_not_utf8_is_invalid_input(self, workdir, capsys, argv, target):
        path = workdir / target
        path.write_bytes(b'{"method": "\xff"}')
        code = cli.main([arg.replace("{d}", str(workdir)) for arg in argv])
        assert code == cli.EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(
            f"error[invalid-input]: {path}: 'utf-8' codec can't decode byte 0xff ")


def test_span_gap_needs_full_column_rank_in_as_many_columns(tol):
    rng = np.random.Generator(np.random.PCG64(5))
    Q = rng.standard_normal((8, 3))
    assert cli._span_gap(Q @ rng.standard_normal((3, 3)), Q, tol) <= tol.subspace_atol
    # a column that combines the others spans no more, in either argument
    dependent = np.column_stack([Q[:, :2], Q[:, 0] + Q[:, 1]])
    assert cli._span_gap(dependent, Q, tol) == np.inf
    assert cli._span_gap(dependent, dependent, tol) == np.inf
    assert cli._span_gap(Q[:, :2], Q, tol) == np.inf
    assert cli._span_gap(np.zeros((8, 0)), np.zeros((8, 0)), tol) == 0.0
    # a gap beyond the bound is reported as it is
    assert tol.subspace_atol < cli._span_gap(rng.standard_normal((8, 3)), Q, tol) < np.inf


def test_tolerance_defaults_follow_tolerance_config():
    defaults = cli._build_parser()[0].parse_args(["identify"])
    config = koopid.ToleranceConfig()
    assert defaults.rank_rtol == config.rank_rtol
    assert defaults.eig_atol == config.eig_match_atol
    assert defaults.subspace_atol == config.subspace_atol


def _package_imports(tree):
    """``(module, name, alias)`` for every ``from`` import of koopid in a
    module's AST; ``name`` is None when the import binds the module itself."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "koopid":
                continue
            module = module.partition(".")[2]
        for a in node.names:
            if module:
                yield module.split(".")[0], a.name, a.asname or a.name
            else:
                yield a.name, None, a.asname or a.name


def test_only_the_front_ends_reach_past_the_public_api():
    # identify and verify reach each method through the library calls the
    # README documents; the one private name the CLI reads is the guard that
    # stops a huge --degree before its monomials are built.  Snapshot and
    # grid I/O is imported only by the front ends.
    package = pathlib.Path(koopid.__file__).resolve().parent
    allowed = {("edmd", "_require_samples")}
    private, systems_importers = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = list(_package_imports(tree))
        if (path.stem not in ("cli", "__init__")
                and any(m == "systems" for m, _, _ in imports)):
            systems_importers.append(path.stem)
        if path.stem != "cli":
            continue
        private += [(m, n) for m, n, _ in imports
                    if n is not None and n.startswith("_") and (m, n) not in allowed]
        modules = {alias: m for m, n, alias in imports if n is None}
        private += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")
                    and (modules[node.value.id], node.attr) not in allowed]
    assert (private, systems_importers) == ([], [])


def test_only_the_error_module_makes_an_io_error():
    # a failed read or write becomes an ArtifactIOError through the one
    # rule of errors.artifact_io, so no other module constructs one
    package = pathlib.Path(koopid.__file__).resolve().parent
    makers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "ArtifactIOError":
                    makers.append(path.stem)
    assert makers == ["errors"]


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: the package runs on numpy alone.  Nor
    # does it load hashlib and OpenSSL (_hashlib), which cost 3.5 MB of RSS:
    # its checksums are zlib's CRC-32, and reading a snapshot CSV through its
    # binary twin loads nothing more.  The thread pool of the CSV writer is
    # imported only when it has more than one chunk to format, so writing the
    # one-chunk grid of identify does not load it either, and no write loads
    # multiprocessing.  Importing it looks up neither the BLAS's thread-count
    # setter nor LAPACK's dgeqrt (numpy itself has loaded ctypes by then).
    snap = tmp_path / "snap.csv"
    assert cli.main(GEN_LINEAR + ["--out", str(snap)]) == 0
    src = pathlib.Path(koopid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, koopid\n"
             "def loaded():\n"
             "    return sorted(m for m in sys.modules if m in ('scipy', 'hashlib', '_hashlib',\n"
             "                  'multiprocessing', 'concurrent.futures')\n"
             "                  or m.startswith('scipy.'))\n"
             "numerics = koopid.numerics\n"
             "print(loaded(), numerics._thread_setter.cache_info().currsize,\n"
             "      numerics._dgeqrt.cache_info().currsize)\n"
             "koopid.systems.np.loadtxt = None  # read the twin, not the text\n"
             "snapshots = koopid.read_snapshot_csv(sys.argv[1])\n"
             "print(snapshots.count, loaded())\n"
             "koopid.write_snapshot_csv(snapshots, sys.argv[2])\n"
             "print(loaded())\n"
             "koopid.systems._usable_cpus = lambda: 2\n"
             "long = koopid.SnapshotSet(X=snapshots.X.repeat(9, axis=0),\n"
             "                          Y=snapshots.Y.repeat(9, axis=0))\n"
             "koopid.write_snapshot_csv(long, sys.argv[2])\n"
             "print(long.count, loaded())\n")
    out = subprocess.run([sys.executable, "-c", probe, str(snap), str(tmp_path / "copy.csv")],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == ["[] 0 0", "2000 []", "[]",
                                       "18000 ['concurrent.futures']"]


@pytest.fixture()
def blas_threads():
    """Reads OpenBLAS's thread count, which is 2 when the test starts."""
    setter = koopid.numerics._thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    before = setter(2)

    def count():
        current = setter(1)
        setter(current)
        return current

    yield count
    setter(before)


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "error-exit"])
@pytest.mark.parametrize("command", ["generate", "identify", "verify"])
def test_a_command_runs_at_one_blas_thread_and_restores_the_count(workdir, blas_threads,
                                                                  monkeypatch, command, fails):
    # the sampling of generate and the decomposition of identify and verify
    # run at one thread, and the count the process had comes back however
    # main ends
    snap = str(workdir / "snap.csv")
    _, result = run_identify(workdir, "--method", "ssd-approx", "--eps", "1e-4")
    argv = {"generate": GEN_LINEAR + ["--out", str(workdir / "again.csv")],
            "identify": ["identify", "--snapshots", snap, "--degree", "3", "--method",
                         "ssd-approx", "--eps", "1e-4", "--out", str(workdir / "r.json")],
            "verify": ["verify", str(result), snap]}[command]
    module, name = (koopid.systems, "generate") if command == "generate" else (cli, "approximate_ssd")
    inner, seen = getattr(module, name), []

    def recording(*args):
        seen.append(blas_threads())
        if fails:
            raise koopid.AssumptionViolation("stopped inside the command")
        return inner(*args)

    monkeypatch.setattr(module, name, recording)
    assert blas_threads() == 2
    assert cli.main(argv) == (cli.EXIT_ASSUMPTION_VIOLATION if fails else cli.EXIT_OK)
    assert seen == [1] and blas_threads() == 2


@pytest.fixture(scope="module")
def vdp_1e5(tmp_path_factory):
    snap = tmp_path_factory.mktemp("vdp") / "vdp.csv"
    assert cli.main(["generate", "--system", "vanderpol", "--dt", "5e-3",
                     "--box", "-4,4,-4,4", "--n", "100000", "--seed", "7",
                     "--out", str(snap)]) == 0
    return snap


@pytest.mark.parametrize("method", [["ssd-approx", "--eps", "1e-4"], ["fb-edmd"]],
                         ids=["ssd-approx", "fb-edmd"])
def test_result_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, vdp_1e5, method):
    # the factor of 49 leaves runs at one BLAS thread, so identify writes the
    # same bytes at 1 and 2 OpenBLAS threads; at each BLAS's own count the
    # last bits of the factor, and with them the result's numbers, differ
    if koopid.numerics._thread_setter() is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    src = pathlib.Path(koopid.__file__).resolve().parent.parent
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"result{threads}.json"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "koopid", "identify", "--snapshots",
                        str(vdp_1e5), "--degree", "7", "--method", *method,
                        "--out", str(out)], env=env, capture_output=True, timeout=120,
                       check=True)
        results.append(out.read_bytes())
    assert results[0] == results[1]
