import functools
import json
import operator
import os
import pathlib
import subprocess
import sys

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

    def test_grid_eigenvalue_selector_must_match(self, workdir):
        code, _ = run_identify(workdir, "--method", "ssd",
                               "--grid-box", "-2,2,-2,2",
                               "--grid-eigenvalues", "3.5")
        assert code == cli.EXIT_INVALID_INPUT

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

    def test_config_value_is_converted_like_its_flag(self, workdir):
        cfg = workdir / "run.json"
        cfg.write_text(json.dumps({"rank_rtol": "1e-10", "grid_resolution": "5"}))
        code, out = run_identify(workdir, "--config", str(cfg), "--method", "ssd",
                                 "--grid-box", "-2,2,-2,2")
        assert code == 0
        result = json.loads(out.read_text())
        assert result["tolerances"]["rank_rtol"] == 1e-10
        assert {g["resolution"] for g in result["grids"]} == {5}


def test_tolerance_defaults_follow_tolerance_config():
    defaults = cli._build_parser()[0].parse_args(["identify"])
    config = koopid.ToleranceConfig()
    assert defaults.rank_rtol == config.rank_rtol
    assert defaults.eig_atol == config.eig_match_atol
    assert defaults.subspace_atol == config.subspace_atol


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: the package runs on numpy alone.  Nor
    # does it load OpenSSL (_hashlib): its checksums are zlib's CRC-32, and
    # reading a snapshot CSV through its binary twin loads nothing more.  The
    # process pool of the CSV writer is imported only when it has more than
    # one chunk to format, so writing the one-chunk grid of identify does not
    # load it either.
    snap = tmp_path / "snap.csv"
    assert cli.main(GEN_LINEAR + ["--out", str(snap)]) == 0
    src = pathlib.Path(koopid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, koopid\n"
             "def loaded():\n"
             "    return sorted(m for m in sys.modules if m in ('scipy', '_hashlib',\n"
             "                  'multiprocessing', 'concurrent.futures')\n"
             "                  or m.startswith('scipy.'))\n"
             "print(loaded())\n"
             "koopid.systems.np.loadtxt = None  # read the twin, not the text\n"
             "snapshots = koopid.read_snapshot_csv(sys.argv[1])\n"
             "print(snapshots.count, loaded())\n"
             "koopid.write_snapshot_csv(snapshots, sys.argv[2])\n"
             "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", probe, str(snap), str(tmp_path / "copy.csv")],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == ["[]", "2000 []", "[]"]
