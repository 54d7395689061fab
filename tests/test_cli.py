import json
import math
import os

import numpy as np
import pytest

import proxdeconv.cli as cli_module
import proxdeconv.deconv as deconv_module
from proxdeconv import Image
from proxdeconv.cli import _dump_json, main
from proxdeconv.rasters import read_raster, write_raster


@pytest.fixture
def workspace(tmp_path):
    """Truth, identity PSF, and a small count raster on disk."""
    truth = np.zeros((6, 6))
    truth[1:4, 2:5] = [[3, 0, 7], [0, 5, 0], [9, 0, 4]]
    counts = truth.copy()  # integer-valued, doubles as a noiseless count map
    paths = {
        "truth": str(tmp_path / "truth.f64"),
        "psf": str(tmp_path / "psf.f64"),
        "counts": str(tmp_path / "counts.pgm"),
        "dir": tmp_path,
    }
    write_raster(paths["truth"], Image.from_2d(truth))
    write_raster(paths["psf"], Image.from_2d([[1.0]]))
    write_raster(paths["counts"], Image.from_2d(counts))
    return paths


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_runs_are_byte_identical(self, workspace, capsys):
        out_a = str(workspace["dir"] / "sim_a.pgm")
        out_b = str(workspace["dir"] / "sim_b.pgm")
        base = ["simulate", "--input", workspace["truth"], "--psf",
                workspace["psf"], "--peak", "30", "--seed", "4"]
        assert main(base + ["--out", out_a]) == 0
        assert main(base + ["--out", out_b]) == 0
        assert _read_bytes(out_a) == _read_bytes(out_b)
        assert _read_bytes(out_a + ".prov.json") \
            == _read_bytes(out_b + ".prov.json")
        assert "wrote" in capsys.readouterr().out

    def test_provenance_sidecar(self, workspace):
        out = str(workspace["dir"] / "sim.pgm")
        main(["simulate", "--input", workspace["truth"], "--psf",
              workspace["psf"], "--peak", "30", "--seed", "4", "--out", out])
        with open(out + ".prov.json") as fh:
            prov = json.load(fh)
        assert prov["seed"] == 4
        assert prov["peak"] == 30.0
        assert prov["width"] == 6 and prov["height"] == 6
        assert len(prov["psf_sha256"]) == 64

    def test_replicates_fan_out_with_sequential_seeds(self, workspace):
        out = str(workspace["dir"] / "rep.pgm")
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "30", "--seed", "5",
                     "--replicates", "3", "--out", out])
        assert code == 0
        seeds = []
        for k in range(3):
            path = str(workspace["dir"] / f"rep_{k:03d}.pgm")
            assert read_raster(path).n == 36
            with open(path + ".prov.json") as fh:
                seeds.append(json.load(fh)["seed"])
        assert seeds == [5, 6, 7]

    @pytest.mark.parametrize("sample", [math.nan, math.inf])
    def test_non_finite_truth_is_named(self, workspace, capsys, sample):
        truth = np.ones((6, 6))
        truth[2, 3] = sample
        write_raster(workspace["truth"], Image.from_2d(truth))
        out = str(workspace["dir"] / "sim.pgm")
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "30", "--out", out])
        assert code == 1
        assert "truth image must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_replicates_without_an_extension(self, workspace, capsys):
        out = str(workspace["dir"] / "rep")
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "30", "--replicates", "2",
                     "--out", out])
        assert code == 0
        for k in range(2):
            assert read_raster(f"{out}_{k:03d}").n == 36
            assert os.path.exists(f"{out}_{k:03d}.prov.json")
        capsys.readouterr()

    @pytest.mark.parametrize("out, stem, ext", [
        ("runs.v2/counts", "runs.v2/counts", ""),
        ("runs.v2/counts.pgm", "runs.v2/counts", ".pgm"),
        ("out/.hidden", "out/.hidden", ""),
    ])
    def test_replicates_split_the_file_name(self, workspace, capsys, out,
                                            stem, ext):
        # The extension is the file name's own, never a dot in a directory
        # name, and a leading dot marks a hidden file, not an extension.
        base, folder = workspace["dir"], os.path.dirname(out)
        before = set(os.listdir(base))
        os.makedirs(base / folder)
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "30", "--replicates", "2",
                     "--out", str(base / out)])
        assert code == 0
        names = [f"{stem}_{k:03d}{ext}" for k in range(2)]
        for name in names:
            assert read_raster(str(base / name)).n == 36
            assert os.path.exists(base / (name + ".prov.json"))
        # Nothing lands elsewhere: no stray directory or file name.
        prefixes = tuple(os.path.basename(name) for name in names)
        assert all(entry.startswith(prefixes)
                   for entry in os.listdir(base / folder))
        assert set(os.listdir(base)) == before | {folder}
        capsys.readouterr()

    def test_malformed_sidecar_is_a_usage_error(self, workspace, capsys):
        with open(workspace["truth"] + ".json", "w") as fh:
            json.dump({"dtype": "f64-le", "height": 6}, fh)
        out = str(workspace["dir"] / "x.pgm")
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "30", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and workspace["truth"] in err
        assert not os.path.exists(out)

    def test_bad_peak_is_a_usage_error(self, workspace, capsys):
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "0", "--out",
                     str(workspace["dir"] / "x.pgm")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestDeconvolve:
    def _run(self, workspace, out_name, extra):
        out = str(workspace["dir"] / out_name)
        argv = ["deconvolve", "--counts", workspace["counts"], "--psf",
                workspace["psf"], "--dict", "dirac", "--out", out] + extra
        return main(argv), out

    def test_gamma_flag_is_required(self, workspace, capsys):
        code, _ = self._run(workspace, "x.f64", [])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_gamma_and_grid_are_exclusive(self, workspace, capsys):
        code, _ = self._run(workspace, "x.f64",
                            ["--gamma", "0.5", "--gamma-grid", "0.1,0.5"])
        assert code == 1
        capsys.readouterr()

    def test_converged_run_exits_zero_and_writes_metrics(self, workspace):
        code, out = self._run(workspace, "rest.f64",
                              ["--gamma", "0.5", "--iters", "3000",
                               "--tol", "1e-8"])
        assert code == 0
        with open(out + ".metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["converged"] is True
        assert metrics["relative_change_trace"][-1] <= 1e-8
        assert metrics["gamma"] == 0.5
        assert read_raster(out).n == 36

    @pytest.mark.parametrize("prior", ["synthesis", "analysis"])
    def test_objective_trace_is_finite(self, workspace, prior):
        # The blur through the FFT leaves intensities of about -3e-16 at
        # the zero-count pixels; that round-off is not outside the domain.
        code, out = self._run(workspace, "trace.f64",
                              ["--gamma", "0.5", "--prior", prior])
        assert code == 0
        with open(out + ".metrics.json") as fh:
            trace = json.load(fh)["objective_trace"]
        assert trace and None not in trace

    @pytest.mark.parametrize("mu", ["0", "-3"])
    def test_mu_is_accepted_and_ignored(self, workspace, mu):
        # Both priors take their step from the mean count, so --mu changes
        # nothing, and a value no step could take does not fail the run.
        flags = ["--gamma", "0.5", "--iters", "20", "--no-timing"]
        code, out = self._run(workspace, "mu.f64", flags + ["--mu", mu])
        plain_code, plain = self._run(workspace, "plain.f64", flags)
        assert code == plain_code
        for suffix in ("", ".metrics.json"):
            assert _read_bytes(out + suffix) == _read_bytes(plain + suffix)

    def test_iteration_cap_exits_two(self, workspace):
        code, out = self._run(workspace, "capped.f64",
                              ["--gamma", "0.5", "--iters", "2",
                               "--tol", "1e-14"])
        assert code == 2
        with open(out + ".metrics.json") as fh:
            assert json.load(fh)["converged"] is False

    def test_priors_agree_for_dirac(self, workspace):
        _, out_syn = self._run(workspace, "syn.f64",
                               ["--gamma", "0.5", "--iters", "4000",
                                "--tol", "1e-10", "--prior", "synthesis"])
        _, out_ana = self._run(workspace, "ana.f64",
                               ["--gamma", "0.5", "--iters", "4000",
                                "--tol", "1e-10", "--prior", "analysis"])
        gap = np.max(np.abs(read_raster(out_syn).data
                            - read_raster(out_ana).data))
        assert gap <= 1e-5

    def test_grid_selection_prints_the_winner(self, workspace, capsys):
        code, out = self._run(workspace, "grid.f64",
                              ["--gamma-grid", "0.000001,2.0",
                               "--iters", "3000", "--tol", "1e-10"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "selected_gamma=1e-06" in stdout
        with open(out + ".metrics.json") as fh:
            assert json.load(fh)["gamma"] == 1e-6

    def test_grid_writes_the_fixed_gamma_restoration(self, workspace, capsys):
        flags = ["--iters", "300", "--no-timing"]
        code, grid = self._run(workspace, "grid.f64",
                               ["--gamma-grid", "0.1,0.5"] + flags)
        stdout = capsys.readouterr().out
        selected = stdout.split("selected_gamma=")[1].split()[0]
        fixed_code, fixed = self._run(workspace, "fixed.f64",
                                      ["--gamma", selected] + flags)
        assert code == fixed_code
        for suffix in ("", ".json", ".metrics.json"):
            assert _read_bytes(grid + suffix) == _read_bytes(fixed + suffix)

    def test_no_timing_zeroes_the_wall_clock(self, workspace):
        code, out = self._run(workspace, "nt.f64",
                              ["--gamma", "0.5", "--iters", "500",
                               "--no-timing"])
        assert code in (0, 2)
        with open(out + ".metrics.json") as fh:
            assert json.load(fh)["wall_time_s"] == 0.0

    def test_custom_metrics_path(self, workspace):
        metrics = str(workspace["dir"] / "m.json")
        code, _ = self._run(workspace, "cm.f64",
                            ["--gamma", "0.5", "--iters", "500",
                             "--metrics", metrics])
        assert code in (0, 2)
        with open(metrics) as fh:
            assert "iterations" in json.load(fh)

    def test_unknown_dictionary_spec_fails_cleanly(self, workspace, capsys):
        out = str(workspace["dir"] / "x.f64")
        code = main(["deconvolve", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "wavelet:levels=2",
                     "--gamma", "0.5", "--out", out])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_counts_fail_before_any_solve(self, workspace, capsys,
                                                    monkeypatch):
        counts = np.zeros((6, 6))
        counts[2, 3] = math.inf
        path = str(workspace["dir"] / "inf.f64")
        write_raster(path, Image.from_2d(counts))
        solves = []
        monkeypatch.setattr("proxdeconv.cli.deconvolve", solves.append)
        code = main(["deconvolve", "--counts", path, "--psf", workspace["psf"],
                     "--dict", "dirac", "--gamma", "0.5",
                     "--out", str(workspace["dir"] / "x.f64")])
        assert code == 1
        assert solves == []
        assert "error" in capsys.readouterr().err

    def test_theta_outside_range_fails_cleanly(self, workspace, capsys):
        code, _ = self._run(workspace, "x.f64",
                            ["--gamma", "0.5", "--theta", "2.0"])
        assert code == 1
        capsys.readouterr()


class TestOneSolvePerGamma:
    @pytest.mark.parametrize("command", ["deconvolve", "gcv-scan"])
    def test_each_grid_point_is_solved_once(self, workspace, monkeypatch,
                                            command):
        solved = []
        original = deconv_module.deconvolve

        def counted(problem):
            solved.append(problem.gamma)
            return original(problem)

        monkeypatch.setattr(deconv_module, "deconvolve", counted)
        monkeypatch.setattr(cli_module, "deconvolve", counted)
        code = main([command, "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac",
                     "--gamma-grid", "0.1,0.5", "--iters", "300",
                     "--out", str(workspace["dir"] / "x.out")])
        assert code in (0, 2)
        assert solved == [0.1, 0.5]


class TestEvaluate:
    def test_identical_rasters_score_zero(self, workspace, capsys):
        code = main(["evaluate", "--restored", workspace["truth"],
                     "--truth", workspace["truth"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mae"] == 0.0
        assert doc["files"][0]["path"] == workspace["truth"]

    def test_constant_shift_and_means(self, tmp_path, capsys):
        truth = str(tmp_path / "t.f64")
        write_raster(truth, Image.from_2d(np.full((2, 2), 5.0)))
        a = str(tmp_path / "est_a.f64")
        b = str(tmp_path / "est_b.f64")
        write_raster(a, Image.from_2d(np.full((2, 2), 6.0)))
        write_raster(b, Image.from_2d(np.full((2, 2), 8.0)))

        assert main(["evaluate", "--restored", a, "--truth", truth]) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == 1.0

        pattern = str(tmp_path / "est_*.f64")
        assert main(["evaluate", "--glob", pattern, "--truth", truth]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mae"] == 2.0
        assert doc["relative_mae"] == pytest.approx(0.4)
        assert len(doc["files"]) == 2

    def test_out_file_replaces_stdout(self, workspace, capsys):
        out = str(workspace["dir"] / "eval.json")
        code = main(["evaluate", "--restored", workspace["truth"],
                     "--truth", workspace["truth"], "--out", out])
        assert code == 0
        assert capsys.readouterr().out == ""
        with open(out) as fh:
            assert json.load(fh)["mae"] == 0.0

    def test_empty_glob_is_an_error(self, workspace, capsys):
        code = main(["evaluate", "--glob",
                     str(workspace["dir"] / "missing_*.f64"),
                     "--truth", workspace["truth"]])
        assert code == 1
        assert "no files match" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["restored", "truth"])
    def test_non_finite_raster_is_named(self, workspace, capsys, bad):
        paths = {"restored": str(workspace["dir"] / "restored.f64"),
                 "truth": workspace["truth"]}
        write_raster(paths["restored"], Image.from_2d(np.ones((6, 6))))
        image = np.ones((6, 6))
        image[0, 1] = math.nan
        write_raster(paths[bad], Image.from_2d(image))
        out = str(workspace["dir"] / "eval.json")
        code = main(["evaluate", "--restored", paths["restored"],
                     "--truth", paths["truth"], "--out", out])
        assert code == 1
        assert f"{paths[bad]}: raster has non-finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("shape", [(4, 9), (2, 3)],
                             ids=["same-pixel-count", "other-pixel-count"])
    def test_grid_mismatch_names_both_files(self, workspace, capsys, shape):
        restored = str(workspace["dir"] / "restored.f64")
        write_raster(restored, Image.from_2d(np.ones(shape)))
        code = main(["evaluate", "--restored", restored,
                     "--truth", workspace["truth"]])
        assert code == 1
        err = capsys.readouterr().err
        assert restored in err and workspace["truth"] in err


class TestGcvScan:
    def test_csv_table_and_selection(self, workspace, capsys):
        out = str(workspace["dir"] / "scan.csv")
        code = main(["gcv-scan", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac",
                     "--gamma-grid", "0.000001,2.0", "--iters", "3000",
                     "--tol", "1e-10", "--out", out])
        assert code == 0
        assert "selected_gamma=1e-06" in capsys.readouterr().out
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "gamma,gcv"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1e-6

    def test_truth_adds_an_mae_column(self, workspace):
        out = str(workspace["dir"] / "scan_mae.csv")
        code = main(["gcv-scan", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac",
                     "--gamma-grid", "0.000001", "--iters", "3000",
                     "--tol", "1e-10", "--truth", workspace["truth"],
                     "--out", out])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "gamma,gcv,mae"
        assert float(lines[1].split(",")[2]) <= 1e-5

    def test_wrong_size_truth_fails_before_any_solve(self, workspace, capsys,
                                                     monkeypatch):
        truth = str(workspace["dir"] / "small.f64")
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        # 4x9 holds the counts' 36 pixels on another grid.
        for shape in ((5, 6), (4, 9)):
            write_raster(truth, Image.from_2d(np.ones(shape)))
            code = main(["gcv-scan", "--counts", workspace["counts"], "--psf",
                         workspace["psf"], "--dict", "dirac",
                         "--gamma-grid", "0.1,0.5", "--truth", truth,
                         "--out", str(workspace["dir"] / "scan.csv")])
            assert code == 1
            assert solves == []
            assert "truth" in capsys.readouterr().err

    def test_non_finite_truth_is_named(self, workspace, capsys, monkeypatch):
        truth = np.ones((6, 6))
        truth[2, 3] = math.nan
        path = str(workspace["dir"] / "nan_truth.f64")
        write_raster(path, Image.from_2d(truth))
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        out = workspace["dir"] / "scan.csv"
        code = main(["gcv-scan", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac",
                     "--gamma-grid", "0.5", "--truth", path, "--out", str(out)])
        assert code == 1
        assert solves == []
        assert not out.exists()
        assert f"{path}: raster has non-finite" in capsys.readouterr().err

    def test_redundant_analysis_fails_before_any_solve(self, workspace, capsys,
                                                        monkeypatch):
        solves = []
        monkeypatch.setattr(deconv_module, "deconvolve", solves.append)
        out = workspace["dir"] / "scan.csv"
        code = main(["gcv-scan", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "starlet:levels=2",
                     "--prior", "analysis", "--gamma-grid", "0.1,0.5",
                     "--out", str(out)])
        assert code == 1
        assert solves == []
        assert not out.exists()
        assert "108 coefficients for 36 pixels" in capsys.readouterr().err


class TestPsfValidation:
    @pytest.mark.parametrize("command", ["deconvolve", "gcv-scan", "simulate"])
    @pytest.mark.parametrize("kernel", [[[-1.0, 3.0, -1.0]], [[0.0, 0.0]],
                                        [[0.5, -0.2, 0.7]],
                                        [[0.0, math.inf, 0.0]]])
    def test_bad_kernel_is_a_usage_error(self, workspace, capsys, command,
                                         kernel):
        write_raster(workspace["psf"], Image.from_2d(kernel))
        out = str(workspace["dir"] / "x.out")
        rest = {"deconvolve": ["--counts", workspace["counts"], "--dict",
                               "dirac", "--gamma", "0.5"],
                "gcv-scan": ["--counts", workspace["counts"], "--dict",
                             "dirac", "--gamma-grid", "0.5"],
                "simulate": ["--input", workspace["truth"], "--peak", "30"]}
        code = main([command, "--psf", workspace["psf"], "--out", out]
                    + rest[command])
        assert code == 1
        assert "--psf" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_metrics_reject_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            _dump_json({"objective": math.inf}, str(tmp_path / "m.json"))


class TestNonFiniteFlags:
    """Numeric flags reject inf, nan and unreadable grids while parsing:
    exit 1, the flag named in the error, and no output written."""

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "inf"), ("--tol", "inf"), ("--gamma", "inf"),
        ("--gamma-grid", "0.1,inf"), ("--gamma-grid", "0.1,nan"),
        ("--gamma-grid", "0.1,abc"), ("--gamma-grid", ","),
    ])
    def test_deconvolve(self, workspace, capsys, flag, value):
        out = str(workspace["dir"] / "x.f64")
        gamma = [] if flag.startswith("--gamma") else ["--gamma", "0.5"]
        code = main(["deconvolve", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac", "--out", out,
                     flag, value] + gamma)
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_simulate_peak(self, workspace, capsys):
        out = str(workspace["dir"] / "c.pgm")
        code = main(["simulate", "--input", workspace["truth"], "--psf",
                     workspace["psf"], "--peak", "inf", "--out", out])
        assert code == 1
        assert "--peak" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestParsing:
    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["restore"]) == 1
        capsys.readouterr()

    def test_bad_gamma_grid_ordering(self, workspace, capsys):
        code = main(["deconvolve", "--counts", workspace["counts"], "--psf",
                     workspace["psf"], "--dict", "dirac",
                     "--gamma-grid", "0.5,0.1",
                     "--out", str(workspace["dir"] / "x.f64")])
        assert code == 1
        assert "increasing" in capsys.readouterr().err
