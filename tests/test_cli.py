import json

import numpy as np
import pytest

from circuit_sharp.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def spiral_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train", "--manifold", "spiral", "--fraction", 0.05, "--learner", "sgd",
        "--mu", 0.1, "--seed", 1, "--epochs", 8,
        "--structure", "rat:inputs=3,sums=3,reps=2", "--out", out,
    )
    assert code == 0
    return out


class TestTrain:
    def test_artifacts_written(self, spiral_run):
        for name in ("model.pc", "train_log.csv", "metrics.json", "manifest.json", "train.csv"):
            assert (spiral_run / name).exists()
        metrics = json.loads((spiral_run / "metrics.json").read_text())
        for key in ("train_nll", "valid_nll", "test_nll", "sharpness", "dof"):
            assert np.isfinite(metrics[key])

    def test_missing_dataset_is_input_error(self, tmp_path):
        code = run_cli(
            "train", "--dataset", "nltcs", "--data-root", tmp_path, "--out", tmp_path / "r"
        )
        assert code == 2

    def test_em_on_written_debd_files(self, tmp_path):
        rng = np.random.default_rng(0)
        for split, n in (("train", 60), ("valid", 20), ("test", 20)):
            rows = rng.integers(0, 2, size=(n, 5))
            (tmp_path / f"toy.{split}.data").write_text(
                "\n".join(",".join(map(str, r)) for r in rows) + "\n"
            )
        out = tmp_path / "run"
        code = run_cli(
            "train", "--dataset", "toy", "--data-root", tmp_path, "--learner", "em",
            "--mu", 0, "--structure", "hclt:3", "--epochs", 4, "--alpha", 0.3, "--out", out,
        )
        assert code == 0
        assert (out / "metrics.json").exists()

    def test_manifest_reruns_reproduce_metrics(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run_cli(
                "train", "--manifold", "two_moons", "--fraction", 0.1, "--learner", "sgd",
                "--mu", 0, "--seed", 3, "--epochs", 4,
                "--structure", "rat:inputs=2,sums=2,reps=2", "--out", out,
            )
            assert code == 0
            outs.append(json.loads((out / "metrics.json").read_text()))
        for key in outs[0]:
            assert abs(outs[0][key] - outs[1][key]) <= 1e-9


class TestTrace:
    def test_prints_library_value(self, spiral_run, capsys):
        code = run_cli("trace", spiral_run / "model.pc", spiral_run / "train.csv")
        assert code == 0
        printed = float(capsys.readouterr().out.split()[1])
        from circuit_sharp.circuit import deserialize
        from circuit_sharp.curvature import hessian_trace

        circuit, params = deserialize((spiral_run / "model.pc").read_bytes())
        data = np.loadtxt(spiral_run / "train.csv", delimiter=",")
        assert printed == hessian_trace(circuit, params, data)

    def test_per_edge_row_count(self, spiral_run, tmp_path):
        diag = tmp_path / "diag.csv"
        code = run_cli("trace", spiral_run / "model.pc", spiral_run / "train.csv",
                       "--per-edge", diag)
        assert code == 0
        from circuit_sharp.circuit import deserialize

        circuit, _ = deserialize((spiral_run / "model.pc").read_bytes())
        assert len(diag.read_text().splitlines()) == 1 + circuit.num_sum_edges

    def test_fd_check_passes(self, spiral_run):
        assert run_cli("trace", spiral_run / "model.pc", spiral_run / "train.csv",
                       "--fd-check") == 0

    def test_load_failure_nonzero(self, tmp_path):
        bad = tmp_path / "bad.pc"
        bad.write_text("not a circuit\n")
        assert run_cli("trace", bad, bad) == 2


    @pytest.mark.parametrize(
        "weights,rows,message",
        [
            ("nan 0.5", "1,0\n0,1\n", "node 2: weights must lie in (0, 1]"),
            ("-0.5 1.5", "1,0\n0,1\n", "node 2: weights must lie in (0, 1]"),
            ("0.5 0.5", "1,0\n7,1\n", "outside the Bernoulli domain"),
        ],
        ids=["nan-weight", "negative-weight", "out-of-domain-data"],
    )
    def test_bad_model_or_data_is_input_error(self, tmp_path, capsys, weights, rows, message):
        model = tmp_path / "model.pc"
        model.write_text(
            "pc v1 5 4\n0 L 0 bern 0.3\n1 L 0 bern 0.8\n2 S 0 1\n3 L 1 bern 0.5\n4 P 2 3\n"
            f"w 2 {weights}\n"
        )
        data = tmp_path / "data.csv"
        data.write_text(rows)
        assert run_cli("trace", model, data) == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err

    def test_single_column_csv_is_one_row_per_line(self, tmp_path, capsys):
        model = tmp_path / "model.pc"
        model.write_text("pc v1 3 2\n0 L 0 bern 0.3\n1 L 0 bern 0.8\n2 S 0 1\nw 2 0.25 0.75\n")
        data = tmp_path / "data.csv"
        data.write_text("1\n0\n1\n")
        assert run_cli("trace", model, data) == 0
        printed = float(capsys.readouterr().out.split()[1])
        from circuit_sharp.circuit import deserialize
        from circuit_sharp.curvature import hessian_trace

        circuit, params = deserialize(model.read_bytes())
        assert printed == hessian_trace(circuit, params, np.array([[1.0], [0.0], [1.0]]))


class TestLandscape:
    def test_1d_rows_and_center(self, spiral_run, tmp_path):
        out = tmp_path / "landscape.csv"
        code = run_cli("landscape", spiral_run / "model.pc", spiral_run / "train.csv",
                       "--grid-points", 7, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,nll"
        assert len(lines) == 8
        center = float(lines[4].split(",")[1])
        from circuit_sharp.circuit import deserialize
        from circuit_sharp.evaluate import forward

        circuit, params = deserialize((spiral_run / "model.pc").read_bytes())
        data = np.loadtxt(spiral_run / "train.csv", delimiter=",")
        assert center == float(-forward(circuit, params, data).root_log_p.mean())

    def test_eigenvalues_descending_magnitude(self, spiral_run, tmp_path):
        out = tmp_path / "l.csv"
        eig = tmp_path / "eig.csv"
        code = run_cli("landscape", spiral_run / "model.pc", spiral_run / "train.csv",
                       "--grid-points", 3, "--out", out, "--eig-out", eig, "--top-k", 6)
        assert code == 0
        vals = [float(line.split(",")[1]) for line in eig.read_text().splitlines()[1:]]
        mags = [abs(v) for v in vals]
        assert mags == sorted(mags, reverse=True)


class TestBench:
    def test_small_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--sizes", "1000,4000,16000", "--samples", 2,
                       "--r2-threshold", 0, "--out", out)
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "edges,seconds"
        assert len(lines) == 4

    def test_single_size_reports_na(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--sizes", "2000", "--samples", 2, "--out", out) == 0
        assert "n/a" in capsys.readouterr().out

    def test_zero_samples_guarded(self, tmp_path, capsys):
        assert run_cli("bench", "--sizes", "2000", "--samples", 0,
                       "--out", tmp_path / "b.csv") == 0
        assert "zero samples" in capsys.readouterr().out


class TestThreads:
    def test_threaded_metrics_match_single_threaded(self, tmp_path):
        results = []
        for threads, sub in ((0, "t0"), (3, "t3")):
            out = tmp_path / sub
            code = run_cli(
                "train", "--manifold", "two_moons", "--fraction", 0.2, "--learner", "sgd",
                "--mu", 0, "--seed", 5, "--epochs", 3,
                "--structure", "rat:inputs=2,sums=2,reps=2",
                "--threads", threads, "--out", out,
            )
            assert code == 0
            results.append(json.loads((out / "metrics.json").read_text()))
        for key in results[0]:
            assert results[0][key] == results[1][key]
