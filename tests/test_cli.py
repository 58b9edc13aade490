import json

import numpy as np
import pytest

from circuit_sharp.cli import _parse, main
from circuit_sharp.domains import DOMAINS


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

    def test_oversized_rat_is_input_error(self, tmp_path, capsys):
        code = run_cli(
            "train", "--manifold", "spiral", "--structure", "rat:sums=100000,reps=100000",
            "--out", tmp_path / "r",
        )
        assert code == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_unknown_rat_option_is_input_error(self, tmp_path, capsys):
        code = run_cli(
            "train", "--manifold", "spiral", "--fraction", 0.05, "--epochs", 1,
            "--structure", "rat:depht=3", "--out", tmp_path / "r",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'depht'" in err and "known: inputs, sums, reps, depth, leaf" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("batch_size", [-5, 0])
    @pytest.mark.parametrize("learner", ["em", "sgd"])
    def test_batch_size_below_one_is_input_error(self, tmp_path, capsys, learner, batch_size):
        code = run_cli(
            "train", "--manifold", "spiral", "--fraction", 0.05, "--learner", learner, "--epochs", 1,
            "--batch-size", batch_size, "--out", tmp_path / "r",
        )
        assert code == 2
        assert f"batch_size must be >= 1, got {batch_size}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "learner,flag,value,message",
        [(learner, *case) for learner in ("em", "sgd") for case in (
            ("--mu", "nan", "mu must be finite"), ("--mu", "inf", "mu must be finite"),
            ("--lam", "nan", "lam must be finite"), ("--epochs", -3, "epochs must be >= 0, got -3"))]
        + [("sgd", "--lr", value, "lr must be finite and > 0") for value in (-1, 0, "nan")],
    )
    def test_bad_training_values_are_input_errors(self, tmp_path, capsys, learner, flag, value, message):
        code = run_cli(
            "train", "--manifold", "spiral", "--fraction", 0.05, "--learner", learner, "--epochs", 1,
            flag, value, "--out", tmp_path / "r",
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("learner, mu", [("sgd", "0"), ("sgd", "adaptive"), ("em", "layerflow")])
    def test_manifest_reruns_reproduce_metrics(self, tmp_path, learner, mu):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run_cli(
                "train", "--manifold", "two_moons", "--fraction", 0.1, "--learner", learner,
                "--mu", mu, "--seed", 3, "--epochs", 4,
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
        "variable,weights,rows,message",
        [
            (1, "nan 0.5", "1,0\n0,1\n", "node 2: weights must lie in (0, 1]"),
            (1, "-0.5 1.5", "1,0\n0,1\n", "node 2: weights must lie in (0, 1]"),
            (1, "0.5 0.5", "1,0\n7,1\n", "outside the Bernoulli domain"),
            (5, "0.5 0.5", "1,0\n0,1\n", "root scope 0..5 is not the batch columns 0..1"),
        ],
        ids=["nan-weight", "negative-weight", "out-of-domain-data", "leaf-variable-out-of-range"],
    )
    def test_bad_model_or_data_is_input_error(self, tmp_path, capsys, variable, weights, rows, message):
        model = tmp_path / "model.pc"
        model.write_text(
            f"pc v1 5 4\n0 L 0 bern 0.3\n1 L 0 bern 0.8\n2 S 0 1\n3 L {variable} bern 0.5\n4 P 2 3\n"
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

    @pytest.mark.parametrize("rows,row", [("1e200,0.2\n", 0), ("0.5,0.2\n1e200,0.2\n", 1)], ids=["alone", "second"])
    def test_zero_likelihood_row_is_input_error(self, spiral_run, tmp_path, capsys, rows, row):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        assert run_cli("trace", spiral_run / "model.pc", data) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"row {row} has likelihood 0" in out.err

    def test_zero_probability_indicator_row_is_input_error(self, tmp_path, capsys):
        model = tmp_path / "model.pc"
        model.write_text("pc v1 3 2\n0 L 0 bern 1.0\n1 L 0 bern 1.0\n2 S 0 1\nw 2 0.5 0.5\n")
        data = tmp_path / "data.csv"
        data.write_text("x0\n1\n0\n")
        assert run_cli("trace", model, data) == 2
        out = capsys.readouterr()
        assert out.out == "" and "row 1 has likelihood 0" in out.err

    @pytest.mark.parametrize("contents", ["", "x0,x1\n", "x0,x1\n# no rows\n\n"], ids=["empty", "header-only", "comments"])
    @pytest.mark.parametrize("command", ["trace", "landscape"])
    def test_file_without_data_rows_is_input_error(self, spiral_run, tmp_path, capsys, command, contents):
        data = tmp_path / "data.csv"
        data.write_text(contents)
        extra = ("--out", tmp_path / "l.csv") if command == "landscape" else ()
        assert run_cli(command, spiral_run / "model.pc", data, *extra) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"{data} has no data rows" in out.err
        assert not (tmp_path / "l.csv").exists()


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

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--grid-points", 0, "grid_points must be >= 1"),
            ("--grid-points", -3, "grid_points must be >= 1"),
            ("--grid-radius", "nan", "grid_radius must be finite"),
            ("--grid-radius", "inf", "grid_radius must be finite"),
        ],
    )
    def test_bad_grid_is_input_error(self, spiral_run, tmp_path, capsys, option, value, message):
        out = tmp_path / "l.csv"
        assert run_cli("landscape", spiral_run / "model.pc", spiral_run / "train.csv", option, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_is_input_error(self, spiral_run, tmp_path, capsys, top_k):
        out, eig = tmp_path / "l.csv", tmp_path / "eig.csv"
        code = run_cli("landscape", spiral_run / "model.pc", spiral_run / "train.csv", "--grid-points", 3,
                       "--out", out, "--eig-out", eig, "--top-k", top_k)
        assert code == 2
        assert f"k must be >= 1, got {top_k}" in capsys.readouterr().err
        assert not out.exists() and not eig.exists()

    def test_eigenvalues_descending_magnitude(self, spiral_run, tmp_path):
        out = tmp_path / "l.csv"
        eig = tmp_path / "eig.csv"
        code = run_cli("landscape", spiral_run / "model.pc", spiral_run / "train.csv",
                       "--grid-points", 3, "--out", out, "--eig-out", eig, "--top-k", 6)
        assert code == 0
        vals = [float(line.split(",")[1]) for line in eig.read_text().splitlines()[1:]]
        mags = [abs(v) for v in vals]
        assert mags == sorted(mags, reverse=True)


    def test_eigenvalues_of_dag_beyond_fd_cap(self, tmp_path):
        from circuit_sharp.circuit import serialize
        from circuit_sharp.structure import build_layered_dag

        circuit, params = build_layered_dag(5, 12, seed=3)
        assert circuit.num_sum_edges > 500
        model = tmp_path / "dag.pc"
        model.write_bytes(serialize(circuit, params))
        data = tmp_path / "data.csv"
        rows = (np.random.default_rng(2).random((6, 5)) < 0.5).astype(int)
        data.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        eig = tmp_path / "eig.csv"
        code = run_cli("landscape", model, data, "--grid-points", 3, "--out", tmp_path / "l.csv",
                       "--eig-out", eig, "--top-k", 4)
        assert code == 0
        assert len(eig.read_text().splitlines()) == 5


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

    def test_no_variables_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--sizes", "1000", "--num-vars", 0, "--out", out) == 2
        assert "num_vars must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_variable_lands_on_its_sizes(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run_cli("bench", "--num-vars", 1, "--sizes", "1000,2000", "--samples", 2, "--r2-threshold", 0,
                       "--out", out)
        capsys.readouterr()
        assert code == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["1000", "2000"]

    def test_zero_samples_guarded(self, tmp_path, capsys):
        assert run_cli("bench", "--sizes", "2000", "--samples", 0,
                       "--out", tmp_path / "b.csv") == 0
        assert "zero samples" in capsys.readouterr().out


class TestMetrics:
    def test_nlls_equal_forward_of_saved_model(self, spiral_run):
        """metrics.json NLLs are -forward(...).root_log_p.mean() of model.pc on
        the run's own splits, bit for bit."""
        from circuit_sharp import deserialize, forward
        from circuit_sharp.cli import RunConfig, _resolve_data

        manifest = json.loads((spiral_run / "manifest.json").read_text())
        ds = _resolve_data(RunConfig(**manifest))
        circuit, params = deserialize((spiral_run / "model.pc").read_bytes())
        metrics = json.loads((spiral_run / "metrics.json").read_text())
        for split in ("train", "valid", "test"):
            rows = getattr(ds, split)
            assert metrics[f"{split}_nll"] == float(-forward(circuit, params, rows).root_log_p.mean())


class TestOptionDomains:
    """Every numeric option and --structure key against the domain table:
    a value outside its name's domain exits 2, with an error line naming the
    option, before anything is written or trained."""

    TRAIN = ("train", "--manifold", "spiral", "--fraction", 0.05, "--learner", "sgd", "--epochs", 1,
             "--structure", "rat:inputs=2,sums=2,reps=1")
    # (subcommand, flag or --structure form, the table's name, how the CLI parses the value:
    # argparse's type, or _parse for a --structure value or a --sizes entry); a name of None
    # is a seed, which numpy's own check rejects below 0
    OPTIONS = [
        ("train", "--fraction", "fraction", float),
        ("train", "--seed", None, int),
        ("train", "--mu", "mu", float),
        ("train", "--lam", "lam", float),
        ("train", "--alpha", "smoothing_alpha", float),
        ("train", "--epochs", "epochs", int),
        ("train", "--batch-size", "batch_size", int),
        ("train", "--lr", "lr", float),
        ("train", "--noise", "noise", float),
        ("train", "hclt:{}", "num_latents", _parse),
        ("train", "rat:inputs={}", "num_input_distributions", _parse),
        ("train", "rat:sums={}", "num_sums", _parse),
        ("train", "rat:reps={}", "num_repetitions", _parse),
        ("train", "rat:depth={}", "depth", _parse),
        ("train", "rat:leaf={}", "leaf_family", _parse),
        ("landscape", "--grid-radius", "grid_radius", float),
        ("landscape", "--grid-points", "grid_points", int),
        ("landscape", "--seed", None, int),
        ("landscape", "--top-k", "k", int),
        ("bench", "--sizes", "sizes", _parse),
        ("bench", "--samples", "samples", int),
        ("bench", "--num-vars", "num_vars", int),
        ("bench", "--seed", None, int),
        ("bench", "--r2-threshold", "r2_threshold", float),
    ]

    @staticmethod
    def in_domain(name, parse, text) -> bool:
        try:
            value = parse(text)
        except ValueError:  # argparse's type rejects it
            return False
        return value >= 0 if name is None else DOMAINS[name][1](value)

    @staticmethod
    def run(argv, capsys):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse rejects a value its type cannot parse
            code = exc.code
        return code, capsys.readouterr().err

    def prefixes(self, tmp_path):
        from circuit_sharp.circuit import serialize
        from circuit_sharp.structure import build_layered_dag

        circuit, params = build_layered_dag(2, 2, seed=0)
        (tmp_path / "m.pc").write_bytes(serialize(circuit, params))
        (tmp_path / "d.csv").write_text("0,1\n1,1\n0,0\n1,0\n")
        out = tmp_path / "out"
        out.mkdir()
        return out, {
            "train": (*self.TRAIN, "--out", out / "r"),
            "landscape": ("landscape", tmp_path / "m.pc", tmp_path / "d.csv", "--grid-points", 3,
                          "--out", out / "l.csv", "--eig-out", out / "e.csv"),
            "bench": ("bench", "--sizes", 1000, "--samples", 1, "--out", out / "b.csv"),
        }

    def test_values_outside_the_table_exit_2_and_write_nothing(self, tmp_path, capsys):
        out, prefixes = self.prefixes(tmp_path)
        tried = 0
        for command, option, name, parse in self.OPTIONS:
            for text in ("nan", "inf", "-1", "0") + (("cat",) if name == "leaf_family" else ()):
                if self.in_domain(name, parse, text):
                    continue
                args = ("--structure", option.format(text)) if "{}" in option else (option, text)
                code, err = self.run((*prefixes[command], *args), capsys)
                assert code == 2, (command, *args)
                assert "error:" in err and (name is None or name in err or option in err), (args, err)
                assert not any(out.iterdir()), (args, list(out.iterdir()))
                tried += 1
        assert tried == 85

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--structure", "rat:leaf=cat"), "leaf_family must be one of gauss, bern, got 'cat'"),
            (("--structure", "rat:depth=-1"), "depth must be >= 0, got -1"),
            (("--noise", -1), "noise must be finite and >= 0, got -1.0"),
            (("--mu", "foo"), "mu must be finite and >= 0, got 'foo'"),
            (("--structure", "hclt:2"), "outside the binary domain"),
            (("bench", "--samples", -2), "samples must be >= 0, got -2"),
            (("bench", "--r2-threshold", "nan"), "r2_threshold must be in [0, 1], got nan"),
            (("bench", "--sizes", -5), "sizes must be >= 1, got -5"),
        ],
    )
    def test_probed_inputs_are_input_errors(self, tmp_path, capsys, argv, message):
        out, prefixes = self.prefixes(tmp_path)
        argv = (*prefixes["bench"], *argv[1:]) if argv[0] == "bench" else (*prefixes["train"], *argv)
        code, err = self.run(argv, capsys)
        assert code == 2 and message in err
        assert not any(out.iterdir())
