import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wshrink
from wshrink import _kernels, applications, cli, io
from wshrink.analytical import wasserstein_shrinkage
from wshrink.applications import (LabeledDataset, analytical_estimator, lda_classify, lda_fit, pooled_moments,
                                  sample_gaussian)
from wshrink.cli import _estimator_for, main
from wshrink.evaluation import SampleMoments, make_folds, sample_moments
from wshrink.sqa import SolverConfig, SparsityPattern, sqa_gradient

from conftest import random_spd, refuse_allocation


def write_csv(path, M):
    io.write_matrix_csv(path, np.asarray(M))
    return str(path)


def write_pattern(path, p, zeros):
    """A pattern file: dimension ``p`` and 1-based index pairs ``zeros``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"p": p, "zeros": zeros}, fh)


GRID = '{"param":"rho","log10_from":-1,"log10_to":0,"points":2}'


@pytest.fixture
def files(tmp_path, rng):
    """Small valid inputs for every subcommand: a feature matrix, its labels, a pattern."""
    X = rng.standard_normal((12, 3))
    X[6:] += 2.0
    write_csv(tmp_path / "X.csv", X)
    write_csv(tmp_path / "C.csv", np.cov(X.T, bias=True))
    (tmp_path / "y.csv").write_text("0\n" * 6 + "1\n" * 6)
    write_pattern(tmp_path / "p.json", 3, [[1, 3]])
    return tmp_path


#: a valid invocation of each subcommand, given the ``files`` directory
BASE = {
    "estimate": "estimate --input {d}/X.csv --rho 0.5 --output {d}/o.csv",
    "tune": "tune --input {d}/X.csv --grid {grid} --cv kfold:3 --output {d}/o.json",
    "worstcase": "worstcase --input {d}/C.csv --rho 0.5 --output {d}/o.csv",
    "synthetic": "synthetic --p 3 --density 0.5 --n 8 --trials 1 --grid-points 2 --output {d}/o.csv",
    "lda": "lda --input {d}/X.csv --labels {d}/y.csv --rho 0.5 --output {d}/o.json",
    "portfolio": "portfolio --input {d}/X.csv --rho 0.5 --window 6 --stride 3 --output {d}/o.json",
}

#: a valid value for every flag that some subcommand does not read
VALUE = {"--labels": "{d}/y.csv", "--rho": "0.5", "--grid": "{grid}", "--pattern": "{d}/p.json",
         "--divisor": "n", "--cv": "loo", "--seed": "1", "--tol": "1e-6", "--max-iters": "5",
         "--test-labels": "{d}/y.csv"}

#: the flags each subcommand does not read, and so rejects
UNREAD = {
    "estimate": ["--grid", "--cv", "--seed"],
    "tune": ["--labels", "--rho"],
    "worstcase": ["--labels", "--grid", "--pattern", "--divisor", "--cv", "--seed", "--tol", "--max-iters"],
    "synthetic": ["--labels", "--rho", "--pattern", "--divisor", "--cv"],
    "lda": ["--pattern", "--divisor", "--tol", "--max-iters"],
    "portfolio": ["--labels", "--pattern", "--divisor", "--tol", "--max-iters"],
}


def argv(line, d):
    return [word.format(d=d, grid=GRID) for word in line.split()]


#: runs the commands given as JSON in ``argv[1]`` in a fresh interpreter, then an SQA
#: solve; prints the SciPy modules loaded before the solve and whether the solve converged
NO_SCIPY_SCRIPT = """
import json, sys
import numpy as np
import wshrink, wshrink.cli
for line in json.loads(sys.argv[1]):
    assert wshrink.cli.main(line) == 0, line
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
cov = np.cov(np.random.default_rng(0).standard_normal((20, 4)).T)
_, trace = wshrink.sqa_solve(cov, 0.5, wshrink.SparsityPattern(4, [(0, 2), (1, 3)]))
print(json.dumps({"scipy": loaded, "converged": trace.converged}))
"""


def test_non_solver_commands_run_without_scipy(files):
    # SciPy serves only the SQA solver's Cholesky solves, and loading it takes a
    # quarter of a second or more of every start; the pytest process already holds it
    write_csv(files / "W.csv", np.random.default_rng(1).standard_normal((4, 6)))  # n < p
    alpha_grid = '{"param":"alpha","log10_from":-2,"log10_to":0,"points":3}'
    lines = [
        "portfolio --input {d}/X.csv --grid {grid} --cv kfold:3 --window 6 --stride 3 --output {d}/o.json",
        "tune --input {d}/X.csv --grid {grid} --cv kfold:3 --output {d}/o.json",
        "lda --input {d}/X.csv --labels {d}/y.csv --grid {grid} --cv kfold:3 --output {d}/o.json",
        "estimate --input {d}/W.csv --rho 0.5 --output {d}/o.csv",
        BASE["estimate"],  # full rank: its gradient norm is read from the spectrum
        BASE["worstcase"],
        BASE["synthetic"],
    ]
    commands = [argv(line, files) for line in lines]
    commands.append(["tune", "--input", f"{files}/X.csv", "--grid", alpha_grid, "--output", f"{files}/o.json"])
    src = str(Path(wshrink.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)], cwd=files,
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {"scipy": [], "converged": True}


#: ``(subcommand, flag, the flag it needs)``: without the second, the first would be ignored
NEEDS = [("lda", "--cv", "--grid"), ("lda", "--seed", "--grid"), ("lda", "--test-labels", "--test-input"),
         ("portfolio", "--cv", "--grid"), ("portfolio", "--seed", "--grid"),
         ("estimate", "--tol", "--pattern"), ("estimate", "--max-iters", "--pattern"),
         ("tune", "--tol", "--pattern"), ("tune", "--max-iters", "--pattern"),
         ("synthetic", "--tol", "--known-zeros"), ("synthetic", "--max-iters", "--known-zeros")]


class TestFlagSurface:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        read = {
            "estimate": "--input --rho --labels --divisor --pattern --tol --max-iters --output",
            "tune": "--input --grid --pattern --tol --max-iters --divisor --cv --seed --output",
            "worstcase": "--input --rho --output",
            "synthetic": "--p --density --n --trials --grid --grid-points --known-zeros --tol --max-iters "
                         "--seed --output",
            "lda": "--input --labels --rho --grid --cv --seed --test-input --test-labels --output",
            "portfolio": "--input --rho --grid --cv --seed --window --stride --output",
        }
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}
            assert flags == set(read[name].split())
            assert flags.isdisjoint(UNREAD[name])
        assert sum(len(flags.split()) for flags in read.values()) == 48
        assert sum(map(len, UNREAD.values())) == 27

    @pytest.mark.parametrize("name", sorted(BASE))
    def test_base_invocations_run(self, name, files):
        assert main(argv(BASE[name], files)) == 0

    @pytest.mark.parametrize("name,flag", [(n, f) for n, fs in UNREAD.items() for f in fs])
    def test_unread_flag_is_usage_error(self, name, flag, files, capsys):
        assert main(argv(BASE[name], files) + [flag, VALUE[flag].format(d=files, grid=GRID)]) == 1
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("line,message", [
        ("estimate --input {d}/X.csv --output {d}/o.csv", "required: --rho"),
        ("estimate --input {d}/X.csv --rho abc --output {d}/o.csv", "invalid float value: 'abc'"),
        ("estimate --input {d}/X.csv --rho 1 --labels {d}/y.csv --divisor n --output {d}/o.csv", "not allowed"),
        ("estimate --input {d}/X.csv --rho 1 --divisor pooled --output {d}/o.csv", "invalid choice: 'pooled'"),
        ("tune --input {d}/X.csv --divisor pooled --grid {grid} --output {d}/o.json", "invalid choice"),
        ("tune --input {d}/X.csv --output {d}/o.json", "required: --grid"),
        ("worstcase --output {d}/w.csv", "required: --input, --rho"),
        ("synthetic --p 3 --density 0.5 --n 8 --grid {grid} --grid-points 25 --output {d}/o.csv", "not allowed"),
        ("lda --input {d}/X.csv --rho 1 --output {d}/o.json", "required: --labels"),
        ("lda --input {d}/X.csv --labels {d}/y.csv --output {d}/o.json", "one of the arguments --rho --grid"),
        ("portfolio --input {d}/X.csv --rho 1 --grid {grid} --output {d}/o.json", "not allowed"),
        ("portfolio --input {d}/X.csv --output {d}/o.json", "one of the arguments --rho --grid"),
        ("frobnicate", "invalid choice"),
        ("", "required: command"),
    ])
    def test_usage_errors_exit_1(self, line, message, files, capsys):
        assert main(argv(line, files)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wshrink")
        assert "error: " in err and message in err

    @pytest.mark.parametrize("name,param,code", [
        ("tune", "rh0", 1), ("tune", "alpha", 0), ("portfolio", "rh0", 1), ("portfolio", "alpha", 0),
        ("synthetic", "alpha", 1), ("lda", "alpha", 1),
    ])
    def test_grid_param_must_be_one_the_command_reads(self, name, param, code, files, capsys):
        # tune and portfolio read rho and alpha grids; synthetic and lda read rho only
        line = BASE[name].replace("--rho 0.5", "--grid {grid}").replace("--grid-points 2", "--grid {grid}")
        words = [w.replace('"rho"', f'"{param}"') for w in argv(line, files)]
        assert main(words) == code
        if code:
            assert f"error: grid param '{param}' is not one of" in capsys.readouterr().err
            assert not any(f.name.startswith("o.") for f in files.iterdir())

    @pytest.mark.parametrize("name,flag,needed", NEEDS)
    def test_flag_without_the_flag_it_needs_is_usage_error(self, name, flag, needed, tmp_path, capsys):
        # tmp_path holds no input file: the usage error comes before any file is read
        assert main(argv(f"{BASE[name]} {flag} {VALUE[flag]}", tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: wshrink {name}")
        assert f"error: {flag} needs {needed}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,flag,needed", NEEDS)
    def test_flag_with_the_flag_it_needs_runs(self, name, flag, needed, files):
        given = {"--grid": "--grid {grid} --cv kfold:3", "--pattern": "--pattern {d}/p.json",
                 "--known-zeros": "--known-zeros 0.5", "--test-input": "--test-input {d}/X.csv"}[needed]
        line = BASE[name].replace("--rho 0.5", "") if needed == "--grid" else BASE[name]
        assert main(argv(f"{line} {given} {flag} {VALUE[flag]}", files)) == 0

    def test_help_states_the_defaults_of_dependent_flags(self, capsys):
        for name, flags in (("tune", ["--tol", "--max-iters", "--cv", "--seed"]), ("lda", ["--cv", "--seed"])):
            with pytest.raises(SystemExit):
                main([name, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            for flag, default in (("--tol", "0.001"), ("--max-iters", "100"), ("--cv", "loo"), ("--seed", "0")):
                assert (flag in flags) == (f"(default {default})" in out)

    def test_help_exits_0_and_states_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        assert cli.EXIT_CODES in " ".join(capsys.readouterr().out.split())


class TestIO:
    def test_matrix_round_trip_bit_exact(self, tmp_path, rng):
        M = rng.standard_normal((7, 4)) * np.exp(rng.uniform(-20, 20, (7, 4)))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, M)
        back = io.read_matrix_csv(path)
        assert (back == M).all()

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        assert_allclose(io.read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_around_cells(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text(" a , b\n 1.0 ,\t2.0\n3.0\t, 4.0 \t\n")
        assert (io.read_matrix_csv(path) == [[1.0, 2.0], [3.0, 4.0]]).all()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(io.ParseError, match="bad.csv:2"):
            io.read_matrix_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(io.ParseError, match="bad.csv:4: non-finite value in column 2"):
            io.read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(io.ParseError, match="ragged.csv:2"):
            io.read_matrix_csv(path)

    @pytest.mark.parametrize("text", [
        "1,2\n3,4", "a,b\n\n1,2\n  \n3,4\n", "1,2,x\n1,2,3\n", "1,2\r\n3,4\r\n", "7\n8\n", "# x\n1,2\n",
        "", "a,b\n", "\na,b\n1,2\n", "1,2\n#3,4\n", "1,2,\n", "1_0,2\n", "1;2\n", "1,2\n3,1e999\n",
    ])
    def test_bulk_parse_matches_line_parser(self, tmp_path, text):
        # the bulk parse falls back to the line parser: the same matrix or the same error
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        outcomes = []
        for read in (io.read_matrix_csv, io._read_matrix_lines):
            try:
                outcomes.append(read(path).tolist())
            except io.ParseError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_pattern_round_trip_one_based(self, tmp_path):
        path = tmp_path / "pat.json"
        path.write_text('{"p": 4, "zeros": [[1, 4], [2, 3]]}')
        pat = io.read_pattern_json(path)
        assert pat.dim == 4
        assert pat.pairs == SparsityPattern(4, [(0, 3), (1, 2)]).pairs

    def test_pattern_rejects_diagonal(self, tmp_path):
        path = tmp_path / "pat.json"
        path.write_text('{"p": 3, "zeros": [[2, 2]]}')
        with pytest.raises(io.ParseError, match="diagonal"):
            io.read_pattern_json(path)

    # a count or an index that is not integral is an error, never truncated
    def test_pattern_rejects_non_integral_dimension(self, tmp_path):
        path = tmp_path / "pat.json"
        path.write_text('{"p": 4.0, "zeros": [[1, 2]]}')
        assert io.read_pattern_json(path).dim == 4
        path.write_text('{"p": 4.9, "zeros": [[1, 2]]}')
        with pytest.raises(io.ParseError, match="4.9"):
            io.read_pattern_json(path)

    @pytest.mark.parametrize("pair", ["[1.7, 2]", "[true, 3]", '[1, "2"]'])
    def test_pattern_rejects_non_integral_index(self, tmp_path, pair):
        path = tmp_path / "pat.json"
        path.write_text(f'{{"p": 4, "zeros": [{pair}]}}')
        with pytest.raises(io.ParseError, match="expected an integer"):
            io.read_pattern_json(path)

    def test_grid_rejects_non_integral_points(self, tmp_path):
        grid = cli._load_grid('{"param": "rho", "log10_from": 0, "log10_to": 1, "points": 2.0}', ("rho",))
        assert grid.values.size == 2
        with pytest.raises(cli.UserError, match="7.9"):
            cli._load_grid('{"param": "rho", "log10_from": 0, "log10_to": 1, "points": 7.9}', ("rho",))
        data = write_csv(tmp_path / "d.csv", np.random.default_rng(0).standard_normal((8, 2)))
        code = main(["tune", "--input", data, "--output", str(tmp_path / "o.json"),
                     "--grid", '{"param": "rho", "log10_from": 0, "log10_to": 1, "points": 7.9}'])
        assert code == 1

    # a count above the bound is refused before any array is sized by it
    @pytest.mark.parametrize("points", ["1e15", str(cli.MAX_GRID_POINTS + 1)])
    def test_grid_rejects_points_above_the_bound(self, tmp_path, points):
        spec = f'{{"param": "rho", "log10_from": 0, "log10_to": 1, "points": {points}}}'
        with pytest.raises(cli.UserError, match=f"at most {cli.MAX_GRID_POINTS} points"):
            cli._load_grid(spec, ("rho",))
        data = write_csv(tmp_path / "d.csv", np.random.default_rng(0).standard_normal((4, 2)))
        assert main(["tune", "--input", data, "--output", str(tmp_path / "o.json"), "--grid", spec]) == 1
        assert cli._load_grid(spec.replace(points, str(cli.MAX_GRID_POINTS)), ("rho",)).values.size == cli.MAX_GRID_POINTS

    def test_grid_points_flag_above_the_bound(self, tmp_path, capsys):
        code = main(["synthetic", "--p", "4", "--density", "0.5", "--n", "10", "--trials", "1",
                     "--grid-points", str(10**15), "--output", str(tmp_path / "s.csv")])
        assert code == 1 and f"at most {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err

    def test_labels_int_and_string(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n2\n1\n")
        assert io.read_labels_csv(path).tolist() == [1, 2, 1]
        path.write_text("tt\nnt\n")
        assert io.read_labels_csv(path).tolist() == ["tt", "nt"]

    # spreadsheet programs start a UTF-8 file with a byte-order mark; every reader skips it
    @pytest.mark.parametrize("read", [io.read_matrix_csv, io._read_matrix_lines])
    def test_matrix_after_byte_order_mark(self, tmp_path, read):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        assert read(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_labels_after_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("\ufeff0\n1\n0\n", encoding="utf-8")
        assert io.read_labels_csv(path).tolist() == [0, 1, 0]

    def test_pattern_after_byte_order_mark(self, tmp_path):
        path = tmp_path / "pat.json"
        path.write_text('\ufeff{"p": 4, "zeros": [[1, 4]]}', encoding="utf-8")
        assert io.read_pattern_json(path).pairs == SparsityPattern(4, [(0, 3)]).pairs

    def test_grid_file_after_byte_order_mark(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('\ufeff{"param": "rho", "log10_from": -1, "log10_to": 1, "points": 3}', encoding="utf-8")
        grid = cli._load_grid(str(path), ("rho",))
        assert grid.name == "rho"
        assert_allclose(grid.values, [0.1, 1.0, 10.0])


class TestEstimate:
    def test_scalar_chain_through_files(self, tmp_path):
        data = write_csv(tmp_path / "data.csv", [[0.0], [2.0]])
        out = str(tmp_path / "precision.csv")
        code = main(["estimate", "--input", data, "--rho", "1", "--divisor", "n",
                     "--output", out])
        assert code == 0
        assert_allclose(io.read_matrix_csv(out), [[0.25]], atol=1e-10)
        diag = json.loads((tmp_path / "precision.json").read_text())
        assert diag["schema"] == 1
        assert abs(diag["gamma_star"] - 0.5) <= 1e-10
        assert diag["iterations"] >= 1
        assert diag["wall_ms"] > 0.0

    def test_missing_input_is_user_error(self, tmp_path, capsys):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--rho", "1",
                     "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_nonpositive_rho_is_user_error(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3))
        code = main(["estimate", "--input", data, "--rho", "-1",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert "positive" in capsys.readouterr().err

    def test_empty_pattern_matches_analytical(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(4, rng), 30, 1))
        pattern = str(tmp_path / "pat.json")
        write_pattern(pattern, 4, [])
        out_plain = str(tmp_path / "plain.csv")
        out_pat = str(tmp_path / "pat.csv")
        assert main(["estimate", "--input", data, "--rho", "0.5", "--output", out_plain]) == 0
        assert main(["estimate", "--input", data, "--rho", "0.5", "--pattern", pattern,
                     "--output", out_pat, "--tol", "1e-9"]) == 0
        a = io.read_matrix_csv(out_plain)
        b = io.read_matrix_csv(out_pat)
        assert np.abs(a - b).max() <= 1e-4
        # the pattern run goes through the iterative solver
        diag = json.loads((tmp_path / "pat.json").read_text())
        assert diag["projected_grad_norm"] <= 1e-9

    def test_pattern_zeros_respected_in_output(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(4, rng), 40, 2))
        pattern = str(tmp_path / "pat.json")
        write_pattern(pattern, 4, [[1, 4]])
        out = str(tmp_path / "prec.csv")
        assert main(["estimate", "--input", data, "--rho", "0.7", "--pattern", pattern,
                     "--output", out]) == 0
        P = io.read_matrix_csv(out)
        assert P[0, 3] == 0.0 and P[3, 0] == 0.0

    def test_pattern_diagnostics_report_termination(self, tmp_path, rng, capsys):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(4, rng), 40, 2))
        pattern = str(tmp_path / "pat.json")
        write_pattern(pattern, 4, [[1, 4]])
        out = str(tmp_path / "prec.csv")
        assert main(["estimate", "--input", data, "--rho", "0.7", "--pattern", pattern, "--output", out]) == 0
        diag = json.loads((tmp_path / "prec.json").read_text())
        assert diag["converged"] is True
        assert diag["termination"] == "projected gradient below tolerance"
        assert diag["projected_grad_norm"] <= 1e-3
        # an exhausted budget still writes the estimate, flagged in the diagnostics
        assert main(["estimate", "--input", data, "--rho", "0.7", "--pattern", pattern,
                     "--tol", "1e-14", "--max-iters", "1", "--output", out]) == 0
        diag = json.loads((tmp_path / "prec.json").read_text())
        assert diag["converged"] is False
        assert diag["termination"] == "iteration budget (1) exhausted"
        assert "warning: iteration budget (1) exhausted" in capsys.readouterr().err

    def test_unallocatable_newton_matrix_is_solver_error(self, tmp_path, rng, monkeypatch, capsys):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(4, rng), 40, 2))
        pattern = str(tmp_path / "pat.json")
        write_pattern(pattern, 4, [[1, 4]])
        f = 4 + 6 - 1  # the free pairs: 4 diagonal and 6 off-diagonal, less the pattern pair
        refuse_allocation(monkeypatch, (f, f))
        code = main(["estimate", "--input", data, "--rho", "0.7", "--pattern", pattern,
                     "--output", str(tmp_path / "prec.csv")])
        assert code == 2
        assert f"solver error: cannot allocate the {f} x {f} Newton matrix" in capsys.readouterr().err

    def test_unconverged_multiplier_is_solver_error(self, tmp_path, rng, monkeypatch, capsys):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(4, rng), 40, 2))
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        code = main(["estimate", "--input", data, "--rho", "0.7", "--output", str(tmp_path / "prec.csv")])
        assert code == 2
        assert "solver error: multiplier root solve did not converge in 1 iterations" in capsys.readouterr().err

    def test_labels_select_pooled_within_class_moments(self, files):
        out = files / "pooled.csv"
        assert main(["estimate", "--input", str(files / "X.csv"), "--labels", str(files / "y.csv"),
                     "--rho", "0.4", "--output", str(out)]) == 0
        dataset = LabeledDataset(io.read_matrix_csv(files / "X.csv"), io.read_labels_csv(files / "y.csv"))
        expected = wasserstein_shrinkage(pooled_moments(dataset).covariance, 0.4).precision
        assert (io.read_matrix_csv(out) == expected).all()

    @pytest.mark.parametrize("pooled", [False, True], ids=["sample", "pooled"])
    def test_fewer_rows_than_columns_take_the_gram_route(self, tmp_path, rng, monkeypatch, pooled):
        # 12 rows of 40 columns: the estimate decomposes the 12 x 12 Gram matrix, forms no
        # 40 x 40 covariance, and writes the covariance route's matrix
        X = rng.standard_normal((12, 40)) * rng.uniform(0.5, 2.0, 40) + 3.0
        labels = np.arange(12) % 2
        data, out = write_csv(tmp_path / "d.csv", X), tmp_path / "prec.csv"
        (tmp_path / "y.csv").write_text("".join(f"{label}\n" for label in labels))
        extra = ["--labels", str(tmp_path / "y.csv")] if pooled else []
        sizes, formed, eigh = [], [], np.linalg.eigh
        covariance = SampleMoments.__dict__["covariance"].func
        monkeypatch.setattr(np.linalg, "eigh", lambda M: sizes.append(len(M)) or eigh(M))
        monkeypatch.setattr(SampleMoments, "covariance", property(lambda m: formed.append(m) or covariance(m)))
        assert main(["estimate", "--input", data, "--rho", "0.5", *extra, "--output", str(out)]) == 0
        assert sizes == [12] and not formed
        monkeypatch.undo()

        moments = pooled_moments(LabeledDataset(X, labels)) if pooled else sample_moments(X)
        expected = wasserstein_shrinkage(moments.covariance, 0.5)
        P = expected.precision
        assert np.abs(io.read_matrix_csv(out) - P).max() <= 1e-9 * np.abs(P).max()
        diag = json.loads((tmp_path / "prec.json").read_text())
        assert diag["p"] == 40 and diag["n"] == 12 and diag["projected_grad_norm"] is None
        assert abs(diag["gamma_star"] - expected.dual_multiplier) <= 1e-9 * expected.dual_multiplier
        assert abs(diag["objective"] - expected.objective) <= 1e-9 * abs(expected.objective)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("pooled", [False, True], ids=["sample", "pooled"])
    def test_full_rank_gradient_norm_is_the_multiplier_part(self, tmp_path, rng, scale, pooled):
        # at the optimum the worst case is X^-1, so the gradient's matrix part vanishes and the
        # norm is its multiplier part |rho^2 - sum x / gamma^2|, the dense gradient's to rounding
        X = np.sqrt(scale) * (rng.standard_normal((30, 6)) * rng.uniform(0.5, 2.0, 6) + 1.0)
        labels = np.arange(30) % 3
        data, out = write_csv(tmp_path / "d.csv", X), tmp_path / "prec.csv"
        (tmp_path / "y.csv").write_text("".join(f"{label}\n" for label in labels))
        extra = ["--labels", str(tmp_path / "y.csv")] if pooled else []
        rho = 0.5 * scale**0.5
        assert main(["estimate", "--input", data, "--rho", repr(rho), *extra, "--output", str(out)]) == 0
        diag = json.loads((tmp_path / "prec.json").read_text())
        X = io.read_matrix_csv(data)
        moments = pooled_moments(LabeledDataset(X, labels)) if pooled else sample_moments(X)
        _, g_gamma = sqa_gradient(moments.covariance, io.read_matrix_csv(out), diag["gamma_star"], rho)
        assert abs(diag["projected_grad_norm"] - abs(g_gamma)) <= 1e-10 * rho**2

    def test_rank_deficient_input_reports_no_gradient_norm(self, tmp_path, rng):
        # more rows than columns, but a repeated column: a zero eigenvalue maps to gamma
        X = rng.standard_normal((20, 4))
        X[:, 3] = X[:, 0]
        out = tmp_path / "prec.csv"
        assert main(["estimate", "--input", write_csv(tmp_path / "d.csv", X), "--rho", "0.5",
                     "--output", str(out)]) == 0
        assert json.loads((tmp_path / "prec.json").read_text())["projected_grad_norm"] is None

    def test_infinite_tolerance_is_user_error(self, files, capsys):
        # it would stop the solver at its warm start and report that point as converged
        code = main(["estimate", "--input", str(files / "X.csv"), "--rho", "0.5", "--pattern",
                     str(files / "p.json"), "--tol", "inf", "--output", str(files / "o.csv")])
        assert code == 1
        assert "grad_tol must be finite and positive" in capsys.readouterr().err
        assert not (files / "o.csv").exists()

    def test_rho_and_grid_mutually_exclusive(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(2))
        code = main(["estimate", "--input", data, "--rho", "1",
                     "--grid", '{"param":"rho","log10_from":0,"log10_to":1,"points":3}',
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1


class TestTune:
    def test_single_point_grid_selected(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((12, 3)))
        out = str(tmp_path / "report.json")
        code = main(["tune", "--input", data, "--cv", "kfold:3", "--output", out,
                     "--grid", '{"param":"rho","log10_from":-0.5,"log10_to":-0.5,"points":1}'])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["selected"] == pytest.approx(10 ** -0.5)
        assert len(doc["values"]) == 1

    def test_degenerate_grid_rejected(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3))
        code = main(["tune", "--input", data, "--output", str(tmp_path / "r.json"),
                     "--grid", '{"param":"rho","log10_from":0,"log10_to":0,"points":3}'])
        assert code == 1
        assert "increasing" in capsys.readouterr().err

    def test_non_integer_fold_count_is_unknown_scheme(self, tmp_path, rng, capsys):
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((12, 3)))
        code = main(["tune", "--input", data, "--cv", "kfold:x", "--output", str(tmp_path / "r.json"),
                     "--grid", '{"param":"rho","log10_from":-1,"log10_to":0,"points":3}'])
        err = capsys.readouterr().err
        assert code == 1 and "unknown scheme 'kfold:x'" in err and "invalid literal" not in err

    def test_rerun_is_identical(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((15, 3)))
        grid = '{"param":"rho","log10_from":-1,"log10_to":0.5,"points":5}'
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["tune", "--input", data, "--grid", grid, "--cv", "kfold:3",
                         "--seed", "4", "--output", out]) == 0
            outs.append((tmp_path / name).read_text())
        assert outs[0] == outs[1]

    def test_rho_grid_runs_the_radius_path(self):
        assert hasattr(_estimator_for("rho", None, SolverConfig()), "path")
        assert not hasattr(_estimator_for("alpha", None, SolverConfig()), "path")

    def test_report_counts_failed_folds(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((12, 3)))
        out = str(tmp_path / "r.json")
        assert main(["tune", "--input", data, "--cv", "kfold:3", "--output", out,
                     "--grid", '{"param":"rho","log10_from":-1,"log10_to":0,"points":3}']) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["failed_folds"] == [0, 0, 0]

    def test_report_names_the_first_error_of_each_value(self, tmp_path, rng):
        # 8 rows of 12 columns: the blend is singular at the smallest mixing weights
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((8, 12)))
        out = tmp_path / "r.json"
        assert main(["tune", "--input", data, "--cv", "kfold:2", "--output", str(out),
                     "--grid", '{"param":"alpha","log10_from":-16,"log10_to":0,"points":5}']) == 0
        doc = json.loads(out.read_text())
        assert doc["failed_folds"] == [2, 2, 0, 0, 0]
        assert doc["first_errors"][0].startswith("SingularMatrixError: blended covariance is singular at alpha=1e-16")
        assert doc["first_errors"][1].startswith("SingularMatrixError: blended covariance is singular at alpha=1e-12")
        assert doc["first_errors"][2:] == [None, None, None]
        assert doc["selected"] in doc["values"][2:] and "mode" not in doc

    def test_unconverged_pattern_solves_count_as_failed_folds(self, tmp_path, capsys):
        # one Newton step leaves every solve short of the tolerance: each cell fails, named
        # by its error, where it used to be scored as if the solve had converged; no radius
        # scored, so none is selected and the command is a solver error
        data = write_csv(tmp_path / "d.csv", np.random.default_rng(2).normal(0.0, 1.0, (40, 8)))
        write_pattern(tmp_path / "pat.json", 8, [[1, 2], [3, 5], [4, 8]])
        out = tmp_path / "r.json"
        assert main(["tune", "--input", data, "--pattern", str(tmp_path / "pat.json"), "--max-iters", "1",
                     "--cv", "kfold:4", "--output", str(out),
                     "--grid", '{"param":"rho","log10_from":-2,"log10_to":1,"points":7}']) == 2
        doc = json.loads(out.read_text())
        assert doc["failed_folds"] == [4] * 7 and doc["selected"] is None
        assert "sqa_solve at rho=0.01: iteration budget (1) exhausted" in capsys.readouterr().err
        assert doc["first_errors"][0] == "ConvergenceError: sqa_solve at rho=0.01: iteration budget (1) exhausted"
        assert all(e.startswith("ConvergenceError: sqa_solve at rho=") for e in doc["first_errors"])

    def test_no_selection_when_no_value_scored(self, tmp_path, rng, monkeypatch, capsys):
        # every multiplier solve stops at its first iteration, so every cell fails
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((12, 4)))
        out = tmp_path / "r.json"
        assert main(["tune", "--input", data, "--cv", "kfold:3", "--output", str(out), "--grid", GRID]) == 2
        doc = json.loads(out.read_text())
        assert doc["selected"] is None and doc["failed_folds"] == [3, 3]
        err = capsys.readouterr().err
        assert "no rho value scored" in err and doc["first_errors"][0] in err

    def test_alpha_grid_uses_linear_shrinkage(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", rng.standard_normal((12, 4)))
        out = str(tmp_path / "r.json")
        code = main(["tune", "--input", data, "--cv", "kfold:3", "--output", out,
                     "--grid", '{"param":"alpha","log10_from":-2,"log10_to":-0.5,"points":4}'])
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["param"] == "alpha"


class TestWorstCase:
    def test_scalar_chain(self, tmp_path):
        cov = write_csv(tmp_path / "cov.csv", [[1.0]])
        out = str(tmp_path / "worst.csv")
        assert main(["worstcase", "--input", cov, "--rho", "1", "--output", out]) == 0
        assert_allclose(io.read_matrix_csv(out), [[4.0]], atol=1e-9)
        doc = json.loads((tmp_path / "worst.json").read_text())
        assert abs(doc["attained_distance"] - 1.0) <= 1e-6

    def test_round_trips_prior_estimate_output(self, tmp_path, rng):
        data = write_csv(tmp_path / "d.csv", sample_gaussian(random_spd(3, rng), 25, 7))
        prec = str(tmp_path / "prec.csv")
        assert main(["estimate", "--input", data, "--rho", "0.4", "--output", prec]) == 0
        # precision output is a valid PSD matrix input for the worst-case command
        out = str(tmp_path / "worst.csv")
        assert main(["worstcase", "--input", prec, "--rho", "0.4", "--output", out]) == 0
        written = io.read_matrix_csv(prec)
        again = str(tmp_path / "prec2.csv")
        io.write_matrix_csv(again, written)
        assert (io.read_matrix_csv(again) == written).all()

    def test_attained_distance_checked_relative_to_rho(self, tmp_path, monkeypatch):
        # at rho = 1e-8 an absolute 1e-6 bound would accept any distance
        cov = write_csv(tmp_path / "cov.csv", [[1.0]])
        real = cli.extremal_for_optimal

        def off(cov, rho):
            return dataclasses.replace(real(cov, rho), attained_distance=rho * (1.0 + 1e-3))

        monkeypatch.setattr(cli, "extremal_for_optimal", off)
        assert main(["worstcase", "--input", cov, "--rho", "1e-8",
                     "--output", str(tmp_path / "w.csv")]) == 2

    def test_rejects_nonpositive_rho(self, tmp_path):
        cov = write_csv(tmp_path / "cov.csv", [[1.0]])
        assert main(["worstcase", "--input", cov, "--rho", "0",
                     "--output", str(tmp_path / "w.csv")]) == 1


class TestSynthetic:
    def test_single_trial_run_and_summary(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(["synthetic", "--p", "4", "--density", "0.5", "--n", "10",
                     "--trials", "1", "--grid-points", "3", "--seed", "1",
                     "--output", out])
        assert code == 0
        rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,estimator,param,loss"
        assert len(rows) == 1 + 3
        summary = (tmp_path / "bench_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "estimator,param,mean,q20,q80"

    def test_unconverged_known_zeros_solve_is_solver_error(self, tmp_path, capsys):
        # a Stein loss is never reported for an estimate the solver did not converge to: its
        # cell is inf, and every other cell keeps its loss
        code = main(["synthetic", "--p", "10", "--density", "0.1", "--n", "10", "--trials", "2",
                     "--grid-points", "3", "--known-zeros", "0.5", "--max-iters", "1",
                     "--output", str(tmp_path / "syn.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sqa_solve at rho=0.01: iteration budget (1) exhausted" in err
        rows = [line.split(",") for line in (tmp_path / "syn.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2 * 3  # every trial, estimator and radius
        failed = [row for row in rows if not np.isfinite(float(row[3]))]
        assert f"wasserstein+zeros50: {len(failed)} of 6 cells failed" in err
        assert failed and all(row[1] == "wasserstein+zeros50" for row in failed)
        assert all(np.isfinite(float(row[3])) for row in rows if row[1] == "wasserstein")
        summary = (tmp_path / "syn_summary.csv").read_text().splitlines()[1:]
        assert len(summary) == 2 * 3

    def test_deterministic_rerun(self, tmp_path):
        args = ["synthetic", "--p", "4", "--density", "0.5", "--n", "8",
                "--trials", "2", "--grid-points", "3", "--seed", "3"]
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(args + ["--output", a]) == 0
        assert main(args + ["--output", b]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_quantiles_recomputable_from_long_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["synthetic", "--p", "3", "--density", "0.5", "--n", "9",
                     "--trials", "5", "--grid-points", "2", "--seed", "2",
                     "--output", out]) == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()[1:]
        losses = {}
        for line in lines:
            trial, name, param, loss = line.split(",")
            losses.setdefault(float(param), []).append(float(loss))
        summary = (tmp_path / "bench_summary.csv").read_text().strip().splitlines()[1:]
        for line in summary:
            name, param, mean, q20, q80 = line.split(",")
            got = losses[float(param)]
            assert float(mean) == pytest.approx(np.mean(got), rel=1e-12)
            assert float(q20) == pytest.approx(np.quantile(got, 0.2), rel=1e-12)
            assert float(q80) == pytest.approx(np.quantile(got, 0.8), rel=1e-12)

    @pytest.mark.parametrize("extra", [[], ["--tol", "1e-3"]], ids=["alone", "with_tol"])
    def test_known_zeros_without_values_is_usage_error(self, extra, tmp_path, monkeypatch, capsys):
        # an empty --known-zeros parsed to [], which read as "not given": alone it ran the
        # wasserstein estimator only and exited 0, and with --tol it was "--tol needs --known-zeros"
        runs = []
        monkeypatch.setattr(cli, "synthetic_benchmark", lambda *args: runs.append(args))
        out = tmp_path / "o.csv"
        assert main(["synthetic", "--p", "4", "--density", "0.5", "--n", "8", "--trials", "1",
                     "--grid-points", "2", "--known-zeros", *extra, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: wshrink synthetic") and "error: argument --known-zeros: expected" in err
        assert not runs and not out.exists()

    def test_known_zeros_that_share_a_label_are_a_user_error(self, tmp_path, monkeypatch, capsys):
        # 0.5 and 0.501 both round to the label wasserstein+zeros50: the second fraction's
        # estimator replaced the first one's, and the command exited 0
        runs = []
        monkeypatch.setattr(cli, "synthetic_benchmark", lambda *args: runs.append(args))
        out = tmp_path / "syn.csv"
        assert main(["synthetic", "--p", "6", "--density", "0.2", "--n", "12", "--trials", "1",
                     "--grid-points", "2", "--known-zeros", "0.5", "0.501", "--output", str(out)]) == 1
        assert capsys.readouterr().err == ("error: --known-zeros 0.5 and 0.501 both take the label "
                                           "wasserstein+zeros50\n")
        assert not runs and not out.exists()


class TestLdaCommand:
    def _toy(self, tmp_path, rng):
        mus = np.array([[0.0, 0.0, 0.0], [2.5, -1.0, 1.0]])
        X = np.vstack([mus[0] + 0.4 * rng.standard_normal((12, 3)),
                       mus[1] + 0.4 * rng.standard_normal((12, 3))])
        y = np.array([0] * 12 + [1] * 12)
        data = write_csv(tmp_path / "X.csv", X)
        labels = tmp_path / "y.csv"
        labels.write_text("".join(f"{v}\n" for v in y))
        return data, str(labels)

    def test_fixed_rho_fit(self, tmp_path, rng):
        data, labels = self._toy(tmp_path, rng)
        out = str(tmp_path / "report.json")
        assert main(["lda", "--input", data, "--labels", labels, "--rho", "0.5",
                     "--output", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["train_accuracy"] >= 0.9

    def test_grid_cv_and_predictions(self, tmp_path, rng):
        data, labels = self._toy(tmp_path, rng)
        test = write_csv(tmp_path / "test.csv", [[0.0, 0.0, 0.0], [2.5, -1.0, 1.0]])
        out = str(tmp_path / "report.json")
        assert main(["lda", "--input", data, "--labels", labels, "--cv", "kfold:4",
                     "--grid", '{"param":"rho","log10_from":-1,"log10_to":0.5,"points":4}',
                     "--test-input", test, "--output", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["selected_rho"] in doc["values"]
        predictions = (tmp_path / "report_predictions.csv").read_text().split()
        assert predictions == ["0", "1"]

    def test_grid_runs_one_radius_path_per_fold(self, tmp_path, rng, monkeypatch):
        data, labels = self._toy(tmp_path, rng)
        grid = '{"param":"rho","log10_from":-1,"log10_to":0.5,"points":4}'
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
        out = str(tmp_path / "report.json")
        assert main(["lda", "--input", data, "--labels", labels, "--cv", "kfold:4", "--seed", "2",
                     "--grid", grid, "--output", out]) == 0
        assert len(calls) == 4 + 1  # one per fold, one for the final fit
        doc = json.loads((tmp_path / "report.json").read_text())

        # the per-radius loop: one lda_fit, and so one eigh, per (fold, radius)
        X, y = io.read_matrix_csv(data), io.read_labels_csv(labels)
        rhos = np.logspace(-1, 0.5, 4)
        scores = np.zeros((4, rhos.size))
        for k, fold in enumerate(make_folds(X.shape[0], "kfold:4", 2)):
            train = LabeledDataset(np.delete(X, fold, axis=0), np.delete(y, fold))
            for g, rho in enumerate(rhos):
                model = lda_fit(train, lambda m, r=rho: analytical_estimator(m, r))
                scores[k, g] = np.mean(lda_classify(model, X[fold]) == y[fold])
        assert doc["mean_accuracy"] == scores.mean(axis=0).tolist()
        assert doc["selected_rho"] == float(rhos[np.argmax(scores.mean(axis=0))])


    def test_grid_that_no_fold_scored_writes_the_report_and_stops(self, tmp_path, rng, monkeypatch, capsys):
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)  # every multiplier root solve fails
        data, labels = self._toy(tmp_path, rng)
        test = write_csv(tmp_path / "test.csv", [[0.0, 0.0, 0.0]])
        out = tmp_path / "report.json"
        assert main(["lda", "--input", data, "--labels", labels, "--cv", "kfold:3", "--test-input", test,
                     "--grid", '{"param":"rho","log10_from":-2,"log10_to":1,"points":7}',
                     "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["selected"] is None and doc["selected_rho"] is None
        assert doc["failed_folds"] == [3] * 7
        assert all(e.startswith("EstimationError: multiplier root solve") for e in doc["first_errors"])
        assert doc["mean_accuracy"] == [-np.inf] * 7
        assert "train_accuracy" not in doc and "predictions" not in doc
        assert not (tmp_path / "report_predictions.csv").exists()
        assert "no rho value scored on every fold" in capsys.readouterr().err

    def test_fold_that_leaves_a_class_one_row_is_a_user_error(self, tmp_path, rng, capsys):
        # leave-one-out with a class of 2 rows: the fold that holds one of them trains on the other alone
        y = np.array([0] * 10 + [1] * 2)
        data = write_csv(tmp_path / "X.csv", rng.standard_normal((12, 3)) + y[:, None])
        labels = tmp_path / "y.csv"
        labels.write_text("".join(f"{v}\n" for v in y))
        out = tmp_path / "report.json"
        assert main(["lda", "--input", data, "--labels", str(labels), "--cv", "loo", "--grid", GRID,
                     "--output", str(out)]) == 1
        k = next(k for k, fold in enumerate(make_folds(12, "loo", 0)) if y[fold[0]] == 1)
        assert capsys.readouterr().err.startswith(f"error: fold {k}: every class needs at least 2 samples")
        assert not out.exists()


    def test_test_labels_must_match_test_rows(self, tmp_path, rng, capsys):
        # one test row scored against four labels used to broadcast to an accuracy of 0.25
        data, labels = self._toy(tmp_path, rng)
        test = write_csv(tmp_path / "test.csv", [[0.0, 0.0, 0.0]])
        test_labels = tmp_path / "ty.csv"
        test_labels.write_text("0\n1\n1\n1\n")
        out = tmp_path / "report.json"
        assert main(["lda", "--input", data, "--labels", labels, "--rho", "0.5", "--test-input", test,
                     "--test-labels", str(test_labels), "--output", str(out)]) == 1
        assert "4 labels for 1 test rows" in capsys.readouterr().err
        assert not out.exists()

    def test_test_accuracy_against_matching_labels(self, tmp_path, rng):
        data, labels = self._toy(tmp_path, rng)
        test = write_csv(tmp_path / "test.csv", [[0.0, 0.0, 0.0], [2.5, -1.0, 1.0]])
        test_labels = tmp_path / "ty.csv"
        test_labels.write_text("0\n0\n")
        out = tmp_path / "report.json"
        assert main(["lda", "--input", data, "--labels", labels, "--rho", "0.5", "--test-input", test,
                     "--test-labels", str(test_labels), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["test_accuracy"] == 0.5


class TestPortfolioCommand:
    def test_fixed_rho_backtest(self, tmp_path, rng):
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((60, 4)))
        out = str(tmp_path / "report.json")
        assert main(["portfolio", "--input", R, "--rho", "0.3", "--window", "24",
                     "--stride", "6", "--output", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["std"] > 0.0
        assert doc["n_oos_returns"] == 36

    def test_grid_that_no_fold_scored_stops_before_the_backtest(self, tmp_path, rng, monkeypatch, capsys):
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)  # every multiplier solve fails
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((40, 3)))
        backtests = []
        monkeypatch.setattr(cli, "rolling_backtest", lambda *args: backtests.append(args))
        out = tmp_path / "report.json"
        assert main(["portfolio", "--input", R, "--grid", GRID, "--cv", "kfold:3", "--window", "20",
                     "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert not backtests and doc["selected"] is None and doc["failed_folds"] == [3, 3]
        assert "std" not in doc
        assert "no rho value scored" in capsys.readouterr().err

    def test_non_finite_input_is_user_error(self, tmp_path, rng, capsys):
        R = (0.02 * rng.standard_normal((40, 3))).astype(str)
        R[17, 1] = "nan"
        path = tmp_path / "returns.csv"
        path.write_text("".join(",".join(row) + "\n" for row in R))
        assert main(["portfolio", "--input", str(path), "--rho", "0.1", "--window", "20", "--stride", "5",
                     "--output", str(tmp_path / "report.json")]) == 1
        assert capsys.readouterr().err == f"error: {path}:18: non-finite value in column 2\n"

    def test_backtest_failure_exits_with_the_code_of_its_cause(self, tmp_path, rng, monkeypatch, capsys):
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((40, 3)))
        args = ["portfolio", "--input", R, "--rho", "0.1", "--window", "20", "--stride", "5",
                "--output", str(tmp_path / "report.json")]

        def refuse(precision):
            raise ValueError("1' X 1 is too close to zero")

        with monkeypatch.context() as patch:
            patch.setattr(applications, "min_variance_weights", refuse)
            assert main(args) == 1
        assert capsys.readouterr().err == ("error: rebalance failed on window starting at row 0: "
                                           "1' X 1 is too close to zero\n")
        monkeypatch.setattr(_kernels, "MAX_ITER", 1)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rebalance failed on window starting at row 0: multiplier root solve")

    def test_other_runtime_error_propagates(self, tmp_path, rng, monkeypatch):
        def bug(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "rolling_backtest", bug)
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((40, 3)))
        with pytest.raises(RuntimeError, match="bug"):
            main(["portfolio", "--input", R, "--rho", "0.1", "--window", "20", "--output", str(tmp_path / "r.json")])

    def test_grid_tuning_runs(self, tmp_path, rng):
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((50, 3)))
        out = str(tmp_path / "report.json")
        assert main(["portfolio", "--input", R, "--window", "30", "--stride", "10",
                     "--cv", "kfold:5",
                     "--grid", '{"param":"rho","log10_from":-1,"log10_to":0,"points":3}',
                     "--output", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["selected"] in doc["values"]
        assert doc["failed_folds"] == [0, 0, 0]

    def test_grid_report_names_the_first_error_of_each_value(self, tmp_path, rng):
        # training windows of 8 rows of 12 assets: the blend is singular at the smallest mixing weight
        R = write_csv(tmp_path / "returns.csv", 0.02 * rng.standard_normal((20, 12)))
        out = tmp_path / "report.json"
        assert main(["portfolio", "--input", R, "--window", "8", "--stride", "4", "--cv", "kfold:2",
                     "--grid", '{"param":"alpha","log10_from":-16,"log10_to":0,"points":3}',
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["failed_folds"] == [2, 0, 0]
        assert doc["first_errors"][0].startswith("SingularMatrixError: blended covariance is singular at alpha=1e-16")
        assert doc["first_errors"][1:] == [None, None]
