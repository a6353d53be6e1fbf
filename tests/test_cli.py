import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexibound import cli
from lexibound.core import RngStream, deduplicate, read_matrix_csv, write_matrix_csv
from lexibound.diversity import similarity_bruteforce
from lexibound.popgen import gen_clustered, gen_random_uniform, gen_two_cluster


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run(argv):
    return cli.main(argv)


class TestGenpop:
    def test_adversarial_exact_file(self, tmp_path):
        out = tmp_path / "adv.csv"
        assert run(["genpop", "--kind", "adversarial_single_case", "--n", "3", "--c", "2", "--out", str(out)]) == 0
        assert out.read_text() == "case_0,case_1\n0,0\n1,0\n2,0\n"

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["genpop", "--kind", "random_uniform", "--n", "10", "--c", "6", "--levels", "3", "--seed", "5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_log_binary_rows(self, tmp_path):
        out = tmp_path / "lb.csv"
        assert run(["genpop", "--kind", "log_binary", "--n", "4", "--c", "3", "--out", str(out)]) == 0
        matrix = read_matrix_csv(out)
        assert matrix.losses.tolist() == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]]

    def test_spec_json(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "two_cluster", "n": 6, "c": 10}')
        out = tmp_path / "tc.csv"
        assert run(["genpop", "--spec", str(spec), "--out", str(out)]) == 0
        assert read_matrix_csv(out).n_individuals == 6

    def test_inline_spec_longer_than_a_file_name(self, tmp_path):
        # past the 255-byte name limit, so it must never be probed as a path
        spec = " \n" + json.dumps({"kind": "two_cluster", "n": 6, "c": 10, "params": {}}) + " " * 300
        out = tmp_path / "tc.csv"
        assert len(spec.encode()) > 255
        assert run(["genpop", "--spec", spec, "--out", str(out)]) == 0
        assert read_matrix_csv(out).n_individuals == 6

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["genpop", "--kind", "log_binary", "--n", "6", "--c", "10", "--out", str(out)]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_missing_flags_exit_2(self, tmp_path):
        assert run(["genpop", "--kind", "two_cluster", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--kind", "two_cluster"], "--kind"),
            (["--n", "99"], "--n"),
            (["--c", "4"], "--c"),
            (["--levels", "7"], "--levels"),
            (["--clusters", "2"], "--clusters"),
            (["--spread", "0.1"], "--spread"),
            (["--seed", "0"], "--seed"),
            (["--seed", "5", "--n", "99", "--levels", "7"], "--n"),
            (["--spread", "0.1", "--n", "99", "--kind", "clustered"], "--kind"),
        ],
    )
    def test_generator_flags_with_spec_exit_2(self, flags, named, tmp_path, capsys):
        # the spec sets every generator field, so a flag beside it would be ignored
        out = tmp_path / "x.csv"
        spec = '{"kind": "random_uniform", "n": 5, "c": 4}'
        assert run(["genpop", "--spec", spec, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"lexibound: error: {named} cannot be combined with --spec, which sets every generator field\n"
        )
        assert not out.exists()

    def test_largest_seed_is_the_same_by_flag_and_spec(self, tmp_path):
        by_flag, by_spec = tmp_path / "a.csv", tmp_path / "b.csv"
        seed = str(2**64 - 1)
        argv = ["genpop", "--kind", "random_uniform", "--n", "6", "--c", "5", "--seed", seed]
        assert run(argv + ["--out", str(by_flag)]) == 0
        spec = '{"kind": "random_uniform", "n": 6, "c": 5, "seed": %s}' % seed
        assert run(["genpop", "--spec", spec, "--out", str(by_spec)]) == 0
        assert by_flag.read_bytes() == by_spec.read_bytes()


class TestGoldenOutput:
    """Pins the exact stdout bytes of the text-producing commands."""

    CASES = {
        "analyze.csv": ["analyze", "pop.csv", "--epsilon-grid", "0.2:0.6:0.2", "--budget", "1"],
        "analyze.json": ["analyze", "pop.csv", "--epsilon-grid", "0.1:0.5:0.2", "--format", "json"],
        "analyze-real.csv": ["analyze", "real.csv", "--delta", "0.3", "--epsilon", "0.5"],
        "sweep-run.csv": ["sweep-run", "run"],
        "sweep-run.json": ["sweep-run", "run", "--format", "json"],
        "simulate.json": [
            "simulate", "pop.csv", "--trials", "500", "--seed", "7",
            "--check-bound", "--epsilon-grid", "0.2:0.6:0.2", "--budget", "1",
        ],
    }

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run").mkdir()
        for argv in (
            ["--kind", "clustered", "--n", "12", "--c", "16", "--clusters", "3", "--spread", "0.1",
             "--seed", "4", "--out", "pop.csv"],
            ["--kind", "clustered", "--n", "10", "--c", "12", "--clusters", "2", "--spread", "0.05",
             "--seed", "1", "--out", "run/gen_0.csv"],
            ["--kind", "random_uniform", "--n", "10", "--c", "12", "--levels", "3", "--seed", "2",
             "--out", "run/gen_1.csv"],
        ):
            assert run(["genpop"] + argv) == 0
        (tmp_path / "real.csv").write_text("0.5,1.5,2.25\n1.0,0.25,2.0\n0.125,0.2,0.3\n0.5,1.5,2.0\n")
        return tmp_path

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_bytes(self, name, workdir, capsys):
        capsys.readouterr()
        assert run(self.CASES[name]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text()


class TestAnalyze:
    def test_end_to_end_two_cluster(self, tmp_path, capsys):
        matrix_path = tmp_path / "tc.csv"
        run(["genpop", "--kind", "two_cluster", "--n", "6", "--c", "10", "--out", str(matrix_path)])
        out = tmp_path / "report.csv"
        assert run(["analyze", str(matrix_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 13  # header + 12 grid rows
        header = lines[0].split(",")
        prof = deduplicate(read_matrix_csv(matrix_path))
        k_col = header.index("k")
        eps_col = header.index("epsilon")
        for line in lines[1:]:
            cells = line.split(",")
            expected = similarity_bruteforce(prof, cells[eps_col])
            assert int(cells[k_col]) == expected
        assert dict(zip(header, lines[10].split(",")))["k"] == "4"  # eps = 0.5

    def test_single_epsilon(self, tmp_path):
        matrix_path = tmp_path / "tc.csv"
        run(["genpop", "--kind", "two_cluster", "--n", "6", "--c", "10", "--out", str(matrix_path)])
        out = tmp_path / "one.csv"
        assert run(["analyze", str(matrix_path), "--epsilon", "0.25", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_json_format(self, tmp_path, capsys):
        matrix_path = tmp_path / "tc.csv"
        run(["genpop", "--kind", "two_cluster", "--n", "6", "--c", "10", "--out", str(matrix_path)])
        assert run(["analyze", str(matrix_path), "--format", "json", "--epsilon", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["k"] == 4

    def test_malformed_csv_exits_2_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\n0,zap\n")
        assert run(["analyze", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_oversized_cell_exits_2_naming_line(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("1," + "0" * 140_000 + "\n")
        assert run(["analyze", str(big)]) == 2
        err = capsys.readouterr().err
        assert f"{big}: line 1: field larger than field limit" in err and "Traceback" not in err

    def test_headerless_first_row_typo_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,oops\n1,0\n2,2\n")
        assert run(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1: cell 2 is not a number" in err and "Traceback" not in err

    def test_require_exact_budget_exit_3(self, tmp_path):
        matrix_path = tmp_path / "dense.csv"
        write_matrix_csv(gen_random_uniform(30, 6, 2, RngStream(3)), matrix_path)
        code = run(["analyze", str(matrix_path), "--budget", "1", "--require-exact"])
        assert code == 3

    def test_real_matrix_requires_delta(self, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("0.5,1.5\n1.0,0.25\n")
        assert run(["analyze", str(real)]) == 2
        assert "--delta" in capsys.readouterr().err
        assert run(["analyze", str(real), "--delta", "0.1"]) == 0

    def test_sidecar_not_an_object_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.csv"
        matrix_path.write_text("0,1\n1,0\n")
        (tmp_path / "m.csv.json").write_text("[1]")
        assert run(["analyze", str(matrix_path)]) == 2
        err = capsys.readouterr().err
        assert "m.csv.json" in err and "Traceback" not in err

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.csv"
        matrix_path.write_text("0,1\n1,0\n")
        assert run(["analyze", str(matrix_path), "--epsilon-grid", "1e-7:1:1e-7"]) == 2
        assert "10000000 points" in capsys.readouterr().err

    def test_astronomical_grid_count_stays_short(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.csv"
        matrix_path.write_text("0,1\n1,0\n")
        assert run(["analyze", str(matrix_path), "--epsilon-grid", "0.1:0.5:1e-300"]) == 2
        err = capsys.readouterr().err
        assert "has 4.0e+299 points" in err and len(err) < 200

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["analyze", str(tmp_path / "nope.csv")]) == 2


class TestBrokenPipe:
    """A reader that closes standard output early (``| head``) is not an
    input error: the run exits 141, as a SIGPIPE kill would, and says nothing."""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_141_quietly(self, unbuffered, tmp_path):
        pop = tmp_path / "pop.csv"
        assert run(["genpop", "--kind", "two_cluster", "--n", "6", "--c", "10", "--out", str(pop)]) == 0
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
        for argv in (["verify"], ["analyze", str(pop)]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "lexibound", *argv],
                    stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
                )
            finally:
                os.close(write_end)
            assert done.returncode == 141, done.stderr
            # analyze's one-line summary is all that reaches stderr
            assert [line for line in done.stderr.splitlines() if not line.startswith("# ")] == []


class TestInputErrors:
    """Bad files, flags and output paths exit 2 with a message naming them."""

    @pytest.mark.parametrize("command", ["genpop", "analyze", "sweep-run", "simulate"])
    def test_unwritable_out_exits_2(self, command, tmp_path, capsys):
        (tmp_path / "gen_0.csv").write_text("0,1\n1,0\n1,1\n")
        matrix = str(tmp_path / "gen_0.csv")
        argv = {
            "genpop": ["genpop", "--kind", "two_cluster", "--n", "6", "--c", "10"],
            "analyze": ["analyze", matrix],
            "sweep-run": ["sweep-run", str(tmp_path)],
            "simulate": ["simulate", matrix, "--trials", "10"],
        }[command]
        out = tmp_path / "missing" / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        ['{"kind": "two_cluster", "n": [6], "c": 10}', '{"kind": "two_cluster", "n": 6, "c": 10, "seed": null}'],
    )
    def test_spec_wrong_type_exits_2(self, spec, tmp_path, capsys):
        assert run(["genpop", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid GenSpec" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    @pytest.mark.parametrize("command", ["genpop", "genpop-spec", "simulate", "verify"])
    def test_seed_outside_64_bits_exits_2(self, command, seed, tmp_path, capsys):
        # RngStream reads seeds modulo 2**64: -1 would alias 2**64 - 1, and 2**64 + 3 would alias 3
        (tmp_path / "m.csv").write_text("0,1\n1,0\n")
        out = tmp_path / "x.csv"
        spec = '{"kind": "random_uniform", "n": 6, "c": 5, "seed": %d}' % seed
        argv = {
            "genpop": ["genpop", "--kind", "random_uniform", "--n", "6", "--c", "5", "--seed", str(seed)],
            "genpop-spec": ["genpop", "--spec", spec],
            "simulate": ["simulate", str(tmp_path / "m.csv"), "--trials", "10", "--seed", str(seed)],
            "verify": ["verify", "--seed", str(seed)],
        }[command]
        if command.startswith("genpop"):
            argv += ["--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        name = "invalid GenSpec: seed" if command == "genpop-spec" else "--seed"
        assert captured.err == f"lexibound: error: {name} must be in [0, 2**64), got {seed}\n"
        assert captured.out == "" and not out.exists()

    def test_spec_directory_exits_2(self, tmp_path, capsys):
        assert run(["genpop", "--spec", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_missing_spec_path_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["genpop", "--spec", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file" in err

    def test_integer_beyond_2_53_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("9007199254740993,1\n9007199254740992,1\n1,1\n")
        assert run(["analyze", str(path)]) == 2
        assert "big.csv: line 1: cell 1 is an integer beyond 2**53" in capsys.readouterr().err

    def test_non_utf8_exits_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff0,1\n1,0\n")
        assert run(["simulate", str(path), "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert "latin.csv" in err and "'utf-8' codec" in err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_2(self, delta, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("0.5,1.5\n1.0,0.25\n")
        assert run(["analyze", str(real), "--delta", delta]) == 2
        assert "--delta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_exits_2(self, spread, tmp_path, capsys):
        argv = ["genpop", "--kind", "clustered", "--n", "10", "--c", "10", "--clusters", "2"]
        assert run(argv + ["--spread", spread, "--out", str(tmp_path / "x.csv")]) == 2
        assert "spread must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["analyze", "pop.csv", "--epsilon", "1e-310"], "1e-310"),
            (["analyze", "pop.csv", "--epsilon", "1e-400"], "1e-400"),
            (["analyze", "pop.csv", "--epsilon-grid", "1e-320:1e-319:1e-320"], "1e-320"),
            (["simulate", "pop.csv", "--trials", "10", "--check-bound", "--epsilon", "1e-310"], "1e-310"),
        ],
    )
    def test_tiny_epsilon_exits_2(self, argv, value, tmp_path, monkeypatch, capsys):
        # 4N/eps would overflow a float
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pop.csv").write_text("0,1\n1,0\n1,1\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"lexibound: error: epsilon {value} is too small: 4N/eps overflows a float\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--kind", "clustered", "--n", "4", "--c", "100", "--clusters", "2", "--spread", "1e307"],
                "spread must be finite and in [0, 1), got 1e+307",
            ),
            (
                ["--kind", "two_cluster", "--n", "6", "--c", "10", "--levels", "3"],
                "two_cluster reads no param 'levels'",
            ),
            (
                ["--spec", '{"kind": "clustered", "n": 4, "c": 100, "params": {"clusters": [2]}}'],
                "invalid GenSpec param 'clusters': int() argument must be",
            ),
            (
                ["--spec", '{"kind": "random_uniform", "n": 4, "c": 4, "params": {"levels": 1e400}}'],
                "invalid GenSpec param 'levels': cannot convert float infinity to integer",
            ),
            (
                ["--spec", '{"kind": "random_uniform", "n": 4, "c": 4, "params": {"levls": 3}}'],
                "random_uniform reads no param 'levls' (params: levels)",
            ),
            (
                ["--spec", '{"kind": "two_cluster", "n": 6, "c": 10, "sed": 5}'],
                "invalid GenSpec: unknown key 'sed'",
            ),
            (["--spec", '{"kind": "two_cluster", "n": 1e400, "c": 10}'], "invalid GenSpec: cannot convert float"),
            (
                ["--spec", '{"kind": "random_uniform", "n": 6.7, "c": 5, "params": {"levels": 2}}'],
                "invalid GenSpec: n must be an integer, got 6.7",
            ),
            (["--spec", '{"kind": "two_cluster", "n": 6, "c": true}'], "invalid GenSpec: c must be an integer, got True"),
            (
                ["--spec", '{"kind": "random_uniform", "n": 6, "c": 5, "params": {"levels": 2.9}}'],
                "invalid GenSpec param 'levels': levels must be an integer, got 2.9",
            ),
            (
                ["--spec", '{"kind": "clustered", "n": 6, "c": 50, "params": {"clusters": false}}'],
                "invalid GenSpec param 'clusters': clusters must be an integer, got False",
            ),
        ],
    )
    def test_genpop_bad_param_exits_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["genpop"] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lexibound: error: ") and message in err and err.count("\n") == 1
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--epsilon", "nan"], "--epsilon must be a number in (0, 1], got 'nan'"),
            (["--epsilon", "inf"], "--epsilon must be a number in (0, 1], got 'inf'"),
            (["--epsilon", "1e999"], "--epsilon must be a number in (0, 1], got '1e999'"),
            (["--epsilon", "1/0"], "--epsilon must be a number in (0, 1], got '1/0'"),
            (
                ["--epsilon-grid", "0.1:nan:0.1"],
                "--epsilon-grid: invalid grid '0.1:nan:0.1': 'nan' is not a number",
            ),
            (["--budget", "0"], "--budget must be >= 1, got 0"),
            (["--epsilon-grid", "0.1:1/0:0.1"], "--epsilon-grid: invalid grid '0.1:1/0:0.1': '1/0' divides by zero"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "sweep-run", "simulate"])
    def test_bad_grid_flag_exits_2_naming_it(self, command, flag, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen_0.csv").write_text("0,1\n1,0\n1,1\n")
        target = "." if command == "sweep-run" else "gen_0.csv"
        assert run([command, target, *flag]) == 2
        assert capsys.readouterr().err == f"lexibound: error: {message}\n"

    def test_bad_epsilon_fails_before_the_trials(self, tmp_path, monkeypatch, capsys):
        def no_trials(*args):
            raise AssertionError("estimate_runtime ran before the epsilon check")

        monkeypatch.setattr(cli.simulate, "estimate_runtime", no_trials)
        (tmp_path / "pop.csv").write_text("0,1\n1,0\n1,1\n")
        argv = ["simulate", str(tmp_path / "pop.csv"), "--check-bound", "--epsilon", "0", "--trials", "200000"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "lexibound: error: --epsilon must be a number in (0, 1], got '0'\n"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trials_fail_before_any_work(self, trials, tmp_path, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("bounds.sweep ran before the --trials check")

        monkeypatch.setattr(cli.bounds, "sweep", no_sweep)
        (tmp_path / "pop.csv").write_text("0,1\n1,0\n1,1\n")
        assert run(["simulate", str(tmp_path / "pop.csv"), "--check-bound", "--trials", trials]) == 2
        assert capsys.readouterr().err == f"lexibound: error: --trials must be >= 1, got {trials}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["analyze", "pop.csv", "--epsilon", "1e-10000000"],
                "--epsilon: '1e-10000000' has a decimal exponent beyond ±100000",
            ),
            (
                ["simulate", "pop.csv", "--check-bound", "--epsilon", "1e-3000000", "--trials", "10"],
                "--epsilon: '1e-3000000' has a decimal exponent beyond ±100000",
            ),
            (
                ["analyze", "pop.csv", "--epsilon-grid", "0.1:0.5:1e-10000000"],
                "--epsilon-grid: invalid grid '0.1:0.5:1e-10000000': '1e-10000000' has a decimal exponent beyond ±100000",
            ),
            (["analyze", "pop.csv", "--epsilon", "1E+1_000_000"], "--epsilon: '1E+1_000_000' has a decimal"),
        ],
    )
    def test_huge_exponent_exits_2_at_once(self, argv, message, tmp_path):
        # in a subprocess with a timeout: expanding 10**e would hang the run, not fail it
        (tmp_path / "pop.csv").write_text("0,1\n1,0\n1,1\n")
        done = subprocess.run(
            [sys.executable, "-m", "lexibound", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=30,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(f"lexibound: error: {message}") and done.stderr.count("\n") == 1


class TestSweepRun:
    def _write_generations(self, tmp_path, matrices):
        for index, matrix in enumerate(matrices):
            write_matrix_csv(matrix, tmp_path / f"gen_{index}.csv")

    def test_three_generations_ascending(self, tmp_path, capsys):
        self._write_generations(
            tmp_path,
            [
                gen_clustered(12, 24, 2, 0.05, RngStream(1)),
                gen_clustered(12, 24, 3, 0.05, RngStream(2)),
                gen_random_uniform(12, 24, 4, RngStream(3)),
            ],
        )
        assert run(["sweep-run", str(tmp_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["generation"] for r in rows] == [0, 1, 2]

    def test_identical_matrices_identical_ratios(self, tmp_path, capsys):
        matrix = gen_two_cluster(8, 12)
        self._write_generations(tmp_path, [matrix, matrix, matrix])
        assert run(["sweep-run", str(tmp_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len({r["ratio"] for r in rows}) == 1

    def test_trend_matches_per_file_analyze(self, tmp_path, capsys):
        matrices = [
            gen_two_cluster(12, 24),
            gen_clustered(12, 24, 3, 0.05, RngStream(2)),
            gen_random_uniform(12, 24, 4, RngStream(3)),
        ]
        self._write_generations(tmp_path, matrices)
        assert run(["sweep-run", str(tmp_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        # clustered-to-uniform sequence: best ratio should not increase
        ratios = [r["ratio"] for r in rows]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        # per-file cross-check via the bounds module
        from lexibound.bounds import best_epsilon, sweep

        for row, matrix in zip(rows, matrices):
            best = best_epsilon(sweep(deduplicate(matrix)))
            assert row["ratio"] == best.ratio
            assert row["k"] == best.k

    def test_inconsistent_cases_exit_2(self, tmp_path, capsys):
        self._write_generations(tmp_path, [gen_two_cluster(6, 10), gen_two_cluster(6, 12)])
        assert run(["sweep-run", str(tmp_path)]) == 2
        assert "cases" in capsys.readouterr().err

    def test_empty_directory_exit_2(self, tmp_path):
        assert run(["sweep-run", str(tmp_path)]) == 2


class TestSimulate:
    def test_adversarial_mean(self, tmp_path, capsys):
        matrix_path = tmp_path / "adv.csv"
        run(["genpop", "--kind", "adversarial_single_case", "--n", "4", "--c", "5", "--out", str(matrix_path)])
        assert run(["simulate", str(matrix_path), "--trials", "20000", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mean_evaluations"] - 12.0) <= 3 * payload["std_error"]

    def test_singleton_zero(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("3,4,5\n")
        assert run(["simulate", str(path), "--trials", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_evaluations"] == 0.0

    def test_check_bound_full_grid_passes(self, tmp_path, capsys):
        matrix_path = tmp_path / "tc.csv"
        run(["genpop", "--kind", "two_cluster", "--n", "8", "--c", "12", "--out", str(matrix_path)])
        assert run(["simulate", str(matrix_path), "--trials", "3000", "--check-bound"]) == 0
        payload = json.loads(capsys.readouterr().out)
        checks = payload["bound_checks"]
        assert len(checks) == 12
        assert all(entry["satisfied"] for entry in checks)

    def test_determinism(self, tmp_path, capsys):
        matrix_path = tmp_path / "r.csv"
        run(["genpop", "--kind", "random_uniform", "--n", "8", "--c", "6", "--seed", "2", "--out", str(matrix_path)])
        assert run(["simulate", str(matrix_path), "--trials", "500", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert run(["simulate", str(matrix_path), "--trials", "500", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_seed_defaults_to_0_whatever_the_environment(self, tmp_path, capsys, monkeypatch):
        matrix_path = tmp_path / "r.csv"
        run(["genpop", "--kind", "random_uniform", "--n", "8", "--c", "6", "--seed", "2", "--out", str(matrix_path)])
        monkeypatch.setenv("LEXIBOUND_SEED", "4")
        assert run(["simulate", str(matrix_path), "--trials", "200"]) == 0
        default = capsys.readouterr().out
        assert json.loads(default)["seed"] == 0
        assert run(["simulate", str(matrix_path), "--trials", "200", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_real_needs_binarize_flag(self, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("0.5,1.5,2.5\n1.0,0.25,2.0\n0.1,0.2,0.3\n")
        assert run(["simulate", str(real), "--trials", "100"]) == 2
        assert "--binarize-mad" in capsys.readouterr().err
        assert run(["simulate", str(real), "--trials", "100", "--binarize-mad"]) == 0

    @pytest.mark.parametrize("flag", [["--delta", "0"], ["--require-exact"]])
    def test_analysis_only_flags_exit_2(self, flag, tmp_path, capsys):
        # simulate binarizes real losses and never reads a tolerance or exactness flag
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        with pytest.raises(SystemExit) as exc:
            run(["simulate", str(path), "--check-bound", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_stdout_bytes(self, level, capsys):
        assert run(["verify", "--level", level, "--seed", "0"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"verify-{level}.txt").read_text()

    def test_fast_passes(self, capsys):
        assert run(["verify", "--level", "fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "oracle-equivalence: PASS" in out
        assert "definition-equivalence: PASS" in out
        assert "bound-monotonicity: PASS" in out

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_fault_injection_names_failure(self, level, capsys):
        n_checks = {"fast": 3, "full": 5}[level]
        assert run(["verify", "--level", level, "--seed", "3", "--inject-fault", "elite-filter"]) == 1
        captured = capsys.readouterr()
        statuses = [line.split(" (")[0] for line in captured.out.splitlines()]
        assert len(statuses) == n_checks
        assert [s for s in statuses if not s.endswith(": PASS")] == ["verify oracle-equivalence: FAIL"]
        assert "failing properties: oracle-equivalence" in captured.err
        # no fault state outlives the faulted run
        assert run(["verify", "--level", level, "--seed", "3"]) == 0
        statuses = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()]
        assert len(statuses) == n_checks and all(s.endswith(": PASS") for s in statuses)

    def test_python_dash_m_runs_the_cli(self):
        # the golden file is seed 0, the default; no environment variable sets a seed
        env = dict(os.environ, PYTHONPATH=str(SRC), LEXIBOUND_SEED="4")
        done = subprocess.run(
            [sys.executable, "-m", "lexibound", "verify", "--level", "fast"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == (GOLDEN / "verify-fast.txt").read_text()


class TestUtf8Everywhere:
    def test_commands_pass_with_encoding_warnings_as_errors(self, tmp_path):
        # every text file is opened as UTF-8 explicitly, so no default-locale
        # EncodingWarning is raised on any read or write path
        flags = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "lexibound"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "clustered", "n": 16, "c": 12, "params": {"clusters": 2, "spread": 0.1}}\n', encoding="utf-8")
        (tmp_path / "run").mkdir()
        matrix = tmp_path / "run" / "gen_0.csv"
        Path(str(matrix) + ".json").write_text('{"kind": "discrete"}\n', encoding="utf-8")
        commands = [
            ["genpop", "--spec", str(spec), "--out", str(matrix)],
            ["analyze", str(matrix), "--out", str(tmp_path / "bounds.csv")],
            ["simulate", str(matrix), "--trials", "100", "--check-bound", "--epsilon", "0.3"],
            ["sweep-run", str(tmp_path / "run")],
        ]
        for argv in commands:
            done = subprocess.run([*flags, *argv], capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, (argv, done.stderr)
        assert (tmp_path / "bounds.csv").read_text(encoding="utf-8").startswith("epsilon,delta,k,exact_k,")
