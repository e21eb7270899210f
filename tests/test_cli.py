import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilldraw
from hilldraw import cli
from hilldraw.cli import main
from hilldraw.docio import load_drawing
from hilldraw.geom import ToleranceConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k8_file(tmp_path, capsys):
    path = tmp_path / "k8.json"
    code = main(["generate", "--seed-arrangement", "single",
                 "--multiplicities", "4", "--rng-seed", "7",
                 "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_drawing(self, k8_file):
        d = load_drawing(k8_file)
        assert d.n == 8
        assert d.provenance["seed_arrangement"] == "single"

    def test_stdout_mode(self, capsys):
        code, out, _ = run(["generate", "--seed-arrangement", "single",
                            "--multiplicities", "3", "--rng-seed", "1"],
                           capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "complete"
        assert len(doc["vertices"]) == 6

    def test_depth_expansion(self, tmp_path, capsys):
        path = tmp_path / "k8deep.json"
        code, _, _ = run(["generate", "--seed-arrangement", "single",
                          "--multiplicities", "2", "--depth", "2",
                          "--rng-seed", "3", "-o", str(path)], capsys)
        assert code == 0
        assert load_drawing(path).n == 8

    def test_sides_flags(self, tmp_path, capsys):
        path = tmp_path / "sides.json"
        code, _, _ = run(["generate", "--seed-arrangement", "two",
                          "--multiplicities", "2,2",
                          "--sides", "below,above",
                          "--rng-seed", "3", "-o", str(path)], capsys)
        assert code == 0
        d = load_drawing(path)
        assert d.provenance["sides"] == [["below", "above"]]

    def test_group_count_mismatch_is_usage_error(self, capsys):
        code, _, err = run(["generate", "--seed-arrangement", "two",
                            "--multiplicities", "4"], capsys)
        assert code == 64
        assert "half-circles" in err

    def test_bad_multiplicities_is_usage_error(self, capsys):
        code, _, _ = run(["generate", "--seed-arrangement", "single",
                          "--multiplicities", "a,b"], capsys)
        assert code == 64

    def test_infeasible_construction_exits_2(self, capsys):
        # sibling groups of 2 blown to opposite sides collide near the
        # endpoint knots before their endpoints clear general position
        code, _, err = run(["generate", "--seed-arrangement", "single",
                            "--multiplicities", "3;2,2,2", "--sides",
                            ";below,above,below", "--rng-seed", "1"],
                           capsys)
        assert code == 2
        assert "level 1" in err


class TestVerifyAndCount:
    def test_verify_passes(self, k8_file, capsys):
        code, out, _ = run(["verify", str(k8_file)], capsys)
        assert code == 0
        assert "hill_total" in out and "predicted=18" in out

    def test_verify_report_file(self, k8_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(["verify", str(k8_file), "--report", str(report)],
                         capsys)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True

    def test_corrupted_file_fails_with_observed_values(self, k8_file,
                                                       tmp_path, capsys):
        doc = json.loads(k8_file.read_text())
        for rec in doc["edges"]:
            if rec["curve"] == "half_circle":
                rec["midpoint"] = [-c for c in rec["midpoint"]]
                break
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(bad)], capsys)
        assert code == 1
        assert "FAIL hill_total: predicted=18 observed=21" in out

    def test_verify_threads_agree(self, k8_file, capsys):
        _, out1, _ = run(["verify", str(k8_file)], capsys)
        _, out2, _ = run(["verify", str(k8_file), "--threads", "2"], capsys)
        assert out1 == out2

    def test_count_output(self, k8_file, capsys):
        code, out, _ = run(["count", str(k8_file)], capsys)
        assert code == 0
        assert "total: 18" in out
        assert out.count("9") >= 8

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(["count", "/nonexistent/file.json"], capsys)
        assert code == 2

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text('{"format": "other"}')
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == 2
        assert "format" in err

    def test_coordinate_beyond_float_range_exits_2(self, k8_file, tmp_path,
                                                   capsys):
        doc = json.loads(k8_file.read_text())
        doc["vertices"][0][0] = 10 ** 400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert "vertices[0]" in err and "Traceback" not in err


class TestMutate:
    def test_delete_vertex(self, k8_file, tmp_path, capsys):
        out_path = tmp_path / "k7.json"
        code, out, _ = run(["mutate", str(k8_file), "--delete-vertex", "0",
                            "-o", str(out_path)], capsys)
        assert code == 0
        assert "vertex_deleted_total: predicted=9 observed=9" in out
        assert load_drawing(out_path).n == 7

    def test_add_apex(self, k8_file, tmp_path, capsys):
        out_path = tmp_path / "k9.json"
        code, out, _ = run(["mutate", str(k8_file), "--add-apex",
                            "--rng-seed", "5", "-o", str(out_path)], capsys)
        assert code == 0
        assert "apex_added_total: predicted=36 observed=36" in out
        assert load_drawing(out_path).n == 9

    def test_requires_exactly_one_action(self, k8_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(k8_file), "-o", str(tmp_path / "x.json")])
        assert exc.value.code == 64


class TestMonteCarlo:
    def test_ratio_experiment_json(self, tmp_path, capsys):
        out_path = tmp_path / "mc.json"
        code, _, _ = run(["montecarlo", "--n", "10", "--trials", "5",
                          "--rng-seed", "3", "-o", str(out_path)], capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["n"] == 10 and len(doc["counts"]) == 5
        assert doc["distribution"] == {"kind": "uniform"}

    @pytest.mark.parametrize("dist, counts", [
        ([], [2473, 1527, 0, 0]),
        (["--dist", "cap:0.3"], [1171, 2829, 0, 0]),
    ], ids=["uniform", "cap"])
    def test_census_mode(self, capsys, dist, counts):
        code, out, _ = run(["montecarlo", "--trials", "4000", "--census-k4",
                            "--rng-seed", "9", *dist], capsys)
        assert code == 0
        assert json.loads(out)["counts"] == counts

    def test_cap_distribution(self, capsys):
        code, out, _ = run(["montecarlo", "--n", "8", "--trials", "3",
                            "--dist", "cap:1.2", "--rng-seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["distribution"]["theta"] == 1.2

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run(["montecarlo", "--trials", "5"], capsys)
        assert code == 64

    def test_bad_dist_is_usage_error(self, capsys):
        code, _, _ = run(["montecarlo", "--n", "8", "--trials", "5",
                          "--dist", "donut"], capsys)
        assert code == 64


class TestExport:
    def test_svg_written(self, k8_file, tmp_path, capsys):
        out_path = tmp_path / "k8.svg"
        code, _, _ = run(["export", str(k8_file), "--svg", str(out_path)],
                         capsys)
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg") and "crossings: 18" in text

    def test_threads_reach_the_count(self, k8_file, tmp_path, capsys,
                                     monkeypatch):
        seen = []

        def spy(d, tol=None, workers=1):
            seen.append(workers)
            return count(d, tol, workers)
        count = cli.count_crossings
        monkeypatch.setattr(cli, "count_crossings", spy)
        out_path = tmp_path / "k8.svg"
        code, _, _ = run(["export", str(k8_file), "--svg", str(out_path),
                          "--threads", "2"], capsys)
        assert (code, seen) == (0, [2])
        assert "crossings: 18" in out_path.read_text()


class TestStdin:
    """FILE may be '-', and then the drawing is read from stdin."""

    @pytest.fixture()
    def stdin(self, monkeypatch):
        def feed(text):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return feed

    @pytest.mark.parametrize("argv", [["verify"], ["count"]])
    def test_prints_what_the_file_gives(self, k8_file, capsys, stdin, argv):
        want = run([*argv, str(k8_file)], capsys)
        stdin(k8_file.read_text())
        assert run([*argv, "-"], capsys) == want

    @pytest.mark.parametrize("argv, flag", [
        (["mutate", "--delete-vertex", "3"], "-o"),
        (["mutate", "--add-apex", "--rng-seed", "5"], "-o"),
        (["export"], "--svg"),
    ], ids=["delete", "apex", "export"])
    def test_writes_what_the_file_gives(self, k8_file, tmp_path, capsys,
                                        stdin, argv, flag):
        want, got = tmp_path / "want", tmp_path / "got"
        code, out, _ = run([*argv, str(k8_file), flag, str(want)], capsys)
        assert code == 0
        stdin(k8_file.read_text())
        assert run([*argv, "-", flag, str(got)], capsys)[:2] == (code, out)
        assert got.read_bytes() == want.read_bytes()

    def test_invalid_json_exits_2(self, capsys, stdin):
        stdin('{"format": ')
        code, out, err = run(["verify", "-"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("hilldraw: error: stdin: not valid JSON")


class TestGlobalOptions:
    def test_tolerances_file(self, k8_file, tmp_path, capsys):
        tolfile = tmp_path / "tol.json"
        tolfile.write_text(json.dumps({"norm": 1e-9, "perp": 1e-9,
                                       "general_position": 1e-7,
                                       "sign": 1e-10}))
        code, _, _ = run(["verify", str(k8_file), "--tolerances",
                          str(tolfile)], capsys)
        assert code == 0

    def test_partial_tolerances_file(self, tmp_path, capsys):
        tolfile = tmp_path / "tol.json"
        tolfile.write_text(json.dumps({"general_position": 1e-11}))
        path = tmp_path / "k8.json"
        code, _, err = run(["generate", "--seed-arrangement", "single",
                            "--multiplicities", "4", "--rng-seed", "7",
                            "--tolerances", str(tolfile), "-o", str(path)],
                           capsys)
        assert code == 0, err
        assert load_drawing(path).tol == ToleranceConfig(
            general_position=1e-11)

    @pytest.mark.parametrize("text, message", [
        ('{"general_position": 1e-11, "slack": 1}', "unknown tolerance keys"),
        ('{"sign": 0}', "strictly positive"),
        ('{"sign": "1e-13"}', "must be numbers"),
        ('{"norm": true}', "must be numbers"),
        ('{"general_position": Infinity}', "positive and finite"),
        ('[1e-12]', "must be an object"),
        ('{"sign": ', "Expecting value"),
    ])
    def test_invalid_tolerances_file_exits_2(self, k8_file, tmp_path,
                                             capsys, text, message):
        tolfile = tmp_path / "tol.json"
        tolfile.write_text(text)
        for argv in (["verify", str(k8_file)],
                     ["generate", "--seed-arrangement", "single",
                      "--multiplicities", "4"]):
            code, out, err = run(argv + ["--tolerances", str(tolfile)],
                                 capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"hilldraw: error: --tolerances {tolfile}")
            assert message in err and "Traceback" not in err

    def test_file_tolerances_survive_verify_count_mutate(self, k8_file,
                                                          tmp_path, capsys):
        # vertices 1e-11 off unit length: valid only under the stored norm
        doc = json.loads(k8_file.read_text())
        doc["tolerances"]["norm"] = 1e-9
        doc["vertices"] = [[c * (1.0 + 1e-11) for c in v]
                           for v in doc["vertices"]]
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(loose)], capsys)
        assert code == 0
        assert "hill_total: predicted=18 observed=18" in out
        code, out, _ = run(["count", str(loose)], capsys)
        assert code == 0 and "total: 18" in out
        out_path = tmp_path / "k7.json"
        code, _, _ = run(["mutate", str(loose), "--delete-vertex", "0",
                          "-o", str(out_path)], capsys)
        assert code == 0
        assert load_drawing(out_path).tol.norm == 1e-9

    def test_generate_eps_floor_uses_tolerances(self, tmp_path, capsys,
                                                monkeypatch):
        import hilldraw.cli as cli
        from hilldraw.construct import default_plan_chain
        from hilldraw.geom import ToleranceConfig
        levels = [[2], [3, 2]]
        loose = ToleranceConfig(general_position=1e-7)
        floored = default_plan_chain(levels, tol=loose)
        assert floored[1].eps != default_plan_chain(levels)[1].eps
        real = cli.recursive_construct
        seen = []

        def spy(seed, plans, rng, tol):
            seen.append(plans)
            return real(seed, plans, rng, tol)

        monkeypatch.setattr(cli, "recursive_construct", spy)
        tolfile = tmp_path / "tol.json"
        tolfile.write_text(json.dumps(loose.to_dict()))
        code, _, _ = run(["generate", "--seed-arrangement", "single",
                          "--multiplicities", "2;3,2", "--rng-seed", "1",
                          "--tolerances", str(tolfile),
                          "-o", str(tmp_path / "k10.json")], capsys)
        assert code == 0
        assert seen == [floored]

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HILLDRAW_SEED", "7")
        path = tmp_path / "env.json"
        code, _, _ = run(["generate", "--seed-arrangement", "single",
                          "--multiplicities", "4", "-o", str(path)], capsys)
        assert code == 0
        assert load_drawing(path).provenance["rng_seed"] == 7

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 64


class TestArgumentValues:
    @pytest.mark.parametrize("threads", ["0", "-5", "two"])
    def test_bad_threads_is_usage_error(self, k8_file, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["count", str(k8_file), "--threads", threads])
        assert exc.value.code == 64
        assert f"argument --threads: expected a positive integer, got " \
               f"'{threads}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "5", "--trials", "0"], "--trials: expected a positive "
         "integer, got '0'"),
        (["--n", "5", "--trials", "-2"], "--trials: expected a positive "
         "integer, got '-2'"),
        (["--n", "5", "--trials", "many"], "--trials: expected a positive "
         "integer, got 'many'"),
        (["--census-k4", "--trials", "0"], "--trials: expected a positive "
         "integer, got '0'"),
        (["--n", "3", "--trials", "1"], "--n: expected an integer >= 4, "
         "got '3'"),
        (["--n", "-4", "--trials", "1"], "--n: expected an integer >= 4, "
         "got '-4'"),
    ])
    def test_bad_experiment_size_is_usage_error(self, capsys, argv,
                                                message):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", *argv])
        assert exc.value.code == 64
        assert f"argument {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HILLDRAW_SEED", value)
        for argv in (["montecarlo", "--n", "5", "--trials", "1"],
                     ["generate", "--seed-arrangement", "single",
                      "--multiplicities", "3"]):
            code, out, err = run(argv, capsys)
            assert code == 64 and out == ""
            assert err == ("hilldraw: error: HILLDRAW_SEED: expected a "
                           f"non-negative integer, got '{value}'\n")

    def test_negative_rng_seed_is_usage_error(self, capsys):
        code, _, err = run(["montecarlo", "--n", "5", "--trials", "1",
                            "--rng-seed", "-3"], capsys)
        assert code == 64
        assert "--rng-seed: expected a non-negative integer" in err

    @pytest.mark.parametrize("eps", ["0", "nan", "2", "-0.1", "inf", "x"])
    def test_bad_eps_is_usage_error(self, capsys, eps):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--seed-arrangement", "single",
                  "--multiplicities", "3", "--eps", eps])
        assert exc.value.code == 64
        assert ("argument --eps: expected a number in (0, pi/2], got "
                f"'{eps}'") in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--multiplicities", "0"],
         "--multiplicities: expected a positive integer, got '0'"),
        (["--multiplicities", "3;2,-1,1"],
         "--multiplicities: expected a positive integer, got '-1'"),
        (["--multiplicities", "abc"],
         "--multiplicities: expected a positive integer, got 'abc'"),
        (["--multiplicities", "3", "--sides", "up"],
         "--sides: expected 'below' or 'above', got 'up'"),
        (["--multiplicities", "3;1,1,1", "--sides", ";below,above"],
         "--sides: level 1 lists 2 flags for 3 groups"),
    ])
    def test_bad_generate_lists_are_usage_errors(self, capsys, argv,
                                                 message):
        code, out, err = run(["generate", "--seed-arrangement", "single",
                              *argv], capsys)
        assert code == 64 and out == ""
        assert err == f"hilldraw: error: {message}\n"

    def test_explicit_seed_overrides_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HILLDRAW_SEED", "abc")
        code, out, _ = run(["montecarlo", "--n", "5", "--trials", "1",
                            "--rng-seed", "3"], capsys)
        assert code == 0 and json.loads(out)["seed"] == 3


def test_commands_load_no_process_pool():
    """Only the sweep's process pool uses multiprocessing, and imports it
    there: a fresh interpreter that loads the package, its document layer
    and its CLI has not loaded it."""
    src = str(Path(hilldraw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, hilldraw, hilldraw.docio, hilldraw.cli; "
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
