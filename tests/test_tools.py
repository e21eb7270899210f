"""tools/code_lines.py, the code-line count that ROADMAP's size goals use,
and the summary arithmetic of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
bench_pairs = _tool("bench_pairs")

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment line
def f(x):
    """A function docstring."""

    total = (x
             + 1
             + 2)
    return total
'''


def test_counts_code_lines_only():
    """The import, the def line, the three lines of the expression and the
    return: docstrings, comment lines and blank lines are not counted."""
    assert code_lines.code_lines(SOURCE) == 6


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "6"], ["b.py", "2"], ["total", "8"]]


def _result_line(correct, ops, p50):
    """perfbench/run.py's output for one run: plain lines, then JSON."""
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": p50, "unit": "ms"}}
    return ("host {}\nops_per_s 1 1/s\nhost_factor 1.0 ratio\n"
            + json.dumps({"correct": correct, "attempted": 9, "failed": 0,
                          "metrics": metrics}) + "\n")


METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower"}]


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(_result_line(True, 141.5, 7.25)) == {
        "ops_per_s": 141.5, "op_p50_ms": 7.25, "correct": True,
        "attempted": 9, "failed": 0}
    assert bench_pairs.parse_result(
        _result_line(False, 1.0, 2.0))["correct"] is False


def test_summary_quartiles_wins_and_ties():
    """Five pairs: the change is faster in three, equal in one (a tie,
    no win for either side) and slower in one; op_p50_ms is better lower.
    Quartiles are statistics.quantiles' default (exclusive) cut points."""
    ops = [(100.0, 110.0), (102.0, 112.0), (98.0, 98.0), (101.0, 100.0),
           (99.0, 109.0)]
    p50 = [(7.0, 6.5), (7.2, 7.2), (6.9, 7.1), (7.1, 6.4), (7.3, 6.6)]
    pairs = [({"ops_per_s": po, "op_p50_ms": pp},
              {"ops_per_s": co, "op_p50_ms": cp})
             for (po, co), (pp, cp) in zip(ops, p50)]
    rows = {r["name"]: r for r in bench_pairs.summarize(pairs, METRICS)}
    ops_row, p50_row = rows["ops_per_s"], rows["op_p50_ms"]
    assert ops_row["parent"] == (98.5, 100.0, 101.5)
    assert ops_row["change"] == (99.0, 109.0, 111.0)
    assert ops_row["wins"] == 3 and ops_row["pairs"] == 5
    # medians 100 -> 109 against the parent's spread 101.5 - 98.5 = 3
    assert ops_row["beyond_spread"] is True
    assert p50_row["wins"] == 3
    assert p50_row["parent"][1] == 7.1 and p50_row["change"][1] == 6.6
    # |6.6 - 7.1| = 0.5 against 7.25 - 6.95 = 0.3
    assert p50_row["beyond_spread"] is True
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_summary_of_equal_sides_has_no_win():
    pairs = [({"ops_per_s": x, "op_p50_ms": 1.0},
              {"ops_per_s": x, "op_p50_ms": 1.0}) for x in (1.0, 2.0, 3.0)]
    for row in bench_pairs.summarize(pairs, METRICS):
        assert row["wins"] == 0 and row["beyond_spread"] is False
        assert row["parent"] == row["change"]
    text = bench_pairs.format_rows(bench_pairs.summarize(pairs, METRICS))
    assert text.splitlines()[0] == (
        "ops_per_s (1/s): parent 2 [1, 3]  change 2 [1, 3]  change wins 0/3"
        "  medians differ by more than the parent's spread: no")


def test_metrics_are_the_benchmark_end_to_end_list():
    names = [m["name"] for m in bench_pairs.end_to_end_metrics()]
    assert names == ["ops_per_s", "op_p50_ms", "peak_rss_mb", "setup_s"]


def test_main_summarizes_each_repeated_workload(tmp_path, monkeypatch,
                                                capsys):
    """Two --workload options: each gets its pairs, in alternating order,
    and one summary headed by its name; the change's runs are faster on
    "a" and slower on "b"."""
    runs = []

    def run_side(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed))
        ops = 10.0 + seed + (1.0 if (checkout.name == "change")
                             == (workload == "a") else 0.0)
        return {"ops_per_s": ops, "op_p50_ms": 1.0, "peak_rss_mb": 1.0,
                "setup_s": 0.1, "correct": True, "attempted": 3,
                "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: None)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.main([str(parent), str(change), "--workload", "a",
                             "--workload", "b", "--pairs", "2",
                             "--seed", "5", "--seconds", "1"]) == 0
    assert runs == [("parent", "a", 5), ("change", "a", 5),
                    ("change", "a", 6), ("parent", "a", 6),
                    ("parent", "b", 5), ("change", "b", 5),
                    ("change", "b", 6), ("parent", "b", 6)]
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines if line.startswith("{")]
    assert [(r["workload"], r["seed"], r["first"]) for r in records] == [
        ("a", 5, "parent"), ("a", 6, "change"), ("b", 5, "parent"),
        ("b", 6, "change")]
    heads = [i for i, line in enumerate(lines) if line.startswith("workload")]
    assert [lines[i] for i in heads] == ["workload a:", "workload b:"]
    assert [lines[i + 1].split("change wins ")[1].split()[0]
            for i in heads] == ["2/2", "0/2"]


BOUNDED = [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower",
            "bound": 0.25}]


def _pairs(ops, p50):
    return [({"ops_per_s": po, "op_p50_ms": pp},
             {"ops_per_s": co, "op_p50_ms": cp})
            for (po, co), (pp, cp) in zip(ops, p50)]


def test_gain_rule_holds_for_nine_wins_beyond_the_spread():
    """Ten pairs: the change is faster in nine, by more than the parent's
    interquartile spread, and slower in one.  op_p50_ms is 30% worse in
    the median, beyond its 25% bound; ops_per_s is better, so within."""
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0,
              100.0]
    ops = [(p, p + 10.0) for p in parent[:9]] + [(parent[9], 95.0)]
    p50 = [(10.0, 13.0)] * 10
    rows = {r["name"]: r
            for r in bench_pairs.summarize(_pairs(ops, p50), BOUNDED)}
    assert rows["ops_per_s"]["wins"] == 9
    assert rows["ops_per_s"]["gain"] is True
    assert rows["ops_per_s"]["beyond_bound"] is False
    assert rows["op_p50_ms"]["gain"] is False
    assert rows["op_p50_ms"]["beyond_bound"] is True
    text = bench_pairs.format_rows(list(rows.values())).splitlines()
    assert text[1] == ("  change worse than the parent by more than its "
                       "bound of 25%: no")
    assert text[3] == ("  change worse than the parent by more than its "
                       "bound of 25%: yes")
    assert text[-1] == (
        "gain rule (the change wins at least 9/10 of the pairs and its "
        "median is better by more than the parent's spread): "
        "ops_per_s yes, op_p50_ms no")


def test_gain_rule_fails_on_eight_wins_or_inside_the_spread():
    """Eight wins of ten fail the rule even far beyond the spread; ten
    wins fail it when the medians differ by less than the spread.  A
    change 20% slower is within a 25% bound."""
    parent = [90.0, 110.0, 95.0, 105.0, 100.0, 100.0, 92.0, 108.0, 97.0,
              103.0]
    eight = ([(p, p + 50.0) for p in parent[:8]]
             + [(p, p - 1.0) for p in parent[8:]])
    ten = [(p, p + 1.0) for p in parent]
    p50 = [(10.0, 12.0)] * 10
    for ops, wins in ((eight, 8), (ten, 10)):
        rows = {r["name"]: r
                for r in bench_pairs.summarize(_pairs(ops, p50), BOUNDED)}
        assert rows["ops_per_s"]["wins"] == wins
        assert rows["ops_per_s"]["gain"] is False
        assert rows["op_p50_ms"]["beyond_bound"] is False
        assert bench_pairs.format_rows(list(rows.values())).splitlines()[
            -1].endswith("ops_per_s no, op_p50_ms no")


def test_rows_without_a_bound_print_no_bound_line():
    pairs = _pairs([(1.0, 2.0)], [(1.0, 1.0)])
    rows = bench_pairs.summarize(pairs, METRICS)
    assert [r["beyond_bound"] for r in rows] == [None, None]
    assert len(bench_pairs.format_rows(rows).splitlines()) == 3
