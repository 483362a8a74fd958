import pytest

from f2froute import experiments
from f2froute.cli import load_config_file, main, parse_args, scenario_from_args
from f2froute.graph import graph_stats
from f2froute.trees import ConstructionError, JoinError


def run_cli(args):
    return main(args)


def test_basic_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli([
        "--graph", "pa:120:2", "--gamma", "2", "--tau", "2",
        "--pairs", "20", "--runs", "2", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,metric,mean,ci95,runs"
    assert len(lines) == 3  # success_ratio + routing_length
    err = capsys.readouterr().err
    assert "run 2/2" in err and "wrote 2 metric rows" in err


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--graph", "pa:100:2", "--pairs", "15", "--runs", "2", "--seed", "9"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("# defaults\ngamma=2\ntau=2\npairs=10\nruns=1\nlabel=fromfile\n")
    out = tmp_path / "o.csv"
    code = run_cli(["--config", str(conf), "--graph", "pa:80:2",
                    "--label", "fromflag", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("fromflag,")


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("warp_speed=9\n")
    assert run_cli(["--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_parse_error(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("not a pair\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(str(conf))


def test_validation_failure_exit_code(tmp_path, capsys):
    code = run_cli(["--graph", "pa:50:2", "--gamma", "1", "--tau", "3",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_with_one_error_line(tmp_path, capsys, workers):
    # only values below 1: the run is refused before any process starts
    out = tmp_path / "x.csv"
    code = run_cli(["--graph", "pa:60:2", "--pairs", "5", "--runs", "1", "--workers", workers, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: workers must be >= 1, got {workers}"]
    assert not out.exists()


def test_fractional_attachment_degree_exits_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli(["--graph", "pa:1000:2.5", "--pairs", "5", "--runs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: attachment degree must be an integer in [1, n), got 2.5"
    ]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_metrics_are_refused_before_any_run(tmp_path, capsys, source):
    out = tmp_path / "x.csv"
    args = ["--graph", "pa:60:2", "--pairs", "5", "--runs", "2", "--out", str(out)]
    if source == "flag":
        args += ["--metrics", ","]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text("metrics=\n")
        args += ["--config", str(conf)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: metrics must be a non-empty subset"), err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unconvertible_value_exits_with_one_error_line(tmp_path, capsys, source):
    out = tmp_path / "x.csv"
    args = ["--graph", "pa:60:2", "--out", str(out)]
    if source == "flag":
        args += ["--gamma", "abc"]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text("gamma=abc\n")
        args += ["--config", str(conf)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: argument --gamma: invalid int value: 'abc'"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_ignored_failure_fraction_exits_with_one_error_line(tmp_path, capsys, source):
    # without random-failures mode no failures are injected, so the value is refused, not dropped
    out = tmp_path / "x.csv"
    args = ["--graph", "pa:60:2", "--runs", "1", "--pairs", "5", "--out", str(out)]
    if source == "flag":
        args += ["--failure-fraction", "0.3"]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text("failure-fraction=0.3\nmode=att-rand\n")
        args += ["--config", str(conf)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --failure-fraction 0.3 needs --mode random-failures"]
    assert not out.exists()


def test_hop_cap_run_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["--graph", "pa:80:2", "--gamma", "2", "--pairs", "10", "--runs", "2",
                    "--max-hops", "3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert scenario_from_args(parse_args(["--max-hops", "3"])).routing.max_hops == 3
    assert scenario_from_args(parse_args([])).routing.max_hops is None


@pytest.mark.parametrize("source", ["flag", "config"])
def test_zero_hop_cap_exits_with_one_error_line(tmp_path, capsys, source):
    out = tmp_path / "x.csv"
    args = ["--graph", "pa:60:2", "--runs", "1", "--pairs", "5", "--out", str(out)]
    if source == "flag":
        args += ["--max-hops", "0"]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text("max-hops=0\n")
        args += ["--config", str(conf)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: max_hops must be >= 1, got 0"]
    assert not out.exists()


def test_unknown_flag_exits_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["--graph", "pa:60:2", "--out", str(out), "--gama", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: unrecognized arguments: --gama 3"]
    assert not out.exists()


def test_bad_graph_spec_exit_code(tmp_path, capsys):
    cases = [("/no/such/file", None), ("pa:10", "pa:N:M"), ("pa:10:3:4", "pa:N:M"), ("er:x:0.1", "er:N:P")]
    for spec, form in cases:
        code = run_cli(["--graph", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(spec) in err[0], err
        if form is not None:
            assert err == [f"error: malformed graph spec {spec!r}; expected {form}"]


def test_edge_list_with_two_components_uses_the_giant_one(tmp_path, capsys):
    edges = tmp_path / "two_components.txt"
    big = [(i, j) for i in range(8) for j in range(i + 1, 8)]  # 8-clique
    edges.write_text("".join(f"{u} {v}\n" for u, v in big + [(100, 101)]))
    out = tmp_path / "r.csv"
    stats = tmp_path / "gs.csv"
    code = run_cli(["--graph", str(edges), "--gamma", "2", "--tau", "2", "--pairs", "10",
                    "--runs", "1", "--out", str(out), "--graph-stats", str(stats)])
    assert code == 0, capsys.readouterr().err
    assert out.read_text().splitlines()[0] == "scenario,metric,mean,ci95,runs"
    assert stats.read_text().splitlines()[1].split(",")[0] == "8"


@pytest.mark.parametrize("error", [ConstructionError, JoinError])
def test_tree_errors_exit_with_one_error_line(tmp_path, capsys, monkeypatch, error):
    def failing_construct(*args, **kwargs):
        raise error("no spanning tree for this input")

    monkeypatch.setattr(experiments, "construct_trees", failing_construct)
    code = run_cli(["--graph", "pa:60:2", "--pairs", "5", "--runs", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == ["error: no spanning tree for this input"]
    assert "Traceback" not in err


def test_graph_stats_export(tmp_path):
    stats = tmp_path / "gs.csv"
    out = tmp_path / "r.csv"
    code = run_cli(["--graph", "pa:90:2", "--pairs", "5", "--runs", "1",
                    "--out", str(out), "--graph-stats", str(stats)])
    assert code == 0
    lines = stats.read_text().splitlines()
    assert lines[0] == "n,m,giant_size,diameter_estimate,mean_degree"
    assert lines[1].split(",")[0] == "90"


def test_graph_stats_describe_run_zeros_graph(tmp_path, monkeypatch):
    # the master seed's own graph has 618 edges; run 0 builds another one
    built = []
    real_resolve = experiments.resolve_graph

    def recording_resolve(spec, seed):
        built.append(real_resolve(spec, seed))
        return built[-1]

    monkeypatch.setattr(experiments, "resolve_graph", recording_resolve)
    stats = tmp_path / "gs.csv"
    code = run_cli(["--graph", "er:200:0.03", "--seed", "3", "--pairs", "5", "--runs", "1",
                    "--out", str(tmp_path / "r.csv"), "--graph-stats", str(stats)])
    assert code == 0
    assert [g.edge_count for g in built] == [605]
    row = stats.read_text().splitlines()[1]
    assert row == graph_stats(built[0], seed=experiments.run_seed(3, 0)).csv_row()
    assert row.split(",")[1] == "605"


@pytest.mark.parametrize("flag", ["--out", "--graph-stats"])
def test_unwritable_output_fails_before_any_run(tmp_path, capsys, monkeypatch, flag):
    def must_not_run(*args, **kwargs):
        raise AssertionError("graph or runs started before the output was checked")

    monkeypatch.setattr("f2froute.cli.resolve_graph", must_not_run)
    monkeypatch.setattr("f2froute.cli.run_scenario", must_not_run)
    out, bad = tmp_path / "r.csv", tmp_path / "nodir" / "o.csv"
    argv = ["--graph", "pa:60:2", "--pairs", "5", "--runs", "1", flag, str(bad)]
    if flag != "--out":
        argv += ["--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0], err
    assert not out.exists()  # the check leaves no file behind


def test_output_check_leaves_existing_files_unchanged(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_text("kept\n")
    monkeypatch.setattr("f2froute.cli.run_scenario", lambda *a, **k: [])
    assert run_cli(["--graph", "pa:60:2", "--out", str(out)]) == 1  # no rows to write
    assert out.read_text() == "kept\n"


def test_scenario_from_args_mapping():
    args = parse_args([
        "--graph", "er:50:0.1", "--gamma", "3", "--q", "0.7", "--strategy", "BFS",
        "--metric", "CPL", "--tau", "2", "--mode", "random-failures",
        "--failure-fraction", "0.2", "--pairs", "7", "--runs", "4", "--seed", "11",
        "--metrics", "success_ratio",
    ])
    s = scenario_from_args(args)
    assert s.graph == "er:50:0.1"
    assert s.tree.gamma == 3 and s.tree.accept_prob == 0.7 and s.tree.strategy == "BFS"
    assert s.routing.metric == "CPL" and s.routing.tau == 2
    assert s.adversary.mode == "random-failures"
    assert s.adversary.failure_fraction == 0.2
    assert s.metrics == ("success_ratio",)
    assert s.pairs_per_run == 7 and s.runs == 4 and s.master_seed == 11
