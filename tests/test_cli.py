import argparse
import dataclasses
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcwalk import cli, evolution, operators
from arcwalk.cli import ConfigError, RunConfig, main, render, run
from arcwalk.community import DEFAULT_MARGINAL_BAND
from arcwalk.io import OutputDocument, _flat, csv_table, format_float
from arcwalk.spectral import DEFAULT_DEGENERACY_TOL

ROOT = Path(__file__).resolve().parents[1]


def run_json(config):
    return json.loads(render(run(config), "json"))


def test_csv_table_writes_cells_as_the_header_does():
    # floats as the JSON document writes them, numpy ones too; the rest with str
    rows = [[1, "probability", np.float64(1 / 156), 0.0], [2, True, 1e-14, np.int64(3)]]
    assert csv_table(["t", "kind", 1, 2], iter(rows)) == [
        "t,kind,1,2",
        "1,probability,0.00641025641026,0.0",
        "2,True,1e-14,3",
    ]
    assert csv_table(["l"], []) == ["l"]


def test_format_float_sig_digits():
    assert format_float(1.0) == "1.0"
    assert format_float(0.0) == "0.0"
    assert float(format_float(1 / 3)) == pytest.approx(1 / 3, abs=1e-12)
    # 12 significant digits, not 12 digits after the point
    assert format_float(1e-14) == "1e-14"
    assert format_float(1 / 156) == "0.00641025641026"
    assert format_float(123456.78901234567) == "123456.789012"
    assert format_float(9.462874195812e-06) == "9.46287419581e-06"
    for value in (1e-14, 1 / 156, 123456.78901234567, 9.462874195812e-06, -2 / 3):
        text = OutputDocument({}, {"v": value}).to_json()
        assert format_float(value) == json.dumps(json.loads(text)["payload"]["v"])


def test_csv_floats_are_the_json_values(capsys):
    argv = ["detect", "--graph", "builtin:karate"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    margins = {(m["node"], m["hub"]): m["margin"] for m in payload["margins"]}
    assert main([*argv, "--format", "csv"]) == 0
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert rows[0] == ["node", "community", "hub", "margin", "marginal"]
    assert len(rows) == 35
    for node, _, hub, margin, _ in rows[1:]:
        assert margin == json.dumps(margins[(int(node), int(hub))])

    # the '#' header writes a float, in a list too, as the JSON does
    for argv, floats in [
        (argv, {"parameters.threshold", "parameters.marginal_band"}),
        (["sweep", "--graph", "builtin:karate", "--q-list", "0.0064102564102564,0.01"],
         {"parameters.q_list"}),
    ]:
        assert main(argv) == 0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = dict(ln[2:].split(": ", 1) for ln in lines if ln.startswith("# "))
        compared = set()
        for key, value in _flat(metadata):
            if isinstance(value, (float, list)):
                assert header[key] == json.dumps(value), key
                compared.add(key)
        assert compared == floats


def test_detect_karate_hubs():
    doc = run_json(
        RunConfig(
            command="detect",
            graph_source="builtin:karate",
            coin="fourier",
            mode="average-infinite",
            threshold="auto",
        )
    )
    assert sorted(doc["payload"]["hubs"]) == [1, 34]
    assert doc["metadata"]["graph"]["nodes"] == 34
    assert doc["metadata"]["graph"]["arcs"] == 156
    assert doc["metadata"]["graph"]["betti"] == 45
    assert doc["payload"]["threshold"] == pytest.approx(1 / 156)


def test_spectrum_grover_degeneracy():
    doc = run_json(
        RunConfig(command="spectrum", graph_source="builtin:three_community", coin="grover")
    )
    deg = doc["payload"]["degeneracy"]
    assert (deg["plus_one"], deg["minus_one"]) == (20, 18)
    assert len(doc["payload"]["eigenvalues"]) == 78


def test_sweep_counts():
    doc = run_json(
        RunConfig(
            command="sweep",
            graph_source="builtin:three_community",
            coin="fourier",
            mode="average-infinite",
            q_list=(1e-4, 1 / 78, 1.0),
        )
    )
    assert [e["count"] for e in doc["payload"]["entries"]] == [1, 3, 21]


def test_average_row_modes_agree_roughly():
    base = dict(graph_source="builtin:three_community", coin="fourier", start=1)
    inf = run_json(RunConfig(command="average", mode="average-infinite", **base))
    fin = run_json(RunConfig(command="average", mode="average-finite", steps=100, **base))
    a = np.array(inf["payload"]["normalized"])
    b = np.array(fin["payload"]["normalized"])
    assert np.abs(a - b).max() < 0.1 * a.max()


def test_evolve_rows_sum_to_one():
    doc = run_json(
        RunConfig(command="evolve", graph_source="builtin:three_community", start=1, steps=5)
    )
    for row in doc["payload"]["rows"]:
        assert sum(row["probability"]) == pytest.approx(1.0, abs=1e-9)
    assert doc["payload"]["rows"][0]["probability"][0] == 1.0


def test_classical_payload():
    doc = run_json(
        RunConfig(command="classical", graph_source="builtin:karate", start=1, steps=10)
    )
    ns = doc["payload"]["normalized_stationary"]
    # serialized floats carry 12 significant digits
    assert all(v == pytest.approx(1 / 156, abs=1e-12) for v in ns)
    assert len(doc["payload"]["trace"]) == 10


def test_json_round_trip_is_stable():
    config = RunConfig(command="spectrum", graph_source="builtin:karate", coin="fourier")
    text = render(run(config), "json")
    reparsed = json.loads(text)
    assert json.dumps(reparsed, indent=2, sort_keys=True) + "\n" == text


def test_identical_config_is_byte_identical():
    config = RunConfig(
        command="detect", graph_source="builtin:three_community", mode="average-infinite"
    )
    assert render(run(config), "json") == render(run(config), "json")


def test_config_errors():
    with pytest.raises(ConfigError):
        run(RunConfig(command="bogus", graph_source="builtin:karate"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="detect", graph_source="gopher:karate"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="evolve", graph_source="builtin:karate"))  # no start
    with pytest.raises(ConfigError):
        run(RunConfig(command="detect", graph_source="builtin:karate", threshold="-1"))
    with pytest.raises(ConfigError):
        run(RunConfig(command="detect", graph_source="builtin:karate", mode="sideways"))


def test_main_writes_output(tmp_path):
    out = tmp_path / "partition.json"
    code = main(
        [
            "detect",
            "--graph",
            "builtin:karate",
            "--coin",
            "fourier",
            "--mode",
            "average-infinite",
            "--threshold",
            "auto",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["payload"]["hubs"]) == [1, 34]


def test_main_csv_detect(tmp_path, capsys):
    code = main(
        ["detect", "--graph", "builtin:three_community", "--mode", "average-infinite", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "node,community,hub,margin,marginal"
    assert len(lines) == 22


def test_main_exit_codes(tmp_path, capsys):
    # config error: bad graph source scheme
    assert main(["spectrum", "--graph", "gopher:x"]) == 2
    # data error: unreadable path
    assert main(["spectrum", "--graph", "edgelist:/does/not/exist"]) == 3
    # data error: malformed pajek content
    bad = tmp_path / "bad.net"
    bad.write_text("*Edges\n1 2\n")
    assert main(["spectrum", "--graph", f"pajek:{bad}"]) == 3
    # config error: dense cap exceeded (complete(79) has D = 79 * 78 = 6162 arcs)
    assert main(["spectrum", "--graph", "builtin:complete(79)"]) == 2
    capsys.readouterr()


def test_default_detect_over_dense_cap_names_the_way_out(capsys):
    # complete(79) has D = 6162 arcs, above the fixed cap of 6000; the exact
    # Fourier averages can only be left for the finite mode; the cap is
    # refused at the averaging call, before the threshold text is read
    for command in (["detect"], ["detect", "--threshold", "abc"], ["average"], ["sweep", "--q-list", "0.001"]):
        assert main([*command, "--graph", "builtin:complete(79)", "--coin", "fourier"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "arcwalk: config error: D=6162 exceeds dense materialization cap 6000;"
            " use --mode average-finite\n"
        )


@pytest.mark.parametrize("coin", ["fourier", "grover"])
@pytest.mark.parametrize(
    "command", [["detect"], ["average"], ["sweep", "--q-list", "0.005,0.01"], ["spectrum"]], ids=lambda c: c[0]
)
def test_exact_commands_build_no_dense_unitary(command, coin, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("materialize_dense was called")

    # in every module that holds the name, so that an import by name is caught
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arcwalk" and hasattr(module, "materialize_dense"):
            monkeypatch.setattr(module, "materialize_dense", refuse)
    assert main([*command, "--graph", "builtin:karate", "--coin", coin]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]


def test_spectrum_over_dense_cap_names_no_flag(capsys):
    # spectrum has no mode without the D x D eigenproblem, and no flag lifts the cap
    for coin in ("fourier", "grover"):
        assert main(["spectrum", "--graph", "builtin:complete(79)", "--coin", coin]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "arcwalk: config error: D=6162 exceeds dense materialization cap 6000\n"


def test_default_mode_is_infinite_at_every_size(capsys):
    # D = 79 * 78 = 6162 arcs; the dense cap stops the run before any eigensolver
    config = RunConfig(command="detect", graph_source="builtin:complete(79)")
    assert config.mode == "average-infinite"
    assert main(["detect", "--graph", "builtin:complete(79)"]) == 2
    assert "D=6162" in capsys.readouterr().err


def test_main_edgelist_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("1 2\n2 3\n1 3\n")
    doc_path = tmp_path / "out.json"
    assert (
        main(["spectrum", "--graph", f"edgelist:{path}", "--output", str(doc_path)]) == 0
    )
    doc = json.loads(doc_path.read_text())
    assert doc["metadata"]["graph"]["arcs"] == 6


def test_average_csv_matrix(capsys):
    assert (
        main(
            [
                "average",
                "--graph",
                "builtin:three_community",
                "--mode",
                "average-infinite",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0].startswith("l,1,2,")
    assert len(lines) == 22


BAD_INPUTS = [
    ["detect", "--graph", "builtin:karate", "--mode", "average-finite", "--steps", "0"],
    ["average", "--graph", "builtin:karate", "--mode", "average-finite", "--steps", "0"],
    ["classical", "--graph", "builtin:karate", "--start", "1", "--steps", "0"],
    ["sweep", "--graph", "builtin:karate", "--q-list", ""],
    ["sweep", "--graph", "builtin:karate", "--q-list", "0.1,0.01"],
    ["sweep", "--graph", "builtin:karate", "--q-list", "0,0.01"],
    ["sweep", "--graph", "builtin:karate", "--q-list", "0.1,x"],
    ["detect", "--graph", "builtin:karate", "--threshold", "nan"],
    # non-finite values would be written as Infinity, which is not JSON
    ["detect", "--graph", "builtin:karate", "--threshold", "inf"],
    ["detect", "--graph", "builtin:karate", "--threshold", "1e400"],
    ["sweep", "--graph", "builtin:karate", "--q-list", "0.01,inf"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_inputs_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_inputs_are_refused_before_any_average(argv, no_averages, capsys):
    test_bad_inputs_are_config_errors(argv, capsys)


def test_config_errors_are_raised_before_any_average(no_averages):
    test_config_errors()


# the rules the library owns reach the CLI in the library's words
@pytest.mark.parametrize(
    "argv, message",
    [
        (["detect", "--threshold", "abc"], "threshold must be a number or 'auto', got 'abc'"),
        (["detect", "--threshold", "nan"], "threshold must be finite and positive, got nan"),
        (["detect", "--threshold", "-1"], "threshold must be finite and positive, got -1.0"),
        (["average", "--mode", "average-finite", "--steps", "0"], "averaging window must contain at least one step"),
        (["sweep", "--q-list", ""], "threshold list is empty"),
        (["sweep", "--q-list", "0.1,0.01"], "thresholds must be finite, positive and ascending, got [0.1, 0.01]"),
        (["sweep", "--q-list", "0.01,inf"], "thresholds must be finite, positive and ascending, got [0.01, inf]"),
        (["classical", "--start", "1", "--steps", "0"], "trace needs at least one step"),
    ],
)
def test_config_errors_are_worded(argv, message, capsys):
    assert main([*argv, "--graph", "builtin:karate"]) == 2
    assert capsys.readouterr().err == f"arcwalk: config error: {message}\n"


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(command="detect", coin="heads"), "unknown coin 'heads'; choose fourier or grover"),
        (dict(command="detect", format="xml"), "unknown output format 'xml'"),
        (dict(command="evolve", start=1, steps=-1), "steps must be non-negative"),
        (dict(command="classical"), "classical requires --start"),
        (dict(command="detect", mode="sideways"), "unknown averaging mode 'sideways'"),
    ],
    ids=["coin", "format", "steps", "start", "mode"],
)
def test_run_config_errors_are_worded(fields, message):
    with pytest.raises(ConfigError) as info:
        run(RunConfig(graph_source="builtin:karate", **fields))
    assert str(info.value) == message


def test_graph_source_without_a_scheme_is_a_builtin(capsys):
    argv = ["classical", "--start", "1", "--steps", "2", "--graph"]
    docs = []
    for source in ("karate", "builtin:karate"):
        assert main([*argv, source]) == 0
        docs.append(json.loads(capsys.readouterr().out))
        assert docs[-1]["metadata"]["graph"].pop("source") == source
    assert docs[0] == docs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--deg-tol", "5e-2"],
        ["spectrum", "--bins", "10"],
        ["detect", "--marginal-band", "0.2"],
        ["detect", "--include-t0"],
        ["detect", "--dense-cap", "100"],
        # every walk starts on all arcs of its node
        ["evolve", "--slot", "0", "--start", "1"],
        # a classical random walk has no coin
        ["classical", "--coin", "grover", "--start", "1"],
    ],
)
def test_fixed_constants_are_not_flags(argv, capsys):
    # a tolerance that the run accepted would silently change the "exact"
    # answer; the finite window is t = 1..T alone
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--graph", "builtin:karate"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_documents_record_the_fixed_constants():
    spectrum = run_json(RunConfig(command="spectrum", graph_source="builtin:karate"))
    assert spectrum["metadata"]["parameters"] == {
        "bins": len(spectrum["payload"]["histogram"]["counts"]),
        "degeneracy_tol": DEFAULT_DEGENERACY_TOL,
    }
    assert spectrum["metadata"]["parameters"]["bins"] == 20
    detect = run_json(RunConfig(command="detect", graph_source="builtin:karate"))
    params = detect["metadata"]["parameters"]
    assert params["marginal_band"] == DEFAULT_MARGINAL_BAND
    band = DEFAULT_MARGINAL_BAND * params["threshold"]
    for row in detect["payload"]["margins"]:
        assert row["marginal"] == (abs(row["margin"]) < band)


KARATE = {"graph_source": "builtin:karate"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["detect"], dict(command="detect")),
        (["average"], dict(command="average")),
        (["spectrum"], dict(command="spectrum")),
        (["sweep", "--q-list", "0.1,0.2"], dict(command="sweep", q_list=(0.1, 0.2))),
        (["classical", "--start", "1"], dict(command="classical", start=1)),
        # the one per-command default: evolve shows 15 steps, not 100
        (["evolve", "--start", "1"], dict(command="evolve", start=1, steps=15)),
    ],
)
def test_unset_flags_take_the_run_config_defaults(argv, expected):
    args = cli._build_parser().parse_args([*argv, "--graph", "builtin:karate"])
    assert cli._config_from_args(args) == RunConfig(**KARATE, **expected)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_renders_its_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: arcwalk {command} ")


def test_parser_dests_are_the_run_config_fields():
    # a flag without a field, or a field without a flag, fails here
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)
    dests = {sub.dest}
    for p in sub.choices.values():
        dests |= {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
    assert dests == {field.name for field in dataclasses.fields(RunConfig)}


def test_flags_set_the_run_config_fields():
    argv = [
        "detect", "--graph", "builtin:karate", "--coin", "grover", "--mode", "average-finite",
        "--steps", "7", "--threshold", "0.01",
        "--output", "out.json", "--format", "csv",
    ]
    config = cli._config_from_args(cli._build_parser().parse_args(argv))
    assert config == RunConfig(
        command="detect",
        graph_source="builtin:karate",
        coin="grover",
        mode="average-finite",
        steps=7,
        threshold="0.01",
        output="out.json",
        format="csv",
    )
    assert config.mode == "average-finite"


def test_non_unitary_step_in_finite_mode_is_a_numerical_error(monkeypatch, capsys):
    # a degree-3 coin scaled by 1.01 lets probability grow with every pass,
    # so the rows of p stop summing to 1; the run must say so, not detect
    coin_matrix = operators.coin_matrix

    def scaled(kind, k):
        return coin_matrix(kind, k) * (1.01 if k == 3 else 1.0)

    monkeypatch.setattr(operators, "coin_matrix", scaled)
    argv = ["detect", "--graph", "builtin:karate", "--mode", "average-finite"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical error: rows of p miss 1 by up to" in err


def test_internal_value_error_is_not_a_config_error(monkeypatch, capsys):
    def broken(config, graph):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli._COMMANDS, "detect", cli._COMMANDS["detect"]._replace(run=broken))
    with pytest.raises(ValueError, match="internal bug"):
        main(["detect", "--graph", "builtin:karate"])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("start", [0, 35])
def test_average_start_out_of_range_is_data_error(start, capsys):
    assert main(["average", "--graph", "builtin:karate", "--start", str(start)]) == 3
    assert f"data error: node {start} out of range 1..34" in capsys.readouterr().err


@pytest.mark.parametrize("start", [0, 35])
def test_evolve_start_out_of_range_is_data_error(start, capsys):
    assert main(["evolve", "--graph", "builtin:karate", "--start", str(start)]) == 3
    assert f"data error: node {start} out of range 1..34" in capsys.readouterr().err


def test_average_start_last_node_is_its_row(capsys):
    assert main(["average", "--graph", "builtin:karate", "--start", "34"]) == 0
    row = json.loads(capsys.readouterr().out)["payload"]
    assert main(["average", "--graph", "builtin:karate"]) == 0
    full = json.loads(capsys.readouterr().out)["payload"]
    assert row["start"] == 34
    assert row["probability"] == full["probability"][33]
    assert row["normalized"] == full["normalized"][33]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)])
def test_output_file_takes_the_mode_open_would_give_it(tmp_path, umask, mode):
    out = tmp_path / "partition.json"
    old = os.umask(umask)
    try:
        assert main(["detect", "--graph", "builtin:square_triangle", "--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert json.loads(out.read_text())["metadata"]["command"] == "detect"


def test_output_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "partition.json"
    assert main(["detect", "--graph", "builtin:square_triangle", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["command"] == "detect"


@pytest.mark.parametrize(
    "kind, text",
    [
        ("edgelist", b"1 2\n2 3\n# caf\xe9\n1 3\n"),
        ("pajek", b'*Vertices 2\n1 "\xe9"\n*Edges\n1 2\n'),
    ],
)
def test_non_utf8_graph_file_is_a_data_error(tmp_path, capsys, kind, text):
    path = tmp_path / "graph.txt"
    path.write_bytes(text)
    assert main(["detect", "--graph", f"{kind}:{path}"]) == 3
    err = capsys.readouterr().err
    assert f"data error: cannot read {path}" in err and "utf-8" in err


@pytest.mark.parametrize(
    "kind, text",
    [("edgelist", "1 2\n2 3\n1 3\n"), ("pajek", "*Vertices 3\n*Edges\n1 2\n2 3\n1 3\n")],
    ids=["edgelist", "pajek"],
)
def test_graph_file_with_byte_order_mark(tmp_path, capsys, kind, text):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main(["spectrum", "--graph", f"{kind}:{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["graph"]["arcs"] == 6


def test_finite_documents_record_their_window(capsys):
    finite = ["--graph", "builtin:three_community", "--mode", "average-finite", "--steps", "7"]
    params = []
    for command in (["average"], ["detect"], ["sweep", "--q-list", "0.01,0.02"]):
        assert main([*command, *finite]) == 0
        params.append(json.loads(capsys.readouterr().out)["metadata"]["parameters"])
    expected = {"mode": "average-finite", "steps": 7, "window_start": 1}
    for record in params:
        assert {key: record[key] for key in expected} == expected


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_short_mode_spellings_are_invalid_choices(mode, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["detect", "--graph", "builtin:karate", "--mode", mode])
    assert exit_info.value.code == 2
    assert f"argument --mode: invalid choice: '{mode}'" in capsys.readouterr().err


def _unreachable(*args, **kwargs):
    raise AssertionError("the output path is checked before any computation")


def test_output_into_a_missing_directory_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setattr(evolution, "walk_decompose", _unreachable)
    argv = ["detect", "--graph", "builtin:square_triangle", "--output", "/nonexistent/dir/x.json"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "arcwalk: config error: cannot write /nonexistent/dir/x.json" in err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    # the temp file is made beside the target, in tmp_path, and removed there
    out = tmp_path / "out"
    out.mkdir()
    argv = ["detect", "--graph", "builtin:square_triangle", "--output", str(out)]
    assert main(argv) == 2
    assert f"arcwalk: config error: cannot write {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_stdout_that_cannot_be_written_is_a_config_error(monkeypatch, capsys):
    class FullStdout:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(["classical", "--graph", "builtin:path(2)", "--start", "1", "--steps", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"arcwalk: config error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_line():
    # the interpreter flushes stdout again at exit, which must add no error
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["classical", "--graph", "builtin:path(2)", "--start", "1", "--steps", "1"]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "arcwalk.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"arcwalk: config error: cannot write stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]


def test_lost_group_in_exact_fourier_detect_is_a_numerical_error(monkeypatch, capsys):
    decompose = evolution.walk_decompose

    def lossy(*args):
        dec = decompose(*args)
        return dataclasses.replace(dec, groups=dec.groups[1:])

    monkeypatch.setattr(evolution, "walk_decompose", lossy)
    assert main(["detect", "--graph", "builtin:karate"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "arcwalk: numerical error: rows of p miss 1 by up to" in err
