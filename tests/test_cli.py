import contextlib
import io
import itertools
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from splicekit import (
    cli, conditions, corpus, discriminant, equations, fixtures, graph, reporting, splice,
)
from splicekit.analysis import Analysis
from splicekit.cli import build_parser, main
from splicekit.corpus import with_determinant_cap
from splicekit.document import (
    document_to_graph,
    document_to_json,
    graph_to_document,
    parse_document,
)
from splicekit.errors import ParseError, ValidationError

GOLDEN = Path(__file__).parent / "golden"


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(document_to_json(graph_to_document(g)))
    return str(path)


def test_parse_round_trip(g1):
    doc = graph_to_document(g1, metadata={"name": "g1"})
    parsed = parse_document(document_to_json(doc))
    assert parsed == doc
    assert document_to_graph(parsed) == g1


def test_parse_compact_text():
    text = """
    # a two-vertex string
    v a -2
    v b -3
    e a b
    """
    doc = parse_document(text)
    g = document_to_graph(doc)
    assert g.ids == ("a", "b") and g.weights == (-2, -3)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_document('{"version": 1, "vertices": [{"id": 3}], "edges": []}')
    with pytest.raises(ParseError):
        parse_document('{"version": 2, "vertices": [], "edges": []}')
    with pytest.raises(ParseError):
        parse_document('{not json')
    with pytest.raises(ValidationError):
        document_to_graph(parse_document('{"version":1,"vertices":[],"edges":[]}'))
    cyclic = (
        '{"version":1,"vertices":[{"id":"a","weight":-2},{"id":"b","weight":-2},'
        '{"id":"c","weight":-2}],"edges":[["a","b"],["b","c"],["c","a"]]}'
    )
    with pytest.raises(ValidationError, match="not a tree"):
        document_to_graph(parse_document(cyclic))


_A, _B = '{"id": "a", "weight": -2}', '{"id": "b", "weight": -2}'


def _doc(vertices: str, edges: str) -> str:
    return f'{{"version": 1, "vertices": {vertices}, "edges": {edges}}}'


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (f"[{_A}, 3]", "[]", "vertices[1]: expected an object"),
        (f'[{_A}, ["b", -2]]', "[]", "vertices[1]: expected an object"),
        ('[{"id": 1, "weight": -2}]', "[]", "vertices[0].id: expected a string"),
        ('[{"weight": -2}]', "[]", "vertices[0].id: expected a string"),
        ('[{"id": "a", "weight": true}]', "[]", "vertices[0].weight: expected an integer"),
        ('[{"id": "a", "weight": -2.0}]', "[]", "vertices[0].weight: expected an integer"),
        (f'[{_A}, {{"id": "b"}}, 7]', '"x"', "vertices[1].weight: expected an integer"),
        (f"[{_A}, {_B}]", '[["a", "b"], ["a"]]', "edges[1]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '[["a", "b"], 3, ["a"], ["b", "a"]]', "edges[1]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '["ab"]', "edges[0]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '[{"a": 1, "b": 2}]', "edges[0]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '[["a", "b", "a"]]', "edges[0]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '[["a", "b"], ["a", 2]]', "edges[1]: expected a pair of ids"),
        (f"[{_A}, {_B}]", '{"a": "b"}', "edges: expected a list"),
        ('{"a": -2}', "[]", "vertices: expected a list"),
    ],
)
def test_parse_errors_name_the_first_bad_entry(vertices, edges, message):
    with pytest.raises(ParseError) as info:
        parse_document(_doc(vertices, edges))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("v a -2\ne a b\n", "edge (a, b) references unknown vertex"),
        ("v a -2\ne a a\n", "self-loop at a"),
        ("v a -2\nv b -2\ne a b\ne a b\n", "duplicate edge (a, b)"),
        ("v a -2\nv b -2\ne a b\ne b a\n", "duplicate edge (b, a)"),
        # two faults each: the first in input order is named
        ("v a -2\nv b -2\ne a b\ne b a\ne a z\n", "duplicate edge (b, a)"),
        ("v a -2\nv b -2\ne a a\ne a b\ne a b\n", "self-loop at a"),
        ("v a -2\nv a -3\ne a z\n", "duplicate vertex id"),
        (_doc(f"[{_A}, {_B}]", '[["a", "b"], ["b", "a"], ["a", "z"]]'), "duplicate edge (b, a)"),
        (_doc(f"[{_A}, {_B}]", '[["a", "a"], ["a", "b"], ["a", "b"]]'), "self-loop at a"),
        (_doc(f'[{_A}, {{"id": "a", "weight": -3}}]', '[["a", "z"]]'), "duplicate vertex id"),
        ("v a -2\nv b x\n", "line 2: weight is not an integer"),
        ("v a -2\n\nw b -2\n", "line 3: expected 'v <id> <weight>' or 'e <a> <b>'"),
        (
            '{"version": 1, "vertices": [], "edges": [], "metadata": ["a"]}',
            "metadata: expected an object",
        ),
    ],
)
def test_cli_refuses_a_bad_graph_file(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for argv in (["validate", str(path)], ["det", str(path), "--json"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_cli_validate_exit_codes(tmp_path, g1):
    path = write_graph(tmp_path, g1)
    assert main(["validate", path]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"version":1,"vertices":[],"edges":[]}')
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_cli_unreadable_graph_file_is_input_error(tmp_path, capsys):
    # a directory or a file that is not UTF-8 is invalid input, not a crash
    assert main(["det", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["det", str(binary)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {binary}: not UTF-8 text (invalid start byte at byte 0)\n"
    )


def _graph_file(tmp_path, vertices, edges, front_end, prefix=b""):
    """A graph file of (id, weight) and (a, b) pairs as they are, checked or
    not, in the JSON or the text front-end, its bytes after prefix."""
    if front_end == "json":
        text = json.dumps({
            "version": 1,
            "vertices": [{"id": v, "weight": w} for v, w in vertices],
            "edges": [list(e) for e in edges],
        })
    else:
        text = "".join(f"v {v} {w}\n" for v, w in vertices)
        text += "".join(f"e {a} {b}\n" for a, b in edges)
    path = tmp_path / f"{len(prefix)}.{front_end}"
    path.write_bytes(prefix + text.encode())
    return str(path)


@pytest.mark.parametrize("front_end", ["json", "text"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, g17, front_end):
    vertices = tuple(zip(g17.ids, g17.weights))
    for prefix in (b"", b"\xef\xbb\xbf"):
        path = _graph_file(tmp_path, vertices, g17.edges, front_end, prefix)
        assert main(["det", "--json", path]) == 0
        assert capsys.readouterr() == ('{\n  "determinant": 17\n}\n', "")


def _validate_seconds(tmp_path, capsys, shape, n=20000):
    """The best of two timed `validate` calls on a star or a chain of n
    vertices."""
    vertices = [(f"v{i}", -2) for i in range(n)]
    edges = [("v0" if shape == "star" else f"v{i - 1}", f"v{i}") for i in range(1, n)]
    path = _graph_file(tmp_path, vertices, edges, "text")
    times = []
    for _ in range(2):
        start = time.perf_counter()
        assert main(["validate", path]) == 0
        times.append(time.perf_counter() - start)
        assert capsys.readouterr() == (f"ok: {n} vertices, {n - 1} edges\n", "")
    return min(times)


@pytest.mark.parametrize("shape", ["star", "chain"])
def test_cli_validates_20000_vertices_in_under_2_s(tmp_path, capsys, shape):
    # the edge checks take O(1) per edge, also at the centre of the star: a
    # check that scans the centre's neighbours makes the star some 40 times
    # slower than the chain, yet still under 2 s, so the star is held to
    # the chain timed beside it
    elapsed = _validate_seconds(tmp_path, capsys, shape)
    assert elapsed < 2
    if shape == "star":
        assert elapsed < 4 * _validate_seconds(tmp_path, capsys, "chain")


def test_det_walks_the_tree_once(tmp_path, g17, monkeypatch, capsys):
    # the tree test, the leaves-up pass and the definiteness verdict all
    # read the one breadth-first walk of the integer view cached on the
    # fresh graph
    calls = []
    real = graph.walk_tree

    def counted(nbrs, root):
        calls.append(root)
        return real(nbrs, root)

    monkeypatch.setattr(graph, "walk_tree", counted)
    assert main(["det", "--json", write_graph(tmp_path, g17)]) == 0
    assert json.loads(capsys.readouterr().out) == {"determinant": 17}
    assert calls == [0]


def _chunked_int(text: str) -> int:
    # int(text) refuses past sys.get_int_max_str_digits() digits
    value = 0
    for k in range(0, len(text), 1000):
        chunk = text[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cli_writes_integers_of_any_length(tmp_path, capsys):
    # a path of 300 curves of weight -10^16 with two (-2)-leaves at one end
    # has a determinant of about 4800 digits, past the interpreter's
    # 4300-digit limit on int -> str; the limit itself is left as it was
    n = 300
    g = graph.ResolutionGraph.build(
        [(f"v{i}", -(10**16)) for i in range(n)] + [("a", -2), ("b", -2)],
        [(f"v{i}", f"v{i + 1}") for i in range(n - 1)] + [("v0", "a"), ("v0", "b")],
    )
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < g.det.bit_length() * 3 // 10
    path = write_graph(tmp_path, g)
    assert main(["det", path]) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and _chunked_int(text[:-1]) == g.det
    assert main(["det", "--json", path]) == 0
    head, digits = capsys.readouterr().out.split(": ")
    assert head == '{\n  "determinant"' and digits.endswith("\n}\n")
    assert _chunked_int(digits[:-3]) == g.det
    # the other commands that print a determinant-sized integer
    assert main(["group", path]) == 0
    assert _chunked_int(capsys.readouterr().out.splitlines()[0][len("order: ") :]) == g.det
    dets = graph.subtree_determinants(g)
    widest = max(dets.values())
    for command in (["maximal", "--json"], ["splice", "--json"], ["group", "--json"]):
        assert main([*command, path]) == 0
        assert capsys.readouterr().out
    # the widest maximal weight, and the node's splice weight toward the path
    toward_path = dets[("v1", "v0")]
    for command, lines, wanted in (
        (["maximal"], slice(None), widest),
        (["splice"], slice(1, None), toward_path),
    ):
        assert main([*command, path]) == 0
        weights = capsys.readouterr().out.splitlines()[lines]
        assert max(_chunked_int(line.rsplit(" ", 1)[1]) for line in weights) == wanted
    assert toward_path > 10**limit
    # the equation at v0 takes the whole weight toward the path as the
    # exponent of the far leaf, in the equations and in the report
    assert main(["equations", path]) in (0, 1)
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith(" + z_a^2 + z_b^2 = 0") and line.startswith("z_v299^")
    assert _chunked_int(line[len("z_v299^") : -len(" + z_a^2 + z_b^2 = 0")]) == toward_path
    assert main(["report", "--json", path]) in (0, 1)
    out = capsys.readouterr().out
    assert out.endswith("\n}\n") and f'"{line}"' in out
    assert sys.get_int_max_str_digits() == limit


def test_overlong_and_deeply_nested_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    long_weight = "-" + "9" * (sys.get_int_max_str_digits() + 1)
    path.write_text(
        '{"version": 1, "vertices": [{"id": "a", "weight": ' + long_weight + '}], "edges": []}'
    )
    assert main(["det", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: Exceeds the limit")
    path.write_text('{"version": 1, "vertices": ' + "[" * 200000)
    assert main(["det", str(path)]) == 2
    assert capsys.readouterr().err == "input error: nested too deeply\n"


def test_json_array_gets_the_json_message(tmp_path, capsys):
    # a top-level JSON array is JSON, not a line of the text format
    for text in ("[1, 2]", "  \n[]"):
        with pytest.raises(ParseError, match="^top level: expected an object$"):
            parse_document(text)
    path = tmp_path / "graph.json"
    path.write_text("[1, 2]\n")
    assert main(["det", str(path)]) == 2
    assert capsys.readouterr().err == "input error: top level: expected an object\n"


@pytest.mark.parametrize("first", ["a", "d"])
def test_cli_disconnected_graph_with_tree_edge_count(tmp_path, first, capsys):
    # a triangle and a lone vertex: n - 1 edges, but not a tree, whichever
    # vertex the cached order starts from
    vertices = [("a", -3), ("b", -3), ("c", -3), ("d", -3)]
    vertices.sort(key=lambda v: v[0] != first)
    g = graph.ResolutionGraph.build(vertices, [("a", "b"), ("b", "c"), ("c", "a")])
    for command in (["det", "--json"], ["validate"], ["splice"], ["report", "--json"]):
        assert main([*command, write_graph(tmp_path, g)]) == 2
        assert capsys.readouterr().err == "input error: graph is not a tree\n"
    with pytest.raises(ValidationError, match="not a tree"):
        graph.is_negative_definite(g)


def test_graph_files_are_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale a vertex named in UTF-8 is read, and a UTF-8
    # JSON file that starts with a byte-order mark is JSON
    import os
    import subprocess

    named = tmp_path / "named.txt"
    named.write_bytes("v \u00e9 -2\nv b -2\ne \u00e9 b\n".encode())
    marked = tmp_path / "marked.json"
    text = '{"version": 1, "vertices": [{"id": "a", "weight": -2}], "edges": []}'
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for path, summary in ((named, "ok: 2 vertices, 1 edges"), (marked, "ok: 1 vertices, 0 edges")):
        proc = subprocess.run(
            [sys.executable, "-m", "splicekit.cli", "validate", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, summary + "\n", "")


def test_text_output_is_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale the text of `splice` and `group` names a vertex
    # written in UTF-8, in the bytes a UTF-8 locale writes
    import os
    import subprocess

    named = tmp_path / "named.txt"
    named.write_bytes("v n -2\nv \u00e9 -2\nv b -2\nv c -2\ne n \u00e9\ne n b\ne n c\n".encode())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    ascii_env = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    for command in ("splice", "group"):
        argv = [sys.executable, "-m", "splicekit.cli", command, str(named)]
        ascii_run = subprocess.run(argv, capture_output=True, env=ascii_env)
        utf8_run = subprocess.run(argv, capture_output=True, env=dict(env, PYTHONUTF8="1"))
        assert (ascii_run.returncode, ascii_run.stderr) == (0, b""), command
        assert "\u00e9" in ascii_run.stdout.decode("utf-8"), command
        assert ascii_run.stdout == utf8_run.stdout, command


def test_emit_fixtures_takes_no_json(tmp_path):
    # emit-fixtures writes files, not a payload, so --json is a usage error
    # and nothing is written
    target = tmp_path / "fx"
    out, err, code = _run(["emit-fixtures", "--json", "--dir", str(target)])
    assert (out, code) == ("", 2) and "unrecognized arguments: --json" in err
    assert not target.exists()


def test_emit_fixtures_into_a_file_is_input_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["emit-fixtures", "--dir", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_cli_walks_no_linking_row_but_the_leaves(monkeypatch, tmp_path, capsys, corpus):
    # every command, text and --json, runs with linking_row refused on any
    # vertex but a leaf
    real = graph.ResolutionGraph.linking_row

    def leaves_only(g, v):
        if v not in graph.leaves_of(g):
            raise AssertionError(f"linking row of the non-leaf {v}")
        return real(g, v)

    monkeypatch.setattr(graph.ResolutionGraph, "linking_row", leaves_only)
    monkeypatch.chdir(tmp_path)
    commands = (
        ["validate"], ["det"], ["group"], ["splice"], ["maximal"], ["report"],
        *(["check", name] for name in (*reporting.SECTIONS, "all")),
        ["equations"], ["equations", "--equivariant"],
    )
    codes = []
    for i, g in enumerate(with_determinant_cap(corpus, 10**4)):
        path = write_graph(tmp_path, g, name=f"g{i}.json")
        calls = [[*cmd, path] for cmd in commands]
        for v in splice.splice_from_resolution(g).nodes:
            calls += [["reduce", path, "--end-node", v], ["reduce", path, "--end-node", v, "--raw"]]
        codes += [main(argv) for call in calls for argv in (call, [*call, "--json"])]
    assert main(["emit-fixtures", "--dir", "emitted"]) == 0
    capsys.readouterr()
    assert set(codes) == {0, 1}


def test_cli_invalid_env_cap_is_input_error(tmp_path, g90, monkeypatch, capsys):
    path = write_graph(tmp_path, g90)
    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "lots")
    assert main(["check", "semigroup", path]) == 2
    assert "input error" in capsys.readouterr().err
    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "0")
    assert main(["report", path]) == 2
    assert "SPLICEKIT_ENUM_CAP" in capsys.readouterr().err


def test_cli_calls_share_no_state(tmp_path, g17, g90, capsys):
    # one parser serves every call in the process; a --json on one call
    # must not carry over to the next
    assert main(["check", "semigroup", write_graph(tmp_path, g90), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["det", write_graph(tmp_path, g17, name="g17.json")]) == 0
    assert capsys.readouterr().out == "17\n"


def test_cli_recovers_after_usage_error(tmp_path, g17, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["det", write_graph(tmp_path, g17), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"determinant": 17}


def test_shared_parser_under_concurrent_parsing():
    # threads parse different command lines through main's parse, from the
    # command table or with the one shared argparse parser; any state a
    # parse left behind would show in another's result
    cases = [
        (["det", "a.json"], ("det", "a.json", False)),
        (["det", "e.json", "--json"], ("det", "e.json", True)),
        (["det", "--js", "f.json"], ("det", "f.json", True)),
        (["group", "b.json", "--json"], ("group", "b.json", True)),
        (["check", "okuma33", "c.json", "--json"], ("check", "c.json", True)),
        (["equations", "--equivariant", "g.json"], ("equations", "g.json", False)),
        (["reduce", "d.json", "--end-node", "n", "--raw"], ("reduce", "d.json", False)),
    ]
    errors = []

    def work(argv, expected):
        for _ in range(300):
            args = cli.parse_args(argv)
            if (args.command, args.file, args.json) != expected:
                errors.append((argv, vars(args)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=case) for case in cases * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert build_parser() is build_parser()


def _run(argv):
    """What main prints for argv, and its exit code or usage exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def test_table_parse_is_argparse_parse(capsys):
    # every order of each table command's positionals, every check
    # condition and a bad one, and 0-2 copies of each flag at every
    # position: the table gives argparse's Namespace wherever the
    # positionals stand in order with good choices, and else hands off
    for name, command in cli.COMMANDS.items():
        values = [
            [*choices, "bad"] if choices else ["g.json"] for _, choices in command.positionals
        ]
        for chosen in itertools.product(*values):
            for copies in itertools.product(range(3), repeat=len(command.flags)):
                tokens = [*chosen, *(f for f, k in zip(command.flags, copies) for _ in range(k))]
                for order in set(itertools.permutations(tokens)):
                    argv = [name, *order]
                    args = cli.parse_table_command(argv)
                    in_order = [t for t in order if not t.startswith("-")] == list(chosen)
                    assert (args is not None) == (in_order and "bad" not in chosen), argv
                    if args is not None:
                        assert vars(args) == vars(build_parser().parse_args(argv)), argv
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [
        [], ["nope", "g17.json"], ["-h"], ["--help"], ["det", "-h"], ["det", "--js", "g17.json"],
        ["det", "--json=1", "g17.json"], ["det", "--", "g17.json"], ["det", "-"], ["det", "-5"],
        ["det"], ["det", "g17.json", "g17.json"], ["check", "bad", "g17.json"],
        ["check", "g17.json", "all"], ["det", "--equivariant", "g17.json"],
        ["reduce", "g17.json", "--end-node", "nR", "--raw"], ["emit-fixtures", "--dir", "fx"],
    ],
)
def test_other_shapes_are_argparse_alone(tmp_path, monkeypatch, g17, argv):
    # help, usage errors, abbreviations, --, reduce and emit-fixtures go to
    # argparse, and main prints what argparse alone makes of them
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path, g17, name="g17.json")
    assert cli.parse_table_command(argv) is None
    printed = _run(argv)
    monkeypatch.setattr(cli, "parse_table_command", lambda argv: None)
    assert _run(argv) == printed
    assert printed[2] in (0, 2)


def test_common_shapes_never_build_argparse(tmp_path, monkeypatch, g90):
    # with build_parser refused, the table shapes print what they printed
    # before; the rest still reach argparse
    path = write_graph(tmp_path, g90)
    shapes = (
        ["det", "--json", path], ["check", "all", path], ["check", "--json", "semigroup", path],
        ["equations", path, "--equivariant"], ["report", "--json", path],
    )
    printed = [_run(argv) for argv in shapes]
    assert [code for _, _, code in printed] == [0, 1, 0, 1, 1]

    def refuse():
        raise AssertionError("argparse was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [_run(argv) for argv in shapes] == printed
    for argv in (["reduce", path, "--end-node", "nR"], ["-h"], ["det", "--js", path]):
        with pytest.raises(AssertionError, match="argparse was built"):
            main(argv)


@pytest.mark.parametrize("argv", [["det", "--json"], ["det", "--js"]])
def test_main_reads_sys_argv_by_default(tmp_path, monkeypatch, g17, capsys, argv):
    # the console script calls main() with no argv; the table and argparse
    # routes both read sys.argv[1:] and leave it as it was
    command_line = ["splicekit", *argv, write_graph(tmp_path, g17)]
    monkeypatch.setattr(sys, "argv", list(command_line))
    assert main() == 0
    assert capsys.readouterr() == ('{\n  "determinant": 17\n}\n', "")
    assert sys.argv == command_line


def test_cli_det_g17(tmp_path, g17, capsys):
    path = write_graph(tmp_path, g17)
    assert main(["det", path]) == 0
    assert capsys.readouterr().out.strip() == "17"


def test_cli_check_all_g90(tmp_path, g90, capsys):
    path = write_graph(tmp_path, g90)
    code = main(["check", "all", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "congruence: FAIL" in out
    assert "(mod 3)" in out


def test_cli_check_all_g1(tmp_path, g1, capsys):
    # the unit branch-cycle condition genuinely fails on graphs with (-1)
    # nodes, so `check all` reports it even though every other check passes
    path = write_graph(tmp_path, g1)
    assert main(["check", "all", path]) == 1
    out = capsys.readouterr().out
    assert "congruence: pass" in out and "okuma33: pass" in out
    assert "okuma34: FAIL" in out
    assert main(["check", "congruence", path]) == 0
    capsys.readouterr()


def test_cli_check_single_condition_json(tmp_path, g90, capsys):
    path = write_graph(tmp_path, g90)
    code = main(["check", "congruence", path, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    failing = [e for e in payload["checks"]["congruence"]["edges"] if not e["ok"]]
    assert failing[0]["solved"] == [
        {"leaf": "u", "residue": 2, "modulus": 3},
        {"leaf": "v", "residue": 2, "modulus": 3},
    ]


def test_cli_reduce_g1(tmp_path, g1, capsys):
    path = write_graph(tmp_path, g1)
    assert main(["reduce", path, "--end-node", "nR", "--normalized", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    weights = {(at, to): w for at, to, w in payload["weights"]}
    assert sorted(weights.values()) == [2, 3, 17]
    assert main(["reduce", path, "--end-node", "ul"]) == 2  # not an end-node
    capsys.readouterr()
    assert main(["reduce", path, "--end-node", "zz"]) == 2  # not a vertex at all
    assert capsys.readouterr().err == "input error: not an end-node: zz\n"


def test_cli_reduce_reports_non_integral_weights(tmp_path, g1, monkeypatch, capsys):
    # on a graph file every normalized weight is integral, det g times the
    # reduced weight being the raw one, so a wrong determinant stands in;
    # the library raises, and main reports the error with or without --json
    monkeypatch.setattr(cli, "graph_determinant", lambda g: 7)
    path = write_graph(tmp_path, g1)
    line = "error: NonIntegralWeight: reduced weight at nL toward nR: 17 not divisible by 7\n"
    for flags in ([], ["--json"]):
        assert main(["reduce", path, "--end-node", "nR", *flags]) == 2
        assert capsys.readouterr() == ("", line)
    assert main(["reduce", path, "--end-node", "nR", "--raw"]) == 0  # raw divides by nothing


def test_text_output_to_a_stream_without_bytes(tmp_path, g1, monkeypatch, capsys):
    # a stream with no byte buffer under it, such as io.StringIO, gets the
    # same text as str
    path = write_graph(tmp_path, g1)
    assert main(["splice", path]) == 0
    written = capsys.readouterr().out
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["splice", path]) == 0
    assert out.getvalue() == written and written.startswith("vertices: ")


def test_cli_equations(tmp_path, g90, star, capsys):
    path = write_graph(tmp_path, g90)
    code = main(["equations", path, "--equivariant"])
    out = capsys.readouterr().out
    assert code == 1 and "CongruenceFails" in out
    path = write_graph(tmp_path, star, name="star.json")
    assert main(["equations", path]) == 0
    assert "z_1^3 + z_2^3 + z_3^3 = 0" in capsys.readouterr().out


def test_equivariant_equations_build_no_group(monkeypatch, tmp_path, fixture_map, capsys):
    # only higher terms read the discriminant group, and the command passes
    # none: with leaf_generators made to raise, `equations --equivariant`
    # prints the same wherever the congruence condition holds
    passing = [name for name, g in fixture_map.items() if conditions.check_congruence(g).ok]
    assert len(passing) >= 3
    printed = {}
    for name in passing:
        path = write_graph(tmp_path, fixture_map[name], name=f"{name}.json")
        for argv in (["equations", "--equivariant", path], ["equations", "--equivariant", path, "--json"]):
            assert main(argv) == 0
            printed[tuple(argv)] = capsys.readouterr().out
        assert json.loads(printed[tuple(argv)])["equivariant"] is True

    def refuse(g):
        raise AssertionError("the discriminant group was built")

    monkeypatch.setattr(equations, "leaf_generators", refuse)
    for argv, out in printed.items():
        assert main(list(argv)) == 0 and capsys.readouterr().out == out


def test_cli_splice_and_group(tmp_path, g90, capsys):
    path = write_graph(tmp_path, g90)
    assert main(["splice", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    weights = {(at, to): w for at, to, w in payload["weights"]}
    assert weights[("nR", "nL")] == 57
    assert main(["group", path]) == 0
    out = capsys.readouterr().out
    assert "order: 90" in out
    assert main(["maximal", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ["u", "nR", 87] in payload["weights"]


def test_report_matches_golden(capsys):
    expected_codes = {"g1": 1, "g17": 0, "g90": 1, "star": 0, "fat_branch": 1}
    for name, expected in expected_codes.items():
        golden = (GOLDEN / f"{name}_report.json").read_text()
        code = main(["report", str(GOLDEN / f"{name}.json"), "--json"])
        out = capsys.readouterr().out
        assert out == golden
        assert code == expected


def test_report_byte_stable(tmp_path, g17, capsys):
    path = write_graph(tmp_path, g17)
    main(["report", path])
    first = capsys.readouterr().out
    main(["report", path])
    second = capsys.readouterr().out
    assert first == second


def test_report_on_indefinite_graph(tmp_path, capsys):
    # valid tree with negative weights but an indefinite form: the report
    # stops at the definiteness verdict and no condition is checked
    path = tmp_path / "indefinite.json"
    path.write_text(
        '{"version":1,"vertices":[{"id":"a","weight":-1},'
        '{"id":"b","weight":-1}],"edges":[["a","b"]]}'
    )
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["negative_definite"] is False
    assert "conditions" not in payload


def test_branch_conditions_on_indefinite_graph(tmp_path, capsys):
    # 3.4 reads the branch-cycle table, which needs a definite form (a
    # computation sequence need not end otherwise), so it is refused like 3.3
    path = tmp_path / "indefinite.json"
    path.write_text(
        '{"version":1,"vertices":[{"id":"a","weight":-1},{"id":"b","weight":-1},'
        '{"id":"c","weight":-1}],"edges":[["a","b"],["b","c"]]}'
    )
    assert main(["check", "okuma34", str(path)]) == 2
    assert "NotNegativeDefinite" in capsys.readouterr().err
    # both are refused up front, also where no table entry or node is read,
    # with the one message of the definiteness gate, as det is
    assert main(["check", "okuma33", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: NotNegativeDefinite: graph is not negative definite\n"
    )
    assert main(["det", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: NotNegativeDefinite: graph is not negative definite\n"
    )
    path.write_text(
        '{"version":1,"vertices":[{"id":"a","weight":-1},{"id":"b","weight":-1}],'
        '"edges":[["a","b"]]}'
    )
    assert main(["check", "okuma34", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: NotNegativeDefinite: graph is not negative definite\n"
    )
    # 3.3 is refused on an indefinite graph with a node, before any table
    path.write_text(
        '{"version":1,"vertices":[{"id":"c","weight":-1},{"id":"a","weight":-1},'
        '{"id":"b","weight":-2},{"id":"d","weight":-3}],'
        '"edges":[["c","a"],["c","b"],["c","d"]]}'
    )
    assert main(["check", "okuma33", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: NotNegativeDefinite: graph is not negative definite\n"
    )


def test_report_on_degenerate_string_graph(tmp_path, capsys):
    # a pure string has a two-leaf diagram with no nodes: every condition
    # is vacuous and the equation system is empty
    path = tmp_path / "string.json"
    path.write_text(
        '{"version":1,"vertices":[{"id":"a","weight":-2},'
        '{"id":"b","weight":-3},{"id":"c","weight":-2}],'
        '"edges":[["a","b"],["b","c"]]}'
    )
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["determinant"] == 8
    assert payload["conditions"]["semigroup"]["ok"]
    assert payload["conditions"]["okuma33"]["ok"]


def test_console_script_entry_point(tmp_path, g17):
    import subprocess
    import sys

    path = write_graph(tmp_path, g17)
    proc = subprocess.run(
        [sys.executable, "-m", "splicekit.cli", "det", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "17"


def test_emit_fixtures(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    assert main(["emit-fixtures", "--dir", str(out_dir)]) == 0
    capsys.readouterr()
    for name in ("g1", "g17", "g90", "star", "fat_branch"):
        doc = parse_document((out_dir / f"{name}.json").read_text())
        document_to_graph(doc)
        report = json.loads((out_dir / f"{name}_report.json").read_text())
        assert report["name"] == name
    emitted = (out_dir / "g90_report.json").read_text()
    assert emitted == (GOLDEN / "g90_report.json").read_text()


def test_report_searches_each_edge_once(monkeypatch, tmp_path, capsys):
    # the semigroup and congruence sections, the 3.3 fallback and the
    # equations read one search per diagram node edge; `check semigroup`
    # alone runs its own searches, each stopping at the first vector. On
    # this tree (det 10237272618240) the group checks run in full
    calls = []
    real = conditions.search_edge

    def counted(d, v, toward, cap, accept=None):
        calls.append((v, toward, accept is None))
        return real(d, v, toward, cap, accept)

    monkeypatch.setattr(conditions, "search_edge", counted)
    g = corpus.dominant_tree(random.Random(3), 25)
    d = splice.splice_from_resolution(g)
    edges = sorted((v, u) for v in d.nodes for u in d.adjacency[v])
    assert len(edges) == 22
    payload = reporting.analysis_report(g)
    assert sorted(calls) == [(v, u, False) for v, u in edges]
    assert payload["group"]["checks"] == {
        "order_ok": True,
        "drop_one_generator_ok": True,
        "no_pseudo_reflections": True,
    }
    failing = [e for e in payload["conditions"]["semigroup"]["edges"] if not e["ok"]]
    assert failing
    bad = ", ".join(f"({e['node']}, {e['toward']})" for e in failing)
    assert payload["equations"] == {
        "error": "SemigroupFails",
        "detail": f"no admissible monomial at {bad}",
    }
    path = write_graph(tmp_path, g)
    for argv, first_only in (
        (["check", "all", path], False),
        (["equations", "--equivariant", path], False),
        (["check", "semigroup", path], True),
    ):
        calls.clear()
        assert main(argv) == 1
        assert sorted(calls) == [(v, u, first_only) for v, u in edges]
    capsys.readouterr()


def test_report_builds_splice_diagram_once(monkeypatch, tmp_path, capsys):
    # every section reads the one read-only diagram of the report's
    # analysis, which later calls handed that analysis share; each command
    # builds one diagram
    calls = []
    real = splice._reduced_diagram

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(splice, "_reduced_diagram", counted)
    g = corpus.dominant_tree(random.Random(1), 12)
    a = Analysis(g)
    reporting.analysis_report(a)
    assert len(calls) == 1
    d = splice.splice_from_resolution(a)
    assert d is splice.splice_from_resolution(a) and len(calls) == 1
    path = write_graph(tmp_path, g)
    for argv in (["report"], ["check", "all"], ["equations", "--equivariant"], ["splice"]):
        calls.clear()
        main([*argv, path])
        assert len(calls) == 1, argv
    capsys.readouterr()
    edge = next(iter(d.weights))
    with pytest.raises(TypeError):
        d.weights[edge] = 1
    with pytest.raises(TypeError):
        d.strings[edge] = ()


def test_group_section_builds_leaf_block_once(monkeypatch, fixture_map, random_trees):
    # one leaf block feeds both the generators and the checks, which agree
    # with the public routes that build it for themselves
    calls = []
    real = discriminant.scaled_leaf_block

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(discriminant, "scaled_leaf_block", counted)
    for g in [*fixture_map.values(), *random_trees[:40]]:
        calls.clear()
        section = reporting.group_section(g)
        assert len(calls) == 1
        group, check = discriminant.leaf_generators(g), discriminant.group_order_check(g)
        assert section["order"] == group.order
        assert section["generators"] == {
            w: [str(q) for q in group.generators[w]] for w in group.leaves
        }
        assert section["checks"] == {
            "order_ok": check.order_ok,
            "drop_one_generator_ok": check.drop_one_ok,
            "no_pseudo_reflections": check.no_pseudo_reflections,
        }


def test_report_marks_exhausted_budgets(monkeypatch):
    # with a one-node budget the semigroup search and the 3.3 search on
    # (nL, nR) run out; the report must say so rather than look like a fail.
    # The graph is built here: its searches are cached on it
    real = conditions.SearchBudget
    monkeypatch.setattr(conditions, "SearchBudget", lambda nodes: real(1))
    payload = reporting.analysis_report(fixtures.g90())
    sections = payload["conditions"]
    assert any(e.get("truncated") for e in sections["semigroup"]["edges"])
    assert any(b.get("truncated") for b in sections["okuma33"]["branches"])
