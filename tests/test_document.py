import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicekit import document, reporting
from splicekit.cli import main
from splicekit.corpus import with_determinant_cap
from splicekit.document import document_to_json, graph_to_document, indented_json, int_text

CHEAP = (
    ["validate"], ["det"], ["group"], ["splice"], ["maximal"],
    ["check", "ideal"], ["check", "okuma34"],
)
SEARCHING = (
    ["report"], ["equations"], ["check", "all"], ["check", "semigroup"],
    ["check", "congruence"], ["check", "okuma33"],
)


def test_writer_matches_json_dumps_on_every_json_command(
    tmp_path, monkeypatch, capsys, corpus, fixture_map
):
    # every payload the CLI writes goes through the writer, which must give
    # json.dumps's bytes; the searching commands run on the graphs with
    # det <= 10^4, as in the acceptance sweep, the others on all of them
    written = []

    def checked(value):
        text = indented_json(value)
        assert text == json.dumps(value, indent=2)
        written.append(text)
        return text

    for module in (document, reporting):
        monkeypatch.setattr(module, "indented_json", checked)
    small = {id(g) for g in with_determinant_cap(corpus, 10**4)}
    for i, g in enumerate(corpus):
        path = tmp_path / f"g{i}.json"
        path.write_text(document_to_json(graph_to_document(g, metadata={"name": f"g{i}"})))
        for command in CHEAP + (SEARCHING if id(g) in small else ()):
            main([*command, str(path), "--json"])
            out = capsys.readouterr().out
            assert out == written[-1] + "\n"
    g1 = tmp_path / "g1.json"
    g1.write_text(document_to_json(graph_to_document(fixture_map["g1"])))
    main(["reduce", str(g1), "--end-node", "nR", "--json"])
    assert capsys.readouterr().out == written[-1] + "\n"
    assert len(written) > 155 * len(CHEAP)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | st.text()
)
keys = st.text()  # every payload the program writes has str keys
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(payloads)
@example({"a\"b\\c\n\t\x00 ": ["é", "😀", {}, [], (), True, False, None, 2**200]})
@example({"": {"": [[]]}, "x": -0.0})
@example([float("nan"), float("inf"), -float("inf"), 1e300, 5e-324])
def test_writer_matches_json_dumps(payload):
    assert indented_json(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "x, text",
    [
        (10**5000, "1" + "0" * 5000),
        (-(10**5000) - 7, "-1" + "0" * 4999 + "7"),
        (10**9000 + 1, "1" + "0" * 8999 + "1"),
        (int("9" * 4000) * 10**4000 + int("12345" * 800), "9" * 4000 + "12345" * 800),
    ],
    ids=["power", "negative", "sparse", "dense"],
)
def test_writer_takes_integers_past_the_digit_limit(x, text):
    # str(x) refuses them; the writer splits them, and the limit stays
    assert len(text.lstrip("-")) > sys.get_int_max_str_digits()
    with pytest.raises(ValueError):
        str(x)
    assert int_text(x) == text
    assert indented_json({"x": [x]}) == '{\n  "x": [\n    ' + text + "\n  ]\n}"


@pytest.mark.parametrize("key", [1, True, None, 1.5])
def test_writer_takes_str_keys_only(key):
    # json.dumps would write these keys as text; the writer refuses them
    with pytest.raises(TypeError):
        indented_json({key: 1})
    with pytest.raises(TypeError):
        indented_json([{"a": {key: [1]}}])


@pytest.mark.parametrize(
    "value",
    [{1, 2}, Fraction(1, 2), object(), b"x", {(1, 2): 3}, [1, complex(1, 2)], {"k": {"n": set()}}],
)
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        indented_json(value)


@pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null", "2"])
def test_cli_rejects_a_version_other_than_integer_one(tmp_path, capsys, version):
    path = tmp_path / "graph.json"
    path.write_text(
        f'{{"version": {version}, "vertices": [{{"id": "a", "weight": -2}}], "edges": []}}'
    )
    assert main(["det", str(path)]) == 2
    assert "version: expected 1" in capsys.readouterr().err
    path.write_text('{"version": 1, "vertices": [{"id": "a", "weight": -2}], "edges": []}')
    assert main(["det", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"
