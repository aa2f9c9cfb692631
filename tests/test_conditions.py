import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splicekit import conditions, fixtures
from splicekit.analysis import Analysis
from splicekit.conditions import (
    SearchBudget,
    admissible_exponents,
    check_congruence,
    check_semigroup,
    end_node_criterion,
    end_node_criterion_slack,
    iter_nonnegative_solutions,
    two_node_criterion,
)
from splicekit.corpus import dominant_tree, with_determinant_cap
from splicekit.errors import NotEndNodeEdge, NotTwoNode, ValidationError
from splicekit.cycles import check_condition_3_3, fundamental_cycle
from splicekit.graph import blow_up_edge, graph_determinant, is_negative_definite, nodes_of
from splicekit.splice import linking_numbers, splice_from_resolution

from oracles import (
    arithmetic_genus,
    canonical_cycle,
    congruence_equalities_rational,
    congruence_table_by_name,
    full_group_character_oracle,
    iter_nonnegative_solutions_recursive,
    random_tree,
    satisfies_by_name,
)
from test_discriminant import definite_trees


def test_knapsack_order():
    assert list(iter_nonnegative_solutions((3, 3), 3)) == [(0, 1), (1, 0)]
    assert list(iter_nonnegative_solutions((2, 5), 3)) == []
    assert list(iter_nonnegative_solutions((1,), 4)) == [(4,)]


@settings(max_examples=600, deadline=None)
@given(
    st.lists(st.integers(1, 9), max_size=5),
    st.integers(-3, 40),
    st.one_of(st.none(), st.integers(0, 60)),
    st.one_of(st.none(), st.integers(0, 4)),
)
@example([3], -3, None, None)
@example([3], -3, 5, None)
def test_solutions_match_recursion(values, target, nodes, take):
    # same vectors in the same order, and the same spends, under budgets
    # that run out and when the consumer stops early; a negative target has
    # no vector
    budgets = [None if nodes is None else SearchBudget(nodes) for _ in range(2)]
    runs = [
        list(itertools.islice(route(values, target, budget), take))
        for route, budget in zip(
            (iter_nonnegative_solutions, iter_nonnegative_solutions_recursive), budgets
        )
    ]
    assert runs[0] == runs[1]
    assert all(a >= 0 for alpha in runs[0] for a in alpha)
    if nodes is not None:
        states = [(b.remaining, b.exhausted) for b in budgets]
        assert states[0] == states[1]


@pytest.mark.parametrize("values", [(0, 3), (3, 0)])
def test_solutions_refuse_non_positive_values(values):
    # a zero value would list vectors without end, or divide by zero
    with pytest.raises(ValueError, match="values must be positive"):
        next(iter_nonnegative_solutions(values, 6))


def test_solutions_with_thousands_of_values():
    assert list(iter_nonnegative_solutions([1] * 3000, 0)) == [(0,) * 3000]


def test_admissible_g90(g90):
    d = splice_from_resolution(g90)
    sols = admissible_exponents(d, "nL", "nR")
    assert sols.leaves == ("u", "v")
    assert [tuple(a for _, a in s.exponents) for s in sols.solutions] == [
        (0, 1), (1, 0),
    ]
    assert not sols.truncated


@pytest.mark.parametrize("limit", [-1, 0])
def test_search_limit_must_be_positive(g90, limit):
    d = splice_from_resolution(g90)
    with pytest.raises(ValidationError, match="search limit must be a positive integer"):
        admissible_exponents(d, "nL", "nR", limit=limit)
    with pytest.raises(ValidationError):
        conditions.solution_limit(limit)


def test_admissible_leaf_edge(g1):
    d = splice_from_resolution(g1)
    sols = admissible_exponents(d, "nL", "ul")
    assert [s.as_dict() for s in sols.solutions] == [{"ul": 2}]


def test_admissible_limit_flag(g90):
    d = splice_from_resolution(g90)
    sols = admissible_exponents(d, "nR", "nL", limit=1)
    assert sols.truncated and len(sols.solutions) == 1


def test_both_weighted_sums_agree(g1, g17, g90):
    # the defining sum over reduced linking numbers forces the full-weight sum
    for g in (g1, g17, g90):
        d = splice_from_resolution(g)
        for v in d.nodes:
            d_v = d.weight_product(v)
            for u in d.adjacency[v]:
                sols = admissible_exponents(d, v, u)
                assert not sols.truncated
                for adm in sols.solutions:
                    alpha = adm.as_dict()
                    total = sum(
                        a * linking_numbers(d, v, w)[0] for w, a in alpha.items()
                    )
                    assert total == d_v


def test_semigroup(g1, g90, star):
    assert check_semigroup(splice_from_resolution(g1)).ok
    assert check_semigroup(splice_from_resolution(g90)).ok
    report = check_semigroup(splice_from_resolution(star))
    assert report.ok  # one node: only leaf edges, vacuously true
    assert all(e.witness is not None for e in report.edges)


def test_congruence_g90_obstruction(g90):
    report = check_congruence(g90)
    assert not report.ok
    failures = report.failures
    assert len(failures) == 1
    edge = failures[0]
    assert (edge.node, edge.toward) == ("nL", "nR")
    assert report.semigroup.edges[report.edges.index(edge)].ok
    # the certificate is the name-keyed table read off the node's row
    leaves = splice_from_resolution(g90).edge_leaves("nL", "nR")[0]
    assert edge.congruences == congruence_table_by_name(g90, "nL", leaves)
    solved = {s.leaf: (s.residue, s.modulus) for s in edge.solved}
    assert solved == {"u": (2, 3), "v": (2, 3)}
    # incompatible with the admissibility equation a + b = 1
    assert all(r == 2 and m == 3 for r, m in solved.values())


def test_failing_congruence_report_is_hashable(g90):
    report = check_congruence(g90)
    assert report.failures
    assert all(e.congruences for e in report.failures)
    hash(report)
    for edge in report.failures:
        hash(edge)


@pytest.mark.parametrize("nodes", [None, 3000, 40])
def test_congruence_pass_gives_the_semigroup_report(monkeypatch, corpus, nodes):
    # the semigroup verdict read off each edge's congruence search is the
    # one of the search that stops at the first vector, truncation included.
    # Each call makes a fresh analysis, so it searches under this budget. At the
    # default budget the corpus graphs of det > 10^4 are left out: their
    # congruence searches take over a minute
    real = SearchBudget
    if nodes is not None:
        monkeypatch.setattr(conditions, "SearchBudget", lambda _: real(nodes))
    graphs = corpus if nodes else with_determinant_cap(corpus, 10**4)
    truncated = 0
    for g in [*graphs, *(dominant_tree(random.Random(s), 25) for s in range(3))]:
        report = check_congruence(g).semigroup
        assert report == check_semigroup(splice_from_resolution(g))
        truncated += sum(e.truncated for e in report.edges)
    assert truncated


def test_congruence_searches_are_cached_per_cap(monkeypatch):
    # an analysis reads the cap once, on its first search, and keeps its
    # searches; a later call handed the graph makes a fresh analysis and
    # gets the result of the cap set then
    reads = []
    real = conditions.solution_limit
    monkeypatch.setattr(conditions, "solution_limit", lambda: reads.append(1) or real())
    g = fixtures.g90()
    a = Analysis(g)
    full = check_congruence(a)
    assert len(reads) == 1
    monkeypatch.setenv("SPLICEKIT_ENUM_CAP", "1")
    assert check_congruence(a) == full and len(reads) == 1
    capped = check_congruence(g)
    assert capped == check_congruence(fixtures.g90()) and len(reads) == 3
    assert capped != full and any(e.truncated for e in capped.edges)
    monkeypatch.delenv("SPLICEKIT_ENUM_CAP")
    assert check_congruence(g) == full


def test_congruence_g1_trivial(g1):
    report = check_congruence(g1)
    assert report.ok and report.determinant == 1


def test_congruence_matches_two_node_criterion(g17):
    report = check_congruence(g17)
    sg = check_semigroup(splice_from_resolution(g17))
    assert two_node_criterion(g17) == (report.ok and sg.ok)


def test_rational_and_integer_paths_agree(g17, g90):
    for g in (g17, g90):
        d = splice_from_resolution(g)
        report = check_congruence(g)
        for edge in report.edges:
            sols = admissible_exponents(d, edge.node, edge.toward)
            assert not sols.truncated
            for adm in sols.solutions[:5]:
                rational = congruence_equalities_rational(
                    g, edge.node, edge.toward, adm.as_dict()
                )
                ok_rational = all(lhs == rhs for lhs, rhs in rational.values())
                # integer path: re-run the table check via the report machinery
                from splicekit.conditions import _congruence_table, _satisfies

                leaves = d.edge_leaves(edge.node, edge.toward)[0]
                table = _congruence_table(Analysis(g), edge.node, leaves)
                assert _satisfies(table, [a for _, a in adm.exponents]) == ok_rational


def _assert_table_matches_oracle(g):
    # the integer table, with det carried once, holds the name-keyed rows of
    # the oracle, and both tests agree on the first vectors of each node edge
    # and on a few more
    d, a = splice_from_resolution(g), Analysis(g)
    for v in d.nodes:
        for u in d.adjacency[v]:
            leaves, values = d.edge_leaves(v, u)
            table = conditions._congruence_table(a, v, leaves)
            oracle = congruence_table_by_name(g, v, leaves)
            det, rows = table
            assert [
                conditions.LeafCongruence(w, tuple(zip(leaves, coeffs)), target, det)
                for w, (target, coeffs) in zip(leaves, rows)
            ] == list(oracle)
            solutions = iter_nonnegative_solutions(values, d.weights[(v, u)], SearchBudget(10**4))
            vectors = [*itertools.islice(solutions, 20)]
            vectors += [tuple(range(i, i + len(leaves))) for i in range(3)]
            for alpha in vectors:
                assert conditions._satisfies(table, alpha) == satisfies_by_name(oracle, alpha)


def test_integer_table_matches_name_keyed_oracle(corpus):
    for g in corpus:
        _assert_table_matches_oracle(g)


@settings(max_examples=200, deadline=None)
@given(definite_trees())
def test_integer_table_matches_name_keyed_oracle_on_random_trees(g):
    _assert_table_matches_oracle(g)


def test_certificates_are_built_for_failing_edges_only(monkeypatch, corpus):
    # only a failing edge prints its certificate, so only it builds one; a
    # budget of 3000 nodes lets the whole corpus run
    built = []
    real, budget = conditions.LeafCongruence, SearchBudget

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(conditions, "LeafCongruence", counted)
    monkeypatch.setattr(conditions, "SearchBudget", lambda _: budget(3000))
    expected = 0
    for g in corpus:
        report = check_congruence(g)
        assert all(not e.congruences for e in report.edges if e.ok)
        expected += sum(len(e.congruences) for e in report.failures)
    assert expected and len(built) == expected


def test_congruence_invariant_under_blow_up(g90, g17):
    for g in (g90, g17):
        base = check_congruence(g)
        base_verdicts = {(e.node, e.toward): e.ok for e in base.edges}
        for edge in g.edges:
            g2 = blow_up_edge(g, edge)
            rep = check_congruence(g2)
            assert {(e.node, e.toward): e.ok for e in rep.edges} == base_verdicts
            assert rep.ok == base.ok


def _e8_like():
    # all-(-2) star with legs of lengths 1, 2 and 4: unimodular
    from splicekit.graph import ResolutionGraph

    vertices = [(v, -2) for v in ("c", "a1", "b1", "b2", "d1", "d2", "d3", "d4")]
    edges = [
        ("c", "a1"), ("c", "b1"), ("b1", "b2"),
        ("c", "d1"), ("d1", "d2"), ("d2", "d3"), ("d3", "d4"),
    ]
    return ResolutionGraph.build(vertices, edges)


def test_unimodular_congruence_free(g1, random_trees):
    cases = [g1, _e8_like()]
    cases.extend(g for g in random_trees if graph_determinant(g) == 1)
    assert graph_determinant(_e8_like()) == 1
    for g in cases:
        d = splice_from_resolution(g)
        if check_semigroup(d).ok:
            assert check_congruence(g).ok


def test_end_node_criterion_values(g1, g90):
    assert end_node_criterion_slack(g1, "nR", "nL") == 1
    assert end_node_criterion_slack(g1, "nL", "nR") == 0
    assert end_node_criterion(g1, "nR", "nL") and end_node_criterion(g1, "nL", "nR")
    assert end_node_criterion_slack(g90, "nL", "nR") == -1
    assert not end_node_criterion(g90, "nL", "nR")
    assert end_node_criterion_slack(g90, "nR", "nL") == 5


def test_end_node_criterion_errors(g1, star):
    with pytest.raises(NotEndNodeEdge):
        end_node_criterion(g1, "ul", "nL")  # leaf toward node: not a node edge
    with pytest.raises(NotTwoNode):
        two_node_criterion(star)


def test_two_node_criterion_fixtures(g1, g90, g17):
    assert two_node_criterion(g1)
    assert not two_node_criterion(g90)
    assert two_node_criterion(g17)


def test_end_node_criterion_matches_search(two_node_corpus, small_trees):
    checked = 0
    for g in [*two_node_corpus[:25], *small_trees]:
        d = splice_from_resolution(g)
        report = check_congruence(g)
        if any(e.truncated for e in report.edges):
            continue
        per_edge = {
            (e.node, e.toward): s.ok and e.ok
            for s, e in zip(report.semigroup.edges, report.edges)
        }
        for v in d.nodes:
            for u in d.adjacency[v]:
                if not d.is_node(u):
                    continue
                if any(not d.is_leaf(x) for x in d.adjacency[u] if x != v):
                    continue
                assert end_node_criterion(g, v, u) == per_edge[(v, u)]
                checked += 1
    assert checked >= 50


def test_two_node_criterion_matches_search(two_node_corpus):
    mismatches = []
    for g in two_node_corpus:
        closed = two_node_criterion(g)
        general = (
            check_semigroup(splice_from_resolution(g)).ok and check_congruence(g).ok
        )
        if closed != general:
            mismatches.append(g)
    assert not mismatches


def test_full_group_oracle(g17, g1, star, small_trees):
    for g in [g17, g1, star, *small_trees[:8]]:
        if graph_determinant(g) > 5000:
            continue
        result = full_group_character_oracle(g)
        assert result in (True, None)
        if check_congruence(g).ok:
            assert result is True


def test_searches_that_run_out_are_undecided_never_failed(monkeypatch, corpus):
    # with no node to spend every search runs out at once: no decision may
    # read fail, every searched one is undecided, and a greedy 3.3 branch
    # still passes, "constructive"
    real = SearchBudget
    monkeypatch.setattr(conditions, "SearchBudget", lambda _: real(0))
    seen = {"search": 0, "constructive": 0}
    for g in filter(is_negative_definite, corpus):
        congruence = check_congruence(g)
        for d in (
            *check_semigroup(splice_from_resolution(g)).edges, *congruence.semigroup.edges,
            *congruence.edges, *check_condition_3_3(g).decisions,
        ):
            seen[d.method] += 1
            if d.method == "search":
                assert (d.status, d.ok, d.truncated, d.witness) == ("undecided", False, True, None)
            else:
                assert (d.status, d.ok, d.truncated) == ("pass", True, False) and d.witness
    assert all(seen.values())


def test_benchmark_observers_read_the_reports():
    # perfbench/tracing.py, loaded by its path, counts the checks, undecided
    # searches, vectors tested, witnesses and 3.3 fallbacks off the reports;
    # its counts must be the ones read here, on a tree whose searches run out
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    undecided = 0
    for g in (fixtures.g1(), dominant_tree(random.Random(3), 25)):
        a = Analysis(g)
        semigroup, congruence = check_semigroup(splice_from_resolution(a)), check_congruence(a)
        fallbacks = [d for d in check_condition_3_3(a).decisions if d.method == "search"]
        counts = [sum(d.status == "undecided" for d in report)
                  for report in (semigroup.edges, congruence.edges, fallbacks)]
        assert tracing._semigroup(semigroup) == {
            "checks": len(semigroup.edges), "undecided": counts[0],
        }
        assert tracing._congruence(congruence) == {
            "checks": len(congruence.edges), "undecided": counts[1],
            "tested": sum(d.tested for d in congruence.edges),
            "witnesses": sum(d.status == "pass" for d in congruence.edges),
        }
        assert tracing._condition_3_3(check_condition_3_3(a)) == {
            "checks": len(fallbacks), "undecided": counts[2], "fallbacks": len(fallbacks),
        }
        undecided += sum(counts)
    assert undecided


def test_rational_graphs_pass_every_condition():
    # a rational singularity with a rational homology sphere link is a
    # splice-quotient (the paper's conjecture, proved by Okuma), so on every
    # rational graph, p_a(Z_min) = 0 (Artin), with a node, the semigroup,
    # congruence and 3.3 checks pass, and none is left undecided
    rng, graphs = random.Random(2026), []
    while len(graphs) < 1000:
        g = random_tree(rng, rng.randint(5, 14), (-1, -2, -2, -2, -3, -4))
        if is_negative_definite(g) and nodes_of(g) and arithmetic_genus(g) == 0:
            graphs.append(g)
    _assert_every_condition_passes(graphs)


def test_genus_one_graphs_with_z_min_equal_to_z_k_pass_every_condition():
    # kept: definite, with a node, p_a(Z_min) = 1 and Z_min = Z_K, where
    # Z_K.E_j = w_j + 2. As Z_min.E_j <= 0, Z_min = Z_K forces every weight
    # to be at most -2, so each graph kept is a minimal resolution graph; on
    # a minimal resolution Laufer ("On minimally elliptic singularities",
    # Amer. J. Math. 1977) reads Z_min = Z_K as minimal ellipticity, and a
    # minimally elliptic singularity with a rational homology sphere link is
    # a splice-quotient (the paper's conjecture, confirmed by Okuma)
    rng, graphs = random.Random(11), []
    while len(graphs) < 100:
        g = random_tree(rng, rng.randint(4, 12), (-1, -2, -2, -2, -3, -4))
        if (
            is_negative_definite(g)
            and nodes_of(g)
            and arithmetic_genus(g) == 1
            and fundamental_cycle(g, g.ids) == canonical_cycle(g)
        ):
            graphs.append(g)
    assert all(w <= -2 for g in graphs for w in g.weights)
    _assert_every_condition_passes(graphs)


def _assert_every_condition_passes(graphs):
    """Semigroup, congruence and 3.3 pass on one ``Analysis`` of each graph,
    with no decision left undecided."""
    for g in graphs:
        a = Analysis(g)
        reports = (
            check_semigroup(splice_from_resolution(a)).edges,
            check_congruence(a).edges,
            check_condition_3_3(a).decisions,
        )
        statuses = {x.status for decisions in reports for x in decisions}
        assert statuses == {"pass"}, g
