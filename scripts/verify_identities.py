#!/usr/bin/env python3
"""Exercise the exact matrix and reduction identities on a random corpus.

Checks, with exact arithmetic throughout:
  - A * L = -det * I for the linking matrix of the maximal diagram;
  - every maximal-diagram edge determinant equals det;
  - reduced-diagram edge determinants equal string det times graph det;
  - end-node reduction, raw (no determinant given), scales the surviving
    edge determinants by the trimmed graph's determinant, and the reduced
    linking numbers of the reduced diagram are symmetric;
  - with two or more leaves, the leaf generators but any one span a group
    of order det (every drop-one index is 1 on a tree);
  - the invariant factors of ``group_order_check``, from the Smith diagonal
    of the leaf block mod the part of det built from the primes of the
    block's gcd with det, are those read off its Smith form mod det;
  - on every reduced branch B (each curve j of B has w_j + deg_B(j) <= 0)
    the computation sequence from coefficient 1 on every curve makes no
    bump, so that is the fundamental cycle, and every sub-branch of B is
    reduced too: conditions 3.3 and 3.4 read no branch cycle there;
  - every entry of the branch-cycle table, each filled from the entries
    beyond it, is the fundamental cycle of its component;
  - on every directed edge (x, k), k not a leaf, with S the component of
    the graph minus k holding x and q = q(x, k) from the moduli table: the
    least effective cycle Y on S with Y.E_j + c [j = x] <= 0 on S meets
    every curve of S in 0 exactly when q divides c, for c = 1..2q (for
    c in 1, 2, q - 1, q, q + 1, 2q - 1, 2q when q > 50).

Usage: python scripts/verify_identities.py [--trees 100] [--seed 20240917]
"""

from __future__ import annotations

import argparse
import itertools
import time
from math import gcd, prod

from splicekit import (
    edge_determinant,
    end_node_reduce,
    graph_determinant,
    group_order_check,
    intersection_matrix,
    leaf_generators,
    linking_matrix,
    linking_numbers,
    maximal_splice,
    smith_normal_form,
    splice_from_resolution,
    verify_edge_det_theorem,
)
from splicekit.corpus import dominant_trees
from splicekit.fixtures import fixture_graphs
from splicekit.cycles import excess_table, fundamental_cycle, moduli_table
from splicekit.graph import component_of, induced_subgraph
from splicekit.splice import is_end_node


def _int_cycle(z) -> dict[str, int]:
    """The non-zero coefficients of z; a Fraction that is not an integer
    equals no int, so comparing with an int dict also checks integrality."""
    return {v: c for v, c in z.coefficients.items() if c}


def _meets_in_zero(part, x: str, c: int) -> bool:
    """Whether the least effective cycle Y on the tree part with Y.E_j + c
    [j = x] <= 0 on every curve meets each curve in 0: a computation
    sequence from the ceiling of c times column x of -A^-1, the rational
    cycle meeting every curve in 0, which lies below Y."""
    det, column = graph_determinant(part), linking_matrix(part)[part.index[x]]
    coeff = {j: -(-c * a // det) for j, a in zip(part.ids, column)}

    def meet(j: str) -> int:
        pairing = coeff[j] * part.weight_of(j) + sum(coeff[u] for u in part.adjacency[j])
        return pairing + (c if j == x else 0)

    pending = list(part.ids)
    while pending:
        j = pending.pop()
        if meet(j) > 0:
            coeff[j] -= meet(j) // part.weight_of(j)
            pending.extend(part.adjacency[j])
    return all(meet(j) == 0 for j in part.ids)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240917)
    args = parser.parse_args()

    graphs = list(fixture_graphs().values())
    graphs += dominant_trees(args.trees, seed=args.seed)

    started = time.perf_counter()
    identities = edges = reductions = reduced = cycles = moduli = 0
    for g in graphs:
        det = graph_determinant(g)
        a = intersection_matrix(g)
        lmat = linking_matrix(g)
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*lmat)] for row in a]
        n = len(a)
        assert all(
            product[i][j] == (-det if i == j else 0)
            for i in range(n) for j in range(n)
        )
        identities += 1

        dmax = maximal_splice(g)
        for e in dmax.edges:
            assert edge_determinant(dmax, e) == det
            edges += 1
        assert verify_edge_det_theorem(g).ok

        scaled = list(leaf_generators(g).scaled_generators().values())
        diagonal = smith_normal_form(scaled, modulus=det).diagonal
        factors = sorted(e for e in (det // gcd(s, det) for s in diagonal) if e > 1)
        assert list(group_order_check(g).invariant_factors) == factors
        if len(scaled) >= 2:
            for j in range(len(scaled)):
                others = scaled[:j] + scaled[j + 1:]
                diagonal = smith_normal_form(others, modulus=det).diagonal
                assert prod(det // gcd(s, det) for s in diagonal) == det

        branches = {
            (u, v): frozenset(component_of(g, v, u)) for v in g.ids for u in g.adjacency[v]
        }
        is_reduced = {
            e: all(g.weight_of(j) + sum(x in b for x in g.adjacency[j]) <= 0 for j in b)
            for e, b in branches.items()
        }
        for e, b in branches.items():
            if is_reduced[e]:
                assert _int_cycle(fundamental_cycle(g, b)) == dict.fromkeys(b, 1)
                assert all(is_reduced[s] for s, sub in branches.items() if sub < b)
                reduced += 1

        ids = g.ids
        for (x, p), extra in excess_table(g).items():
            comp = branches[(ids[x], ids[p])]
            cycle = {ids[j]: 1 + extra.get(j, 0) for j in sorted(map(g.index.get, comp))}
            assert cycle == _int_cycle(fundamental_cycle(g, comp))
            cycles += 1
        for (x, k), q in moduli_table(g).items():
            part = induced_subgraph(g, branches[(ids[x], ids[k])])
            cs = range(1, 2 * q + 1) if q <= 50 else (1, 2, q - 1, q, q + 1, 2 * q - 1, 2 * q)
            for c in cs:
                assert _meets_in_zero(part, ids[x], c) == (c % q == 0)
            moduli += 1

        d = splice_from_resolution(g)
        if len(d.nodes) < 2:
            continue
        for v_star in d.nodes:
            if not is_end_node(d, v_star):
                continue
            central = [x for x in d.adjacency[v_star] if not d.is_leaf(x)][0]
            r = d.weights[(v_star, central)]
            trimmed = end_node_reduce(d, v_star).diagram
            for e in trimmed.edges:
                if trimmed.is_node(e[0]) and trimmed.is_node(e[1]):
                    assert edge_determinant(trimmed, e) == r * edge_determinant(d, e)
            for v, w in itertools.combinations(trimmed.ids, 2):
                assert linking_numbers(trimmed, v, w)[1] == linking_numbers(trimmed, w, v)[1]
            reductions += 1
    elapsed = time.perf_counter() - started
    print(
        f"verified {identities} linking identities, {edges} edge determinants, "
        f"{reductions} end-node reductions, {reduced} reduced branches, "
        f"{cycles} branch cycles and {moduli} branch moduli in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
