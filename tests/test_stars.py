"""Theorem oracles on star-shaped graphs (Neumann 1983): the determinant and
splice weights in closed form from the arms' continued fractions, and the
Brieskorn complete intersection that every condition admits."""

import random
from fractions import Fraction
from math import prod

from splicekit.conditions import check_congruence, check_semigroup
from splicekit.cycles import check_condition_3_3
from splicekit.equations import build_equations, render_equations
from splicekit.graph import ResolutionGraph, graph_determinant, is_negative_definite
from splicekit.splice import splice_from_resolution

from oracles import equation_count


def star_graph(b: int, arms: list[list[int]]) -> ResolutionGraph:
    """Centre c of weight -b; arm i is the chain a{i}_0, a{i}_1, ... of
    weights -e for e in arms[i], from the centre out."""
    vertices, edges = [("c", -b)], []
    for i, arm in enumerate(arms):
        names = [f"a{i}_{j}" for j in range(len(arm))]
        vertices += [(v, -e) for v, e in zip(names, arm)]
        edges += list(zip(["c", *names], names))
    return ResolutionGraph.build(vertices, edges)


def arm_fraction(arm: list[int]) -> Fraction:
    """e_1 - 1 / (e_2 - 1 / ...), 1 for no curve, in lowest terms."""
    value = Fraction(1) if not arm else Fraction(arm[-1])
    for e in reversed(arm[:-1]):
        value = e - 1 / value
    return value


def definite_stars(seed: int, count: int):
    """(b, arms, graph) for the first `count` seeded stars whose Neumann
    excess b - sum(beta_i / alpha_i) is positive: centre weight -b with b in
    1..6, and 3-5 arms of 1-3 curves of weights -2..-5."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        b = rng.randint(1, 6)
        arms = [[rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(3, 5))]
        g = star_graph(b, arms)
        excess = b - sum(1 / arm_fraction(arm) for arm in arms)
        assert is_negative_definite(g) == (excess > 0)
        if excess > 0:
            found.append((b, arms, g))
    return found


def test_star_invariants_and_conditions_match_the_theorem():
    for b, arms, g in definite_stars(seed=83, count=300):
        # alpha: the numerator of the arm; beta: that of the arm minus its first curve
        alphas = [arm_fraction(arm).numerator for arm in arms]
        betas = [arm_fraction(arm[1:]).numerator for arm in arms]
        excess = b - sum(Fraction(beta, alpha) for alpha, beta in zip(alphas, betas))
        assert graph_determinant(g) == excess * prod(alphas)
        d = splice_from_resolution(g)
        assert d.nodes == ("c",)
        assert {to: w for (at, to), w in d.weights.items() if at == "c"} == {
            f"a{i}_{len(arm) - 1}": alpha for i, (arm, alpha) in enumerate(zip(arms, alphas))
        }
        assert check_semigroup(d).ok and check_congruence(g).ok
        assert check_condition_3_3(g).ok
        assert equation_count(build_equations(g)) == len(arms) - 2


def test_brieskorn_sphere_237():
    g = ResolutionGraph.build(
        [("c", -1), ("x", -2), ("y", -3), ("z", -7)], [("c", "x"), ("c", "y"), ("c", "z")]
    )
    assert graph_determinant(g) == 1
    assert render_equations(build_equations(g)) == "z_x^2 + z_y^3 + z_z^7 = 0"
