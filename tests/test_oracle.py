import math

import pytest

from fodef.families import complete, cycle, enumerate_graphs, path, star, triv, two_cycles
from fodef.graphs import BudgetExceeded, ColoredGraph
from fodef.oracle import (
    OracleSpoiler, RankSearcher, defining_rank_lb, exact_rank, survival_vs,
)

from helpers import brute_best_move, brute_rank


class TestExactRank:
    def test_star_identity_n3(self):
        assert exact_rank(star(2), star(3)).value == 2
        assert exact_rank(star(3), star(4)).value == 3

    def test_c3_c4(self):
        res = exact_rank(cycle(3), cycle(4))
        assert res.value == 2
        assert res.value > math.log2(3) - 1  # sanity: forced above log2(3)=1.58

    def test_p2_p3(self):
        assert exact_rank(path(2), path(3)).value == 2

    def test_isomorphic_not_within_budget(self):
        g = cycle(4)
        h = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 0), (0, 1)])
        res = exact_rank(g, h, r_max=4)
        assert res.not_within_budget
        assert res.value is None

    def test_size_guard(self):
        with pytest.raises(BudgetExceeded):
            exact_rank(path(10), path(10))
        exact_rank(path(10), path(10), size_budget=20, r_max=2)

    def test_matches_reference_minimax(self):
        cases = [
            (path(2), path(3)),
            (path(3), path(4)),
            (cycle(3), cycle(4)),
            (star(3), star(4)),
            (path(3), star(3)),
            (triv(1, 0), triv(0, 2)),
            (path(4), cycle(4)),
        ]
        for g, h in cases:
            assert exact_rank(g, h, r_max=5).value == brute_rank(g, h, 5)

    def test_symmetry(self):
        for g, h in [(path(3), path(5)), (cycle(3), cycle(5)), (star(3), path(4))]:
            for k in (None, 1, 2):
                a = exact_rank(g, h, k=k).value
                b = exact_rank(h, g, k=k).value
                assert a == b

    def test_budget_monotonicity(self):
        for g, h in [(path(3), path(5)), (cycle(4), cycle(5)), (star(3), star(4))]:
            unb = exact_rank(g, h).value
            prev = None
            for k in (0, 1, 2, 3):
                cur = exact_rank(g, h, k=k, r_max=8).value
                if cur is not None and prev is not None:
                    assert cur <= prev
                if cur is not None:
                    assert cur >= unb
                prev = cur if cur is not None else prev
        # with enough alternations allowed the unbudgeted value is reached
        g, h = path(3), path(5)
        assert exact_rank(g, h, k=6).value == exact_rank(g, h).value

    def test_best_first_move_reported(self):
        res = exact_rank(cycle(3), cycle(4))
        assert res.best_first_move is not None

    def test_best_first_move_matches_reference(self):
        # the move is read from the search memo; the reference minimax
        # finds the least winning first move at the least winning round count
        small = [g for n in range(1, 4) for g in enumerate_graphs(n)]
        larger = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for k in (None, 1):
            for g in small:
                for h in larger:
                    assert (exact_rank(g, h, k=k, r_max=4).best_first_move
                            == brute_best_move(g, h, 4, k)), (g, h, k)

    def test_triv_small(self):
        # one isolated edge + two isolated vertices vs four isolated vertices
        assert exact_rank(triv(1, 2), triv(0, 4)).value == 2


class TestSurvival:
    def test_consistency_with_rank(self):
        cases = [(cycle(3), cycle(4)), (path(2), path(3)), (star(3), star(4)),
                 (path(4), star(4))]
        for g, h in cases:
            rank = exact_rank(g, h).value
            rep = survival_vs(OracleSpoiler(g, h), g, h, r_max=rank + 2)
            assert rep.always_wins
            assert rep.max_rounds + 1 == rank

    def test_two_cycles_survival(self):
        # 2C4 vs C4 with budget 2: the one-per-component opening cannot win yet
        g, h = two_cycles(4), cycle(4)
        res = exact_rank(g, h, r_max=2, size_budget=12)
        assert res.value is None  # rank exceeds floor(log2(3)) = 1 and even 2


class TestDefiningRankLB:
    def test_k1(self):
        value, witness = defining_rank_lb(ColoredGraph.build(1, []), 2)
        assert value == 2
        assert witness.n == 2

    def test_p4_below_eq3_bound(self):
        value, witness = defining_rank_lb(path(4), 5)
        assert value < math.log2(4) + 3

    def test_p5_alternation1(self):
        value, witness = defining_rank_lb(path(5), 6, k=1, size_budget=11)
        assert value < math.log2(5) + 3

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            defining_rank_lb(path(3), 9)
