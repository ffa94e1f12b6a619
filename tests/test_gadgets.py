import math
from fractions import Fraction

import numpy as np
import pytest

from sepscan.gadgets import (
    RSDF_ITERS,
    RSDF_STARTS,
    Graph,
    clique_to_wmqs,
    max_clique,
    motzkin_straus_value,
    product_state_from_block_vector,
    random_graph,
    rsdf_to_wval,
    rsdf_value,
    verify_chain,
    wmqs_to_rsdf,
    wval_value,
)


def rsdf_sphere_grid(blocks, resolution: int = 400) -> float:
    """Angle-grid lower bound of F for 2- and 3-dimensional blocks."""
    blocks = np.stack(blocks)
    dim = blocks.shape[1]
    if dim == 2:
        t = np.linspace(0.0, np.pi, resolution)
        xs = np.stack([np.cos(t), np.sin(t)], axis=1)
    elif dim == 3:
        t = np.linspace(0.0, np.pi, resolution)
        p = np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False)
        tt, pp = np.meshgrid(t, p, indexing="ij")
        xs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
    else:
        raise ValueError("grid evaluation supports dimensions 2 and 3 only")
    forms = np.einsum("si,kij,sj->sk", xs, blocks, xs)
    return float(np.max(np.sum(forms**2, axis=1)))


def rsdf_value_loop(blocks, *, seed: int = 0):
    """`rsdf_value` one start at a time: the reference for the batched ascent.

    It solves the bordered Newton system as written and takes the tangent
    Hessian's largest eigenvalue in an explicit basis of the tangent plane.
    """
    blocks = np.stack(blocks)
    dim = blocks.shape[1]
    eye = np.eye(dim)
    rng = np.random.default_rng(seed)
    seeds = [rng.standard_normal(dim) for _ in range(RSDF_STARTS)]
    seeds.extend(eye)
    best_val, best_x = -np.inf, None
    for x0 in seeds:
        x = np.asarray(x0, dtype=float)
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        x = x / nx
        mu, grow = 1.0, 2.0
        val = float(np.sum((x @ blocks @ x) ** 2))
        for _ in range(RSDF_ITERS):
            w = x @ blocks @ x  # (k,)
            bx = blocks @ x  # (k, dim)
            grad = 4.0 * (w @ bx - val * x)
            hess = 4.0 * np.tensordot(w, blocks, axes=1) + 8.0 * bx.T @ bx - 4.0 * val * eye
            tangent = np.linalg.qr(np.column_stack([x, eye]))[0][:, 1:]
            mu = max(mu, 1.1 * np.linalg.eigvalsh(tangent.T @ hess @ tangent)[-1])
            bordered = np.block([[mu * eye - hess, x[:, None]], [x[None, :], np.zeros((1, 1))]])
            d = np.linalg.solve(bordered, np.append(grad, 0.0))[:dim]
            pred = grad @ d + 0.5 * d @ hess @ d
            cand = (x + d) / np.linalg.norm(x + d)
            cand_val = float(np.sum((cand @ blocks @ cand) ** 2))
            gain = cand_val - val
            if gain >= 0:
                ratio = gain / pred if pred > 0 else 0.0
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                x, val, grow = cand, cand_val, 2.0
                if gain < 1e-14:
                    break
            else:
                mu, grow = mu * grow, 2.0 * grow
                if pred < 1e-14:
                    break
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


def rsdf_gradient_loop(blocks, *, seed: int = 0):
    """The fixed-step projected-gradient ascent the Newton ascent replaced, one
    start at a time: the Newton ascent must never end below it."""
    blocks = np.stack(blocks)
    dim = blocks.shape[1]
    rng = np.random.default_rng(seed)
    seeds = [rng.standard_normal(dim) for _ in range(RSDF_STARTS)]
    seeds.extend(np.eye(dim))
    best_val, best_x = -np.inf, None
    for x0 in seeds:
        x = np.asarray(x0, dtype=float)
        nx = np.linalg.norm(x)
        if nx < 1e-12:
            continue
        x = x / nx
        step = 0.5
        val = float(np.sum((x @ blocks @ x) ** 2))
        for _ in range(RSDF_ITERS):
            w = x @ blocks @ x  # (k,)
            grad = 4.0 * np.einsum("k,kij,j->i", w, blocks, x)
            cand = x + step * grad
            cand /= np.linalg.norm(cand)
            cand_val = float(np.sum((cand @ blocks @ cand) ** 2))
            if cand_val >= val:
                x, gain, val = cand, cand_val - val, cand_val
                if gain < 1e-14:
                    break
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


K2 = Graph.complete(2)
K3 = Graph.complete(3)
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1
        assert g.adjacency.sum() == 4

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1.5), (2, 1.0), ("0", 1), (None, 1), (True, False)])
    def test_rejects_non_integer_vertex(self, edge):
        with pytest.raises(ValueError, match="bad edge"):
            Graph.from_edges(3, [edge])

    def test_numpy_integer_vertices(self):
        g = Graph.from_edges(3, [(np.int64(0), np.int32(2))])
        assert g.adjacency[0, 2] == g.adjacency[2, 0] == 1

    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2), dtype=np.int8)
        a[0, 1] = 1
        with pytest.raises(ValueError):
            Graph(2, a)


class TestCliqueQuadratic:
    def test_triangle(self):
        rep = motzkin_straus_value(K3)
        assert rep.kappa == 3
        assert rep.value == pytest.approx(2.0 / 3.0)

    def test_single_edge(self):
        rep = motzkin_straus_value(K2)
        assert rep.kappa == 2
        assert rep.value == pytest.approx(0.5)
        assert rep.grid_max == pytest.approx(0.5)  # the optimum lies on the grid

    def test_empty_graph(self):
        g = Graph(3, np.zeros((3, 3), dtype=np.int8))
        rep = motzkin_straus_value(g)
        assert rep.kappa == 1
        assert rep.value == 0.0
        assert rep.grid_max == 0.0

    def test_grid_tracks_exact_value_small_graphs(self):
        for seed in range(25):
            g = random_graph(5, 0.5, seed)
            rep = motzkin_straus_value(g)
            assert rep.grid_max <= rep.value + 1e-12
            assert abs(rep.grid_max - rep.value) <= 0.02

    def test_size_guard(self):
        with pytest.raises(ValueError):
            max_clique(Graph(13, np.zeros((13, 13), dtype=np.int8)))

    @pytest.mark.parametrize("n, steps", [(1, 4), (2, 5), (3, 6), (4, 3)])
    def test_grid_max_enumerates_every_grid_point(self, n, steps):
        from itertools import product

        from sepscan.gadgets import simplex_grid_max

        a = np.random.default_rng(n).random((n, n))
        a = a + a.T
        grid = [np.array(p) / steps for p in product(range(steps + 1), repeat=n) if sum(p) == steps]
        best = max(float(y @ a @ y) for y in grid)
        assert abs(simplex_grid_max(a, steps) - best) <= 1e-15


class TestCliqueToWmqs:
    def test_c3_interval(self):
        inst = clique_to_wmqs(K3, 3)
        assert inst.zeta == Fraction(7, 12)
        assert inst.eta == Fraction(1, 24)

    def test_c2_interval(self):
        inst = clique_to_wmqs(K2, 2)
        assert inst.zeta == Fraction(1, 4)
        assert inst.eta == Fraction(1, 8)

    def test_yes_side_consistency(self):
        inst = clique_to_wmqs(K3, 3)
        rep = motzkin_straus_value(K3)
        assert rep.value >= float(inst.zeta - inst.eta)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            clique_to_wmqs(K3, 1)
        with pytest.raises(ValueError):
            clique_to_wmqs(K3, 4)


class TestWmqsToRsdf:
    def test_single_edge_block(self):
        rsdf = wmqs_to_rsdf(clique_to_wmqs(K2, 2))
        assert len(rsdf.blocks) == 1
        np.testing.assert_allclose(
            rsdf.blocks[0], np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
        )
        val, x = rsdf_value(rsdf.blocks)
        assert val == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(np.abs(x), [1 / math.sqrt(2)] * 2, atol=1e-6)

    def test_zero_matrix_gives_zero_blocks(self):
        from sepscan.gadgets import WmqsInstance

        inst = WmqsInstance(np.zeros((3, 3)), Fraction(1, 4), Fraction(1, 8))
        rsdf = wmqs_to_rsdf(inst)
        assert all(np.all(b == 0) for b in rsdf.blocks)
        assert rsdf_value(rsdf.blocks)[0] == pytest.approx(0.0)

    def test_triangle_value_preserved(self):
        rsdf = wmqs_to_rsdf(clique_to_wmqs(K3, 3))
        assert len(rsdf.blocks) == 3
        val, _ = rsdf_value(rsdf.blocks)
        assert abs(val - 2.0 / 3.0) < 1e-6
        grid = rsdf_sphere_grid(rsdf.blocks, resolution=500)
        assert grid <= val + 1e-9
        assert abs(grid - 2.0 / 3.0) < 1e-4

    def test_value_matches_simplex_on_random_graphs(self):
        for seed in range(10):
            g = random_graph(4, 0.6, seed)
            inst = clique_to_wmqs(g, 2)
            rsdf = wmqs_to_rsdf(inst)
            f_val, _ = rsdf_value(rsdf.blocks)
            h_val = motzkin_straus_value(g).value
            assert abs(f_val - h_val) < 1e-6


class TestBatchedAscent:
    def test_matches_one_start_at_a_time_on_acceptance_7_graphs(self):
        # the chain half of acceptance 7: random_graph(3 + s % 3, 0.6, s + 500), seed s
        for seed in range(12):
            g = random_graph(3 + seed % 3, 0.6, seed + 500)
            blocks = wmqs_to_rsdf(clique_to_wmqs(g, 2)).blocks
            val, x = rsdf_value(blocks, seed=seed)
            ref_val, _ = rsdf_value_loop(blocks, seed=seed)
            assert abs(val - ref_val) <= 1e-12, (seed, val, ref_val)
            assert val >= rsdf_gradient_loop(blocks, seed=seed)[0] - 1e-12
            assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
            forms = np.array([x @ b @ x for b in blocks])
            assert abs(float(np.sum(forms**2)) - val) <= 1e-12

    def test_matches_on_random_symmetric_blocks(self):
        rng = np.random.default_rng(3)
        # without mu's floor at T's top eigenvalue, the 6x6 set ends at 14.27 for seed 0, not 16.14
        for dim, k in [(2, 1), (3, 4), (5, 6), (4, 5), (6, 3), (6, 6)]:
            blocks = []
            for _ in range(k):
                a = rng.standard_normal((dim, dim))
                blocks.append((a + a.T) / 2)
            for seed in range(3):
                val, _ = rsdf_value(blocks, seed=seed)
                tol = 1e-12 * max(1.0, val)
                assert abs(val - rsdf_value_loop(blocks, seed=seed)[0]) <= tol
                assert val >= rsdf_gradient_loop(blocks, seed=seed)[0] - tol


class TestDegenerateMaxima:
    """Graphs whose Motzkin-Straus program has maxima where an outside vertex
    is adjacent to kappa - 1 clique vertices; F falls off quartically there."""

    @pytest.mark.parametrize("g", [
        # a fixed-step gradient ascent runs these to RSDF_ITERS at 7 of the 8 seeds
        Graph.from_edges(4, [(0, 1), (0, 3), (1, 2)]),
        Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 5), (3, 4), (3, 5)]),
        # starts parked near saddles, where mu below T's top eigenvalue cycles
        random_graph(4, 0.5, 1),
        random_graph(6, 0.8, 3),
    ])
    def test_reaches_the_maximum_before_the_cap(self, g):
        blocks = wmqs_to_rsdf(clique_to_wmqs(g, 2)).blocks
        target = 1.0 - 1.0 / max_clique(g)
        for seed in range(4):
            stats = []
            val, _ = rsdf_value(blocks, seed=seed, stats=stats)
            assert abs(val - target) <= 1e-12, (seed, val)
            (ascent,) = stats
            assert ascent.iterations < RSDF_ITERS and ascent.capped == 0, (seed, ascent)

    def test_stats_count_capped_starts(self, monkeypatch):
        import sepscan.gadgets as gadgets

        monkeypatch.setattr(gadgets, "RSDF_ITERS", 2)
        g = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2)])
        stats = []
        gadgets.rsdf_value(wmqs_to_rsdf(clique_to_wmqs(g, 2)).blocks, stats=stats)
        assert stats[0].iterations == 2 and stats[0].capped > 0


class TestRsdfToWval:
    def test_single_block_shape(self):
        b1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        from sepscan.gadgets import RsdfInstance

        wval = rsdf_to_wval(RsdfInstance((b1,), Fraction(1, 4), Fraction(1, 8)))
        assert wval.m == 2 and wval.n == 2
        np.testing.assert_allclose(wval.b[0:2, 2:4], b1)
        np.testing.assert_allclose(wval.b[2:4, 0:2], b1)
        np.testing.assert_allclose(wval.b[0:2, 0:2], 0.0)
        np.testing.assert_allclose(wval.b[2:4, 2:4], 0.0)

    def test_zero_blocks_give_zero_value(self):
        from sepscan.gadgets import RsdfInstance

        wval = rsdf_to_wval(RsdfInstance((np.zeros((2, 2)),), Fraction(1, 4), Fraction(1, 8)))
        assert wval_value(wval, np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_threshold_bracket_strictly_inside(self):
        from sepscan.gadgets import RsdfInstance

        inst = RsdfInstance((np.eye(2),), Fraction(7, 12), Fraction(1, 24))
        wval = rsdf_to_wval(inst)
        lo = float(inst.zeta - inst.eta)
        hi = float(inst.zeta + inst.eta)
        assert math.sqrt(lo) < float(wval.gamma - wval.epsilon)
        assert float(wval.gamma + wval.epsilon) < math.sqrt(hi)

    def test_constructed_product_state_attains_sqrt_f(self):
        rsdf = wmqs_to_rsdf(clique_to_wmqs(K3, 3))
        f_val, x = rsdf_value(rsdf.blocks)
        wval = rsdf_to_wval(rsdf)
        alpha, beta = product_state_from_block_vector(rsdf.blocks, x)
        v = np.kron(alpha, beta)
        attained = float((v.conj() @ wval.b @ v).real)
        assert attained == pytest.approx(math.sqrt(f_val), abs=1e-8)


class TestVerifyChain:
    def test_triangle_yes(self):
        rep = verify_chain(K3, 3)
        assert rep.expected_yes and rep.decided_yes and rep.consistent

    def test_triangle_plus_isolated_no(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        rep = verify_chain(g, 4)
        assert rep.kappa == 3
        assert not rep.expected_yes and not rep.decided_yes

    def test_path_no(self):
        rep = verify_chain(P3, 3)
        assert rep.kappa == 2
        assert rep.consistent and not rep.decided_yes

    def test_yes_no_matches_enumeration_on_random_pairs(self):
        checked = 0
        for seed in range(12):
            g = random_graph(int(3 + seed % 3), 0.6, seed)
            kappa = max_clique(g)
            for c in range(2, g.n + 1):
                rep = verify_chain(g, c, seed=seed)
                assert rep.consistent, (seed, c, rep)
                checked += 1
        assert checked >= 30

    def test_chain_value_relations(self):
        # H(A) = F(blocks) and the separable maximum equals sqrt(F)
        for g, c in [(K3, 3), (K2, 2), (P3, 2)]:
            rep = verify_chain(g, c)
            assert abs(rep.simplex_value - rep.rsdf_value) < 1e-6
            assert abs(rep.wval_value - math.sqrt(rep.rsdf_value)) < 1e-6

    @pytest.mark.parametrize("g, c, seed", [(K3, 3, 0), (P3, 3, 1), (random_graph(5, 0.6, 2), 3, 2)])
    def test_one_ascent_per_chain(self, monkeypatch, g, c, seed):
        import sepscan.gadgets as gadgets

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return rsdf_value(*args, **kwargs)

        monkeypatch.setattr(gadgets, "rsdf_value", counted)
        rep = verify_chain(g, c, seed=seed)
        assert calls == [seed]
        # the reused sphere point gives a fresh ascent's result, bit for bit
        rsdf = wmqs_to_rsdf(clique_to_wmqs(g, c))
        _, x = gadgets.rsdf_value(rsdf.blocks, seed=seed)
        assert rep.wval_value == wval_value(rsdf_to_wval(rsdf), x)
        assert len(calls) == 2

    def test_report_carries_the_ascent_stats(self):
        g = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2)])
        rep = verify_chain(g, 2, seed=1)
        stats = []
        rsdf_value(wmqs_to_rsdf(clique_to_wmqs(g, 2)).blocks, seed=1, stats=stats)
        assert rep.ascent == stats[0]
        assert 0 < rep.ascent.iterations < RSDF_ITERS and rep.ascent.capped == 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            verify_chain(Graph(7, np.zeros((7, 7), dtype=np.int8)), 2)


class TestCliqueChainDemo:
    @staticmethod
    def load_demo():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scripts" / "clique_chain_demo.py"
        spec = importlib.util.spec_from_file_location("clique_chain_demo", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_exit_status_follows_consistency(self, monkeypatch, capsys):
        import dataclasses

        demo = self.load_demo()
        assert demo.main() == 0

        def flipped(g, c, **kwargs):
            rep = verify_chain(g, c, **kwargs)
            return dataclasses.replace(rep, decided_yes=not rep.decided_yes)

        monkeypatch.setattr(demo, "verify_chain", flipped)
        assert demo.main() == 1
        assert "INCONSISTENT" in capsys.readouterr().out
