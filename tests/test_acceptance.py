"""Acceptance gate: eleven end-to-end criteria, each at exact rational equality.

Every criterion prints a single ``[criterion NN] name: PASS/FAIL`` line
(visible with ``pytest -s``) and enforces its runtime budget.  There are no
approximate comparisons anywhere: all equalities are between
``fractions.Fraction`` values.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from qtreehahn import (
    GridFunction,
    Hahn1DSpec,
    NotRightReachable,
    all_trees,
    apply_D_at_vertex,
    basis,
    composition_count,
    connection_by_path,
    connection_oracle,
    dunkl_expansion_coeffs,
    enumerate_compositions,
    enumerate_labelings,
    find_rl_path,
    gr_correspondence_check,
    hahn_norm,
    hahn_via_phi2,
    hahn_via_raising,
    left_comb,
    norm_Q,
    pochhammer,
    racah_eval,
    raise_basis_element,
    rl_neighbors,
    spectral_decomposition_check,
    three_dim_racah_example_check,
    vandermonde_sum_check,
    verify_operator_algebra,
    vertex_eigenvalue,
    weight,
    xi_polynomial,
)

from conftest import make_params


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        in_budget = dt < budget_s
        status = "PASS" if (ok and in_budget) else "FAIL"
        print(
            f"[criterion {num:02d}] {name}: {status} "
            f"({dt:.2f}s, budget {budget_s:.0f}s)",
            flush=True,
        )
    assert dt < budget_s, f"{name}: runtime {dt:.2f}s exceeded budget {budget_s}s"


def test_criterion_01_operator_algebra():
    """Raising/lowering/diagonal operator relations hold for h in {2,3,4}."""
    with criterion(1, "operator-algebra", 10.0):
        for which in ("primary", "secondary"):
            for h in (2, 3, 4):
                reports = verify_operator_algebra(h, 5, make_params(h, which))
                assert reports, "no identities were exercised"
                for rep in reports:
                    assert rep["status"] == "pass", (which, h, rep)


def test_criterion_02_spectral_decomposition():
    """Kernel chains decompose the h=3, N=4 level with the right eigenvalues."""
    with criterion(2, "spectral-decomposition", 10.0):
        reports = spectral_decomposition_check(3, 4, make_params(3))
        assert [r["identity"] for r in reports] == [
            "kernel_dimensions_sum_to_level_dimension",
            "raised_kernels_span_level",
            "raised_kernels_are_eigenvectors_of_D",
        ]
        for rep in reports:
            assert rep["status"] == "pass", rep
            assert rep["cases"] > 0
        assert composition_count(3, 4) == comb(6, 2)


def test_criterion_03_hahn_dual_routes():
    """Series and ladder constructions of the one-variable family agree."""
    with criterion(3, "hahn-dual-routes", 5.0):
        for which in ("primary", "secondary"):
            p = make_params(2, which)
            a, b = p.alphas
            for N in range(7):
                for n in range(N + 1):
                    spec = Hahn1DSpec(ctx=p.ctx, n=n, alpha=a, beta=b, N=N)
                    for x in range(N + 1):
                        assert hahn_via_phi2(spec, x) == hahn_via_raising(spec, x)


def test_criterion_04_hahn_orthogonality_and_special_values():
    """One-variable Gram matrix is diagonal with the closed-form norms;
    endpoint values match their closed forms."""
    with criterion(4, "hahn-orthogonality", 5.0):
        for which in ("primary", "secondary"):
            p = make_params(2, which)
            ctx = p.ctx
            q = ctx.q
            a, b = p.alphas
            for N in range(7):
                specs = [
                    Hahn1DSpec(ctx=ctx, n=n, alpha=a, beta=b, N=N)
                    for n in range(N + 1)
                ]
                grids = [
                    GridFunction.from_callable(
                        2, N, lambda x, s=s: hahn_via_phi2(s, x[0])
                    )
                    for s in specs
                ]
                pts = enumerate_compositions(2, N)
                w = [weight(x, p) for x in pts]
                for i, gi in enumerate(grids):
                    for j in range(i, len(grids)):
                        gram = sum(
                            wk * vi * vj
                            for wk, vi, vj in zip(w, gi.values, grids[j].values)
                        )
                        expect = hahn_norm(specs[i]) if i == j else Fraction(0)
                        assert gram == expect, (which, N, i, j)
                for n, s in enumerate(specs):
                    head = ctx.q_half_power(-n * (2 * N - n)) * pochhammer(
                        ctx, ctx.q_power(N - n + 1), n
                    )
                    assert hahn_via_phi2(s, 0) == head
                    tail = (
                        head
                        * (a * b * q ** (n + 1)) ** n
                        * pochhammer(ctx, ctx.q_power(-n) / b, n)
                        / pochhammer(ctx, a * q, n)
                    )
                    assert hahn_via_phi2(s, N) == tail


def test_criterion_05_vandermonde():
    """The terminating summation identity behind the expansion coefficients."""
    with criterion(5, "q-vandermonde", 1.0):
        for which in ("primary", "secondary"):
            p = make_params(2, which)
            a, b = p.alphas
            for n in range(7):
                for j in range(n + 1):
                    assert vandermonde_sum_check(p.ctx, n, j, a, b)


def test_criterion_06_all_trees_bases():
    """Every tree with four or five leaves yields an orthogonal basis with the
    closed-form norms, vertex-diagonal action, and consistent raising."""
    with criterion(6, "tree-bases", 120.0):
        for h in (4, 5):
            p = make_params(h)
            for N in range(5):
                pts = enumerate_compositions(h, N)
                w = [weight(x, p) for x in pts]
                for tree in all_trees(h):
                    elems = [
                        e for n in range(N + 1) for e in basis(tree, p, n, N)
                    ]
                    assert len(elems) == composition_count(h, N)
                    vals = [e.grid.values for e in elems]
                    for i, ei in enumerate(elems):
                        vi = vals[i]
                        for j in range(i, len(elems)):
                            gram = sum(
                                wk * a * b
                                for wk, a, b in zip(w, vi, vals[j])
                                if a and b
                            )
                            if j == i:
                                assert gram == norm_Q(tree, ei.labeling, p, N)
                            else:
                                assert gram == 0, (h, N, i, j)
            # Vertex-diagonal action at the top level, one report per labeling.
            N = 4
            for tree in all_trees(h):
                for n in range(N + 1):
                    for elem in basis(tree, p, n, N):
                        for vert in tree.vertices:
                            lam = vertex_eigenvalue(
                                tree, elem.labeling, p, vert.index
                            )
                            got = apply_D_at_vertex(elem.grid, p, vert.lo, vert.hi)
                            assert got == elem.grid.scale(lam), (
                                h,
                                tree.serialize(),
                                elem.labeling,
                                vert.index,
                            )
                # Raising a minimal-level element reproduces the level-N basis.
                for n in range(N):
                    lifted = [
                        raise_basis_element(e, N) for e in basis(tree, p, n, n)
                    ]
                    direct = basis(tree, p, n, N)
                    assert [e.labeling for e in lifted] == [
                        e.labeling for e in direct
                    ]
                    for le, de in zip(lifted, direct):
                        assert le.grid == de.grid


def test_criterion_07_dunkl_expansion():
    """Mixed-comb expansion coefficients are single one-variable q-Racah values."""
    with criterion(7, "dunkl-expansion", 5.0):
        for which in ("primary", "secondary"):
            p = make_params(3, which)
            ctx = p.ctx
            q = ctx.q
            a1, a2, a3 = p.alphas
            for n in range(6):
                for j in range(n + 1):
                    f = GridFunction.from_callable(
                        3, n, lambda x: xi_polynomial(p, (n - j, j), x)
                    )
                    coeffs = dunkl_expansion_coeffs(f, p)
                    for i in range(n + 1):
                        assert coeffs[i] == racah_eval(
                            ctx, i, j, a2, a1, a2 * a3 * q ** (n + 1), n
                        ), (which, n, j, i)


def _reachable_ordered_pairs(h: int):
    trees = all_trees(h)
    pairs = []
    for s in trees:
        for t in trees:
            if s is t:
                continue
            try:
                find_rl_path(s, t)
            except NotRightReachable:
                continue
            pairs.append((s, t))
    return pairs


def test_criterion_08_connection_matrices():
    """Path-built connection matrices equal the Gram oracle entrywise and are
    biorthogonal, for every reachable pair up to five leaves."""
    with criterion(8, "connection-matrices", 300.0):
        for h in (2, 3, 4):
            p = make_params(h)
            for src, tgt in _reachable_ordered_pairs(h):
                for n in range(4):
                    got = connection_by_path(src, tgt, n, p)
                    want = connection_oracle(src, tgt, n, p)
                    assert got.rows == want.rows, (h, n, src.serialize())
                    assert got.orthogonality_check()
        h = 5
        p = make_params(h)
        pairs = _reachable_ordered_pairs(h)
        sample = random.Random(0).sample(pairs, 10)
        for src, tgt in sample:
            for n in range(4):
                got = connection_by_path(src, tgt, n, p)
                want = connection_oracle(src, tgt, n, p)
                assert got.rows == want.rows, (n, src.serialize(), tgt.serialize())
                assert got.orthogonality_check()


def test_criterion_09_five_leaf_worked_example():
    """The fully worked five-variable example: explicit three-step path,
    closed-form triple product, and the displayed norm reciprocal."""
    with criterion(9, "five-leaf-example", 60.0):
        for which in ("primary", "secondary"):
            p = make_params(5, which)
            for n in range(3):
                reports = three_dim_racah_example_check(p, n)
                assert [r["identity"] for r in reports] == [
                    "worked-example-path",
                    "worked-example-triple-product",
                    "worked-example-oracle-agreement",
                    "worked-example-norm-display",
                    "worked-example-orthogonality",
                ]
                for rep in reports:
                    assert rep["status"] == "pass", (which, n, rep)
                    assert rep["cases"] > 0


def test_criterion_10_classical_product_bridge():
    """Comb-to-comb coefficients match the classical multivariable q-Racah
    product after the parameter substitution, including the weight claim."""
    with criterion(10, "classical-bridge", 60.0):
        for which in ("primary", "secondary"):
            p = make_params(4, which)
            for n in range(4):
                reports = gr_correspondence_check(p, n)
                assert [r["identity"] for r in reports] == [
                    "classical-product-identity",
                    "classical-signed-product-identity",
                    "classical-weight-orthogonality",
                ]
                for rep in reports:
                    assert rep["status"] == "pass", (which, n, rep)
                    assert rep["cases"] > 0


def test_criterion_11_combinatorial_counts():
    """Label counts per level, terminality of the left comb, and global
    reachability of the left comb."""
    with criterion(11, "combinatorial-counts", 1.0):
        for h in range(2, 7):
            lc = left_comb(h)
            assert rl_neighbors(lc) == []
            for tree in all_trees(h):
                for N in range(7):
                    total = sum(
                        len(enumerate_labelings(tree, n)) for n in range(N + 1)
                    )
                    assert total == comb(N + h - 1, h - 1)
                path = find_rl_path(tree, lc)
                assert (len(path) == 0) == (tree == lc)
                cur = tree
                for move in path:
                    nxt = [t for t, r in rl_neighbors(cur) if r == move]
                    assert len(nxt) == 1
                    cur = nxt[0]
                assert cur == lc
