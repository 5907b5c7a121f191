"""Cross-checks against the classical families, loaded on first use.

Nothing on the basis, operator or connection routes reads this module:
`qtreehahn` exports its names lazily, and the `qtree verify` suites that
need it (hahn-recurrences, vandermonde, classical-bridge and
worked-example) import it when they run.  It holds

* the one-variable references: the q-Hahn raising-chain route and
  closed-form norm, the three structure relations, the alternating seed
  sum, and the standard-reference q-Racah normalization of
  `gr_racah_bridge`, whose signed half-power `_tilde_scale` states once
  for it and for the conversion factor below;
* the explicit product forms of the two comb bases (`xi_polynomial`,
  `xi_norm`, `theta_polynomial`) and the level lift of a basis element
  through the raising chain;
* the three-leaf kernel-expansion machinery: expanding a lowering-kernel
  function over the left-comb basis (Dunkl's two-variable q-Racah
  coefficients), and the interpolation functions that make that
  expansion explicit;
* the bridge to the classical multivariable q-Racah product family of
  Gasper and Rahman, including the parameter substitution, conversion
  factor, and weight factor that align the two normalizations, and the
  worked five-leaf example.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Iterable, Sequence

from ._linalg import over_common_denominator
from .connect import connection_by_path, connection_oracle
from .hahn1d import Hahn1DSpec, Racah1DSpec, _check_x, hahn_eval, norm_exponent, racah_eval
from .lattice import GridFunction, ParamSet, enumerate_compositions, partial_sums
from .multihahn import TreeBasisElement, norm_Q
from .qnum import (
    QContext,
    Rational,
    ZeroDenominator,
    as_fraction,
    pochhammer,
    pochhammer_many,
    q_binomial,
    q_factorial,
    rational_sqrt,
)
from .qops import _eigenvalue, _push, _same, _scaled, _vertex_stencil, apply_L, check_identity, raise_chain
from .trees import left_comb, right_comb, transplant_right_to_left

__all__ = [
    "NonSquareRadicand",
    "NotInKernel",
    "hahn_via_raising",
    "hahn_norm",
    "verify_hahn_recurrences",
    "vandermonde_sum_check",
    "gr_racah_bridge",
    "raise_basis_element",
    "xi_polynomial",
    "xi_norm",
    "theta_polynomial",
    "dunkl_expansion_coeffs",
    "kernel_interpolation_basis",
    "gasper_rahman_racah",
    "gr_substitution",
    "comb_connection_product",
    "gr_conversion_factor",
    "gr_weight_factor",
    "gr_correspondence_check",
    "gr_correspondence_cases",
    "three_dim_racah_example_check",
    "three_dim_racah_example_cases",
]


class NonSquareRadicand(ArithmeticError):
    """An explicit half-integer exponent landed on a non-square rational."""


class NotInKernel(ValueError):
    """The function is not annihilated by the lowering operator."""


# --- the one-variable references -----------------------------------------


def _seed_value(ctx: QContext, n: int, x: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """Top-level value at its own level, in the form of `hahn1d._hahn_levels`' seed,
    with no beta^-1:

        q^(-n^2/2) (q; q)_n (alpha q^(n+1))^x prod_{j<x} (beta - q^(j-n)) / (alpha q; q)_x.
    """
    den = pochhammer(ctx, alpha * ctx.q, x)
    if den == 0:
        raise ZeroDivisionError(f"(alpha q; q)_x vanished for alpha={alpha}, x={x}")
    return (
        ctx.q_half_power(-n * n)
        * q_factorial(ctx, n)
        * (alpha * ctx.q_power(n + 1)) ** x
        * prod(beta - ctx.q_power(j - n) for j in range(x))
        / den
    )


def hahn_via_raising(spec: Hahn1DSpec, x: int) -> Fraction:
    """Chain route: the raising chain from the level-n seed, in closed form.

        q^(-n(N-n)) * sum_y [N-x, n-y]_q [x, y]_q q^(y(y+N-x-n)) seed(y)
    """
    _check_x(x, spec.N)
    ctx, n, N = spec.ctx, spec.n, spec.N
    total = Fraction(0)
    for y in range(max(0, x - (N - n)), min(x, n) + 1):
        total += (
            q_binomial(ctx, N - x, n - y)
            * q_binomial(ctx, x, y)
            * ctx.q_power(y * (y + N - x - n))
            * _seed_value(ctx, n, y, spec.alpha, spec.beta)
        )
    return ctx.q_power(-n * (N - n)) * total


def hahn_norm(spec: Hahn1DSpec) -> Fraction:
    """Squared norm for the lattice inner product with parameters (alpha, beta):

        (alpha beta q^(n+1); q)_{N+1} (q; q)_n (beta q; q)_n
        / ((1 - alpha beta q^(2n+1)) (q; q)_{N-n} (alpha q; q)_n)
        * alpha^n q^(((N-2n)^2 + N + 2n - 2n^2)/2).
    """
    ctx, n, N = spec.ctx, spec.n, spec.N
    alpha, beta = spec.alpha, spec.beta
    q = ctx.q
    return (
        pochhammer(ctx, alpha * beta * ctx.q_power(n + 1), N + 1)
        * q_factorial(ctx, n)
        * pochhammer(ctx, beta * q, n)
        / (
            (1 - alpha * beta * ctx.q_power(2 * n + 1))
            * q_factorial(ctx, N - n)
            * pochhammer(ctx, alpha * q, n)
        )
        * alpha**n
        * ctx.q_power(norm_exponent(N, n) // 2)
    )


def verify_hahn_recurrences(
    ctx: QContext, alpha: Rational, beta: Rational, n_max: int
) -> list[dict]:
    """Exact check of the three structure relations of the q-Hahn family.

    For all 0 <= n <= N <= n_max and all lattice points:

      * raising: the raising operator sends the level-(N-1) polynomial to
        (q^(n-N) - 1) times the level-N one,
      * lowering: the lowering operator sends the level-(N+1) polynomial to
        q^(-n) (alpha beta q^(N+n+2) - 1) times the level-N one,
      * eigen: the full operator D at level N multiplies the polynomial by
        q^(-n) (1 - q^n) (1 - alpha beta q^(n+1)).

    Raising and lowering are checked against their explicit two-variable
    displays.  The eigen relation goes through the operator module: the
    integer image of the values under the stencil of D is compared with
    the values times the eigenvalue, cross-multiplied, so no case builds
    a GridFunction.  Returns one `check_identity` report per relation.
    """
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    p = ParamSet(ctx, (alpha, beta), unchecked=True)

    def value(n, x, N):
        return hahn_eval(ctx, n, x, alpha, beta, N)

    def raise_cases():
        for n in range(n_max + 1):
            for N in range(n + 1, n_max + 1):
                for x1 in range(N + 1):
                    x2 = N - x1
                    lhs = Fraction(0)
                    if x1 > 0:
                        lhs += (
                            ctx.q_power(-x1 - x2)
                            * (1 - ctx.q_power(x1))
                            * value(n, x1 - 1, N - 1)
                        )
                    if x2 > 0:
                        lhs += ctx.q_power(-x2) * (1 - ctx.q_power(x2)) * value(n, x1, N - 1)
                    rhs = (ctx.q_power(-x1 - x2 + n) - 1) * value(n, x1, N)
                    yield {"n": n, "N": N, "x1": x1}, lhs == rhs

    def lower_cases():
        for n in range(n_max + 1):
            for N in range(n, n_max + 1):
                for x1 in range(N + 1):
                    x2 = N - x1
                    lhs = (alpha * ctx.q_power(x1 + 1) - 1) * value(n, x1 + 1, N + 1)
                    lhs += (
                        alpha
                        * ctx.q_power(x1 + 1)
                        * (beta * ctx.q_power(x2 + 1) - 1)
                        * value(n, x1, N + 1)
                    )
                    rhs = (
                        ctx.q_power(-n)
                        * (alpha * beta * ctx.q_power(x1 + x2 + n + 2) - 1)
                        * value(n, x1, N)
                    )
                    yield {"n": n, "N": N, "x1": x1}, lhs == rhs

    def eigen_cases():
        for n in range(n_max + 1):
            lam = _eigenvalue(ctx, p.p_pair(0, 2), n)  # P = alpha beta q^2
            for N in range(n, n_max + 1):
                # the point (x, N - x) of [2; N] has rank x
                v = over_common_denominator(value(n, x, N) for x in range(N + 1))
                image = _push(_vertex_stencil(p, N, 0, 2), v)
                yield {"n": n, "N": N}, _same(image, _scaled(v, lam))

    return [
        check_identity("raising_shifts_level", raise_cases()),
        check_identity("lowering_shifts_level", lower_cases()),
        check_identity("diagonal_operator_eigenvalue", eigen_cases()),
    ]


def vandermonde_sum_check(
    ctx: QContext, n: int, j: int, alpha: Rational, beta: Rational
) -> bool:
    """Exact check of the alternating seed sum used to normalize kernels:

        sum_{x=0}^{j} (-1)^x q^(x(x-1)/2) seed(x) / ((q;q)_x (q;q)_{j-x})
            = (alpha beta q^(n+1); q)_j / ((alpha q; q)_j (q; q)_j)
              * q^(-n^2/2) (q; q)_n          for 0 <= j <= n.
    """
    if not (0 <= j <= n):
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    lhs = Fraction(0)
    for x in range(j + 1):
        lhs += (
            (-1) ** x
            * ctx.q_power(x * (x - 1) // 2)
            * _seed_value(ctx, n, x, alpha, beta)
            / (q_factorial(ctx, x) * q_factorial(ctx, j - x))
        )
    rhs = (
        pochhammer(ctx, alpha * beta * ctx.q_power(n + 1), j)
        / (pochhammer(ctx, alpha * ctx.q, j) * q_factorial(ctx, j))
        * ctx.q_half_power(-n * n)
        * q_factorial(ctx, n)
    )
    return lhs == rhs


def _tilde_scale(poly: Fraction, radicand: Fraction, n: int, squared: bool) -> Fraction:
    """The standard-reference scale (-1)^n poly radicand^(-n/2), or its
    square (always rational) when `squared`.  Unsquared at odd n, a
    radicand that is not a rational square raises NonSquareRadicand, and
    the positive root is taken."""
    if squared:
        return poly * poly * radicand ** (-n)
    if n % 2 == 0:
        return poly * radicand ** (-n // 2)
    try:
        root = rational_sqrt(radicand)
    except ValueError as exc:
        raise NonSquareRadicand(f"{radicand} has no rational square root") from exc
    return -poly * root ** (-n)


def gr_racah_bridge(spec: Racah1DSpec, x: int, squared: bool = True) -> Fraction:
    """Standard-reference q-Racah normalization:

        r~_n = (-1)^n (alpha beta q^(n+1); q)_n (alpha q; q)_n (q; q)_n
               * (q^(-N+n+1) delta)^(-n/2) * r_n.

    For odd n the radicand q^(-N+n+1) delta must be a positive rational
    square for r~_n itself to be rational; `squared=True` (the default)
    sidesteps the branch question by returning r~_n**2, which is always
    rational.  With squared=False a non-square radicand raises
    NonSquareRadicand, and the positive square root is always taken.
    """
    ctx, n, N = spec.ctx, spec.n, spec.N
    value = racah_eval(ctx, n, x, spec.alpha, spec.beta, spec.delta, N)
    poly = (
        pochhammer(ctx, spec.alpha * spec.beta * ctx.q_power(n + 1), n)
        * pochhammer(ctx, spec.alpha * ctx.q, n)
        * q_factorial(ctx, n)
    )
    radicand = ctx.q_power(-N + n + 1) * spec.delta
    scale = _tilde_scale(poly, radicand, n, squared)
    return scale * value * value if squared else scale * value


# --- closed forms for the two comb trees ---------------------------------


def raise_basis_element(elem: TreeBasisElement, target_N: int) -> TreeBasisElement:
    """Lift to a higher level through the raising chain.

    The chain from level n scaled by q^((N-n)(N-n+1)/2) / (q;q)_{N-n}
    reproduces the closed-form values; lifting from an intermediate level
    divides out the scale already applied.
    """
    if target_N < elem.N:
        raise ValueError(f"cannot raise from level {elem.N} down to {target_N}")
    ctx = elem.params.ctx
    n, M, N = elem.n, elem.N, target_N
    chain = raise_chain(elem.grid, elem.params, N)
    scale = (
        ctx.q_power(((N - n) * (N - n + 1) - (M - n) * (M - n + 1)) // 2)
        * q_factorial(ctx, M - n)
        / q_factorial(ctx, N - n)
    )
    return TreeBasisElement(elem.tree, elem.labeling, elem.params, N, chain.scale(scale))


def xi_polynomial(
    params: ParamSet, m: Sequence[int], x: Sequence[int]
) -> Fraction:
    """Right-comb basis function from its explicit product form.

    m = (m_1, ..., m_{h-1}) labels the comb top-down; with
    j_k = m_{k+1} + ... + m_{h-1} the value is

        prod_{k=1}^{h-1} q^(-j_k x_k)
            Q_{m_k}(x_k; alpha_k, (A_h / A_k) q^(h-k+2 j_k - 1),
                    X_h - X_{k-1} - j_k)

    and vanishes unless x_k + ... + x_h >= j_{k-1} for every k.
    """
    m = tuple(m)
    x = tuple(x)
    h = params.h
    if len(m) != h - 1 or len(x) != h:
        raise ValueError(f"need {h - 1} labels and {h} variables")
    ctx = params.ctx
    j = [sum(m[k:]) for k in range(h)]  # j[k] = m_{k+1} + ... + m_{h-1}; j[0] = n
    for k in range(1, h):
        if sum(x[k - 1 :]) < j[k - 1]:
            return Fraction(0)
    X = 0
    total = sum(x)
    value = Fraction(1)
    A_h = params.prefix_product(h)
    for k in range(1, h):
        beta = (
            A_h / params.prefix_product(k) * ctx.q_power(h - k + 2 * j[k] - 1)
        )
        value *= ctx.q_power(-j[k] * x[k - 1]) * hahn_eval(
            ctx, m[k - 1], x[k - 1], params.alphas[k - 1], beta, total - X - j[k]
        )
        if value == 0:
            return value
        X += x[k - 1]
    return value


def xi_norm(params: ParamSet, m: Sequence[int], N: int) -> Fraction:
    """Squared norm of the right-comb function from its explicit product form:

        (A_h q^(h+2n); q)_{N-n} / (q; q)_{N-n} * q^(((N-2n)^2+N+2n-2n^2)/2)
        * prod_{k=1}^{h-1}
            (q, (A_h/A_{k-1}) q^(h-k+j_{k-1}+j_k), (A_h/A_k) q^(h-k+2 j_k); q)_{m_k}
            / (alpha_k q; q)_{m_k} * (alpha_k q)^(j_{k-1}) * q^(-m_k).

    A zero among alpha_1 .. alpha_{h-1} raises ZeroDenominator naming the
    first: its A_k divides A_h.
    """
    m = tuple(m)
    h = params.h
    if len(m) != h - 1:
        raise ValueError(f"need {h - 1} labels for h = {h}")
    ctx = params.ctx
    n = sum(m)
    if n > N:
        raise ValueError(f"degree {n} exceeds level {N}")
    if 0 in params.alphas[: h - 1]:
        k = params.alphas.index(0) + 1
        raise ZeroDenominator(f"A_{k} vanished for alpha_{k}=0")
    j = [sum(m[k:]) for k in range(h)]
    A_h = params.prefix_product(h)
    out = (
        pochhammer(ctx, A_h * ctx.q_power(h + 2 * n), N - n)
        / q_factorial(ctx, N - n)
        * ctx.q_power(norm_exponent(N, n) // 2)
    )
    for k in range(1, h):
        alpha_k = params.alphas[k - 1]
        out *= (
            pochhammer_many(
                ctx,
                (
                    ctx.q,
                    A_h / params.prefix_product(k - 1) * ctx.q_power(h - k + j[k - 1] + j[k]),
                    A_h / params.prefix_product(k) * ctx.q_power(h - k + 2 * j[k]),
                ),
                m[k - 1],
            )
            / pochhammer(ctx, alpha_k * ctx.q, m[k - 1])
            * (alpha_k * ctx.q) ** j[k - 1]
            * ctx.q_power(-m[k - 1])
        )
    return out


def theta_polynomial(
    params: ParamSet, nv: Sequence[int], x: Sequence[int]
) -> Fraction:
    """Left-comb basis function from its explicit product form.

    nv = (n_2, ..., n_h) labels the comb bottom-up (n_k at the vertex
    covering the first k leaves), so the left comb's pre-order labeling is
    nv reversed; with i_k = n_2 + ... + n_{k-1} the value
    is

        prod_{k=2}^{h} Q_{n_k}(X_{k-1} - i_k;
                               A_{k-1} q^(k+2 i_k - 2), alpha_k, X_k - i_k)

    and vanishes unless X_{k-1} >= i_k and X_k >= i_k + n_k for every k.
    """
    nv = tuple(nv)
    x = tuple(x)
    h = params.h
    if len(nv) != h - 1 or len(x) != h:
        raise ValueError(f"need {h - 1} labels and {h} variables")
    ctx = params.ctx
    # i[k] = n_2 + ... + n_{k-1}, stored for k = 2..h+1
    i = {2: 0}
    for k in range(2, h + 1):
        i[k + 1] = i[k] + nv[k - 2]
    X = partial_sums(x)
    value = Fraction(1)
    for k in range(2, h + 1):
        if X[k - 1] < i[k] or X[k] < i[k + 1]:
            return Fraction(0)
        value *= hahn_eval(
            ctx,
            nv[k - 2],
            X[k - 1] - i[k],
            params.prefix_product(k - 1) * ctx.q_power(k + 2 * i[k] - 2),
            params.alphas[k - 1],
            X[k] - i[k],
        )
        if value == 0:
            return value
    return value


# --- the three-leaf kernel expansion -------------------------------------


def dunkl_expansion_coeffs(
    f: GridFunction, params: ParamSet
) -> list[Fraction]:
    """Expand a three-variable lowering-kernel function over the
    left-comb basis of its degree, using only values on the edge x2 = 0.

    The coefficient of the element with bottom label i is

        (-a2)^i (a1 q; q)_i q^((3i^2+i+n^2)/2 - ni)
        / ((q; q)_{n-i} (a1 a2 q^(i+1), a2 q, q; q)_i)
        * sum_{k=0}^{i} (-a1 a2 q^((k+1)/2))^(-k)
            (a3 q^(n-i+1); q)_{i-k} (q^(-i), a1 a2 q^(i+1); q)_k
            / (q; q)_k * f(k, 0).

    Kernel membership is verified first (NotInKernel otherwise) and the
    reconstruction is checked exactly before returning.
    """
    if params.h != 3 or f.h != 3:
        raise ValueError("the edge-value expansion is a three-variable result")
    n = f.N
    if n >= 1 and not apply_L(f, params).is_zero():
        raise NotInKernel("lowering the function does not give zero")
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3 = params.alphas
    coeffs = []
    for i in range(n + 1):
        prefactor = (
            (-a2) ** i
            * pochhammer(ctx, a1 * q, i)
            * ctx.q_half_power(3 * i * i + i + n * n - 2 * n * i)
            / (
                q_factorial(ctx, n - i)
                * pochhammer(ctx, a1 * a2 * ctx.q_power(i + 1), i)
                * pochhammer(ctx, a2 * q, i)
                * q_factorial(ctx, i)
            )
        )
        acc = Fraction(0)
        for k in range(i + 1):
            edge = f.at((k, 0, n - k))
            if edge == 0:
                continue
            acc += (
                (-1) ** k
                * (a1 * a2) ** (-k)
                * ctx.q_half_power(-k * (k + 1))
                * pochhammer(ctx, a3 * ctx.q_power(n - i + 1), i - k)
                * pochhammer(ctx, ctx.q_power(-i), k)
                * pochhammer(ctx, a1 * a2 * ctx.q_power(i + 1), k)
                / q_factorial(ctx, k)
                * edge
            )
        coeffs.append(prefactor * acc)
    recon = GridFunction.zero(3, n)
    for i, a_i in enumerate(coeffs):
        if a_i == 0:
            continue
        nv = (i, n - i)
        grid = GridFunction.from_callable(
            3, n, lambda x, nv=nv: theta_polynomial(params, nv, x)
        )
        recon = recon + grid.scale(a_i)
    if not (recon - f).is_zero():
        raise ArithmeticError("edge-value expansion failed to reconstruct")
    return coeffs


def kernel_interpolation_basis(
    params: ParamSet, N: int, k: int
) -> GridFunction:
    """The lowering-kernel function at level N that is 1 at (k, 0) and 0
    at every other point of the edge x2 = 0:

        f(x1, x2) = (-1)^(x2) [x2, k-x1]_q (a1 q^(x1+1); q)_{k-x1}
                    (a3 q^(N-x1-x2+1); q)_{x1+x2-k} / (a2 q; q)_{x2}
                    * a1^(x1-k) a2^(x1+x2-k)
                    * q^((x1-k)(x1+x2+1) + x2(x2+1)/2)

    on 0 <= k - x1 <= x2, and 0 elsewhere; the alternating sign is forced
    by the kernel equation.  Kernel membership and the edge deltas are
    verified before returning.  No route of the package calls it: it stays
    as the closed-form cross-check of `qops.kernel_basis`.
    """
    if params.h != 3:
        raise ValueError("the interpolation functions are three-variable")
    if not (0 <= k <= N):
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3 = params.alphas

    def value(x):
        x1, x2, _ = x
        if not (0 <= k - x1 <= x2):
            return Fraction(0)
        return (
            (-1) ** x2
            * q_binomial(ctx, x2, k - x1)
            * pochhammer(ctx, a1 * ctx.q_power(x1 + 1), k - x1)
            * pochhammer(ctx, a3 * ctx.q_power(N - x1 - x2 + 1), x1 + x2 - k)
            / pochhammer(ctx, a2 * q, x2)
            * a1 ** (x1 - k)
            * a2 ** (x1 + x2 - k)
            * ctx.q_power((x1 - k) * (x1 + x2 + 1) + x2 * (x2 + 1) // 2)
        )

    grid = GridFunction.from_callable(3, N, value)
    for m in range(N + 1):
        expected = Fraction(1) if m == k else Fraction(0)
        if grid.at((m, 0, N - m)) != expected:
            raise ArithmeticError("edge values are not the expected deltas")
    if N >= 1 and not apply_L(grid, params).is_zero():
        raise ArithmeticError("interpolation function left the kernel")
    return grid


# --- the classical multivariable q-Racah family --------------------------


def gasper_rahman_racah(
    ctx: QContext,
    a: Sequence[Fraction],
    b: Fraction,
    N: int,
    x: Sequence[int],
    nlist: Sequence[int],
    squared: bool = True,
) -> Fraction:
    """Product form of the classical multivariable q-Racah polynomial:

        prod_{k=1}^{s} r~_{n_k}(x_{k+1} - x_k;
            a_{k+1} q^(-1), b A~_k q^(2 N_{k-1}) / a_1,
            A~_k^(-1) q^(-x_{k+1} - N_{k-1}), x_{k+1} - N_{k-1} | q)

    with A~_k = a_1 ... a_k, N_k = n_1 + ... + n_k and x_{s+1} = N.
    Factors whose degree or argument falls outside their finite lattice
    make the product vanish.  `squared` mirrors the tilde-normalization
    convention: True squares every factor (always rational), False keeps
    signs and raises NonSquareRadicand when an odd-degree factor's
    radicand is not a rational square.
    """
    a = tuple(as_fraction(v) for v in a)
    b = as_fraction(b)
    nlist = tuple(nlist)
    x = tuple(x)
    s = len(nlist)
    if len(a) != s + 1:
        raise ValueError(f"need {s + 1} a-parameters, got {len(a)}")
    if len(x) != s:
        raise ValueError(f"need {s} lattice points, got {len(x)}")
    value = Fraction(1)
    a_prefix = Fraction(1)
    n_prefix = 0
    for k in range(1, s + 1):
        a_prefix *= a[k - 1]  # A~_k
        x_next = x[k] if k < s else N  # x_{k+1}
        degree = nlist[k - 1]
        arg = x_next - x[k - 1]
        lattice = x_next - n_prefix
        if not (0 <= degree <= lattice and 0 <= arg <= lattice):
            return Fraction(0)
        spec = Racah1DSpec(
            ctx,
            degree,
            a[k] * ctx.q_power(-1),
            b * a_prefix * ctx.q_power(2 * n_prefix) / a[0],
            ctx.q_power(-x_next - n_prefix) / a_prefix,
            lattice,
        )
        value *= gr_racah_bridge(spec, arg, squared=squared)
        n_prefix += degree
    return value


def gr_substitution(params: ParamSet, n: int) -> dict:
    """Parameter dictionary aligning the classical product family with
    the comb-to-comb connection coefficients at degree n:

        s = h - 2,  b = alpha_1,
        a_1 = (alpha_2 ... alpha_h)^(-1) q^(-2n - h + 2),
        a_k = alpha_k q  for k = 2 .. h - 1,

    lattice points x_k = m_1 + ... + m_k and total N = n.  A zero among
    alpha_2 .. alpha_h raises ZeroDenominator naming the first.
    """
    h = params.h
    ctx = params.ctx
    if 0 in params.alphas[1:]:
        k = params.alphas.index(0, 1) + 1
        raise ZeroDenominator(f"alpha_2 ... alpha_{h} vanished for alpha_{k}=0")
    a = [ctx.q_power(-2 * n - h + 2) / params.span_product(1, h)]
    for k in range(2, h):
        a.append(params.alphas[k - 1] * ctx.q)
    return {"s": h - 2, "a": tuple(a), "b": params.alphas[0], "N": n}


def comb_connection_product(
    params: ParamSet, n: int, nv: Sequence[int], m: Sequence[int]
) -> Fraction:
    """Closed-form connection coefficient from the right comb labeled m
    to the left comb labeled nv = (n_2, ..., n_h), both of degree n:

        prod_{k=2}^{h-1} q^(-m_k i_k)
            r_{n_k}(m_k; alpha_k, A_{k-1} q^(2 i_k + k - 2),
                    A_{k-1}^(-1) A_h q^(n + j_k - i_k + h - k),
                    n - i_k - j_k | q)

    with i_k = n_2 + ... + n_{k-1} and j_k = m_{k+1} + ... + m_{h-1};
    the product vanishes when any factor leaves its finite lattice.  A
    factor read with A_{k-1} = 0 raises ZeroDenominator naming the first
    zero alpha.
    """
    h = params.h
    nv = tuple(nv)
    m = tuple(m)
    if len(nv) != h - 1 or len(m) != h - 1:
        raise ValueError(f"need {h - 1} labels on each comb")
    if sum(nv) != n or sum(m) != n:
        raise ValueError("labelings must sum to the degree")
    ctx = params.ctx
    A_h = params.prefix_product(h)
    value = Fraction(1)
    for k in range(2, h):
        i_k = sum(nv[: k - 2])
        j_k = sum(m[k:])
        lattice = n - i_k - j_k
        degree = nv[k - 2]
        arg = m[k - 1]
        if degree > lattice or arg > lattice:
            return Fraction(0)
        A_prev = params.prefix_product(k - 1)
        if not A_prev:
            raise ZeroDenominator(
                f"A_{k - 1} vanished for alpha_{params.alphas.index(0) + 1}=0"
            )
        value *= ctx.q_power(-arg * i_k) * racah_eval(
            ctx,
            degree,
            arg,
            params.alphas[k - 1],
            A_prev * ctx.q_power(2 * i_k + k - 2),
            A_h / A_prev * ctx.q_power(n + j_k - i_k + h - k),
            lattice,
        )
        if value == 0:
            return value
    return value


def gr_conversion_factor(
    params: ParamSet, n: int, nv: Sequence[int], squared: bool = True
) -> Fraction:
    """Scalar relating the tilde-normalized classical product to the
    comb-to-comb connection product at final labeling nv:

        prod_{k=2}^{h-1} (-1)^(n_k)
            (A_k q^(2 i_k + n_k + k - 1), alpha_k q, q; q)_{n_k}
            (A_{k-1}^(-1) A_h q^(n_k + h - k + 1))^(-n_k / 2).

    The label-dependent q-powers of the two sides cancel against each
    other, leaving this labeling-only factor.  Squared mode squares it.
    """
    h = params.h
    nv = tuple(nv)
    if len(nv) != h - 1 or sum(nv) != n:
        raise ValueError(f"need {h - 1} labels summing to {n}")
    ctx = params.ctx
    A_h = params.prefix_product(h)
    value = Fraction(1)
    for k in range(2, h):
        n_k = nv[k - 2]
        i_k = sum(nv[: k - 2])
        poly = (
            pochhammer(
                ctx,
                params.prefix_product(k) * ctx.q_power(2 * i_k + n_k + k - 1),
                n_k,
            )
            * pochhammer(ctx, params.alphas[k - 1] * ctx.q, n_k)
            * q_factorial(ctx, n_k)
        )
        radicand = A_h / params.prefix_product(k - 1) * ctx.q_power(n_k + h - k + 1)
        value *= _tilde_scale(poly, radicand, n_k, squared)
    return value


def gr_weight_factor(params: ParamSet, n: int) -> Fraction:
    """Scalar relating the classical weight to the reciprocal right-comb
    norm at level n:

        (A_{h-1} q^(h-1))^n q^((n^2 - 3n)/2)
        (q, alpha_h q, alpha_{h-1} alpha_h q^(n+1); q)_n
        / (alpha_{h-1}; q)_n.

    The denominator vanishes at alpha_{h-1} = q^(-m) with 0 <= m < n.
    `ParamSet` rejects every m >= 1, which leaves alpha_{h-1} = 1 at
    n >= 1: that raises ZeroDenominator naming alpha_{h-1} and n.
    """
    h = params.h
    ctx = params.ctx
    a_last = params.alphas[h - 1]
    a_prev = params.alphas[h - 2]
    denominator = pochhammer(ctx, a_prev, n)
    if denominator == 0:
        raise ZeroDenominator(
            f"(alpha_{h - 1}; q)_n vanished for alpha_{h - 1}={a_prev}, n={n}"
        )
    return (
        (params.prefix_product(h - 1) * ctx.q_power(h - 1)) ** n
        * ctx.q_power((n * n - 3 * n) // 2)
        * q_factorial(ctx, n)
        * pochhammer(ctx, a_last * ctx.q, n)
        * pochhammer(ctx, a_prev * a_last * ctx.q_power(n + 1), n)
        / denominator
    )


def gr_correspondence_check(params: ParamSet, n: int) -> list[dict]:
    """The `check_identity` reports of `gr_correspondence_cases` at degree n."""
    return [
        check_identity(name, cases)
        for name, cases in gr_correspondence_cases(params, n).items()
    ]


def gr_correspondence_cases(
    params: ParamSet, n: int
) -> dict[str, Iterable[tuple[dict, bool]]]:
    """Cases of the bridge between the comb-to-comb connection products
    and the classical multivariable q-Racah family at degree n.

    Three exact identities, each mapped to its (locator, ok) cases; every
    locator names n:
      * squared product identity: classical product (squared) equals the
        squared conversion factor times the squared connection product,
        for every pair of labelings;
      * signed product identity on labelings whose first h-2 entries are
        all even, where every half-power is an integer power;
      * weight orthogonality: the connection products are orthogonal for
        the classical-side weight (weight factor over right-comb norms),
        with squared norms equal to the weight factor over left-comb
        norms.
    """
    h = params.h
    ctx = params.ctx
    sub = gr_substitution(params, n)
    labelings = enumerate_compositions(h - 1, n)
    points = {m: list(accumulate(m[: h - 2])) for m in labelings}
    ours = {
        (nv, m): comb_connection_product(params, n, nv, m)
        for nv in labelings
        for m in labelings
    }

    def classical(nv, m, squared):
        return gasper_rahman_racah(
            ctx, sub["a"], sub["b"], sub["N"], points[m], nv[: h - 2], squared=squared
        )

    def product_cases():
        for nv in labelings:
            conv_sq = gr_conversion_factor(params, n, nv, squared=True)
            for m in labelings:
                ok = classical(nv, m, True) == conv_sq * ours[nv, m] * ours[nv, m]
                yield {"n": n, "nv": list(nv), "m": list(m)}, ok

    def signed_cases():
        for nv in labelings:
            if any(v % 2 for v in nv[: h - 2]):
                continue
            conv = gr_conversion_factor(params, n, nv, squared=False)
            for m in labelings:
                ok = classical(nv, m, False) == conv * ours[nv, m]
                yield {"n": n, "nv": list(nv), "m": list(m)}, ok

    def weight_cases():
        conn = connection_by_path(right_comb(h), left_comb(h), n, params)
        wf = gr_weight_factor(params, n)
        weights = {m: wf / xi_norm(params, m, n) for m in labelings}
        targets = conn.target_labelings()
        for idx, d1 in enumerate(targets):
            for d2 in targets[idx:]:
                acc = Fraction(0)
                for c in labelings:
                    v1 = conn.value(c, d1)
                    v2 = conn.value(c, d2)
                    if v1 and v2:
                        acc += v1 * v2 * weights[c]
                if d1 == d2:
                    expected = wf / norm_Q(left_comb(h), d1, params, n)
                else:
                    expected = Fraction(0)
                yield {"n": n, "d1": list(d1), "d2": list(d2)}, acc == expected

    return {
        "classical-product-identity": product_cases(),
        "classical-signed-product-identity": signed_cases(),
        "classical-weight-orthogonality": weight_cases(),
    }


# --- the worked five-leaf example ----------------------------------------


def _example_norm_reciprocal(
    params: ParamSet, n: int, u1: int, u2: int, u3: int
) -> Fraction:
    """Displayed squared norm of the five-leaf example's final basis,
    as a function of the labels (u1, u2, u3)."""
    ctx = params.ctx
    q = ctx.q
    a1, a2, a3, a4, a5 = params.alphas
    A4 = params.prefix_product(4)
    A5 = params.prefix_product(5)
    num = (
        pochhammer(ctx, A4 * ctx.q_power(2 * u3 + 4), n - u3)
        * pochhammer(ctx, a1 * a2 * ctx.q_power(2 * u1 + 2), u3 - u1 - u2)
        * pochhammer(ctx, a1 * q, u1)
        * pochhammer(ctx, a3 * q, u2)
        * a1 ** (-n)
        * a2 ** (-n + u1)
        * a3 ** (-n + u3 - u2)
        * a4 ** (-n + u3)
    )
    den = (
        q_factorial(ctx, n - u3)
        * pochhammer(ctx, A5 * ctx.q_power(n + u3 + 4), n - u3)
        * pochhammer(ctx, a5 * q, n - u3)
        * q_factorial(ctx, u3 - u1 - u2)
        * pochhammer(ctx, A4 * ctx.q_power(u1 + u2 + u3 + 3), u3 - u1 - u2)
        * pochhammer(ctx, a3 * a4 * ctx.q_power(2 * u2 + 2), u3 - u1 - u2)
        * q_factorial(ctx, u1)
        * pochhammer(ctx, a1 * a2 * ctx.q_power(u1 + 1), u1)
        * pochhammer(ctx, a2 * q, u1)
        * q_factorial(ctx, u2)
        * pochhammer(ctx, a3 * a4 * ctx.q_power(u2 + 1), u2)
        * pochhammer(ctx, a4 * q, u2)
    )
    exponent = (
        -(2 * u3 + 3) * (n - u3)
        - (2 * u1 + 1) * (u3 - u1)
        + 2 * u1 * u2
        - u2
        + (n * n - 3 * n) // 2
    )
    return num / den * ctx.q_power(exponent)


def three_dim_racah_example_check(params: ParamSet, n: int) -> list[dict]:
    """The `check_identity` reports of `three_dim_racah_example_cases` at degree n."""
    return [
        check_identity(name, cases)
        for name, cases in three_dim_racah_example_cases(params, n).items()
    ]


def three_dim_racah_example_cases(
    params: ParamSet, n: int
) -> dict[str, Iterable[tuple[dict, bool]]]:
    """Cases of the worked five-leaf example, end to end at degree n.

    The three-move path from the right comb to (((1 2) (3 4)) 5) is
    composed explicitly and compared against the trees of the figures;
    every entry is compared against the displayed triple product and
    against the inner-product oracle; the displayed squared-norm
    expression is compared against the closed-form norm of the final
    tree; and the composed matrix is checked for orthogonality.  Maps
    each identity to its (locator, ok) cases; every locator names n.
    """
    if params.h != 5:
        raise ValueError("the worked example has five leaves")
    ctx = params.ctx
    a1, a2, a3, a4, a5 = params.alphas
    t0 = right_comb(5)
    t1, mv1 = transplant_right_to_left(t0, 0)
    t2, mv2 = transplant_right_to_left(t1, 2)
    t3, mv3 = transplant_right_to_left(t2, 0)
    conn = connection_by_path(t0, t3, n, params, path=(mv1, mv2, mv3))
    oracle = connection_oracle(t0, t3, n, params)
    figures = [t.serialize() for t in (t1, t2, t3)]
    figures_ok = figures == [
        "((1 2) (3 (4 5)))",
        "((1 2) ((3 4) 5))",
        "(((1 2) (3 4)) 5)",
    ]

    def triple_product(m, d):
        m1, m2, m3, m4 = m
        u1, u2 = d[2], d[3]
        u3 = n - d[0]  # d[1] == u3 - u1 - u2 for every degree-n labeling
        if u1 > m1 + m2 or u2 > m3 + m4:
            return Fraction(0)
        return (
            racah_eval(
                ctx, u1, m2, a2, a1,
                a2 * a3 * a4 * a5 * ctx.q_power(n + m3 + m4 + 3),
                m1 + m2,
            )
            * racah_eval(
                ctx, u2, m4, a4, a3,
                a4 * a5 * ctx.q_power(m3 + m4 + 1),
                m3 + m4,
            )
            * ctx.q_power(-u1 * (m3 + m4 - u2))
            * racah_eval(
                ctx, u3 - u1 - u2, m3 + m4 - u2,
                a3 * a4 * ctx.q_power(2 * u2 + 1),
                a1 * a2 * ctx.q_power(2 * u1 + 1),
                a3 * a4 * a5 * ctx.q_power(n + u2 - u1 + 2),
                n - u1 - u2,
            )
        )

    def entry_cases(check):
        for m in conn.source_labelings():
            for d in conn.target_labelings():
                yield {"n": n, "m": list(m), "d": list(d)}, check(m, d)

    def norm_cases():
        for d in conn.target_labelings():
            displayed = _example_norm_reciprocal(params, n, d[2], d[3], n - d[0])
            yield {"n": n, "d": list(d)}, displayed * norm_Q(t3, d, params, n) == 1

    return {
        "worked-example-path": [({"n": n, "trees": figures}, figures_ok)],
        "worked-example-triple-product": entry_cases(
            lambda m, d: conn.value(m, d) == triple_product(m, d)
        ),
        "worked-example-oracle-agreement": entry_cases(
            lambda m, d: oracle.value(m, d) == conn.value(m, d)
        ),
        "worked-example-norm-display": norm_cases(),
        "worked-example-orthogonality": [({"n": n}, conn.orthogonality_check())],
    }
