"""Jacobi polynomials.

Integer (possibly negative) Jacobi parameters are evaluated by the explicit
binomial sum, which stays well defined where the classical recurrences break
down.  A negative upper index is first reduced through the reflection

    P_n^(-l,b)(x) = [C(n+b,l)/C(n,l)] ((x-1)/2)^l P_{n-l}^(l,b)(x),

and P_0^(a,b)(x) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import binomial

__all__ = ["JacobiParams", "jacobi", "jacobi_sum"]


@dataclass(frozen=True)
class JacobiParams:
    n: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative Jacobi degree {self.n}")


def jacobi_sum(n: int, alpha: int, beta: int, x: float) -> float:
    """Explicit finite sum for P_n^(alpha,beta)(x), any integer parameters."""
    h_minus = (x - 1.0) / 2.0
    h_plus = (x + 1.0) / 2.0
    total = 0.0
    for s in range(n + 1):
        c = binomial(n + alpha, n - s) * binomial(n + beta, s)
        if c == 0:
            continue
        total += c * h_minus**s * h_plus ** (n - s)
    return total


def jacobi(params: JacobiParams, x: float) -> float:
    """Jacobi polynomial value at x in [-1, 1]."""
    n, alpha, beta = params.n, params.alpha, params.beta
    if n == 0:
        return 1.0
    if alpha <= -1 and -alpha <= n:
        ell = -alpha
        num = binomial(n + beta, ell)
        den = binomial(n, ell)
        # den = C(n, ell) != 0 because ell <= n here.
        factor = (num / den) * ((x - 1.0) / 2.0) ** ell
        return factor * jacobi_sum(n - ell, ell, beta, x)
    return jacobi_sum(n, alpha, beta, x)
