"""Samplers and distribution functions for the simulation design.

Provides the symmetrized, standardized Burr marginals, Student-t copula
sampling, the closed-form t-copula tail-dependence function, and the
conditional copula quantile used by the Monte Carlo oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

__all__ = [
    "BurrParams",
    "TCopulaParams",
    "InnovationSpec",
    "burr_cdf",
    "burr_quantile",
    "burr_isf",
    "burr_moment",
    "symmetrized_quantile",
    "sample_innovations",
    "tail_copula_R",
    "tcopula_conditional_quantile",
    "tcopula_conditional_cdf",
]


@dataclass(frozen=True)
class BurrParams:
    """Shape parameters of a Burr(a, b) distribution, F(x) = 1 - (1 + x^b)^(-a).

    Requires a*b > 2 so that the second moment exists and the innovations can
    be standardized to unit variance. The extreme value index is 1/(a*b).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"Burr shape parameters must be positive, got a={self.a}, b={self.b}")
        if not self.a * self.b > 2:
            raise ValueError(
                f"a*b must exceed 2 for a finite variance, got a*b={self.a * self.b}"
            )

    @property
    def gamma(self) -> float:
        """Extreme value index of the Burr tail."""
        return 1.0 / (self.a * self.b)

    @property
    def std_constant(self) -> float:
        """sqrt(E[B^2]), the standardization constant of the symmetrized margin."""
        return float(np.sqrt(burr_moment(2.0, self)))


@dataclass(frozen=True)
class TCopulaParams:
    """Degrees of freedom and correlation matrix of a Student-t copula."""

    nu: float
    corr: np.ndarray

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"degrees of freedom must be positive, got {self.nu}")
        corr = np.atleast_2d(np.asarray(self.corr, dtype=float))
        if corr.shape[0] != corr.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.allclose(corr, corr.T):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.any(np.abs(corr) > 1.0 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")
        try:
            np.linalg.cholesky(corr)
        except np.linalg.LinAlgError as exc:
            raise ValueError("correlation matrix must be positive definite") from exc
        object.__setattr__(self, "corr", corr)

    @property
    def dim(self) -> int:
        return self.corr.shape[0]

    @classmethod
    def bivariate(cls, nu: float, rho: float) -> "TCopulaParams":
        return cls(nu=nu, corr=np.array([[1.0, rho], [rho, 1.0]]))

    @classmethod
    def equicorrelated(cls, nu: float, rho: float, dim: int) -> "TCopulaParams":
        corr = np.full((dim, dim), rho)
        np.fill_diagonal(corr, 1.0)
        return cls(nu=nu, corr=corr)


@dataclass(frozen=True)
class InnovationSpec:
    """Joint innovation law: Burr margins coupled through a t-copula."""

    marginals: tuple
    copula: TCopulaParams

    def __post_init__(self) -> None:
        marginals = tuple(self.marginals)
        if len(marginals) != self.copula.dim:
            raise ValueError(
                f"{len(marginals)} marginals given for a {self.copula.dim}-dimensional copula"
            )
        object.__setattr__(self, "marginals", marginals)

    @property
    def dim(self) -> int:
        return self.copula.dim

    @classmethod
    def homogeneous(cls, burr: BurrParams, copula: TCopulaParams) -> "InnovationSpec":
        return cls(marginals=(burr,) * copula.dim, copula=copula)


def burr_cdf(x, params: BurrParams):
    """Distribution function F(x) = 1 - (1 + x^b)^(-a) for x > 0."""
    x = np.asarray(x, dtype=float)
    out = -np.expm1(-params.a * np.log1p(np.power(np.maximum(x, 0.0), params.b)))
    return out if out.ndim else float(out)

def burr_quantile(u, params: BurrParams):
    """Inverse of the Burr d.f.: x = ((1-u)^(-1/a) - 1)^(1/b) for u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    # expm1 form keeps precision for u near 0
    x = np.power(np.expm1(-np.log1p(-u) / params.a), 1.0 / params.b)
    return x if x.ndim else float(x)


def burr_isf(q, params: BurrParams):
    """Burr quantile at upper-tail probability q: the x with 1 - F(x) = q.

    Works from q itself rather than from u = 1 - q, so it keeps full relative
    precision however deep in the tail q lies; q = 1 gives 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("tail probability must lie in (0, 1]")
    x = np.exp(_burr_log_isf(np.log(q), params))
    return x if x.ndim else float(x)


def _burr_log_isf(log_q, params: BurrParams):
    """log burr_isf from log q: log x = (y + log(1 - e^-y)) / b with y = -log(q)/a.

    Stays finite where q^(-1/a) itself overflows (small a, deep q).
    """
    y = -np.asarray(log_q, dtype=float) / params.a
    with np.errstate(divide="ignore"):  # q = 1: log x = -inf, x = 0
        return (y + np.log(-np.expm1(-y))) / params.b


def burr_moment(r: float, params: BurrParams) -> float:
    """E[B^r] = a * Beta(a - r/b, 1 + r/b), finite only for r < a*b."""
    if r >= params.a * params.b:
        raise ValueError(f"moment of order {r} is infinite for a*b={params.a * params.b}")
    a, b = params.a, params.b
    log_val = (
        np.log(a)
        + special.gammaln(a - r / b)
        + special.gammaln(1.0 + r / b)
        - special.gammaln(a + 1.0)
    )
    return float(np.exp(log_val))


def symmetrized_quantile(u, params: BurrParams):
    """Quantile of the symmetrized, unit-variance Burr margin.

    u < 1/2 maps to -Q(1 - 2u), u >= 1/2 to +Q(2u - 1), each scaled by
    1/sqrt(E[B^2]). The upper-upper quadrant of the copula is preserved.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("uniform input must lie strictly inside (0, 1)")
    c = params.std_constant
    out = np.empty_like(u)
    neg = u < 0.5
    # clip interior arguments away from exact 0/1 caused by u == 0.5
    arg_neg = np.clip(1.0 - 2.0 * u[neg], 1e-300, 1.0 - 1e-16)
    arg_pos = np.clip(2.0 * u[~neg] - 1.0, 1e-300, 1.0 - 1e-16)
    out[neg] = -burr_quantile(arg_neg, params) / c
    out[~neg] = burr_quantile(arg_pos, params) / c
    return out if out.shape != (1,) else float(out[0])


def sample_t_copula(copula: TCopulaParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (count x dim) draws from the t-copula via Gaussian/chi-square composition."""
    chol = np.linalg.cholesky(copula.corr)
    z = rng.standard_normal((count, copula.dim)) @ chol.T
    w = rng.chisquare(copula.nu, size=count) / copula.nu
    t_draws = z / np.sqrt(w)[:, None]
    return stats.t.cdf(t_draws, copula.nu)


def sample_innovations(spec: InnovationSpec, count: int, rng_seed) -> np.ndarray:
    """I.i.d. rows of symmetrized standardized Burr innovations with t-copula dependence."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(rng_seed)
    u = sample_t_copula(spec.copula, count, rng)
    # guard against u hitting {0, 1} through cdf underflow
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    out = np.empty_like(u)
    for j, burr in enumerate(spec.marginals):
        out[:, j] = symmetrized_quantile(u[:, j], burr)
    return out


def tail_copula_R(x: float, y: float, nu: float, rho: float) -> float:
    """Closed-form upper tail copula of the bivariate t-copula.

    R(x, y) = x * Fbar_{nu+1}(((x/y)^(1/nu) - rho) * sqrt(nu+1) / sqrt(1-rho^2))
            + y * Fbar_{nu+1}(((y/x)^(1/nu) - rho) * sqrt(nu+1) / sqrt(1-rho^2)),
    with R(0, .) = R(., 0) = 0 and R(x, inf) = x, R(inf, y) = y.
    """
    if x < 0 or y < 0:
        raise ValueError("tail copula arguments must be nonnegative")
    if np.isinf(x) and np.isinf(y):
        raise ValueError("tail copula is undefined at (inf, inf)")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if x == 0.0 or y == 0.0:
        return 0.0
    if np.isinf(y):
        return float(x)
    if np.isinf(x):
        return float(y)
    scale = np.sqrt(nu + 1.0) / np.sqrt(1.0 - rho * rho)
    term_x = x * stats.t.sf(((x / y) ** (1.0 / nu) - rho) * scale, nu + 1.0)
    term_y = y * stats.t.sf(((y / x) ** (1.0 / nu) - rho) * scale, nu + 1.0)
    return float(term_x + term_y)


def _conditional_params(t1, nu: float, rho: float):
    """Location/scale/dof of T_Y | T_X = t1 in a bivariate t with unit scales."""
    loc = rho * t1
    scale = np.sqrt((nu + t1 * t1) * (1.0 - rho * rho) / (nu + 1.0))
    return loc, scale, nu + 1.0


def tcopula_conditional_quantile(u, v, nu: float, rho: float):
    """v-quantile of the conditional copula C(. | U_X = u) of a bivariate t-copula."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any((u <= 0) | (u >= 1)) or np.any((v <= 0) | (v >= 1)):
        raise ValueError("u and v must lie strictly inside (0, 1)")
    t1 = stats.t.ppf(u, nu)
    loc, scale, dof = _conditional_params(t1, nu, rho)
    t2 = loc + scale * stats.t.ppf(v, dof)
    out = stats.t.cdf(t2, nu)
    return out if out.ndim else float(out)


def tcopula_conditional_cdf(u, w, nu: float, rho: float):
    """Conditional d.f. C(w | U_X = u); inverse of tcopula_conditional_quantile in w."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any((u <= 0) | (u >= 1)) or np.any((w <= 0) | (w >= 1)):
        raise ValueError("u and w must lie strictly inside (0, 1)")
    t1 = stats.t.ppf(u, nu)
    loc, scale, dof = _conditional_params(t1, nu, rho)
    t2 = stats.t.ppf(w, nu)
    out = stats.t.cdf((t2 - loc) / scale, dof)
    return out if out.ndim else float(out)
