"""Extreme-value forecasting of marginal expected shortfall for GARCH-filtered
loss series: point forecasts, asymptotic confidence intervals, joint inference
across series, Monte Carlo studies, and rolling backtests."""

__version__ = "0.1.0"

from .distributions import (
    BurrParams,
    InnovationSpec,
    TCopulaParams,
    burr_cdf,
    burr_moment,
    burr_quantile,
    sample_innovations,
    symmetrized_quantile,
    tail_copula_R,
    tcopula_conditional_cdf,
    tcopula_conditional_quantile,
)
from .garch import GarchFit, GarchParams, filter_and_residualize, qmle_fit, simulate_ccc
from .evt import (
    MesForecast,
    TailConfig,
    assemble_forecast,
    hill,
    k_rule,
    mes_extrapolate,
    mes_np,
    mes_within,
)
from .taildep import r_hat_pair, sigma_hat
from .inference import WaldResult, contrast_matrix, structural_mes, wald_test
from .simlab import (
    SimConfig,
    SimResult,
    TrueMes,
    ml_estimator,
    mes_limit_integral,
    rejection_theta_oracle,
    run_replication,
    run_study,
    true_theta_oracle,
)
from .backtest import ForecastRecord, LossPanel, build_index, ingest_csv, rolling_forecast

__all__ = [
    "__version__",
    "BurrParams", "InnovationSpec", "TCopulaParams",
    "burr_cdf", "burr_moment", "burr_quantile", "sample_innovations",
    "symmetrized_quantile", "tail_copula_R",
    "tcopula_conditional_cdf", "tcopula_conditional_quantile",
    "GarchFit", "GarchParams",
    "filter_and_residualize", "qmle_fit", "simulate_ccc",
    "MesForecast", "TailConfig", "assemble_forecast", "hill", "k_rule",
    "mes_extrapolate", "mes_np", "mes_within",
    "r_hat_pair", "sigma_hat",
    "WaldResult", "contrast_matrix", "structural_mes", "wald_test",
    "SimConfig", "SimResult", "TrueMes", "ml_estimator", "mes_limit_integral",
    "rejection_theta_oracle", "run_replication", "run_study", "true_theta_oracle",
    "ForecastRecord", "LossPanel", "build_index", "ingest_csv", "rolling_forecast",
]
