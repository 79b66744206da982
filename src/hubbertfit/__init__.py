"""Hubbert diffusion process: estimation, peak forecasting, uncertainty.

A library for fitting the stochastic Hubbert production model to panels
of discretely observed sample paths by exact maximum likelihood, with
Fisher/delta asymptotic errors and conditional-mean forecasts.  The
default fit profiles sigma^2 out in closed form and runs Fisher scoring
over (eta, alpha) from three points of the box, keeping the best; the
paper's simulated annealing and hybrid VNS-SA metaheuristic over
(eta, alpha, sigma) remain available.  A fit warns when an estimate ends
on an edge of the box.

The imports below are the public API; a name not imported here is
internal, even where its module defines it without an underscore.
"""

from . import datasets
from .bounds import SolutionBox, alpha1, alpha2, build_box
from .curve import (
    CurveParams,
    hubbert_value,
    inflection_times,
    peak_time,
    peak_value,
    shift_parameters,
    urr,
)
from .inference import (
    FitResult,
    Forecast,
    PeakEstimate,
    asymptotic_cov,
    delta_error,
    estimate_peak,
    fisher_information,
    fit,
    forecast,
)
from .likelihood import (
    PanelData,
    SufficientStats,
    eta_alpha_sums,
    initial_mle,
    log_likelihood,
    objective,
)
from .optimize import (
    SAConfig,
    VNSConfig,
    initial_temperature,
    metropolis_step,
    multistart,
    simulated_annealing,
    vns_sa,
)
from .process import (
    InitialDistribution,
    PathGrid,
    ProcessParams,
    conditional_mean,
    finite_dim_params,
    mean,
    simulate_paths,
    transition_logpdf,
)

__version__ = "0.1.0"
