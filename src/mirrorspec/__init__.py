"""Spectral spatio-temporal modeling of advection-diffusion fields.

Suppresses the Gibbs phenomenon of truncated Fourier reconstructions by
mirror-extending each frame along both axes before modeling, carries the
physics-derived coefficient dynamics onto the extended domain, and runs
Kalman filtering, forecasting, and noise-variance estimation on top.
"""

from .dynamics import build_transition, flipped_generator, matrix_exp
from .evaluate import (
    ModelSpec,
    Region,
    build_pipeline,
    fit_and_filter,
    mae,
    run_comparison,
)
from .galerkin import DiffusivityField, VelocityField, assemble_transition
from .grid import DEFAULT_FLIP, Field, FlipVariant, GridSpec, flip_field, unflip
from .gridstack import GridStack, load_stack, render_heatmap, save_stack
from .kalman import (
    FilterError,
    FilterResult,
    NoiseParams,
    StateSpaceModel,
    direct_model,
    estimate_variances,
    kf_filter,
    kf_forecast,
)
from .motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from .preprocess import apply_window, hamming2d, reflectivity_to_rain
from .simulate import SimulationConfig, forcing_field, simulate_advection, synthetic_storm_stack
from .spectral import (
    MirrorBand,
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)

__version__ = "0.1.0"
