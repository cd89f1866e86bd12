"""Entanglement dynamics of accelerated atoms near a reflecting boundary."""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientSet,
    CorrelationTensor,
    PhysicalConfig,
    RateError,
    assemble,
    near_boundary_expansion,
    spectral_prefactor,
    spectral_tensor,
    spectral_tensors,
)
from .correlations import (
    CorrelationKernel,
    OracleResult,
    QuadratureSettings,
    electric_correlation,
    fourier_oracle,
)
from .dynamics import (
    Generator,
    PropagationError,
    Trajectory,
    XState,
    build_generator,
    propagate,
)
from .entanglement import (
    EntanglementEvents,
    analyze_events,
    concurrence_curve,
    concurrence_x,
    max_concurrence,
    scan_trajectory,
)
from .sweeps import FigurePreset, SweepSpec, figure_presets, run_sweep
