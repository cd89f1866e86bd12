"""Entanglement dynamics of accelerated atoms near a reflecting boundary."""

__version__ = "0.1.0"

import numpy as _np

# glibc's malloc maps each block above its mmap threshold (128 KiB at start)
# afresh and unmaps it on free; freeing such a block raises the threshold to
# its size, and the heap's trim threshold to twice that.  Freeing one 4 MiB
# block here keeps the temporaries of propagation (about 2 MB at 20,001
# samples) and of the CSV kernel on the heap, whose pages stay mapped, so
# the hot paths take no page faults.  Importing scipy frees such blocks too,
# and the hot paths must not depend on whether it was imported.
_np.empty(4 << 20, dtype=_np.uint8)
del _np

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
