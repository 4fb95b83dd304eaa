"""Bit-accurate beamspace equalization simulator for mmWave massive MU-MIMO."""

# First: fixes the BLAS thread count before any module below imports numpy.
from . import _blas  # noqa: F401
from .channel import ChannelMatrix, ScenarioConfig, draw_scenario
from .equalize import (EqualizerMatrix, lmmse_filter, omp_filter, quantize_filter,
                       residual_objective)
from .frontend import (AdcConfig, ReceiveVector, dft_unitary, optimal_unit_step,
                       quantize_adc, receive, unified_step, unit_noise)
from .harness import (BerPoint, ParetoPoint, SimConfig, pareto_sweep,
                      run_ber_curve, run_ber_point, snr_operating_point)
from .hwmodel import ArchModel, power_proxy, savings_vs_baseline, throughput_bps
from .modem import demap_hard, map_bits
from .numerics import (FixedFormat, FxComplexArray, fx_value, solve_hermitian_pd,
                       to_fixed)
from .spade import (ActivityReport, ThresholdPair, adaptive_mvm, exact_mvm_fixed,
                    masked_reference)

__version__ = "0.1.0"
