"""Simulated FPGA accelerator (Alveo U200 substitute).

Functional layer: :class:`~repro.fpga.kernel.BackwardSearchKernel`
executes the exact hardware algorithm (results bit-identical to the
software mapper).  Performance
layer: :class:`~repro.fpga.cost_model.FPGACostModel`,
:class:`~repro.fpga.power.PowerModel` and
:class:`~repro.fpga.multicore.MulticoreModel` convert measured workload
statistics into modeled device time and energy.  Host layer:
:mod:`~repro.fpga.opencl` (profiling events) and
:class:`~repro.fpga.accelerator.FPGAAccelerator` (the user-facing facade).
"""

from .accelerator import AcceleratorRun, FPGAAccelerator
from .bram import BramBank, BramModel
from .cost_model import DEFAULT_COST_MODEL, FPGACostModel
from .device import (
    ALVEO_U200,
    XEON_E5_2698V3_WATTS,
    CapacityError,
    DeviceHealth,
    DeviceSpec,
    DeviceState,
    check_fits,
    max_reference_bases,
)
from .kernel import BackwardSearchKernel, KernelRun, QueryOutcome
from .multicore import MulticoreModel, scaling_curve
from .opencl import Buffer, CLError, CommandQueue, CommandType, Context, Event
from .power import DEFAULT_POWER_MODEL, PowerModel
from .tracing import timeline_summary, to_trace_events, write_trace

__all__ = [
    "ALVEO_U200",
    "AcceleratorRun",
    "BackwardSearchKernel",
    "BramBank",
    "BramModel",
    "Buffer",
    "CLError",
    "CapacityError",
    "CommandQueue",
    "CommandType",
    "Context",
    "DEFAULT_COST_MODEL",
    "DEFAULT_POWER_MODEL",
    "DeviceHealth",
    "DeviceSpec",
    "DeviceState",
    "Event",
    "FPGAAccelerator",
    "FPGACostModel",
    "KernelRun",
    "MulticoreModel",
    "PowerModel",
    "QueryOutcome",
    "XEON_E5_2698V3_WATTS",
    "check_fits",
    "max_reference_bases",
    "scaling_curve",
    "timeline_summary",
    "to_trace_events",
    "write_trace",
]
