"""Performance model: machine parameters, modeled ST-HOSVD, report formatting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".machine": ("CommCosts", "MachineModel", "ANDES", "CASCADE_LAKE",
                 "KERNELS"),
    ".simulator": ("ModeledRun", "simulate_sthosvd"),
    ".grids": ("STRONG_SCALING_GRIDS", "strong_scaling_grid",
               "weak_scaling_config"),
    ".memory": ("MemoryModel", "simulate_memory"),
    ".tuner": ("TunedConfig", "enumerate_grids", "tune_grid"),
    ".calibrate": ("KernelMeasurement", "measure_kernel_rates",
                   "calibrate_machine"),
    ".report": ("breakdown_table", "scaling_table", "variant_label",
                "PHASE_LABELS"),
})

__all__ = [
    "CommCosts",
    "MachineModel",
    "ANDES",
    "CASCADE_LAKE",
    "KERNELS",
    "ModeledRun",
    "simulate_sthosvd",
    "STRONG_SCALING_GRIDS",
    "strong_scaling_grid",
    "weak_scaling_config",
    "MemoryModel",
    "simulate_memory",
    "TunedConfig",
    "enumerate_grids",
    "tune_grid",
    "KernelMeasurement",
    "measure_kernel_rates",
    "calibrate_machine",
    "breakdown_table",
    "scaling_table",
    "variant_label",
    "PHASE_LABELS",
]
