"""Dataset generators: prescribed-spectrum synthetics, application surrogates, I/O."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".spectra": ("geometric_spectrum", "plateau_spectrum", "step_spectrum"),
    ".synthetic": ("random_orthonormal", "matrix_with_spectrum",
                   "tensor_with_mode_spectra", "low_rank_tensor"),
    ".applications": ("hcci_surrogate", "sp_surrogate", "video_surrogate",
                      "PAPER_SHAPES"),
    ".io": ("save_raw", "load_raw"),
    ".outofcore": ("OutOfCoreTensor",),
    ".timeseries": ("save_timesteps", "assemble_timesteps", "list_timesteps"),
})

__all__ = [
    "geometric_spectrum",
    "plateau_spectrum",
    "step_spectrum",
    "random_orthonormal",
    "matrix_with_spectrum",
    "tensor_with_mode_spectra",
    "low_rank_tensor",
    "hcci_surrogate",
    "sp_surrogate",
    "video_surrogate",
    "PAPER_SHAPES",
    "save_raw",
    "load_raw",
    "OutOfCoreTensor",
    "save_timesteps",
    "assemble_timesteps",
    "list_timesteps",
]
