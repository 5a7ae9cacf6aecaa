"""The four workloads: inputs and calls.  BENCHMARK.json and README.md say
why each is here."""

from __future__ import annotations

TOL = 1e-4
NPROCS = 2  # every parallel workload; the runner refuses nproc < NPROCS
RECV_TIMEOUT = 30.0  # bounds every world so a lost message cannot hang a run

# Seconds reference.py takes on each input when the host is quiet.  They
# only fix the unit of the host-calibrated times (calibrated = raw on a
# quiet host); changing them rescales every time metric alike.
_REF_NOMINAL_64, _REF_NOMINAL_48 = 0.100, 0.040

WORKLOADS = {
    "seq-qr-f32-hcci": {
        "kind": "seq", "shape": (64, 64, 33, 64), "dtype": "float32",
        "method": "qr", "solves_per_ref": 1, "ref_nominal_s": _REF_NOMINAL_64,
    },
    "seq-gram-f64-hcci": {
        "kind": "seq", "shape": (64, 64, 33, 64), "dtype": "float64",
        "method": "gram", "solves_per_ref": 2, "ref_nominal_s": _REF_NOMINAL_64,
    },
    "par-gram-f64-threads": {
        "kind": "par", "shape": (48, 48, 33, 48), "dtype": "float64",
        "method": "gram", "backend": "threads", "solves_per_world": 8,
        "ref_nominal_s": _REF_NOMINAL_48,
    },
    "par-qr-f32-sockets": {
        "kind": "par", "shape": (48, 48, 33, 48), "dtype": "float32",
        "method": "qr", "backend": "sockets", "solves_per_world": 8,
        "ref_nominal_s": _REF_NOMINAL_48,
    },
}
