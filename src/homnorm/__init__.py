"""Minimal-mass homology representatives over Z, Q and Z/nZ.

Weighted finite simplicial complexes, exact class norms per coefficient
ring, calibration certificates, canonical mod-n lifts, and an experiment
harness for norm-coincidence thresholds, minimizer-set bijections,
asymptotic ratios and Lavrentiev weight sweeps.
"""

from .complexes import (Chain, Cochain, ComplexFormatError, NotACycleError,
                        WeightedComplex, complex_to_json, dump_complex,
                        load_complex, mass)
from .hasse import (BijectionReport, EnumerationInexactError, FedererRow,
                    GapRow, LiftReport, ScanRow, bijection_check,
                    empirical_threshold, federer_sequence, gap_sweep,
                    lift_minimizer, scan_moduli)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       ModDecomposition, TorsionFactor, class_of_cycle,
                       homology_decomposition, reduce_class)
from .optimize import (OptReport, min_int, min_mod, min_real, minimize,
                       verify_certificate)
from .rings import (INT, RAT, RingSpec, canonical_lift, mod_ring, norm,
                    ring_from_tag)

__all__ = [
    "Chain", "Cochain", "ComplexFormatError", "NotACycleError",
    "WeightedComplex", "complex_to_json", "dump_complex", "load_complex",
    "mass",
    "BijectionReport", "EnumerationInexactError", "FedererRow", "GapRow",
    "LiftReport", "ScanRow", "bijection_check", "empirical_threshold",
    "federer_sequence", "gap_sweep", "lift_minimizer", "scan_moduli",
    "ClassCoords", "HomologyDecomposition", "InfeasibleClassError",
    "ModDecomposition", "TorsionFactor", "class_of_cycle",
    "homology_decomposition", "reduce_class",
    "OptReport", "min_int", "min_mod", "min_real", "minimize",
    "verify_certificate",
    "INT", "RAT", "RingSpec", "canonical_lift", "mod_ring", "norm",
    "ring_from_tag",
]
