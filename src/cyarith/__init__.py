"""cyarith: exact-arithmetic verification toolkit.

Eta-product q-expansions, CM Hecke eigenvalue systems, point counts over
finite fields, tensor-product L-factors, Euler-characteristic calculus
for iterated double covers, and intersection-lattice combinatorics for
hyperplane arrangements.  Everything is exact integer or rational
arithmetic; every headline identity is runnable via the `cyarith` CLI.
"""

from .arith import IdentityViolation, IntPoly, LegendreTable, is_prime
from .arrangement import (
    Arrangement,
    Hyperplane,
    Stratum,
    classify,
    crepant_resolvable,
    good_reduction_report,
    intersection_poset,
    resolution_schedule,
)
from .cmforms import (
    EISENSTEIN,
    GAUSSIAN,
    CMField,
    CMForm,
    CMFormFamily,
    cm_euler_factor,
    normalize_prime_element,
    power_trace,
)
from .euler import KummerData, double_cover_euler, iterated_elliptic_euler
from .pointcount import (
    EllipticCurveModel,
    ahlgren_count_bruteforce,
    ahlgren_count_fast,
    elliptic_ap,
    verify_ahlgren,
)
from .qseries import EtaProduct, HeckeCoefficientSpec, QSeries, hecke_expand
from .tensor import (
    invariant_tensor_dimension,
    tensor_euler_factor,
    verify_g4xg3,
    verify_power_factorization,
    verify_tensor_identity,
)

__version__ = "0.1.0"
