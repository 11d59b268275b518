"""Bundled reference objects: curves, eta products, CM families, the
transcribed singularity table for the twelve-plane arrangement, and the
packaged arrangement files.

The arrangement engine (`cyarith.arrangement`) loads with the first
bundled arrangement, inside `load_bundled_arrangement`: the CM, eta and
tensor code that reads this module never pays for it."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cmforms import EISENSTEIN, GAUSSIAN, CMFormFamily
from .pointcount import EllipticCurveModel
from .qseries import EtaProduct

if TYPE_CHECKING:
    from .arrangement import Arrangement

# ---------------------------------------------------------------------------
# Reference curves

#: y^2 = x^3 - x: CM by Z[i]; weight-2 coefficients of the level-32 newform
CURVE_GAUSSIAN = EllipticCurveModel(-1, 0)

#: y^2 = x^3 + 16: CM by Z[(1+sqrt(-3))/2]; weight-2 coefficients of the
#: level-27 newform.  This is the integral model that matches
#: eta(q^9)^2 eta(q^3)^2 at every odd good prime.
CURVE_EISENSTEIN = EllipticCurveModel(0, 16)

#: y^2 = x^3 - 16: the (-1) quadratic twist of the model above.  Its
#: traces differ from the level-27 form by chi_{-4}(p); kept so the
#: model mismatch can be demonstrated and reported, never silently used.
CURVE_EISENSTEIN_TWIST = EllipticCurveModel(0, -16)

GAUSSIAN_FAMILY = CMFormFamily(GAUSSIAN, CURVE_GAUSSIAN, "gaussian")
EISENSTEIN_FAMILY = CMFormFamily(EISENSTEIN, CURVE_EISENSTEIN, "eisenstein")

FAMILIES = {family.field.name: family for family in (GAUSSIAN_FAMILY, EISENSTEIN_FAMILY)}

# ---------------------------------------------------------------------------
# Eta products

ETA_WEIGHT2_GAUSSIAN = EtaProduct(((8, 2), (4, 2)))  # level 32
ETA_WEIGHT3_GAUSSIAN = EtaProduct(((4, 6),))  # level 16
ETA_WEIGHT2_EISENSTEIN = EtaProduct(((9, 2), (3, 2)))  # level 27
ETA_WEIGHT4_EISENSTEIN = EtaProduct(((3, 8),))  # level 9

# ---------------------------------------------------------------------------
# Transcribed printed coefficients (expected values with published-table
# provenance; every entry re-derivable from the recurrences above)

PRINTED_ETA_COEFFS = {
    ETA_WEIGHT2_GAUSSIAN: {1: 1, 5: -2, 9: -3, 13: 6, 17: 2},
    ETA_WEIGHT3_GAUSSIAN: {1: 1, 5: -6, 9: 9, 13: 10, 17: -30},
    ETA_WEIGHT2_EISENSTEIN: {1: 1, 4: -2, 7: -1, 13: 5, 16: 4, 19: -7},
    ETA_WEIGHT4_EISENSTEIN: {1: 1, 4: -8, 7: 20, 13: -70, 16: 64, 19: 56},
}

#: printed coefficients of the Grossencharakter-power forms, keyed by
#: (family name, weight) -> {index: coefficient}
PRINTED_CM_COEFFS = {
    ("gaussian", 3): {9: 9},
    ("gaussian", 4): {1: 1, 5: 22, 9: -27, 13: -18, 17: -94, 25: 359},
    ("gaussian", 6): {1: 1, 5: -82, 9: -243, 13: -1194, 17: 2242, 25: 3599},
    ("eisenstein", 3): {1: 1, 4: 4, 7: -13, 13: -1, 16: 16, 19: 11, 25: 25},
    ("eisenstein", 4): {4: -8, 7: 20, 13: -70},
}

# ---------------------------------------------------------------------------
# Bundled arrangements

ARRANGEMENT_FILES = {
    "ahlgren": "ahlgren_p5.arr",
    "octic": "octic_19.arr",
    "sextic": "sextic.arr",
}


def load_bundled_arrangement(name: str) -> Arrangement:
    try:
        fname = ARRANGEMENT_FILES[name]
    except KeyError:
        raise ValueError(f"unknown bundled arrangement {name!r}") from None
    from importlib import resources

    from .arrangement import parse_arrangement

    text = resources.files("cyarith.data").joinpath(fname).read_text(encoding="ascii")
    return parse_arrangement(text)


# ---------------------------------------------------------------------------
# The transcribed classification table for the twelve-plane arrangement.
# Columns: dim, mult, count, N1..N6 (incidence with the positive-dimensional
# types).  Computed values are compared cell by cell against this
# transcription; a mismatch is reported as a discrepancy, never forced.

AHLGREN_REFERENCE_TABLE = (
    (3, 2, 66, (0, 0, 0, 0, 0, 0)),
    (2, 3, 148, (3, 0, 0, 0, 0, 0)),
    (2, 4, 18, (6, 0, 0, 0, 0, 0)),
    (1, 4, 117, (6, 4, 0, 0, 0, 0)),
    (1, 5, 36, (10, 6, 1, 0, 0, 0)),
    (1, 6, 18, (15, 8, 3, 0, 0, 0)),
    (0, 5, 12, (10, 10, 0, 5, 0, 0)),
    (0, 6, 18, (15, 16, 1, 6, 2, 0)),
    (0, 7, 12, (21, 23, 3, 8, 3, 1)),
    (0, 8, 3, (28, 32, 6, 16, 0, 4)),
    (0, 9, 4, (36, 21, 9, 9, 9, 6)),
)

#: (dim, mult) pairs expected near-pencil resp. admissible
AHLGREN_NEAR_PENCIL_TYPES = frozenset({(2, 3), (1, 4), (1, 5), (0, 5), (0, 6), (0, 7)})
AHLGREN_ADMISSIBLE_TYPES = frozenset({(3, 2), (2, 4), (1, 6), (0, 8), (0, 9)})
