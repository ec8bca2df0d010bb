"""Elliptic projective geometric algebra in 1, 2 and 3 dimensions.

The kernel lives in :mod:`elga.algebra`; the per-space geometry toolkits
are :mod:`elga.el1`, :mod:`elga.el2` and :mod:`elga.el3`.  A scene-driven
CLI (``elga eval`` / ``elga figure``) is provided by :mod:`elga.cli`.
"""

from .algebra import (
    AlgebraError,
    Multivector,
    NonInvertible,
    NonSimpleBivector,
    Space,
    SpaceMismatch,
    Spinor,
    ZeroInput,
    canonicalize_sign,
    commutator,
    dual_I,
    exp_bivector,
    from_json_dict,
    geometric_product,
    grade,
    inner,
    inverse_blade,
    j_map,
    j_map_inverse,
    norm,
    normalized,
    outer,
    regressive,
    reverse,
    to_json_dict,
)

__all__ = [
    "AlgebraError",
    "Multivector",
    "NonInvertible",
    "NonSimpleBivector",
    "Space",
    "SpaceMismatch",
    "Spinor",
    "ZeroInput",
    "canonicalize_sign",
    "commutator",
    "dual_I",
    "exp_bivector",
    "from_json_dict",
    "geometric_product",
    "grade",
    "inner",
    "inverse_blade",
    "j_map",
    "j_map_inverse",
    "norm",
    "normalized",
    "outer",
    "regressive",
    "reverse",
    "to_json_dict",
    "el1",
    "el2",
    "el3",
]

__version__ = "0.1.0"

from . import el1, el2, el3  # noqa: E402  (re-exported subpackages)
