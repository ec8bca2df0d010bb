"""Scene files: named entities plus a query list, evaluated to a report.

A scene is a JSON object::

    {
      "space": "el2",
      "entities": {
        "P": {"role": "point", "coeffs": {"e12": 1, "e20": 1}},
        "a": {"coeffs": {"e0": -2, "e1": 2, "e2": 1}}
      },
      "queries": [
        {"name": "r", "op": "distance_pp", "args": ["P", "Q"]},
        {"name": "rot", "op": "rotate", "args": ["P", "R", 0.785]}
      ],
      "figure": {"theta": 1.2566, "parallels": 32, "family": "both"}
    }

Roles gate validation at load time: "line" entities in el3 must satisfy
the Plucker condition, "point"/"plane"/"line" must be homogeneous of the
right grade, "bivector" must be grade 2.  Query names are unique strings
(default "q<index>").  Any key not shown above exits 1.  Query args are
entity names, numbers, or keyword strings (family/side/direction/kind).
Angles are radians; there is no degree mode.
"""

from __future__ import annotations

import enum
import importlib
import json
import math
import sys
from collections.abc import Mapping, Sequence
from typing import Callable, Dict, List, Optional, Tuple

from . import algebra, geometry
from .algebra import (
    AlgebraError,
    Multivector,
    MultivectorLike,
    Record,
    Space,
    from_coeff_dict,
    to_json_dict,
)


class SceneError(Exception):
    """Scene parse/validation failure (CLI exit code 1)."""


class QueryError(Exception):
    """Math-domain failure while evaluating a query (CLI exit code 2)."""

    def __init__(self, query_name: str, cause: Exception):
        super().__init__(f"query {query_name!r}: {cause}")
        self.query_name = query_name
        self.cause = cause


class Query(Record):
    __slots__ = ("name", "op", "args")

    def __init__(self, name: str, op: str, args: Tuple[object, ...]):
        object.__setattr__(self, "name", name)      # one per query: no _fill loop
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)


# what `elga figure` can draw from a scene (figures.build_figure)
FIGURE_KINDS = ("circle-trajectory", "clifford-parallels", "rotation-flow")

_SCENE_KEYS = frozenset(("space", "entities", "queries", "figure"))
_ENTITY_KEYS = frozenset(("role", "coeffs"))
_QUERY_KEYS = frozenset(("name", "op", "args"))
_FIGURE_KEYS = frozenset(("theta", "parallels", "family"))


class Scene(Record):
    __slots__ = ("space", "entities", "roles", "queries", "figure")

    def __init__(self, space: Space, entities: Dict[str, Multivector], roles: Dict[str, str],
                 queries: Tuple[Query, ...], figure: Optional[Dict[str, object]] = None):
        self._fill(space, entities, roles, queries, {} if figure is None else figure)


def _validate_entity(space: Space, name: str, role: str, mv: Multivector) -> None:
    if role == "any":
        return
    if not isinstance(role, str) or role not in geometry.ROLE_GRADES[space]:
        raise SceneError(f"entity {name!r}: role {role!r} not valid in {space.value}")
    try:
        geometry.check_blade(mv, space, role, role)
    except (AlgebraError, ValueError) as e:
        raise SceneError(f"entity {name!r}: {e}")


def _check_keys(obj: Mapping, allowed: frozenset, where: str, *args) -> None:
    """Refuse a key outside allowed, naming it and where % args, its object."""
    if not allowed.issuperset(obj):
        key = next(k for k in obj if k not in allowed)
        raise SceneError(f"{where % args}: unknown key {key!r} "
                         f"(expected {', '.join(sorted(allowed))})")


def load_scene(obj: Mapping[str, object]) -> Scene:
    """Validate and bind a parsed scene JSON object."""
    if not isinstance(obj, Mapping):
        raise SceneError("scene must be a JSON object")
    _check_keys(obj, _SCENE_KEYS, "scene")
    try:
        space = Space.from_tag(obj.get("space"))
    except ValueError as e:
        raise SceneError(str(e))
    raw_entities = obj.get("entities", {})
    if not isinstance(raw_entities, Mapping):
        raise SceneError("entities must be an object")
    entities: Dict[str, Multivector] = {}
    roles: Dict[str, str] = {}
    for name, spec in raw_entities.items():
        if not isinstance(spec, Mapping):
            raise SceneError(f"entity {name!r} must be an object")
        _check_keys(spec, _ENTITY_KEYS, "entity %r", name)
        role = spec.get("role", "any")
        coeffs = spec.get("coeffs")
        if coeffs is None:
            raise SceneError(f"entity {name!r} is missing coeffs")
        try:
            mv = from_coeff_dict(space, coeffs)
        except ValueError as e:
            raise SceneError(f"entity {name!r}: {e}")
        _validate_entity(space, name, role, mv)
        entities[name] = mv
        roles[name] = role
    raw_queries = obj.get("queries", [])
    if not isinstance(raw_queries, Sequence) or isinstance(raw_queries, str):
        raise SceneError("queries must be a list")
    ops = op_registry(space)
    queries: List[Query] = []
    names: Dict[str, int] = {}
    for i, q in enumerate(raw_queries):
        if not isinstance(q, Mapping):
            raise SceneError(f"query #{i} must be an object")
        _check_keys(q, _QUERY_KEYS, "query #%d", i)
        op = q.get("op")
        if not isinstance(op, str) or op not in ops:
            raise SceneError(f"query #{i}: unknown op {op!r} for {space.value}")
        args = q.get("args", [])
        if not isinstance(args, Sequence) or isinstance(args, str):
            raise SceneError(f"query #{i}: args must be a list")
        name = q.get("name", f"q{i}")
        if not isinstance(name, str):
            raise SceneError(f"query #{i}: name must be a string, got {name!r}")
        if name in names:
            raise SceneError(f"query #{i}: name {name!r} is already used by query #{names[name]}")
        names[name] = i
        spec = ops[op]
        if len(args) != len(spec.arg_kinds):
            raise SceneError(
                f"query {name!r}: op {op!r} takes {len(spec.arg_kinds)} args, "
                f"got {len(args)}"
            )
        for a, kind in zip(args, spec.arg_kinds):
            if kind in ("mv", "xi"):
                if not isinstance(a, str) or a not in entities:
                    raise SceneError(f"query {name!r}: unknown entity {a!r}")
                continue
            try:
                _CONVERT[kind](a)
            except (TypeError, ValueError) as e:
                raise SceneError(f"query {name!r}: {e}")
        queries.append(Query(name=name, op=op, args=tuple(args)))
    figure = obj.get("figure", {})
    if not isinstance(figure, Mapping):
        raise SceneError("figure must be an object")
    _check_keys(figure, _FIGURE_KEYS, "figure")
    return Scene(space=space, entities=entities, roles=roles,
                 queries=tuple(queries), figure=dict(figure))


def load_scene_file(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SceneError(f"cannot read scene file: {e}")
    except json.JSONDecodeError as e:
        raise SceneError(f"scene file is not valid JSON: {e}")
    return load_scene(obj)


# ---------------------------------------------------------------------------
# op registry


class OpSpec(Record):
    __slots__ = ("func", "arg_kinds")     # mv | num | family | side | direction | kind | xi

    def __init__(self, func: Callable, arg_kinds: Tuple[str, ...]):
        self._fill(func, arg_kinds)


def _number(raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"expected a number, got {raw!r}")
    if not abs(raw) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {raw!r}")
    return float(raw)


def _projection_kind(raw) -> int:
    if raw not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {raw!r}")
    return int(raw)


# Scene arg kind of each parameter annotation an op may carry, as the source
# spells it: the op modules postpone annotations, and they are never evaluated.
_ARG_KINDS = {"MultivectorLike": "mv", "CliffordLike": "xi", "float": "num",
              "Union[Family, str]": "family", "Union[Side, str]": "side",
              "Union[Direction, str]": "direction", "Literal[1, 2]": "kind"}
# Converter of each arg kind but "mv"; el3's are added when el3 loads.
_CONVERT = {"num": _number, "kind": _projection_kind}


def _triangle_area(p: MultivectorLike, q: MultivectorLike, r: MultivectorLike) -> float:
    from . import el2
    return el2.triangle_area(el2.TriangleEl2(p, q, r))


# Op names per space: the shared algebra ops, then the space module's own.
_SHARED_OPS = ("norm", "dual_I", "regressive", "outer", "inner", "geometric_product",
               "commutator", "reverse", "inverse_blade", "canonicalize_sign", "exp_bivector")
_OPS = {
    Space.EL1: ("distance", "polar", "translate", "reflect", "project", "reject"),
    Space.EL2: ("distance_pp", "angle_ll", "distance_lp", "perpendicular_through",
                "triangle_area", "right_triangle_area", "project", "reject",
                "reflect_topdown", "reflect_bottomup", "rotate", "classify_circle"),
    Space.EL3: ("distance_pp", "distance_plane_point", "distance_line_point",
                "angle_planes", "angle_line_plane", "axis_decompose", "clifford_frame",
                "clifford_parallel", "clifford_bivector", "parallel_through_point",
                "line_line_metrics", "project_on_plane", "reject_by_plane",
                "project_on_point", "reject_by_point", "project_on_line",
                "reject_by_line", "project_line_on_line", "reject_line_by_line",
                "perpendicular_through", "reflect", "double_rotation",
                "clifford_translate", "quaternion_bridge", "clifford_translate_quat"),
}


def _op_spec(func: Callable) -> OpSpec:
    """Arg kinds from the parameter annotations: every parameter is a scene arg."""
    code = func.__code__
    return OpSpec(func, tuple(_ARG_KINDS[func.__annotations__[name]]
                              for name in code.co_varnames[:code.co_argcount]))


_REGISTRY: Dict[Space, Dict[str, OpSpec]] = {}


def op_registry(space: Space) -> Dict[str, OpSpec]:
    """Query ops available for a given space; the first call imports its module."""
    if space not in _REGISTRY:
        module = importlib.import_module(f"{__package__}.{space.value}")
        ops = {name: getattr(algebra, name) for name in _SHARED_OPS}
        ops.update((name, getattr(module, name)) for name in _OPS[space])
        if space is Space.EL2:
            ops["triangle_area"] = _triangle_area
        if space is Space.EL3:
            _CONVERT.update(family=module.Family, side=module.Side, direction=module.Direction,
                            xi=module.CliffordBivector.from_bivector)
        _REGISTRY[space] = {name: _op_spec(func) for name, func in ops.items()}
    return _REGISTRY[space]


def _coerce(scene: Scene, kind: str, raw):
    if kind == "mv":
        return scene.entities[raw]
    return _CONVERT[kind](scene.entities[raw] if kind == "xi" else raw)


def _round_sig(x: float, digits: int) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _finite_json(mv: Multivector) -> Dict[str, object]:
    obj = to_json_dict(mv)
    if not all(map(math.isfinite, obj["coeffs"].values())):
        raise ValueError("result has a coefficient that is not finite")
    return obj


def serialize_value(value):
    """JSON form of a query result.

    Numeric scalars are rounded to 15 significant digits;
    multivector coefficient arrays are emitted at full precision so the
    JSON round-trips to bit-identical coefficients.  A non-finite number
    has no JSON form and raises ValueError.
    """
    mv = value if isinstance(value, Multivector) else getattr(value, "mv", None)
    if isinstance(mv, Multivector):        # blade views and spinors carry .mv
        return _finite_json(mv)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int,)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"result {value!r} is not finite")
        return _round_sig(value, 15)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Record):
        return {name: serialize_value(getattr(value, name))
                for name in getattr(value, "report_order", value.__slots__)}
    if isinstance(value, (tuple, list)):
        return [serialize_value(v) for v in value]
    raise TypeError(f"cannot serialise result of type {type(value).__name__}")


def evaluate_scene(scene: Scene) -> Dict[str, object]:
    """Run every query in file order and collect a report."""
    ops = op_registry(scene.space)
    results = []
    for query in scene.queries:
        spec = ops[query.op]
        try:
            value = serialize_value(spec.func(*(_coerce(scene, k, raw)
                                                for k, raw in zip(spec.arg_kinds, query.args))))
        except (AlgebraError, ValueError, ZeroDivisionError) as e:
            raise QueryError(query.name, e)
        results.append({"name": query.name, "op": query.op, "value": value})
    return {"space": scene.space.value, "results": results}


def report_to_json(report: Mapping[str, object]) -> str:
    """json.dumps(report, indent=2) + "\n" for a tree of dicts with string
    keys, lists, str, int, float, bool and None, NaN and Infinity included;
    written directly, as the stdlib encoder runs in pure Python when it indents."""
    out: List[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


_STR = json.encoder.encode_basestring_ascii    # json.dumps' ensure_ascii quoting


def _write_json(x, newline: str, out: List[str]) -> None:
    """Append x as json.dumps(x, indent=2) writes it; newline carries the indent."""
    if isinstance(x, str):
        out.append(_STR(x))
    elif isinstance(x, float):
        out.append(float.__repr__(x) if math.isfinite(x) else
                   "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (dict, list, tuple)) and not x:
        out.append("{}" if isinstance(x, dict) else "[]")
    elif isinstance(x, dict):
        inner = newline + "  "
        for i, (k, v) in enumerate(x.items()):        # _STR raises on a non-str key
            out += ("{" if i == 0 else ",", inner, _STR(k), ": ")
            _write_json(v, inner, out)
        out += (newline, "}")
    elif isinstance(x, (list, tuple)):
        inner = newline + "  "
        for i, v in enumerate(x):
            out += ("[" if i == 0 else ",", inner)
            _write_json(v, inner, out)
        out += (newline, "]")
    else:
        raise TypeError(f"cannot write {type(x).__name__} to a report")


def round_report(obj, digits: int = 12):
    """Recursively round every float for golden-file comparison."""
    if isinstance(obj, float):
        return _round_sig(obj, digits)
    if isinstance(obj, dict):
        return {k: round_report(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [round_report(v, digits) for v in obj]
    return obj
