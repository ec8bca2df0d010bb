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
    Record,
    Space,
    from_coeff_dict,
    to_coeff_dict,
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
        _set_name(self, name)       # one per query: the slots' own setters, no _fill loop
        _set_op(self, op)
        _set_args(self, args)


_set_name, _set_op, _set_args = (Query.__dict__[field].__set__ for field in Query.__slots__)


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


def _refuse_key(obj: Mapping, allowed: frozenset, where: str) -> None:
    """Raise SceneError naming the first key of obj outside allowed; where names obj."""
    key = next(k for k in obj if k not in allowed)
    raise SceneError(f"{where}: unknown key {key!r} (expected {', '.join(sorted(allowed))})")


def _is_list(x) -> bool:
    """A JSON array: any sequence but a string."""
    return isinstance(x, Sequence) and not isinstance(x, str)


def load_scene(obj: Mapping[str, object]) -> Scene:
    """Validate and bind a parsed scene JSON object.

    Exact dicts and lists (what json.load gives) skip the Mapping and
    Sequence checks that any other mapping or sequence goes through.
    """
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise SceneError("scene must be a JSON object")
    if not _SCENE_KEYS.issuperset(obj):
        _refuse_key(obj, _SCENE_KEYS, "scene")
    try:
        space = Space.from_tag(obj.get("space"))
    except ValueError as e:
        raise SceneError(str(e))
    raw_entities = obj.get("entities", {})
    if type(raw_entities) is not dict and not isinstance(raw_entities, Mapping):
        raise SceneError("entities must be an object")
    entities: Dict[str, Multivector] = {}
    roles: Dict[str, str] = {}
    for name, spec in raw_entities.items():
        if type(spec) is not dict and not isinstance(spec, Mapping):
            raise SceneError(f"entity {name!r} must be an object")
        if not _ENTITY_KEYS.issuperset(spec):
            _refuse_key(spec, _ENTITY_KEYS, f"entity {name!r}")
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
    if type(raw_queries) is not list and not _is_list(raw_queries):
        raise SceneError("queries must be a list")
    ops = op_registry(space)
    queries: List[Query] = []
    names: Dict[str, int] = {}
    for i, q in enumerate(raw_queries):
        if type(q) is not dict and not isinstance(q, Mapping):
            raise SceneError(f"query #{i} must be an object")
        if not _QUERY_KEYS.issuperset(q):
            _refuse_key(q, _QUERY_KEYS, f"query #{i}")
        op = q.get("op")
        if not isinstance(op, str) or op not in ops:
            raise SceneError(f"query #{i}: unknown op {op!r} for {space.value}")
        args = q.get("args", ())
        if type(args) is not list and not _is_list(args):
            raise SceneError(f"query #{i}: args must be a list")
        name = q["name"] if "name" in q else f"q{i}"
        if not isinstance(name, str):
            raise SceneError(f"query #{i}: name must be a string, got {name!r}")
        if name in names:
            raise SceneError(f"query #{i}: name {name!r} is already used by query #{names[name]}")
        names[name] = i
        kinds = ops[op].arg_kinds
        if len(args) != len(kinds):
            raise SceneError(f"query {name!r}: op {op!r} takes {len(kinds)} args, got {len(args)}")
        for a, kind in zip(args, kinds):
            if kind in ("mv", "xi"):
                if not isinstance(a, str) or a not in entities:
                    raise SceneError(f"query {name!r}: unknown entity {a!r}")
                continue
            try:
                _CONVERT[kind](a)
            except (TypeError, ValueError) as e:
                raise SceneError(f"query {name!r}: {e}")
        queries.append(Query(name, op, tuple(args)))
    figure = obj.get("figure", {})
    if type(figure) is not dict and not isinstance(figure, Mapping):
        raise SceneError("figure must be an object")
    if not _FIGURE_KEYS.issuperset(figure):
        _refuse_key(figure, _FIGURE_KEYS, "figure")
    return Scene(space, entities, roles, tuple(queries), dict(figure))


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


class _CoeffObject(dict):
    """The {"space", "coeffs"} object of a multivector result, as
    serialize_value builds it: finite floats under display names.  A plain
    dict to json.dumps and ==; report_to_json writes it with one cached
    format, trusting that shape."""

    __slots__ = ()


def _coeff_object(mv: Multivector) -> _CoeffObject:
    c = mv._c
    if not math.isfinite(sum(c)) and not all(map(math.isfinite, c)):   # a finite sum: all are
        raise ValueError("result has a coefficient that is not finite")
    return _CoeffObject(space=mv._space._value_, coeffs=to_coeff_dict(mv))


def serialize_value(value):
    """JSON form of a query result.

    Numeric scalars are rounded to 15 significant digits;
    multivector coefficient arrays are emitted at full precision so the
    JSON round-trips to bit-identical coefficients.  A non-finite number
    has no JSON form and raises ValueError.
    """
    if type(value) is Multivector:
        return _coeff_object(value)
    if isinstance(value, float):            # ahead of the .mv probe, which a float fails slowly
        if not math.isfinite(value):
            raise ValueError(f"result {value!r} is not finite")
        return _round_sig(value, 15)
    mv = value if isinstance(value, Multivector) else getattr(value, "mv", None)
    if isinstance(mv, Multivector):        # blade views and spinors carry .mv
        return _coeff_object(mv)
    if isinstance(value, int):              # bool included
        return value
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
    keys, lists, str, int, float, bool and None, NaN and Infinity included.

    The stdlib encoder runs in pure Python when it indents, so the text is
    written here.  A report of evaluate_scene's shape ({"space", "results":
    [{"name", "op", "value"}, ...]} with string names and ops) is written
    straight from that shape, and each value through the generic walk;
    any other tree takes the walk from its root.  The walk writes
    serialize_value's coefficient objects with one %-format per (space,
    blade names, indent), kept in a bounded cache.
    """
    if type(report) is dict and tuple(report) == _REPORT_KEYS:
        space, results = report["space"], report["results"]
        if type(space) is str and type(results) is list:
            out = ['{\n  "space": ', _STR(space), ',\n  "results": ']
            if _write_results(results, out):
                return "".join(out)
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


_STR = json.encoder.encode_basestring_ascii    # json.dumps' ensure_ascii quoting
_REPORT_KEYS = ("space", "results")
_RESULT_KEYS = ("name", "op", "value")
_RESULT = '%s\n    {\n      "name": %s,\n      "op": %s,\n      "value": '


def _write_results(results: list, out: List[str]) -> bool:
    """Append the results list and the report's end; False, with out
    unfinished, when a result is not a {"name", "op", "value"} dict with
    string name and op."""
    if not results:
        out.append("[]\n}\n")
        return True
    sep = "["
    for r in results:
        if type(r) is not dict or tuple(r) != _RESULT_KEYS:
            return False
        name, op, value = r["name"], r["op"], r["value"]
        if type(name) is not str or type(op) is not str:
            return False
        out.append(_RESULT % (sep, _STR(name), _STR(op)))
        _write_json(value, "\n      ", out)
        out.append("\n    }")
        sep = ","
    out.append("\n  ]\n}\n")
    return True


_FORMATS: Dict[Tuple[str, Tuple[str, ...], str], str] = {}
_FORMATS_MAX = 1024           # El3 alone has 2**16 blade-name patterns


def _coeff_text(obj: _CoeffObject, newline: str) -> str:
    """obj as json.dumps writes it at this indent, through the format cached
    for its space, blade names and indent; the cache starts over when full."""
    space, coeffs = obj["space"], obj["coeffs"]
    key = (space, tuple(coeffs), newline)
    fmt = _FORMATS.get(key)
    if fmt is None:
        if len(_FORMATS) >= _FORMATS_MAX:
            _FORMATS.clear()
        inner = newline + "  "
        body = ("{" + ",".join(f"{inner}  {_STR(n)}: %r" for n in key[1]) + inner + "}"
                if coeffs else "{}")
        fmt = _FORMATS[key] = f'{{{inner}"space": {_STR(space)},{inner}"coeffs": {body}{newline}}}'
    return fmt % tuple(coeffs.values())


def _write_json(x, newline: str, out: List[str]) -> None:
    """Append x as json.dumps(x, indent=2) writes it; newline carries the indent."""
    if type(x) is _CoeffObject:
        out.append(_coeff_text(x, newline))
    elif isinstance(x, str):
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
