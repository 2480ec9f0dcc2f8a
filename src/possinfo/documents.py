"""Textual document formats and CSV emission.

Documents are JSON objects; numbers serialize with 17 significant digits
so that every binary64 value round-trips bit-exactly.  Output is
locale-independent: '.' decimal separator, '\\n' line endings, no
timestamps.  [x, v] point arrays are read into one float array and written in
one format pass, with the values, bytes and messages of the per-pair paths.
"""

import json
import math
from itertools import chain

import numpy as np

from .approximation import ConvergenceSeries
from .continuous import PiecewisePossibility
from .discrete import DiscreteDistribution
from .errors import SchemaError
from .inference import InferenceProblem, LinearConstraint, MaxU, MinDistance
from .measures import Tau

_JSON_NUMBERS = {int, float}  # the exact types json.loads gives numbers (bool is not one here)


def _fmt_number(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


def _points_json(xs, vs):
    """The JSON array ``[[x, v], ...]`` of a curve's breakpoints, as ``_emit_json`` writes it."""
    flat = np.column_stack((xs, vs)).ravel().tolist()
    # one pass; '%.17g' writes the bytes format(x, ".17g") does, and curve values are finite
    return "[" + ", ".join(["[%.17g, %.17g]"] * len(xs)) % tuple(flat) + "]"


def _emit_json(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (int, float)):
        return _fmt_number(value)
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(str(k), ensure_ascii=False)}: {_emit_json(v)}"
            for k, v in value.items()
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_int(literal):
    # an integer past the float range decodes as +-inf, as the literal 1e400 does
    x = float(literal)
    return x if math.isinf(x) else int(literal)


def _load(text):
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid document at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise SchemaError("invalid document: arrays and objects nest too deeply") from None


def _construct(make, *args, where=""):
    """``make(*args)``, with a ``ValueError`` re-raised as ``SchemaError`` prefixed by ``where``."""
    try:
        return make(*args)
    except ValueError as e:
        raise SchemaError(f"{where}{e}") from None


def _expect_object(doc):
    if not isinstance(doc, dict):
        raise SchemaError(f"document root must be an object, got {type(doc).__name__}")
    return doc


def _field(doc, name, where="document"):
    if name not in doc:
        raise SchemaError(f"{where} is missing required field {name!r}")
    return doc[name]


def _raise_first_non_number(items, where):
    for i, v in enumerate(items):
        if type(v) not in _JSON_NUMBERS:
            raise SchemaError(f"{where}[{i}] must be a number, got {v!r}")


def _number_list(raw, where):
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be an array")
    if not set(map(type, raw)) <= _JSON_NUMBERS:
        _raise_first_non_number(raw, where)
    return list(map(float, raw))


def _labels(doc):
    labels = _field(doc, "labels")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise SchemaError("'labels' must be an array of strings")
    return tuple(labels)


def _point_list(raw, where):
    """Decoded JSON ``[[x, v], ...]`` as an (n, 2) float array; the first malformed pair raises."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be an array of [x, v] pairs")
    if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
        flat = list(chain.from_iterable(raw))
        if set(map(type, flat)) <= _JSON_NUMBERS:
            return np.array(flat, dtype=float).reshape(-1, 2)
    # a failed pass has a first bad pair, which this scan names
    for i, pair in enumerate(raw):
        if type(pair) is not list or len(pair) != 2:
            raise SchemaError(f"{where}[{i}] must be a two-element array")
        _raise_first_non_number(pair, f"{where}[{i}]")


def parse_distribution(text):
    """Parse a distribution document into its in-memory value.

    Accepts kinds "discrete" and "piecewise_linear"; malformed documents
    raise ``SchemaError`` with a position or field diagnostic.
    """
    return _distribution(_load(text))


def _distribution(doc):
    """The value of a decoded distribution document."""
    doc = _expect_object(doc)
    kind = _field(doc, "kind")
    if kind == "discrete":
        labels = _labels(doc)
        return _construct(DiscreteDistribution, labels, _number_list(_field(doc, "values"), "'values'"))
    if kind == "piecewise_linear":
        return _construct(PiecewisePossibility, _point_list(_field(doc, "points"), "'points'"))
    raise SchemaError(f"unknown distribution kind {kind!r}")


def parse_tau(text):
    doc = _expect_object(_load(text))
    if _field(doc, "kind") != "tau":
        raise SchemaError("expected a document with kind 'tau'")
    return _construct(Tau, _point_list(_field(doc, "points"), "'points'"))


def parse_problem(text):
    """Parse an inference problem document."""
    doc = _expect_object(_load(text))
    labels = _labels(doc)
    raw_constraints = _field(doc, "constraints")
    if not isinstance(raw_constraints, list):
        raise SchemaError("'constraints' must be an array")
    constraints = []
    for i, c in enumerate(raw_constraints):
        where = f"constraints[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(f"{where} must be an object")
        coeffs = _number_list(_field(c, "coefficients", where), f"{where}.coefficients")
        relation = _field(c, "relation", where)
        bound = _field(c, "bound", where)
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise SchemaError(f"{where}.bound must be a number")
        row = (tuple(coeffs), relation, float(bound))
        constraints.append(_construct(LinearConstraint, *row, where=f"{where}: "))
    raw_obj = _field(doc, "objective")
    if not isinstance(raw_obj, dict):
        raise SchemaError("'objective' must be an object")
    obj_type = _field(raw_obj, "type", "'objective'")
    if obj_type == "max_u":
        objective = MaxU()
    elif obj_type == "min_distance":
        metric = raw_obj.get("metric", "G")
        prior_doc = _field(raw_obj, "prior", "'objective'")
        prior = _distribution(prior_doc)
        if not isinstance(prior, DiscreteDistribution):
            raise SchemaError("'objective.prior' must be a discrete distribution")
        objective = _construct(MinDistance, prior, metric, where="'objective': ")
    else:
        raise SchemaError(f"unknown objective type {obj_type!r}")
    require_normalized = doc.get("require_normalized", True)
    if not isinstance(require_normalized, bool):
        raise SchemaError("'require_normalized' must be a boolean")
    return _construct(
        InferenceProblem, labels, tuple(constraints), objective, require_normalized
    )


def serialize_distribution(obj, metadata=None):
    """Serialize a distribution (discrete or piecewise-linear) to its document."""
    if isinstance(obj, DiscreteDistribution):
        labels = _emit_json([str(l) for l in obj.labels])
        body = f'"kind": "discrete", "labels": {labels}, "values": {_emit_json(list(obj.values))}'
    elif isinstance(obj, PiecewisePossibility):
        body = f'"kind": "piecewise_linear", "points": {_points_json(obj.xs, obj.vs)}'
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if metadata:
        body += f', "metadata": {_emit_json(dict(metadata))}'
    return f"{{{body}}}\n"


def serialize_tau(tau):
    return f'{{"kind": "tau", "points": {_points_json(tau.xs, tau.vs)}}}\n'


def emit_csv(data, path):
    """Write a convergence series or an (x, v) curve sample as CSV."""
    if isinstance(data, ConvergenceSeries):
        header = "n,u,approx_info"
        rows = [
            f"{e.n},{_fmt_number(e.u_value)},{_fmt_number(e.approx_info)}" for e in data
        ]
    else:
        header = "x,v"
        rows = [f"{_fmt_number(x)},{_fmt_number(v)}" for x, v in data]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *rows]))
        fh.write("\n")
