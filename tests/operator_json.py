"""The operator JSON writer: the inverse of :func:`vicert.operators.operator_from_json`.

The library only loads operator files; the tests write them, to pin that
every float64 entry survives the round trip bit for bit (``json`` writes
each float's shortest repr, which reads back exactly).
"""

import json

from vicert.errors import BadParameters
from vicert.operators import Affine, Constants, CustomTable, LogisticGrad, Operator


def constants_to_json(c: Constants) -> dict:
    names = (("L", c.lipschitz), ("Lambda", c.jac_lipschitz), ("ell", c.cocoercivity))
    return {name: value for name, value in names if value is not None}


def operator_to_json(op: Operator) -> dict:
    out: dict = {"kind": op.kind}
    if isinstance(op, Affine):
        out["A"] = op.matrix.tolist()
        out["b"] = op.offset.tolist()
    elif isinstance(op, LogisticGrad):
        out["a"] = op.a
        out["delta"] = op.delta
    elif isinstance(op, CustomTable):
        out["points"] = [[x.tolist(), fx.tolist()] for x, fx in op.points]
    else:
        raise BadParameters(f"operator kind {op.kind!r} is not serializable")
    constants = constants_to_json(op.constants)
    if constants:
        out["constants"] = constants
    return out


def save_operator(op: Operator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_json(op), fh, indent=2)
        fh.write("\n")
