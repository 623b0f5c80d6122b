"""Number and JSON rendering shared by the report, trace and export writers."""

import numpy as np


def fmt17(x: float) -> str:
    """A float in 17 significant digits, enough to read back bit-exactly."""
    return f"{float(x):.17g}"


def jsonable(obj):
    """``obj`` with numpy values, complex numbers and ``to_json`` objects made plain JSON."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return obj
