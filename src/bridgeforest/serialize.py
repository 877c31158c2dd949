"""JSON projections of the toolkit's values and reports.

Exact rationals serialize as {"num": "...", "den": "..."} with string
digits so arbitrary precision survives any JSON reader; everything else
maps to plain JSON types.  Output is deterministic (sorted keys, no
timestamps), so identical inputs give byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction


def jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, frozenset):
        return sorted(jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)
