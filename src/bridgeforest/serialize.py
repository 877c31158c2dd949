"""JSON projections of the toolkit's values and reports.

`dump(obj, fh)` writes, byte for byte, `json.dumps(plain, sort_keys=True,
indent=2)` of obj projected onto JSON types, in one walk.  A Fraction becomes
{"num": "...", "den": "..."} with string digits, so any precision survives.
Lists, tuples, sets and generators become lists, sets sorted.  Dicts and
dataclasses become objects keyed by `str(key)` (the last value wins where
keys collide).  None, bool, int, float and str, subclasses, NaN and
infinities included, are written as `json` writes them; other types raise
TypeError.  Keys and sets are sorted, so identical inputs give
byte-identical documents.

It writes the text as it is produced: it walks the outer object and any
generator among its values, and writes the text of each element as soon
as that element exists.  A report whose long list is a generator is never
held whole in memory.

`RunConfig` is the run configuration every CLI report embeds.  It is
defined here rather than in `cli`, so that parsing, `--version` and
`--help` never import dataclasses.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import chain
from types import GeneratorType

from . import __version__


@dataclasses.dataclass
class RunConfig:
    command: str
    options: dict
    threads: int = 1  # every run is serial; the field keeps reports unchanged
    version: str = __version__


def dump(obj, fh) -> None:
    """Write obj's text to fh, one outer element at a time."""
    for piece in _pieces(obj, "\n", True):
        fh.write(piece)


def _pieces(obj, nl: str, outer: bool):
    """obj's text in pieces: one per element of the outer dict or list and
    of a generator among the outer dict's values; any other value whole."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = _fields(obj)
    inner = nl + "  "
    if isinstance(obj, GeneratorType) or outer and isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for x in obj:
            yield sep + _text(x, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else nl + "]"
    elif outer and isinstance(obj, dict) and obj:
        sep = "{" + inner
        for k, v in _sorted_items(obj):
            value = _pieces(v, inner, False)
            yield f"{sep}{json.dumps(k)}: {next(value)}"
            yield from value
            sep = "," + inner
        yield nl + "}"
    else:
        yield _text(obj, nl)


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _sorted_items(obj: dict) -> list:
    return sorted({str(k): v for k, v in obj.items()}.items())


def _text(obj, nl: str) -> str:
    """obj's text, nested at the indent that nl (a newline) ends with."""
    if isinstance(obj, Fraction):
        obj = {"num": str(obj.numerator), "den": str(obj.denominator)}
    if obj is None or isinstance(obj, (int, float, str)):  # bool is an int
        return json.dumps(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple, set, frozenset, GeneratorType)):
        if isinstance(obj, (set, frozenset)):
            items = sorted(obj)
        else:
            items = obj if isinstance(obj, (list, tuple)) else list(obj)
        # plain ints or int pairs: C-level checks, then one join or one %
        types = set(map(type, items))
        pairs = types == {tuple} and set(map(len, items)) == {2}
        flat = tuple(chain.from_iterable(items)) if pairs else ()
        if types == {int}:
            parts = map(int.__repr__, items)
        elif set(map(type, flat)) == {int}:
            pair = f"[{inner}  %d,{inner}  %d{inner}]"
            return f"[{inner}{(',' + inner).join([pair] * len(items))}{nl}]" % flat
        else:
            parts = [_text(x, inner) for x in items]
        return f"[{inner}{(',' + inner).join(parts)}{nl}]" if items else "[]"
    if isinstance(obj, dict):
        items = _sorted_items(obj)
        parts = [f"{json.dumps(k)}: {_text(v, inner)}" for k, v in items]
        return f"{{{inner}{(',' + inner).join(parts)}{nl}}}" if items else "{}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _text(_fields(obj), nl)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
