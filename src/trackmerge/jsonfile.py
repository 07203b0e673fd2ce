"""The package's indented JSON files: selections.json, the eval report and
search.json. Each is written as ``json.dumps(obj, sort_keys=True, indent=2)
+ "\\n"`` writes it, without the pure-Python encoder that json selects
whenever ``indent`` is given.

``dumps`` lays out a value of dicts with string keys, lists and leaves.
Strings are escaped by json's own C function, and numbers are formatted as
json formats them, floats by float.__repr__. A NaN or an infinity raises
TrackmergeError, where json would write the invalid tokens NaN or Infinity.

A long list of one fixed shape, the search's candidates, is laid out by a
``template``: json lays out one sample of the shape, once, and its text is
kept as a format string with a slot per leaf, so each item costs one format
call. The list's text goes into ``dumps`` as ``Text``.
"""

from __future__ import annotations

import json
import math
import re
from itertools import count
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import TrackmergeError

SLOT = object()  # a leaf of a template's sample


class Text(str):
    """JSON text that ``dumps`` writes as it is, laid out for its depth."""


def number(x) -> str:
    """An int or a float as json writes it; NaN and infinities raise."""
    if type(x) is int:
        return int.__repr__(x)
    if not math.isfinite(x):
        raise TrackmergeError(f"{x!r} is not a JSON number")
    return float.__repr__(x)


def numbers(values) -> list:
    """number() of each value in the list ``values``; floats alone go
    through float.__repr__ in one C-level pass."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # not all floats
        return list(map(number, values))
    if not np.isfinite(np.fromiter(values, np.float64, len(values))).all():
        return list(map(number, values))  # raises, naming the value
    return texts


def array(items, depth=0) -> Text:
    """A list at ``depth`` of JSON texts laid out at depth + 1."""
    if not items:
        return Text("[]")
    inner = "\n" + "  " * (depth + 1)
    return Text("[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]")


def dumps(v, depth=0) -> str:
    """json.dumps(v, sort_keys=True, indent=2), laid out at ``depth``."""
    t = type(v)
    if t is dict:
        if not v:
            return "{}"
        inner = "\n" + "  " * (depth + 1)
        members = [_string(k) + ": " + dumps(v[k], depth + 1) for k in sorted(v)]
        return "{" + inner + ("," + inner).join(members) + "\n" + "  " * depth + "}"
    if t is list or t is tuple:
        return array([dumps(x, depth + 1) for x in v], depth)
    if t is str:
        return _string(v)
    if t is Text:
        return v
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    return number(v)


def template(sample, depth=0):
    """The layout of values shaped as ``sample``, whose leaves are SLOT, at
    ``depth``: a function of the leaves' JSON texts, in the order the sample
    lists them (depth first), that returns the value's text."""
    slots = count()

    def mark(v):  # a slot as a string that json writes as "\u0000<number>"
        if v is SLOT:
            return f"\0{next(slots)}"
        if isinstance(v, dict):
            return {k: mark(x) for k, x in v.items()}
        return [mark(x) for x in v]

    text = json.dumps(mark(sample), sort_keys=True, indent=2)
    text = text.replace("{", "{{").replace("}", "}}").replace("\n", "\n" + "  " * depth)
    return re.sub(r'"\\u0000(\d+)"', r"{\1}", text).format


def write(path, v):
    """Write dumps(v) and a final newline to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(v) + "\n")
