"""Deterministic JSON/CSV emission.

Floats are always written with 17 significant digits so that identical runs
produce byte-identical artifacts regardless of platform repr quirks.
"""
from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        raise ValueError("refusing to serialize infinity")
    return format(x, ".17g")


def format_floats(values: Iterable[float]) -> list[str]:
    """``format_float`` of every value, in one pass over the sequence."""
    out = [format(x, ".17g") for x in map(float, values)]
    if "inf" in out or "-inf" in out:
        raise ValueError("refusing to serialize infinity")
    if "nan" in out:
        out = ["null" if x == "nan" else x for x in out]
    return out


def _dump(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _dump(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (float, np.floating)) for v in seq):
            inner = pad + "  "
            out.append("[\n" + inner + (",\n" + inner).join(format_floats(seq)))
            out.append("\n" + pad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _dump(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj: Any) -> str:
    out: list[str] = []
    _dump(obj, out, 0)
    out.append("\n")
    return "".join(out)


def dump_json(obj: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable[float]]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_floats(row)) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data
