"""Serialization: the one CSV writer and the one JSON writer that every voxbench table and report goes through.

All floats are written with six significant digits so repeated runs of the
same seed compare byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Accuracy/distinguishability figures from the original comparative study.
# Shipped for side-by-side display only: they were measured on that study's
# private 15-speaker corpus and are not comparable to synthetic runs.
REFERENCE_NOTE = (
    "reference results from the original comparative study "
    "(different, private corpus; never an assertion target)"
)

REFERENCE_ACCURACY = {
    "sne": {
        "complex tree": {"mfcc": 51.2, "lpcc": 33.4, "plp": 44.0},
        "weighted knn": {"mfcc": 68.9, "lpcc": 51.3, "plp": 66.3},
        "fine svm": {"mfcc": 57.9, "lpcc": 38.0, "plp": 52.8},
        "feed forward": {"mfcc": 51.5, "lpcc": 47.0, "plp": 50.3},
        "bagged trees": {"mfcc": 67.4, "lpcc": 47.3, "plp": 66.2},
    },
    "pca": {
        "complex tree": {"mfcc": 20.2, "lpcc": 22.1, "plp": 24.0},
        "weighted knn": {"mfcc": 17.1, "lpcc": 25.0, "plp": 26.4},
        "fine svm": {"mfcc": 23.0, "lpcc": 18.5, "plp": 22.0},
        "feed forward": {"mfcc": 18.0, "lpcc": 17.5, "plp": 20.0},
        "bagged trees": {"mfcc": 13.7, "lpcc": 18.6, "plp": 22.4},
    },
}

REFERENCE_DISTINGUISHABLE = {
    "sne": {
        "complex tree": {"mfcc": 4, "lpcc": 2, "plp": 3},
        "weighted knn": {"mfcc": 7, "lpcc": 5, "plp": 7},
        "fine svm": {"mfcc": 6, "lpcc": 2, "plp": 6},
        "feed forward": {"mfcc": 4, "lpcc": 3, "plp": 5},
        "bagged trees": {"mfcc": 7, "lpcc": 5, "plp": 7},
    },
    "pca": {
        "complex tree": {"mfcc": 2, "lpcc": 1, "plp": 2},
        "weighted knn": {"mfcc": 1, "lpcc": 1, "plp": 2},
        "fine svm": {"mfcc": 1, "lpcc": 1, "plp": 1},
        "feed forward": {"mfcc": 2, "lpcc": 1, "plp": 1},
        "bagged trees": {"mfcc": 1, "lpcc": 1, "plp": 1},
    },
}

REFERENCE_SCALING = {
    "speakers": [2, 3, 4, 5, 6, 7],
    "mfcc": [87.2, 81.2, 74.5, 69.7, 67.1, 66.9],
    "lpcc": [81.3, 70.0, 60.2, 54.9, 53.1, 49.1],
    "plp": [86.2, 79.6, 74.6, 70.4, 68.5, 66.3],
}


ROW_BLOCK = 64  # rows of a 2-D float array formatted per write; one block's text is the writer's largest piece


def format_float(x: float) -> str:
    return f"{x:.6g}"


def round_floats(value):
    """Recursively round floats to six significant digits.

    json.dump of the result is what write_report_json writes, without building the copy.
    """
    if isinstance(value, float):
        return float(format_float(value))
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def write_csv(path, header, rows) -> None:
    """The header row, then each row, in the default csv dialect (\\r\\n line ends, minimal quoting).

    Callers format their own floats with format_float.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_json(report: dict, path) -> None:
    """report with round_floats applied, as indented JSON with sorted keys and a final newline.

    The bytes are those of json.dump(round_floats(report), fh, indent=2,
    sort_keys=True) plus "\n", with ndarrays read as their tolist(). Each float
    is rounded as it is written, so no rounded copy of the report is built.
    """
    with open(path, "w") as fh:
        fh.reconfigure(write_through=True)  # hand each piece to the byte buffer, not to a list of pending str objects
        _write_json(fh.write, report, 0)
        fh.write("\n")


def _write_json(write, value, depth: int) -> None:
    """Write value as json.dump(round_floats(value), indent=2, sort_keys=True) writes it at nesting depth.

    An ndarray is written as its tolist(): a 2-D float array (a ROC curve)
    ROW_BLOCK rows per write, any other one row at a time.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype.kind == "f":
            _write_float_rows(write, value, depth)
            return
        if value.ndim < 2:
            value = value.tolist()
    if isinstance(value, float):
        write(_json_float(float(format_float(value))))
    elif isinstance(value, str) or value is None or isinstance(value, int):
        write(json.dumps(value))
    elif isinstance(value, dict):
        separator = "{\n" + "  " * (depth + 1)
        for key, item in sorted(value.items()):
            write(separator + json.dumps(_json_key(key)) + ": ")
            _write_json(write, item, depth + 1)
            separator = ",\n" + "  " * (depth + 1)
        write("\n" + "  " * depth + "}" if value else "{}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        separator = "[\n" + "  " * (depth + 1)
        for item in value:
            write(separator)
            _write_json(write, item, depth + 1)
            separator = ",\n" + "  " * (depth + 1)
        write("\n" + "  " * depth + "]" if len(value) else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_float_rows(write, array: np.ndarray, depth: int) -> None:
    """Write a 2-D float array at nesting depth as _write_json writes its tolist(), ROW_BLOCK rows per write."""
    if not len(array):
        write("[]")
        return
    row_separator = ",\n" + "  " * (depth + 1)
    item_separator = ",\n" + "  " * (depth + 2)
    row_open, row_close = "[\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1) + "]"

    def row_text(row: list) -> str:
        items = item_separator.join(_json_float(float(format_float(x))) for x in row)
        return row_open + items + row_close if row else "[]"

    separator = "[\n" + "  " * (depth + 1)
    for start in range(0, len(array), ROW_BLOCK):
        write(separator + row_separator.join(map(row_text, array[start : start + ROW_BLOCK].tolist())))
        separator = row_separator
    write("\n" + "  " * depth + "]")


def _json_key(key) -> str:
    """A dict key as json.dump names it: a str as is, an int, float, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_float(x: float) -> str:
    """x as json.dump writes a float: NaN, Infinity and -Infinity by name, else its repr."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return repr(x)


def load_report_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


__all__ = [
    "REFERENCE_ACCURACY",
    "REFERENCE_DISTINGUISHABLE",
    "REFERENCE_NOTE",
    "REFERENCE_SCALING",
    "format_float",
    "load_report_json",
    "round_floats",
    "write_csv",
    "write_report_json",
]
