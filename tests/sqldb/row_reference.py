"""Row-at-a-time reference implementations of the executor's array kernels.

The executor evaluates three things as whole-array numpy operations that it
once evaluated one row at a time in Python.  The per-row versions are kept
here, verbatim in behaviour, as test-only references:

* the equi-join: per-row normalized keys (float64 or ``str``, tuples for
  multi-column keys) matched by a dict-of-lists build on the right side and
  a probe per left row;
* TEXT factorization: ``np.unique`` over an object array of ``str`` values;
* TEXT comparison: one Python comparison per element pair.

:func:`row_at_a_time` swaps them into the executor, so a statement can be
run both ways and the results compared.
"""

from __future__ import annotations

import contextlib

import numpy as np

import repro.sqldb.executor as executor
import repro.sqldb.expr_eval as expr_eval
from repro.sqldb.expr_eval import Vec
from repro.sqldb.types import SqlType


def reference_join_keys(
    left_keys: list[Vec], right_keys: list[Vec]
) -> tuple[list, list]:
    """Per-row hashable join keys; ``None`` marks a row with a NULL key."""

    def side(vecs: list[Vec]) -> list:
        valid = np.ones(len(vecs[0]), dtype=bool)
        for vec in vecs:
            if vec.mask is not None:
                valid &= ~vec.mask
        normalized = []
        for vec in vecs:
            if vec.sql_type is SqlType.TEXT:
                normalized.append(
                    np.array([str(v) for v in vec.data], dtype=object)
                )
            else:
                normalized.append(vec.data.astype(np.float64))
        if len(normalized) == 1:
            keys = list(normalized[0])
        else:
            keys = [tuple(row) for row in zip(*normalized)]
        return [key if ok else None for key, ok in zip(keys, valid)]

    return side(left_keys), side(right_keys)


def reference_match(left_keys: list, right_keys: list, admit=None):
    """Dict-of-lists build on the right, one probe per left row."""
    table: dict[object, list[int]] = {}
    for j, key in enumerate(right_keys):
        if key is not None:
            table.setdefault(key, []).append(j)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for i, key in enumerate(left_keys):
        if key is None:
            continue
        for j in table.get(key, ()):
            left_idx.append(i)
            right_idx.append(j)
    if admit is not None:
        admit(len(left_idx))
    return (
        np.array(left_idx, dtype=np.int64),
        np.array(right_idx, dtype=np.int64),
    )


def reference_text_codes(values: np.ndarray) -> np.ndarray:
    strings = np.array([str(v) for v in values], dtype=object)
    _, codes = np.unique(strings, return_inverse=True)
    return codes.astype(np.int64)


_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def reference_compare(left: Vec, right: Vec, op: str) -> Vec:
    lv, rv, common = expr_eval._coerce_pair(left, right)
    if common is SqlType.TEXT:
        lv = [str(v) for v in lv]
        rv = [str(v) for v in rv]
        result = np.array(
            [bool(_OPS[op](a, b)) for a, b in zip(lv, rv)], dtype=bool
        )
    else:
        result = _OPS[op](lv, rv)
    mask = expr_eval._combined_mask(left, right)
    if mask is not None:
        result = result & ~mask
    return Vec(np.asarray(result, dtype=bool), mask, SqlType.BOOLEAN)


@contextlib.contextmanager
def row_at_a_time(calls: dict[str, int] | None = None):
    """Run the executor on the row-at-a-time references inside the block.

    *calls*, if given, counts how often each reference ran, so a caller can
    check that its statements actually reached the swapped kernels.
    """

    def counted(name, function):
        def wrapper(*args):
            if calls is not None:
                calls[name] = calls.get(name, 0) + 1
            return function(*args)

        return wrapper

    patches = [
        (executor, "join_key_codes", counted("join", reference_join_keys)),
        (executor, "match_join_codes", reference_match),
        (executor, "_text_codes", counted("text_codes", reference_text_codes)),
        (expr_eval, "_compare", counted("compare", reference_compare)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
