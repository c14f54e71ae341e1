"""Byte-for-byte tests of the 17-digit JSON emitter.

``oracle_dumps_json`` is the emitter as it was before lists of numbers were
formatted with one %-template: one recursive call per value. The new
``dumps_json`` must write the same bytes for every document whose strings
and keys hold no control characters (the oracle wrote those unescaped,
which is not JSON).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    decompose_unitary,
    decompose_xu,
    haar_unitary,
    random_xu,
    verify,
)
from xubirkhoff.cli import main
from xubirkhoff.numerics import dumps_json, matrix_to_json
from xubirkhoff.permsum import perm_sum_to_json


def _oracle_format_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError("cannot serialize non-finite number")
    return format(f, ".17g")


def oracle_dumps_json(value, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, (bool, int, float)):
        return _oracle_format_number(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [oracle_dumps_json(v, indent + 2) for v in value]
        if all(isinstance(v, (bool, int, float)) for v in value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}"{k}": {oracle_dumps_json(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def oracle_matrix_to_json(a) -> dict:
    n = a.shape[0]
    entries = [
        [[float(a[k, l].real), float(a[k, l].imag)] for l in range(n)]
        for k in range(n)
    ]
    return {"dim": n, "entries": entries}


# -- strategies ---------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1.0 / 3.0]
)
ints = st.integers() | st.integers(-(10**30), 10**30)
# No control characters: the oracle did not escape them.
printable = st.characters(min_codepoint=0x20, blacklist_categories=("Cs",))
texts = st.text(printable, max_size=8)
# Nor did it escape quotes or backslashes in keys.
keys = st.text(printable.filter(lambda c: c not in '"\\'), max_size=6)
leaves = (
    st.none()
    | st.booleans()
    | ints
    | finite
    | texts
    | finite.map(np.float64)
)
numbers = st.lists(finite, max_size=8) | st.lists(ints, max_size=8) | st.lists(
    st.booleans() | ints | finite, max_size=6
)
documents = st.recursive(
    leaves | numbers,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents, st.sampled_from([0, 2]))
def test_byte_identical_to_oracle(doc, indent):
    assert dumps_json(doc, indent) == oracle_dumps_json(doc, indent)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(finite, min_size=1, max_size=40), st.sampled_from([0, 2]))
def test_float_lists_byte_identical(values, indent):
    doc = {"floats": values, "pairs": [values[:2], tuple(values[-2:])]}
    assert dumps_json(doc, indent) == oracle_dumps_json(doc, indent)


def _documents():
    """Every kind of document the CLI writes, at sizes 2..13 (decompositions
    only where the closed-form or recursive engines are fast)."""
    docs = []
    for n in range(2, 14):
        x = random_xu(n, seed=n)
        docs.append(matrix_to_json(x))
        if n <= 7 or n in (11, 13):
            s = decompose_xu(x)
            d = perm_sum_to_json(s)
            d["report"] = verify(s, x).to_json()
            docs += [d, d["report"]]
        if n <= 5:
            u = haar_unitary(n, seed=n)
            s = decompose_unitary(u)
            d = perm_sum_to_json(s)
            d["report"] = verify(s, u).to_json()
            docs.append(d)
    return docs


@pytest.mark.parametrize("indent", [0, 2])
def test_package_documents_byte_identical(indent):
    for doc in _documents():
        assert dumps_json(doc, indent) == oracle_dumps_json(doc, indent)


@pytest.mark.parametrize("n", [2, 5, 12, 31])
def test_matrix_to_json_unchanged(n):
    a = haar_unitary(n, seed=n)
    a[0, 0] = -0.0 + 0.0j
    new, old = matrix_to_json(a), oracle_matrix_to_json(a)
    assert new == old
    assert dumps_json(new) == oracle_dumps_json(old)


def test_cli_documents_byte_identical(tmp_path):
    """The files ``sample``, ``decompose`` and ``verify`` write are what the
    oracle writes for the same data, with a trailing newline."""
    m, d, r = (str(tmp_path / f) for f in ("m.json", "d.json", "r.json"))
    for n in (4, 5, 11):
        argv = ["sample", str(n), "--kind", "xu", "--seed", "1", "--output", m]
        assert main(argv) == 0
        assert main(["decompose", m, "--output", d]) == 0
        assert main(["verify", d, m, "--output", r]) == 0
        for path in (m, d, r):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text == oracle_dumps_json(json.loads(text)) + "\n"


def test_layout():
    doc = {
        "n": 2,
        "engine": "xu2",
        "terms": [{"perm": [1, 2], "weight": [0.75, -0.0]}],
        "flags": {"ok": True},
        "none": None,
        "empty": [],
        "nested": [[1, 2.5], []],
    }
    assert dumps_json(doc) == (
        "{\n"
        '  "n": 2,\n'
        '  "engine": "xu2",\n'
        '  "terms": [\n'
        "    {\n"
        '      "perm": [1, 2],\n'
        '      "weight": [0.75, -0]\n'
        "    }\n"
        "  ],\n"
        '  "flags": {\n'
        '    "ok": true\n'
        "  },\n"
        '  "none": null,\n'
        '  "empty": [],\n'
        '  "nested": [\n'
        "    [1, 2.5],\n"
        "    []\n"
        "  ]\n"
        "}"
    )
    assert dumps_json([0.1, 1e308, 5e-324]) == (
        "[0.10000000000000001, 1e+308, 4.9406564584124654e-324]"
    )


@pytest.mark.parametrize(
    "s",
    [
        "a\nb",
        "tab\there",
        'quote " and \\ backslash',
        "\x00\x1f\x7f",
        "Ünïcødé ∑ 🙂",
        "",
    ],
)
def test_strings_and_keys_round_trip(s):
    doc = {s: s, "list": [s, {s: [s]}]}
    text = dumps_json(doc, 2)
    assert json.loads(text) == doc
    assert dumps_json(s) == json.dumps(s, ensure_ascii=False)


@pytest.mark.parametrize(
    "doc",
    [
        [1.0, math.nan],
        [math.inf],
        (0.5, -math.inf),
        {"a": [2.0, 3.0, math.nan]},
        [1, math.nan],
        math.inf,
        [np.float64(math.nan)],
    ],
)
def test_non_finite_rejected(doc):
    with pytest.raises(ValueError):
        oracle_dumps_json(doc)
    with pytest.raises(ValueError):
        dumps_json(doc)


@pytest.mark.parametrize(
    "doc", [np.int64(3), [np.int64(1), np.int64(2)], {"k": np.int64(0)}]
)
def test_numpy_int_rejected(doc):
    with pytest.raises(TypeError):
        oracle_dumps_json(doc)
    with pytest.raises(TypeError):
        dumps_json(doc)


def test_peak_memory_of_a_large_document():
    """Emitting the 961-term n = 31 decomposition holds the items and one
    joined copy, not a copy per nesting level (the oracle peaked at about
    3.5 times the output)."""
    x = random_xu(31, seed=3)
    s = decompose_xu(x)
    doc = perm_sum_to_json(s)
    doc["report"] = verify(s, x).to_json()
    tracemalloc.start()
    try:
        text = dumps_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 150_000
    assert peak < 2.5 * len(text)
