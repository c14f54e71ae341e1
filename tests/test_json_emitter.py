"""Byte-for-byte tests of the 17-digit JSON emitter.

``oracle_dumps_json`` is the emitter as it was before lists of numbers
were formatted with %-templates: one recursive call per value, with the
later rule that -0.0 is written as ``-0.0``. ``dumps_json`` must write the
same bytes, and raise the same error, for every document whose strings
and keys hold no control characters (the oracle wrote those unescaped,
which is not JSON). The block strategies below draw lists of rows and of
dicts of rows, with an odd leaf or shape, nan and inf, and odd keys.

A complex array must write what ``dumps_json`` writes for its
``json_pairs``, and ``decompose``'s document from the sum's arrays
(``permsum._perm_sum_text``) what it writes for ``perm_sum_to_json`` with
the report added.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    WeightedPermSum,
    decompose_unitary,
    decompose_xu,
    haar_unitary,
    random_xu,
    verify,
)
from xubirkhoff.cli import main
from xubirkhoff.numerics import (
    _int_table,
    dumps_json,
    json_pairs,
    matrix_from_json,
    matrix_to_json,
)
from xubirkhoff.permsum import _perm_sum_text, perm_sum_to_json


def _oracle_format_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError("cannot serialize non-finite number")
    text = format(f, ".17g")
    return "-0.0" if text == "-0" else text


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


# Blocks of lists: two or more equal-length rows of ints, floats or bools,
# or dicts with the same keys whose values are such rows, up to three
# 64-element chunks long. Each test case makes one change of a kind below
# ("none" makes none), which the list path must write, or refuse, as the
# oracle does.
CHUNK = 64
ODD_LEAVES = {
    "bool": lambda v: True,
    "np.int64": lambda v: np.int64(3),
    "np.float64": lambda v: np.float64(0.5),
    "other number": lambda v: 0.5 if isinstance(v, int) else 3,
    "nan": lambda v: math.nan,
    "inf": lambda v: -math.inf,
    "-0.0": lambda v: -0.0,
    "None": lambda v: None,
    "row": lambda v: [v],
}
ROW_CHANGES = ["none", *ODD_LEAVES, "length", "container", "range"]
# Keys a template cannot hold, and two it can.
SPECIAL_KEYS = ["%", "a%d", "-0,", "x-0]", "-0", "nan", "inf", "perm", "weight"]
DICT_CHANGES = [
    *ROW_CHANGES,
    "key order",
    "missing key",
    "int keys",
    *(f"key {k}" for k in SPECIAL_KEYS),
]


@st.composite
def rows(draw, count, k):
    """``count`` rows of ``k`` ints, floats or bools, drawn from a small
    pool, so that blocks of several chunks stay cheap to draw."""
    leaf = draw(st.sampled_from([finite, ints, st.booleans()]))
    pool = draw(st.lists(leaf, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [[rng.choice(pool) for _ in range(k)] for _ in range(count)]


@st.composite
def positions(draw, count, k):
    """A row and a place in it: often the first or the last number of a
    chunk, or of the block."""
    edges = [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, count - 1]
    row = draw(st.sampled_from(edges) | st.integers(0, count - 1))
    place = draw(st.sampled_from([0, k - 1]) | st.integers(0, k - 1))
    return min(row, count - 1), place


def _changed(block, pos, change, as_tuple):
    """``block`` of rows, as tuples with ``as_tuple``, with ``change`` made
    at ``pos`` (a row and a place in it)."""
    if as_tuple:
        block = list(map(tuple, block))
    row, place = pos
    if change in ODD_LEAVES:
        line = list(block[row])
        line[place] = ODD_LEAVES[change](line[place])
        block[row] = type(block[row])(line)
    elif change == "length":
        block[row] = block[row] + block[row][:1]
    elif change == "container":
        block[row] = list(block[row]) if as_tuple else tuple(block[row])
    elif change == "range":
        block[row] = range(len(block[row]))
    return block


@st.composite
def blocks(draw, change, dicts):
    count = draw(st.integers(2, 3 * CHUNK + 2))
    as_tuple = draw(st.booleans())
    if not dicts:
        k = draw(st.integers(1, 4))
        pos = draw(positions(count, k))
        block = _changed(draw(rows(count, k)), pos, change, as_tuple)
        return tuple(block) if draw(st.booleans()) else block
    plain = keys.filter(lambda key: key not in SPECIAL_KEYS)
    names = draw(st.lists(plain, min_size=1, max_size=3, unique=True))
    where = draw(st.integers(0, len(names) - 1))
    if change.startswith("key "):
        names[where] = change[len("key ") :]
    columns = [draw(rows(count, draw(st.integers(1, 4)))) for _ in names]
    pos = draw(positions(count, len(columns[where][0])))
    columns = [
        _changed(c, pos, change if i == where else "none", as_tuple)
        for i, c in enumerate(columns)
    ]
    block = [dict(zip(names, values)) for values in zip(*columns)]
    d = block[pos[0]]
    if change == "key order":
        block[pos[0]] = dict(reversed(d.items()))
    elif change == "missing key":
        del d[names[where]]
    elif change == "int keys":
        # Equal keys, 1 and True, that are not strs and print unlike.
        for e in block:
            e[True if e is d else 1] = e.pop(names[where])
    return tuple(block) if draw(st.booleans()) else block


def _outcome(dump, doc, indent):
    """The text ``dump`` writes, or the type of the error it raises."""
    try:
        return dump(doc, indent)
    except (TypeError, ValueError) as e:
        return type(e)


@pytest.mark.parametrize(
    "dicts, change",
    [(False, c) for c in ROW_CHANGES] + [(True, c) for c in DICT_CHANGES],
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), indent=st.sampled_from([0, 2]), nested=st.booleans())
def test_blocks_byte_identical_to_oracle(dicts, change, data, indent, nested):
    block = data.draw(blocks(change, dicts))
    doc = {"block": block, "tail": [block[0]]} if nested else block
    assert _outcome(dumps_json, doc, indent) == _outcome(oracle_dumps_json, doc, indent)


# Complex arrays: each must write what its json_pairs write, as the whole
# document and nested in others, at any indent.
ARRAY_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
SIZES = st.sampled_from([0, 1, 2, 63, 64, 65, 129, 140]) | st.integers(0, 140)


@st.composite
def complex_arrays(draw):
    """A complex128 array of shape (k,) or (n, m), sizes 0 to 140, whose
    parts come from a small drawn pool of edge and ordinary floats; a 2-D
    one is sometimes a transposed, non-contiguous view."""
    shape = tuple(draw(st.lists(SIZES, min_size=1, max_size=2)))
    pool = draw(st.lists(finite | st.sampled_from(ARRAY_PARTS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.choice(np.array(pool), size=(*shape, 2))
    a = parts.view(complex).reshape(shape)
    if len(shape) == 2 and draw(st.booleans()):
        a = a.T
    return a


def _nestings(x):
    """``x`` as the document, as a member, and deeper in lists and dicts."""
    return [x, {"x": x}, [{"a": [1, x]}, {"b": {"c": x}}]]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(complex_arrays(), st.integers(0, 6))
def test_arrays_byte_identical_to_their_pairs(a, indent):
    pairs = json_pairs(a)
    for doc, reference in zip(_nestings(a), _nestings(pairs)):
        assert dumps_json(doc, indent) == dumps_json(reference, indent)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    complex_arrays().filter(lambda a: a.size),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
)
def test_arrays_refuse_non_finite_parts(a, bad, seed, indent):
    parts = np.array(json_pairs(a))
    parts.reshape(-1)[np.random.default_rng(seed).integers(parts.size)] = bad
    a = parts.view(complex).reshape(a.shape)
    for doc, reference in zip(_nestings(a), _nestings(json_pairs(a))):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json(reference, indent)
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json(doc, indent)


@pytest.mark.parametrize("shape", [(2, 0, 3), (0, 2), (3, 2, 4), (1, 1, 1, 1)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_arrays_of_any_rank_and_complex64(shape, dtype):
    a = (np.arange(np.prod(shape)) - 2.5 - 1j).reshape(shape).astype(dtype)
    for indent in (0, 3):
        assert dumps_json({"a": a}, indent) == dumps_json({"a": json_pairs(a)}, indent)


@pytest.mark.parametrize(
    "doc",
    [
        np.zeros(3),
        np.arange(4).reshape(2, 2),
        np.array(1 + 2j),
        np.zeros((2, 2), dtype=np.clongdouble),
        {"m": np.array([True])},
    ],
)
def test_other_arrays_rejected(doc):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_json(doc)


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


# Every --method at a size it takes, auto up to n = 31, and prime n = 131,
# whose image rows are int32 with three-digit entries.
CLI_RUNS = [
    *((n, "auto") for n in (1, 2, 3, 4, 5, 11, 17, 31, 131)),
    *((n, "recursive") for n in (6, 7, 8, 12)),
    (2, "xu2"),
    (3, "xu3"),
    (4, "xu4"),
    (5, "prime"),
]


def test_cli_documents_byte_identical(tmp_path):
    """The files ``sample``, ``decompose``, ``verify`` and ``scale`` write
    are what the oracle writes for the same data, with a trailing newline:
    ``decompose`` writes from the sum's arrays, every other command through
    ``dumps_json``."""
    m, d, r, c = (str(tmp_path / f) for f in ("m.json", "d.json", "r.json", "c.json"))
    for n, method in CLI_RUNS:
        # An XU(1) is a circulant one; the xu sampler starts at n = 2.
        kind = "circulant_xu" if n == 1 else "xu"
        argv = ["sample", str(n), "--kind", kind, "--seed", "1", "--output", m]
        assert main(argv) == 0
        assert main(["decompose", m, "--method", method, "--output", d]) == 0
        assert main(["verify", d, m, "--output", r]) == 0
        assert main(["scale", m, "--output", c]) == 0
        for path in (m, d, r, c):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text == oracle_dumps_json(json.loads(text)) + "\n", (n, method, path)


# sample at sizes past one and two 64-row chunks, scale at the closed-form
# size 2 and two iterated ones, and transfer: every command that writes a
# complex array from the array itself.
ARRAY_COMMANDS = [
    *(["sample", str(n), "--kind", "unitary"] for n in (1, 2, 4, 31, 131)),
    *(["scale", f"u{n}.json"] for n in (2, 7, 31)),
    ["transfer", "5", "1", "2"],
    ["transfer", "31", "3", "7"],
]


def test_cli_array_documents_byte_identical(tmp_path, monkeypatch):
    """The files written from complex arrays are fixed points of the list
    path: ``dumps_json`` of the lists they read back as."""
    monkeypatch.chdir(tmp_path)
    for n in (2, 7, 31):
        argv = ["sample", str(n), "--kind", "unitary", "--seed", "4"]
        assert main([*argv, "--output", f"u{n}.json"]) == 0
    for argv in ARRAY_COMMANDS:
        assert main([*argv, "--output", "out.json"]) == 0
        text = (tmp_path / "out.json").read_text(encoding="utf-8")
        assert text == dumps_json(json.loads(text)) + "\n", argv


def _generic_text(s, report):
    return dumps_json({**perm_sum_to_json(s), "report": report})


# Weight parts: any finite float, and the edges of the %.17g forms.
EDGE_PARTS = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0]
weight_parts = finite | st.sampled_from(EDGE_PARTS)


@st.composite
def array_sums(draw):
    """A ``WeightedPermSum.from_arrays`` sum of 0 to 40 random rows at n = 1
    to 140 (int32 rows from n = 128), rewrapped with drawn weights as an
    engine wraps its arrays, so that -0.0 parts, which a merge turns into
    0.0, reach the writer too; its engine label is any text."""
    n = draw(st.integers(1, 140))
    k = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = np.array([rng.permutation(n) for _ in range(k)], dtype=int).reshape(k, n)
    engine = draw(st.text(max_size=8))
    rows = WeightedPermSum.from_arrays(n, images, np.ones(k), engine).images
    parts = draw(st.lists(weight_parts, min_size=2 * len(rows), max_size=2 * len(rows)))
    weights = np.array(parts, dtype=float).view(complex)
    return WeightedPermSum._trusted(n, rows, weights, engine)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(array_sums(), st.dictionaries(keys, documents, max_size=3))
def test_writer_matches_the_generic_path(s, report):
    assert _perm_sum_text(s, report) == _generic_text(s, report)


@pytest.mark.parametrize("n", [1, 2, 5, 31, 127, 128, 131])
def test_writer_edge_sums(n):
    """An empty sum, one term, a -0.0 part in every place, and int8 and
    int32 rows, against the generic path."""
    engine = 'a "label"\n'
    report = {"ok": True}
    rng = np.random.default_rng(n)
    rows = np.unique(np.array([rng.permutation(n) for _ in range(3)]), axis=0)
    weights = np.full(len(rows), complex(-0.0, -0.0))
    weights[-1] = complex(1.0, -0.0)
    texts = []
    for s in (
        WeightedPermSum(n, engine=engine),
        WeightedPermSum.from_arrays(n, rows[:1], [1.0], engine),
        WeightedPermSum._trusted(n, rows, weights, engine),
    ):
        texts.append(_perm_sum_text(s, report))
        assert texts[-1] == _generic_text(s, report)
        assert json.loads(texts[-1])["engine"] == engine
    assert '"terms": [],' in texts[0]
    assert f'"perm": {(rows[0] + 1).tolist()},' in texts[1]
    assert len(rows) == 1 or '"weight": [-0.0, -0.0]' in texts[2]


def test_writer_refuses_complex_sums():
    s = decompose_unitary(haar_unitary(3, seed=1))
    with pytest.raises(TypeError, match="ComplexPermSum"):
        _perm_sum_text(s, {})


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
        '      "weight": [0.75, -0.0]\n'
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


def test_negative_zero_round_trips(tmp_path):
    """-0.0 is written as ``-0.0``, which json reads back as a float with
    its sign, on the template path, the one-number path and the CLI."""
    assert dumps_json([-0.0, 1.5]) == "[-0.0, 1.5]"
    assert dumps_json([1.5, -0.0]) == "[1.5, -0.0]"
    assert dumps_json({"a": -0.0}) == '{\n  "a": -0.0\n}'
    for doc in ([-0.0, 1.5], [1.5, -0.0], {"a": -0.0}, [1, -0.0]):
        back = json.loads(dumps_json(doc))
        assert repr(back) == repr(doc)
    a = np.array([[complex(-0.0, 1.0)]])
    b = matrix_from_json(json.loads(dumps_json(matrix_to_json(a))))
    assert np.signbit(b.real).all() and b[0, 0] == 1j
    m, c = str(tmp_path / "m.json"), str(tmp_path / "c.json")
    assert main(["sample", "5", "--kind", "xu", "--seed", "3", "--output", m]) == 0
    assert main(["scale", m, "--output", c]) == 0
    with open(c, encoding="utf-8") as fh:
        assert repr(json.load(fh)["alpha"]) == "-0.0"


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


class _List(list):
    pass


class _Dict(dict):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        _List([1.0, -0.0]),
        _List([_List([1, 2]), "a"]),
        _Dict(a=[1.5], b=_Dict(c=None)),
        {"x": _List([_Dict(k=[2.0, 3.0])])},
        _List(),
        _Dict(),
    ],
)
@pytest.mark.parametrize("indent", [0, 2])
def test_list_and_dict_subclasses_write_as_their_bases(doc, indent):
    assert dumps_json(doc, indent) == oracle_dumps_json(doc, indent)
    assert json.loads(dumps_json(doc, indent)) == doc


@pytest.mark.parametrize(
    "doc", [np.int64(3), [np.int64(1), np.int64(2)], {"k": np.int64(0)}]
)
def test_numpy_int_rejected(doc):
    with pytest.raises(TypeError):
        oracle_dumps_json(doc)
    with pytest.raises(TypeError):
        dumps_json(doc)


def _traced_peak(write):
    """The text ``write()`` returns and the traced peak of writing it."""
    tracemalloc.start()
    try:
        text = write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return text, peak


def test_peak_memory_of_a_large_document():
    """Emitting the 961-term n = 31 decomposition holds the items and one
    joined copy, not a copy per nesting level (the oracle peaked at about
    3.5 times the output). Writing it from the sum's arrays peaks no
    higher than building its dict and emitting that."""
    x = random_xu(31, seed=3)
    s = decompose_xu(x)
    report = verify(s, x).to_json()
    doc = perm_sum_to_json(s)
    doc["report"] = report
    text, peak = _traced_peak(lambda: dumps_json(doc))
    assert len(text) > 150_000
    assert peak < 2.5 * len(text)
    # Sum to text, each path from its first call (the writer builds its
    # byte table then).
    _int_table.cache_clear()
    generic, generic_peak = _traced_peak(lambda: _generic_text(s, report))
    written, written_peak = _traced_peak(lambda: _perm_sum_text(s, report))
    assert written == generic == text
    assert written_peak <= generic_peak
