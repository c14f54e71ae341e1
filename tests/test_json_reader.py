"""The decomposition reader gives one result on both of its routes.

``perm_sum_from_json(text)`` reads a document in ``decompose``'s layout
(``permsum._perm_sum_text``) through arrays, and any other text through
``json.loads``. Either way it must give what
``perm_sum_from_json(json.loads(text))`` gives: a sum of the same type,
size, engine, images and weight bytes, or an error of the same type and
message. The mutations below make texts that leave the writer's layout
a little or a lot, in the numbers, the lines or the members.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import ComplexPermSum, WeightedPermSum, matrix_from_json, verify
from xubirkhoff.cli import main
from xubirkhoff.errors import NotAPermutationError
from xubirkhoff.numerics import dumps_json
from xubirkhoff.permsum import _perm_sum_text, perm_sum_from_json, perm_sum_to_json
from xubirkhoff.xu_group import is_prime

# Weight parts the %.17g forms treat apart, and integer-valued floats.
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.0, 3.0, 1e16]
PERM = '      "perm": '
WEIGHT = '      "weight": '


def _outcome(read):
    """What ``read()`` gives, comparable across routes: the sum's type,
    size, engine and array bytes, or the error's type and message."""
    try:
        s = read()
    except Exception as e:  # the error is the outcome
        return type(e), str(e)
    arrays = [s.images, s.weights]
    if isinstance(s, ComplexPermSum):
        arrays.append(s.phases)
    return type(s), s.n, s.engine, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _both_routes(text):
    """The outcomes of the text route and of the ``json.loads`` route."""
    return (
        _outcome(lambda: perm_sum_from_json(text)),
        _outcome(lambda: perm_sum_from_json(json.loads(text))),
    )


def random_sum(n: int, k: int, seed: int, engine: str = "prime") -> WeightedPermSum:
    """A sum of up to k distinct random rows at size n, in lexicographic
    order, wrapped as an engine wraps its arrays, with weight parts drawn
    from normal floats and from ``EDGE_PARTS`` (-0.0 among them, which a
    merge would turn into 0.0)."""
    rng = np.random.default_rng(seed)
    images = np.array([rng.permutation(n) for _ in range(k)]).reshape(k, n)
    rows = WeightedPermSum.from_arrays(n, images, np.ones(k)).images
    parts = rng.standard_normal(2 * len(rows))
    edge = rng.random(len(parts)) < 0.3
    parts[edge] = rng.choice(EDGE_PARTS, np.count_nonzero(edge))
    return WeightedPermSum._trusted(n, rows, parts.view(complex), engine)


def _text(s) -> str:
    report = {"tol": 1e-9, "passed": {"ok": True}, "term_count": len(s)}
    return _perm_sum_text(s, report)


def _line_of(lines, head: str, j: int) -> int:
    """The index in ``lines`` of the j-th (mod count) line starting with
    ``head``."""
    found = [i for i, line in enumerate(lines) if line.startswith(head)]
    return found[j % len(found)]


def _replace_number(head: str, number: str):
    """A mutation writing ``number`` in place of the first number of the
    j-th line that starts with ``head``."""

    def mutate(text, s, j):
        lines = text.split("\n")
        i = _line_of(lines, head, j)
        lines[i] = re.sub(r"(?<=\[)[^,\]]*", number, lines[i], count=1)
        return "\n".join(lines)

    return mutate


def _term_blocks(text):
    """(head, the term blocks as lists of four lines without their
    separating comma, tail) of a writer's text with at least one term."""
    lines = text.split("\n")
    start = lines.index('  "terms": [') + 1
    stop = lines.index("  ],", start)
    blocks = [lines[i : i + 4] for i in range(start, stop, 4)]
    for b in blocks:
        b[3] = "    }"
    return lines[:start], blocks, lines[stop:]


def _join_blocks(head, blocks, tail):
    body = [line for b in blocks for line in (*b[:3], b[3] + ",")]
    body[-1] = "    }"
    return "\n".join([*head, *body, *tail])


def _reordered(text, s, j):
    head, blocks, tail = _term_blocks(text)
    blocks[0], blocks[j % len(blocks)] = blocks[j % len(blocks)], blocks[0]
    blocks.reverse()
    return _join_blocks(head, blocks, tail)


def _duplicated(text, s, j):
    head, blocks, tail = _term_blocks(text)
    blocks.insert(j % len(blocks), list(blocks[j % len(blocks)]))
    return _join_blocks(head, blocks, tail)


def _short_perm(text, s, j):
    lines = text.split("\n")
    i = _line_of(lines, PERM, j)
    lines[i] = re.sub(r"(, )?\d+\],$", "],", lines[i])
    return "\n".join(lines)


def _extra_term_member(text, s, j):
    lines = text.split("\n")
    i = _line_of(lines, WEIGHT, j)
    lines[i] += ',\n      "note": "extra"'
    return "\n".join(lines)


def _with_member(text, member: str) -> str:
    """``text`` with ``member`` added last to its top-level object."""
    return text.rstrip()[:-1].rstrip() + ",\n  " + member + "\n}"


def _extra_top_member(text, s, j):
    # A nested "terms" member: the reader must not take it for the block.
    return _with_member(text, '"extra": {"terms": [], "k": 1}')


def _second_terms(text, s, j):
    first = json.loads(text)["terms"][0]
    return _with_member(text, '"terms": ' + json.dumps([first, first][: 1 + j % 2]))


def _empty_terms(text, s, j):
    head, _, tail = _term_blocks(text)
    head[-1] = '  "terms": [],'
    return "\n".join([*head, *tail[1:]])


def _n_as(form: str):
    """A mutation writing the document's "n" as ``form.format(s.n)``."""
    def mutate(text, s, j):
        return text.replace(f'"n": {s.n},', f'"n": {form.format(s.n)},', 1)

    return mutate


def _complex_document(text, s, j):
    rng = np.random.default_rng(j)
    phases = np.exp(1j * rng.uniform(0, 6.3, s.images.shape))
    c = ComplexPermSum.from_arrays(s.n, s.images, s.weights, phases, s.engine)
    return dumps_json({**perm_sum_to_json(c), "report": {}})


MUTATIONS = {
    "none": lambda text, s, j: text,
    "plus": _replace_number(PERM, "+1"),
    "leading zero": _replace_number(PERM, "01"),
    "trailing dot": _replace_number(WEIGHT, "1."),
    "NaN": _replace_number(WEIGHT, "NaN"),
    "Infinity": _replace_number(WEIGHT, "Infinity"),
    "true": _replace_number(PERM, "true"),
    "beyond int64": _replace_number(PERM, "99999999999999999999"),
    "float perm": _replace_number(PERM, "1.0"),
    "other float form": _replace_number(WEIGHT, "0.5e0"),
    "negative zero as -0": _replace_number(WEIGHT, "-0"),
    "overflowing weight": _replace_number(WEIGHT, "1e999"),
    "n of another size": _n_as("{}1"),
    "n as a float": _n_as("{}.0"),
    "second terms after report": _second_terms,
    "extra member in a term": _extra_term_member,
    "extra top-level member": _extra_top_member,
    "CRLF": lambda text, s, j: text.replace("\n", "\r\n"),
    "compacted": lambda text, s, j: json.dumps(json.loads(text)),
    "rows out of order": _reordered,
    "duplicate row": _duplicated,
    "perm of the wrong length": _short_perm,
    "empty terms": _empty_terms,
    "complex document": _complex_document,
    "not JSON": lambda text, s, j: text[: len(text) // 2],
}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(1, 40),
    st.integers(1, 1000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(MUTATIONS)),
    st.integers(0, 10**6),
)
def test_routes_agree(n, k, seed, mutation, j):
    s = random_sum(n, k, seed)
    text = MUTATIONS[mutation](_text(s), s, j)
    by_text, by_json = _both_routes(text)
    assert by_text == by_json
    if mutation == "none":
        # As ``from_arrays`` merges, which writes a -0.0 part as 0.0.
        merged = WeightedPermSum.from_arrays(s.n, s.images, s.weights, s.engine)
        assert by_text == _outcome(lambda: merged)


# The mutations that keep the writer's layout of the terms: the reader
# takes them as arrays, merges and sorts rows as the dict route does, and
# checks "n" as it does.
ARRAY_ROUTE = {"none", "rows out of order", "duplicate row", "n as a float"}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_at_n_31(mutation):
    """Every mutation on one full-size document: the routes agree, and
    ``json.loads`` reads the whole text unless it is in the writer's
    layout."""
    s = random_sum(31, 961, 5)
    text = MUTATIONS[mutation](_text(s), s, 7)
    with mock.patch("json.loads", wraps=json.loads) as spy:
        by_text = _outcome(lambda: perm_sum_from_json(text))
    assert (spy.call_args.args[0] == text) == (mutation not in ARRAY_ROUTE)
    assert by_text == _outcome(lambda: perm_sum_from_json(json.loads(text)))


def test_the_writers_layout_never_reaches_json_for_its_terms():
    """Random sums, one term to n = 40: ``json.loads`` reads only the rest."""
    for n in (1, 2, 3, 7, 40):
        for k in (1, 2, 50):
            s = random_sum(n, k, n * k)
            text = _text(s)
            with mock.patch("json.loads", wraps=json.loads) as spy:
                assert perm_sum_from_json(text) == s
            assert spy.call_count == 1
            assert '"perm"' not in spy.call_args.args[0]


def _xu_kind(n: int) -> str:
    # Full support where the engines take it quickly, circulant elsewhere.
    return "xu" if n in (4, 6, 8) or is_prime(n) else "circulant_xu"


def test_decompose_output_is_read_as_arrays(tmp_path, capsys):
    """``decompose`` at n = 4-31, read back by ``verify``: ``json.loads``
    never sees a term, and the sum is the one the ``json.loads`` route
    gives."""
    for n in range(4, 32):
        x, d = tmp_path / f"x{n}.json", tmp_path / f"d{n}.json"
        kind = _xu_kind(n)
        main(["sample", str(n), "--kind", kind, "--seed", "1", "--output", str(x)])
        assert main(["decompose", str(x), "--output", str(d)]) == 0
        with mock.patch("json.loads", wraps=json.loads) as spy:
            assert main(["verify", str(d), str(x)]) == 0
        assert all('"perm"' not in c.args[0] for c in spy.call_args_list), n
        assert spy.call_count == 2  # the matrix, and the decomposition's rest
        text = d.read_text()
        by_text, by_json = _both_routes(text)
        assert by_text == by_json and by_text[0] is WeightedPermSum
    capsys.readouterr()


@pytest.mark.parametrize("mutation", sorted(set(MUTATIONS) - {"none"}))
def test_verify_errors_unchanged(tmp_path, capsys, mutation):
    """``verify`` on each mutated document prints what it printed when it
    parsed the file with ``json.load`` and read the object: "is not valid
    JSON" for text that is not JSON, else the reader's message."""
    x, d = tmp_path / "x.json", tmp_path / "d.json"
    main(["sample", "5", "--kind", "xu", "--seed", "2", "--output", str(x)])
    main(["decompose", str(x), "--output", str(d)])
    text = d.read_text()
    s = perm_sum_from_json(text)
    d.write_text(MUTATIONS[mutation](text, s, 3))
    capsys.readouterr()
    code = main(["verify", str(d), str(x)])
    err = capsys.readouterr().err
    try:
        doc = json.loads(d.read_text())
    except json.JSONDecodeError as e:
        assert (code, err) == (2, f"error: {d} is not valid JSON: {e}\n")
        return
    try:
        expected = perm_sum_from_json(doc)
    except (ValueError, TypeError, NotAPermutationError) as e:
        assert (code, err) == (2, f"error: {d}: {e}\n")
        return
    a = matrix_from_json(json.loads(x.read_text()))
    assert (code, err) == (0 if verify(expected, a).ok else 1, "")


def test_verify_of_a_missing_file(tmp_path, capsys):
    x = tmp_path / "x.json"
    main(["sample", "5", "--output", str(x)])
    code = main(["verify", str(tmp_path / "d.json"), str(x)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: cannot read {tmp_path / 'd.json'}: ")
