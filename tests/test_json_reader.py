"""The decomposition reader gives one result on both of its routes.

``perm_sum_from_json(text)`` reads a document in ``decompose``'s layout
(``permsum._perm_sum_text``) through arrays, and any other text through
``json.loads``. Either way it must give what
``perm_sum_from_json(json.loads(text))`` gives: a sum of the same type,
size, engine, images and weight bytes, or an error of the same type and
message. The mutations below make texts that leave the writer's layout
a little or a lot, in the numbers, the lines or the members.

A document over the closed-form support of its size
(``closed_form_images``: S_n for n <= 4, the n^2 rows of the prime
construction at prime n) is written and read through that support's
cached perm lines, and its perm entries are never parsed. The same
rules hold for it on every size up to the first prime above the cache's
bound.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    ComplexPermSum,
    WeightedPermSum,
    matrix_from_json,
    permsum,
    verify,
)
from xubirkhoff.cli import main
from xubirkhoff.errors import NotAPermutationError
from xubirkhoff.numerics import dumps_json
from xubirkhoff.permsum import _perm_sum_text, perm_sum_from_json, perm_sum_to_json
from xubirkhoff.permutations import closed_form_images, is_prime

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


# Every size with a closed-form support, up to the first prime whose perm
# lines are rendered per call instead of cached.
ABOVE_BOUND = next(
    p for p in range(5, 200) if is_prime(p) and p**3 > permsum._SUPPORT_TEXT_CELLS
)
SUPPORT_SIZES = [1, 2, 3, 4] + [p for p in range(5, ABOVE_BOUND + 1) if is_prime(p)]


def support_sum(n: int, seed: int, engine: str = "prime") -> WeightedPermSum:
    """A sum over ``closed_form_images(n)``, as the closed forms wrap it,
    with weight parts drawn as ``random_sum`` draws them and a -0.0 among
    the real and among the imaginary parts."""
    rng = np.random.default_rng(seed)
    rows = closed_form_images(n)
    parts = rng.standard_normal(2 * len(rows))
    edge = rng.random(len(parts)) < 0.3
    parts[edge] = rng.choice(EDGE_PARTS, np.count_nonzero(edge))
    parts[0] = parts[-1] = -0.0
    return WeightedPermSum._trusted(n, rows, parts.view(complex), engine)


@pytest.mark.parametrize("n", SUPPORT_SIZES)
def test_support_routes_agree(n):
    """Both routes give the sum ``from_arrays`` merges, -0.0 parts written
    as 0.0, and the writer's text is the list path's."""
    for seed in range(3):
        s = support_sum(n, seed)
        report = {"tol": 1e-9, "passed": {"ok": True}, "term_count": len(s)}
        text = _perm_sum_text(s, report)
        assert text == dumps_json({**perm_sum_to_json(s), "report": report})
        by_text, by_json = _both_routes(text)
        assert by_text == by_json
        merged = WeightedPermSum.from_arrays(n, s.images, s.weights, s.engine)
        assert by_text == _outcome(lambda: merged)
        assert perm_sum_from_json(text).images is closed_form_images(n)


def test_support_lines_cached_up_to_the_bound():
    """One string per size up to the bound, kept; above it, the same text
    rendered per call."""
    permsum._cached_lines.cache_clear()
    texts = {n: permsum._support_lines(n) for n in SUPPORT_SIZES}
    assert permsum._cached_lines.cache_info().currsize == len(SUPPORT_SIZES) - 1
    for n, text in texts.items():
        cached = closed_form_images(n).size <= permsum._SUPPORT_TEXT_CELLS
        assert cached == (n != ABOVE_BOUND)
        again = permsum._support_lines(n)
        assert again == text and (again is text) == cached
        lines = _text(support_sum(n, 0)).split("\n")
        assert text.split("\n") == [line for line in lines if line.startswith(PERM)]


# The mutations after which the perm lines are still the support's: the
# reader takes them as that table, and checks "n" as it does elsewhere.
SUPPORT_ROUTE = {"none", "n as a float"}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_on_the_support_at_n_31(mutation):
    """Every mutation on a document over the n = 31 support: the routes
    agree, ``json.loads`` reads the whole text unless it is in the
    writer's layout, and the perm entries are parsed unless the perm
    lines are still the support's."""
    s = support_sum(31, 5)
    text = MUTATIONS[mutation](_text(s), s, 7)
    with mock.patch.object(
        permsum, "_perm_rows", wraps=permsum._perm_rows
    ) as parse, mock.patch("json.loads", wraps=json.loads) as loads:
        by_text = _outcome(lambda: perm_sum_from_json(text))
    assert (loads.call_args.args[0] == text) == (mutation not in ARRAY_ROUTE)
    if mutation in ARRAY_ROUTE:
        assert parse.call_count == (mutation not in SUPPORT_ROUTE)
    assert by_text == _outcome(lambda: perm_sum_from_json(json.loads(text)))


@pytest.mark.parametrize("n", SUPPORT_SIZES[1:])
def test_a_row_with_two_entries_swapped_is_not_the_support(n):
    """A support row with two entries swapped is still a bijection (for
    n <= 4, one the support has already): the writer renders it, the
    reader parses it, and the sum is ``from_arrays``'s."""
    s = support_sum(n, n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        images = np.array(s.images)
        j = rng.integers(len(images))
        a, b = rng.choice(n, 2, replace=False)
        images[j, [a, b]] = images[j, [b, a]]
        t = WeightedPermSum._trusted(n, images, s.weights, s.engine)
        text = _text(t)
        report = json.loads(text)["report"]
        assert text == dumps_json({**perm_sum_to_json(t), "report": report})
        with mock.patch.object(permsum, "_perm_rows", wraps=permsum._perm_rows) as spy:
            by_text, by_json = _both_routes(text)
        assert spy.call_count == 1 and by_text == by_json
        merged = WeightedPermSum.from_arrays(n, images, s.weights, s.engine)
        assert by_text == _outcome(lambda: merged)
        assert merged.images is not closed_form_images(n)


def test_support_perm_entries_are_never_parsed():
    """A spy on the number reader: a support document's text has only its
    weight parts read, a document of random rows also its perm entries,
    and neither hands a term to ``json.loads``."""
    for n in SUPPORT_SIZES:
        for s, parsed in ((support_sum(n, 1), 0), (random_sum(n, 5, n), 1)):
            if n <= 3 and parsed:
                continue  # five random rows of S_1..S_3 may fill it
            text = _text(s)
            with mock.patch.object(
                permsum, "_numbers", wraps=permsum._numbers
            ) as numbers, mock.patch("json.loads", wraps=json.loads) as loads:
                assert perm_sum_from_json(text) == WeightedPermSum.from_arrays(
                    n, s.images, s.weights, s.engine
                )
            kinds = [c.args[1] for c in numbers.call_args_list]
            assert kinds.count(permsum._INT_CHARS) == parsed, n
            assert kinds.count(permsum._FLOAT_CHARS) == 1, n
            assert '"perm"' not in loads.call_args.args[0]


def test_no_support_table_is_built_for_a_block_of_another_size():
    """The size a perm line names comes from the text: a prime size's table
    (n^2 rows) is looked up only for a block of n^2 terms, so a short block
    that names a large prime never builds one."""
    for n, k in ((37, 5), (101, 1), (7, 48)):
        s = random_sum(n, k, n)
        text = _text(s)
        with mock.patch.object(
            permsum, "closed_form_images", wraps=closed_form_images
        ) as lookup:
            assert perm_sum_from_json(text) == WeightedPermSum.from_arrays(
                n, s.images, s.weights, s.engine
            )
        assert lookup.call_count == 0
