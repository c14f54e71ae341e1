"""Built-in reference-value suite behind ``xubirkhoff selfcheck``.

Every check compares package output against values that can be written
down independently: closed-form roots of unity, displayed matrices,
hand-enumerable permutation tables, and closed-form weight patterns.
``run`` prints one line per check and returns a process exit status.
"""

from __future__ import annotations

import math

import numpy as np

from .birkhoff import (
    decompose_prime,
    decompose_xu2,
    decompose_xu3,
    decompose_xu4,
    verify,
)
from .numerics import classify, dft_matrix, line_sums, max_abs_diff, root_of_unity
from .permutations import (
    Permutation,
    SupercirculantLabel,
    d_family,
    detect_supercirculant,
    lexicographic_index,
    lexicographic_permutations,
    perm_to_matrix,
    supercirculant_perm,
    van_der_waerden,
)
from .sampling import haar_unitary, random_xu
from .xu_group import (
    constant_line_sum_check,
    embed_core,
    pitch,
    transfer_block_dims,
    transfer_matrix,
)

TOL = 1e-12


def _eq(a, b, tol=TOL, what="values"):
    d = abs(a - b) if np.isscalar(a) else max_abs_diff(a, b)
    if d > tol:
        raise AssertionError(f"{what} differ by {d:.3e}")


def check_root_values():
    """Closed-form third and fifth roots of unity."""
    _eq(root_of_unity(3, 1), complex(-0.5, math.sqrt(3) / 2), what="w_3")
    want5 = complex(
        (math.sqrt(5) - 1) / 4, math.sqrt(10 + 2 * math.sqrt(5)) / 4
    )
    _eq(root_of_unity(5, 1), want5, what="w_5")
    _eq(root_of_unity(4, 0), 1.0, what="w_4^0")


def check_fourier_display():
    """F for n=3 is (1/sqrt(3)) [[1,1,1],[1,w,w^2],[1,w^2,w]]."""
    w = root_of_unity(3, 1)
    want = np.array(
        [[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex
    ) / math.sqrt(3)
    _eq(dft_matrix(3), want, what="F_3")
    _eq(dft_matrix(1), np.array([[1.0]]), what="F_1")


def check_flat_matrix_sums():
    """W_3 has all line sums 1; M[1,2] at n=5 has all line sums 0."""
    rows, cols = line_sums(van_der_waerden(3))
    _eq(np.concatenate([rows, cols]), np.ones(6), what="W_3 line sums")
    m = transfer_matrix(5, 1, 2).matrix
    rows, cols = line_sums(m)
    _eq(np.concatenate([rows, cols]), np.zeros(10), what="M[1,2] line sums")


def check_classify_examples():
    c = classify(np.eye(4))
    if not (c.is_unitary and c.is_xu and c.is_zu and c.is_circulant):
        raise AssertionError(f"identity classification wrong: {c}")
    c = classify(np.diag([1.0, np.exp(0.7j), np.exp(-0.4j)]))
    if not c.is_zu or c.is_xu:
        raise AssertionError(f"diagonal-phase classification wrong: {c}")
    c = classify(embed_core(haar_unitary(2, seed=11)))
    if not c.is_xu:
        raise AssertionError("embedded Haar core is not classified XU")


def check_permutation_displays():
    """The 3x3 list P_1..P_6 in lexicographic order: image (1,3,2) is P_2
    with rows (1,0,0),(0,0,1),(0,1,0); image (2,3,1) is P_4."""
    p2 = Permutation((1, 3, 2))
    _eq(
        perm_to_matrix(p2),
        np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
        what="P_2",
    )
    if lexicographic_index(p2) != 2:
        raise AssertionError("image (1,3,2) should rank 2nd")
    p4 = Permutation((2, 3, 1))
    _eq(
        perm_to_matrix(p4),
        np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex),
        what="P_4",
    )
    if lexicographic_index(p4) != 4:
        raise AssertionError("image (2,3,1) should rank 4th")


def check_supercirculant_ranks_n4():
    """Lexicographic ranks of the supercirculant permutations at n=4.

    C[3,1] genuinely ranks 17th: its image is (3,4,1,2) and sixteen images
    starting with 1 or 2 precede it (see the decisions notes on the one
    divergent published rank).
    """
    want = {(1, 1): 1, (1, 3): 6, (2, 1): 10, (2, 3): 8, (3, 1): 17,
            (4, 1): 19, (4, 3): 24}
    for (l, x), rank in want.items():
        p = supercirculant_perm(4, SupercirculantLabel(l, x))
        got = lexicographic_index(p)
        if got != rank:
            raise AssertionError(f"C[{l},{x}] ranks {got}, expected {rank}")


def check_d_family():
    """D_1 at n=5 fixes 1,2,3 and swaps 4,5; the five D_j have disjoint
    support; at n=3 every D_j is anticirculant."""
    fam = d_family(5)
    if fam[0].image != (1, 2, 3, 5, 4):
        raise AssertionError(f"D_1 image is {fam[0].image}")
    support = set()
    for d in fam:
        cells = {(k, d.image[k - 1]) for k in range(1, 6)}
        if support & cells:
            raise AssertionError("D family supports overlap at n=5")
        support |= cells
    for d in d_family(3):
        if not classify(perm_to_matrix(d)).is_anticirculant:
            raise AssertionError(f"D with image {d.image} not anticirculant")


def check_flat_splits():
    """W_3 = (P_1+P_4+P_5)/3 = (P_2+P_3+P_6)/3 and W_5 = (1/5) sum D_j."""
    perms = list(lexicographic_permutations(3))
    even = sum(perm_to_matrix(perms[j - 1]) for j in (1, 4, 5)) / 3
    odd = sum(perm_to_matrix(perms[j - 1]) for j in (2, 3, 6)) / 3
    _eq(even, van_der_waerden(3), what="W_3 even split")
    _eq(odd, van_der_waerden(3), what="W_3 odd split")
    flat5 = sum(perm_to_matrix(d) for d in d_family(5)) / 5
    _eq(flat5, van_der_waerden(5), what="W_5 from the D family")


def check_pitch_detection():
    f = dft_matrix(3)
    circ = f @ np.diag([1, np.exp(0.3j), np.exp(-1.1j)]) @ f.conj().T
    got = detect_supercirculant(circ)
    if got != (1, 1):
        raise AssertionError(f"circulant pitches {got}, expected (1, 1)")
    got = detect_supercirculant(transfer_matrix(5, 1, 2).matrix)
    if got != (3, 2):
        raise AssertionError(f"M[1,2] n=5 pitches {got}, expected (3, 2)")
    got = detect_supercirculant(transfer_matrix(4, 1, 2).matrix)
    if got is not None:
        raise AssertionError(f"M[1,2] n=4 should not be supercirculant, got {got}")


def check_pitch_tables_n5():
    """The two 4x4 pitch tables for n=5."""
    want_x = [(1, 3, 2, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 2, 3, 1)]
    want_y = [(1, 2, 3, 4), (3, 1, 4, 2), (2, 4, 1, 3), (4, 3, 2, 1)]
    for r in range(1, 5):
        for s in range(1, 5):
            x, y = pitch(5, r, s)
            if x != want_x[r - 1][s - 1] or y != want_y[r - 1][s - 1]:
                raise AssertionError(
                    f"pitch(5,{r},{s}) = {(x, y)}, expected "
                    f"{(want_x[r - 1][s - 1], want_y[r - 1][s - 1])}"
                )


def check_transfer_displays():
    """M[1,2] at n=5 (exponent table) and at n=4 (entries in powers of i),
    plus the 4 x 2 repeated-block dimensions of the latter."""
    w = root_of_unity(5, 1)
    expo = [
        [0, 3, 1, 4, 2],
        [1, 4, 2, 0, 3],
        [2, 0, 3, 1, 4],
        [3, 1, 4, 2, 0],
        [4, 2, 0, 3, 1],
    ]
    want = np.array([[w**e for e in row] for row in expo])
    _eq(transfer_matrix(5, 1, 2).matrix, want, tol=1e-10, what="M[1,2] n=5")
    i = 1j
    want4 = np.array(
        [
            [1, i**2, 1, i**2],
            [i, i**3, i, i**3],
            [i**2, 1, i**2, 1],
            [i**3, i, i**3, i],
        ],
        dtype=complex,
    )
    _eq(transfer_matrix(4, 1, 2).matrix, want4, tol=1e-10, what="M[1,2] n=4")
    if transfer_block_dims(4, 1, 2) != (4, 2):
        raise AssertionError("block dims of M[1,2] n=4 should be (4, 2)")
    m = transfer_matrix(4, 1, 2).matrix
    _eq(m[:, :2], m[:, 2:], what="M[1,2] n=4 repeated blocks")


def check_xu2_form():
    """embed_core([e^(i*alpha)]) matches the XU(2) closed form; at
    alpha=pi the weights are (0, 1); the weight sum is the line sum."""
    for alpha in (0.0, math.pi / 3, math.pi):
        e = np.exp(1j * alpha)
        want = np.array(
            [[1 + e, 1 - e], [1 - e, 1 + e]], dtype=complex
        ) / 2
        x = embed_core(np.array([[e]]))
        _eq(x, want, what=f"XU(2) at alpha={alpha:.3f}")
    s = decompose_xu2(np.array([[0, 1], [1, 0]], dtype=complex))
    if abs(s[Permutation((1, 2))]) > TOL or abs(s[Permutation((2, 1))] - 1) > TOL:
        raise AssertionError("swap matrix should weight the swap by 1")
    ls = constant_line_sum_check(s)
    if ls is None or abs(ls - 1) > TOL:
        raise AssertionError(f"constant line sum should be 1, got {ls}")


def check_xu3_entry_formula():
    """X[1,2] = (1 + w^2 U11 + w U12 + w^2 U21 + w U22)/3 for the
    embedding of a 2x2 core."""
    u = haar_unitary(2, seed=5)
    x = embed_core(u)
    w = root_of_unity(3, 1)
    w2 = root_of_unity(3, 2)
    want = (1 + w2 * u[0, 0] + w * u[0, 1] + w2 * u[1, 0] + w * u[1, 1]) / 3
    _eq(x[0, 1], want, what="X[1,2] entry formula")


def check_xu3_weights():
    """At p=1 the identity decomposes to weight 1 on P_1; generic weights
    reconstruct; p=0 and p=1 give the same matrix from different weights."""
    s = decompose_xu3(np.eye(3), p=1.0)
    for perm, wgt in s.items():
        want = 1.0 if perm.image == (1, 2, 3) else 0.0
        if abs(wgt - want) > TOL:
            raise AssertionError(f"identity weight on {perm.image} is {wgt}")
    x = random_xu(3, seed=23)
    r0 = verify(decompose_xu3(x, p=0.0), x, tol=1e-10)
    r1 = verify(decompose_xu3(x, p=1.0), x, tol=1e-10)
    if not (r0.reconstruction_ok and r1.reconstruction_ok):
        raise AssertionError("p=0 / p=1 reconstructions failed")
    if not (r0.sq_moduli_ok and r1.sq_moduli_ok):
        raise AssertionError("p on the circle should give unit squared moduli")


def check_xu4_patterns():
    """At core = identity the 24 weights are {3/4, four 1/4, three -1/4,
    rest 0}; the four constant weights stay 1/4 for a random core."""
    s = decompose_xu4(np.eye(4))
    perms = list(lexicographic_permutations(4))
    want = {1: 0.75, 2: 0.25, 7: 0.25, 18: 0.25, 23: 0.25,
            10: -0.25, 17: -0.25, 19: -0.25}
    for j, perm in enumerate(perms, start=1):
        if abs(s[perm] - want.get(j, 0.0)) > TOL:
            raise AssertionError(f"identity weight m_{j} is {s[perm]}")
    if abs(s.sq_moduli_sum() - 1.0) > TOL:
        raise AssertionError("identity squared moduli should sum to 1")
    s = decompose_xu4(random_xu(4, seed=31))
    for j in (2, 7, 18, 23):
        if abs(s[perms[j - 1]] - 0.25) > TOL:
            raise AssertionError(f"m_{j} should be the constant 1/4")


def check_prime_identity():
    """The prime engine at n=5 on the identity: 25 terms, weight sum 1,
    squared moduli 1, exact reconstruction. With the identity core,
    m[l,x] = (1/5) sum over s of w^(-(l-1)s) [sx = s] is 0 unless x = 1,
    4/5 on the identity C[1,1] and -1/5 on the other shifts C[l,1]; each
    D_j weighs 1/5."""
    s = decompose_prime(np.eye(5))
    r = verify(s, np.eye(5), tol=1e-12)
    if s.term_count != 25:
        raise AssertionError(f"expected 25 terms, got {s.term_count}")
    if not (r.reconstruction_ok and r.weight_sum_ok and r.sq_moduli_ok):
        raise AssertionError(f"identity prime decomposition failed: {r}")
    shifts = [supercirculant_perm(5, SupercirculantLabel(l, 1)) for l in (2, 3, 4, 5)]
    want = dict.fromkeys(shifts, -0.2) | dict.fromkeys(d_family(5), 0.2)
    want[Permutation.identity(5)] = 0.8
    for perm, w in s.items():
        _eq(w, want.get(perm, 0.0), what=f"identity weight on {perm.image}")


def check_transfer_supercirculant_split():
    """M[r,s] = sum over l of w^(-(l-1)s) C[l,x] for prime n."""
    n = 5
    for (r, s) in ((1, 2), (3, 4), (2, 2)):
        x, _ = pitch(n, r, s)
        acc = np.zeros((n, n), dtype=complex)
        for l in range(1, n + 1):
            c = perm_to_matrix(supercirculant_perm(n, SupercirculantLabel(l, x)))
            acc += root_of_unity(n, -(l - 1) * s) * c
        _eq(acc, transfer_matrix(n, r, s).matrix, tol=1e-10,
            what=f"M[{r},{s}] supercirculant split")


CHECKS = [
    ("root values", check_root_values),
    ("fourier display", check_fourier_display),
    ("flat matrix line sums", check_flat_matrix_sums),
    ("classification examples", check_classify_examples),
    ("permutation displays", check_permutation_displays),
    ("supercirculant ranks n=4", check_supercirculant_ranks_n4),
    ("d family", check_d_family),
    ("flat matrix splits", check_flat_splits),
    ("pitch detection", check_pitch_detection),
    ("pitch tables n=5", check_pitch_tables_n5),
    ("transfer displays", check_transfer_displays),
    ("xu2 closed form", check_xu2_form),
    ("xu3 entry formula", check_xu3_entry_formula),
    ("xu3 weights", check_xu3_weights),
    ("xu4 weight patterns", check_xu4_patterns),
    ("prime engine identity", check_prime_identity),
    ("transfer supercirculant split", check_transfer_supercirculant_split),
]


def run(stream) -> int:
    """Run every check, print one line per check, return exit status."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            stream.write(f"FAIL {name}: {e}\n")
        else:
            stream.write(f"ok   {name}\n")
    total = len(CHECKS)
    stream.write(f"{total - failures}/{total} checks passed\n")
    return 0 if failures == 0 else 1
