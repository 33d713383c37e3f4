"""Smith normal form and matrix products, cross-checked against sympy
oracles and against the dense reference Smith normal form."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from homnorm.fixtures import SUITE
from homnorm.homology import _boundary_rows, _combination
from homnorm.intlinalg import (incidence_smith_normal_form,
                               signed_graph_smith_normal_form,
                               sparse_smith_normal_form)

from conftest import moore_space, small_corpus, torus_grid
from oracles import (IntMatrix, ShapeMismatchError, boundary_matrix, densify,
                     reference_smith_normal_form, smith_normal_form,
                     solve_with_snf)


def _check_snf(A):
    res = smith_normal_form(A)
    assert res.U.matmul(A).matmul(res.V) == res.D
    # Integer inverses certify |det| = 1.
    ref = reference_smith_normal_form(A)
    assert res.U.matmul(ref.u_inv) == IntMatrix.identity(A.rows)
    assert res.V.matmul(ref.v_inv) == IntMatrix.identity(A.cols)
    nonzero = [d for d in res.diag if d]
    assert list(res.diag) == nonzero + [0] * (len(res.diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert a > 0 and b % a == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert res.D.data[i][j] == 0
    return res


def test_snf_examples():
    assert _check_snf(IntMatrix.from_rows([[2, 0], [0, 3]])).diag == (1, 6)
    assert _check_snf(IntMatrix.from_rows([[0]])).diag == (0,)
    assert _check_snf(IntMatrix.from_rows([[2, 4], [6, 8]])).diag == (2, 4)


def test_snf_empty_and_rectangular():
    assert _check_snf(IntMatrix.zeros(0, 3)).diag == ()
    assert _check_snf(IntMatrix.zeros(3, 0)).diag == ()
    assert _check_snf(IntMatrix.from_rows([[1, 2, 3]])).diag == (1,)


def _random_matrix(rng, rows, cols, bound=6):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m.data[i][k] += q * m.data[j][k]
    return m


def test_snf_matches_sympy_and_is_unimodular_invariant():
    rng = random.Random("snf-oracle")
    for _ in range(100):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        A = _random_matrix(rng, rows, cols)
        res = _check_snf(A)
        expected = sympy_snf(sympy.Matrix(A.data))
        exp_diag = [abs(int(expected[i, i])) for i in range(min(rows, cols))]
        nz = sorted(d for d in exp_diag if d)
        assert sorted(d for d in res.diag if d) == nz
        # Invariant factors survive unimodular pre/post multiplication.
        P = _random_unimodular(rng, rows)
        Q = _random_unimodular(rng, cols)
        assert smith_normal_form(P.matmul(A).matmul(Q)).diag == res.diag


def _sparse(values):
    return dict(itertools.compress(enumerate(values), values))


def _assert_same_snf(A):
    full = sparse_smith_normal_form([_sparse(row) for row in A.data], A.cols)
    got = densify(full)
    ref = reference_smith_normal_form(A)
    assert got.U == ref.U
    assert got.D == ref.D
    assert got.V == ref.V
    assert got.diag == ref.diag
    # The inverses keep every line but those of the unit invariant
    # factors, and the kept lines are the reference's.
    unit = {j for j, e in enumerate(ref.diag) if e == 1}
    for lines, line_of in ((full.u_inv_cols, ref.u_inv.column),
                           (full.v_inv_rows, lambda j: ref.v_inv.data[j])):
        assert {j for j, line in enumerate(lines) if line is None} == unit
        for j, line in enumerate(lines):
            if j not in unit:
                assert line == _sparse(line_of(j))
    # Tracking one side's pair alone reduces the same way and keeps that
    # pair exactly; the other pair is not built.
    for track, kept, dropped in TRACKED:
        part = sparse_smith_normal_form([_sparse(row) for row in A.data],
                                        A.cols, _track=track)
        assert part.diag == full.diag
        for name in kept:
            assert getattr(part, name) == getattr(full, name), (track, name)
        for name in dropped:
            assert getattr(part, name) is None, (track, name)


TRACKED = [("u", ("u_rows", "u_inv_cols"), ("v_cols", "v_inv_rows")),
           ("v", ("v_cols", "v_inv_rows"), ("u_rows", "u_inv_cols"))]


# Pivots that are not units, pivots that fail to divide the rest of their
# block (the divisibility fix-up), unit pivots and empty shapes, on fixed
# inputs.  The unit pivots: a -1 pivot; a unit reached by the fix-up of a
# pivot 2 at the same step; a -1 at step 1 after a pivot 2 and its fix-up
# at step 0; and a 1 whose row and column hold entries of magnitude 2 and
# more.
FIXED_CASES = [IntMatrix.from_rows(rows) for rows in [
    [[2, 0], [0, 3]],
    [[4, 0, 0], [0, 6, 0], [0, 0, 9]],
    [[2, 4], [6, 8]],
    [[6, 10, 15], [10, 15, 6]],
    [[0, 0], [0, 0], [0, 5]],
    [[-1, 2], [3, 4]],
    [[2, 2], [2, 3]],
    [[2, 2, 6], [0, -3, -2], [2, 6, -3]],
    [[1, 2, -3], [4, 5, 6], [-2, 7, 9]],
]] + [IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0), IntMatrix.zeros(0, 0)]


@pytest.mark.parametrize("A", FIXED_CASES, ids=repr)
def test_snf_matches_reference_on_fixed_cases(A):
    _assert_same_snf(A)


def test_snf_matches_reference_on_random_matrices():
    rng = random.Random("snf-reference")
    for _ in range(1500):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        bound = rng.choice([1, 2, 6, 40])
        scale = rng.choice([1, 1, 2, 3])  # no unit pivots when scale > 1
        _assert_same_snf(IntMatrix(rows, cols, [
            [scale * rng.randint(-bound, bound) if rng.random() < density
             else 0 for _ in range(cols)] for _ in range(rows)]))
        # A scrambled diagonal with coprime entries needs the fix-up.
        n = rng.randint(2, 5)
        diag = IntMatrix.zeros(n, n)
        for i in range(n):
            diag.data[i][i] = rng.choice([2, 3, 4, 5, 6, 9])
        _assert_same_snf(_random_unimodular(rng, n).matmul(diag).matmul(
            _random_unimodular(rng, n)))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_snf_matches_reference_on_grid_boundaries(k):
    for seed in range(2):
        K = torus_grid(k, f"snf-{k}-{seed}")
        for degree in (1, 2):
            _assert_same_snf(boundary_matrix(K, degree))


def _assert_same_incidence_form(faces, n_vertices):
    """The incidence path gives the sparse form's rank, diagonal and
    kernel lines of V and V^-1, and None for the pivot lines; no column of
    V is built before it is read."""
    rows = [{} for _ in range(n_vertices)]
    for j, fs in enumerate(faces):
        for i, sign in fs:
            rows[i][j] = sign
    ref = sparse_smith_normal_form(rows, len(faces), _track="v")
    got = incidence_smith_normal_form(faces, n_vertices)
    # The cycles are built as they are read.
    assert got.v_cols._lines == [None] * len(faces)
    r = ref.rank
    assert got.rank == r
    assert got.diag == ref.diag
    assert got.v_cols[r:] == ref.v_cols[r:]
    assert got.v_inv_rows[r:] == ref.v_inv_rows[r:]
    assert got.v_cols[:r] == got.v_inv_rows[:r] == [None] * r
    assert got.u_rows is None and got.u_inv_cols is None


def _incidence_fixtures():
    complexes = [make() for make in SUITE.values()]
    complexes += [K for K, _, _ in small_corpus()]
    complexes += [moore_space(2), moore_space(4, 6)]
    return complexes


@pytest.mark.parametrize("K", _incidence_fixtures(), ids=lambda K: K.name)
def test_incidence_form_matches_the_sparse_form_on_fixtures(K):
    _assert_same_incidence_form(K.faces(1), K.n_simplices(0))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_incidence_form_matches_the_sparse_form_on_grids(k):
    for weights in ((1, 1, 1), (1, 2, Fraction(3, 2))):
        for seed in (None, "inc-1", "inc-2", "inc-3"):
            K = torus_grid(k, seed, weights)
            _assert_same_incidence_form(K.faces(1), K.n_simplices(0))


def _random_graph(rng, n_vertices, n_edges):
    """Faces of ``n_edges`` distinct random edges, in random order, each
    with its faces in either order."""
    pairs = rng.sample(list(itertools.combinations(range(n_vertices), 2)),
                       n_edges)
    return [((b, 1), (a, -1)) if rng.random() < 0.5 else ((a, -1), (b, 1))
            for a, b in pairs]


def test_incidence_form_matches_the_sparse_form_on_random_graphs():
    rng = random.Random("incidence")
    seen = set()
    for _ in range(300):
        n_vertices = rng.randint(0, 12)
        most = n_vertices * (n_vertices - 1) // 2
        n_edges = rng.choice([0, rng.randint(0, min(most, n_vertices)),
                              rng.randint(0, most)])
        faces = _random_graph(rng, n_vertices, n_edges)
        _assert_same_incidence_form(faces, n_vertices)
        touched = {i for fs in faces for i, _ in fs}
        rank = incidence_smith_normal_form(faces, n_vertices).rank
        seen.add(("no edges", n_edges == 0))
        seen.add(("forest", 0 < n_edges < n_vertices))
        seen.add(("isolated vertex", len(touched) < n_vertices))
        seen.add(("components", len(touched) - rank > 1))
    # Two triangles and a path apart, with isolated vertices between.
    faces = [((b, 1), (a, -1)) for a, b in
             [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (8, 9), (9, 10)]]
    _assert_same_incidence_form(faces, 12)
    _assert_same_incidence_form([], 0)
    assert all((kind, True) in seen for kind, _ in seen)


def _assert_same_signed_form(rows, cols):
    """The signed-graph path gives the sparse form's diagonal and kernel
    lines of U and U^-1 (tracking U), of V and V^-1 (tracking V), or of
    all four from one replay, None for the pivot lines of each pair it
    forms and None for a pair it does not, and leaves the rows as they
    were; it gives None exactly where the sparse form has a factor 2 or a
    row is not at most two entries of +-1.  Returns the form tracking
    U."""
    before = [dict(row) for row in rows]
    ref = sparse_smith_normal_form([dict(row) for row in rows], cols,
                                   _track="uv")
    # Tracking U by default.
    forms = [("u", signed_graph_smith_normal_form(rows, cols))]
    forms += [(track, signed_graph_smith_normal_form(rows, cols,
                                                     _track=track))
              for track in ("v", "uv")]
    assert rows == before
    signed = all(len(row) <= 2 and all(x in (1, -1) for x in row.values())
                 for row in rows)
    if not signed or 2 in ref.diag:
        assert all(got is None for _, got in forms)
        return None
    assert set(ref.diag) <= {0, 1}
    r = ref.rank
    for track, got in forms:
        assert got.rank == r
        assert got.diag == ref.diag
        if "u" in track:
            assert got.u_rows[r:] == ref.u_rows[r:]
            assert got.u_inv_cols[r:] == ref.u_inv_cols[r:]
            assert got.u_rows[:r] == got.u_inv_cols[:r] == [None] * r
        else:
            assert got.u_rows is None and got.u_inv_cols is None
        if "v" in track:
            assert got.v_cols[r:] == ref.v_cols[r:]
            assert got.v_inv_rows[r:] == ref.v_inv_rows[r:]
            assert got.v_cols[:r] == got.v_inv_rows[:r] == [None] * r
        else:
            assert got.v_cols is None and got.v_inv_rows is None
    return forms[0][1]


def _next_boundaries(K):
    """Of each degree d of K: the next boundary in kernel coordinates, as
    ``HomologyDecomposition`` forms it, and the boundary of degree d + 1,
    each as (rows, cols)."""
    for d in range(K.dim + 1):
        n = K.n_simplices(d)
        A = (incidence_smith_normal_form(K.faces(1), K.n_simplices(0))
             if d == 1 else sparse_smith_normal_form(_boundary_rows(K, d), n,
                                                     _track="v"))
        B = _boundary_rows(K, d + 1)
        m = K.n_simplices(d + 1)
        yield [_combination(A.v_inv_rows[i], B)
               for i in range(A.rank, n)], m
        yield B, m


@pytest.mark.parametrize("K", _incidence_fixtures(), ids=lambda K: K.name)
def test_signed_form_matches_the_sparse_form_on_fixtures(K):
    for rows, cols in _next_boundaries(K):
        _assert_same_signed_form(rows, cols)


def test_signed_form_covers_both_branches_on_fixtures():
    """In degree 1 the forest answers C of every fixture but those with a
    factor 2 (rp2, klein, M_2) or more than two triangles on an edge (M_4,
    M_6), which C sends to the sparse form."""
    fallback = {"rp2-6", "klein-8", "moore-2", "moore-4-6"}
    for K in _incidence_fixtures():
        if K.dim == 2:
            rows, cols = next(itertools.islice(_next_boundaries(K), 2, 3))
            answered = signed_graph_smith_normal_form(rows, cols) is not None
            assert answered == (K.name not in fallback), K.name


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_signed_form_matches_the_sparse_form_on_grids(k):
    for weights in ((1, 1, 1), (1, 2, Fraction(3, 2))):
        for seed in (None, "signed-1", "signed-2", "signed-3"):
            for rows, cols in _next_boundaries(torus_grid(k, seed, weights)):
                _assert_same_signed_form(rows, cols)


def test_signed_form_tracks_v_on_tops():
    """On the top boundary, read off a dual forest tracking V: the lines
    match the sparse form's on every fixture (mobius-gap has one-entry
    rows), on Moore spaces and on identity and relabelled T3-T8 grids, and
    the forest answers all but the closed non-orientable tops (rp2, klein
    and M_2 have a factor 2) and M_3, M_4 and M_6, which have an edge on
    more than two triangles."""
    complexes = [make() for make in SUITE.values()]
    complexes += [moore_space(2), moore_space(3), moore_space(4, 6)]
    complexes += [torus_grid(k, seed) for k in range(3, 9)
                  for seed in (None, f"top-{k}-1", f"top-{k}-2")]
    fallback = {"rp2-6", "klein-8", "moore-2", "moore-3", "moore-4-6"}
    for K in complexes:
        rows, cols = _boundary_rows(K, K.dim), K.n_simplices(K.dim)
        got = _assert_same_signed_form(rows, cols)
        assert (got is None) == (K.name in fallback), K.name
        if got is not None and K.name != "mobius-gap":
            # A closed orientable surface: one kernel column, every
            # triangle with the sign of its orientation.
            v = signed_graph_smith_normal_form(rows, cols, _track="v")
            assert len(v.v_cols) - v.rank == 1
            assert sorted(v.v_cols[v.rank]) == list(range(cols))


def _random_signed_rows(rng, cols, n_rows):
    """Rows of zero, one or two entries of +-1 on ``cols`` columns."""
    rows = []
    for _ in range(n_rows):
        k = min(cols, rng.choice([0, 1, 1, 2, 2, 2, 2]))
        rows.append({c: rng.choice((1, -1))
                     for c in rng.sample(range(cols), k)})
    return rows


def test_signed_form_matches_the_sparse_form_on_random_rows():
    rng = random.Random("signed")
    seen = set()
    for _ in range(1500):
        cols = rng.randint(0, 9)
        rows = _random_signed_rows(rng, cols, rng.randint(0, 13))
        got = _assert_same_signed_form(rows, cols)
        seen.add(("factor 2", got is None))
        seen.add(("empty row", any(not row for row in rows)))
        seen.add(("one-entry row", any(len(row) == 1 for row in rows)))
        seen.add(("zero column",
                  len({c for row in rows for c in row}) < cols))
        if got is not None:
            kernel = [v for line in got.u_rows[got.rank:]
                      for v in line.values()]
            # A balanced cycle closes with a residual 0, an unbalanced one
            # in a grounded group with 2, pushed up to the ground.
            seen.add(("balanced cycle", any(abs(v) == 1 for v in kernel[1:])))
            seen.add(("grounded unbalanced cycle",
                      any(abs(v) == 2 for v in kernel)))
            v = signed_graph_smith_normal_form(rows, cols, _track="v")
            cycles = v.v_cols[v.rank:]
            seen.add(("lone column", any(len(x) == 1 for x in cycles)))
            seen.add(("balanced group", any(-1 in x.values() and len(x) > 2
                                            for x in cycles)))
            seen.add(("several groups", len(cycles) > 1))
            seen.add(("every group grounded", 0 < v.rank == cols))
    assert all((kind, True) in seen for kind, _ in seen)
    # Other shapes go to the sparse form.
    for rows, cols in [([{0: 1, 1: 1, 2: -1}], 3), ([{0: 2}], 1),
                       ([{0: 1, 1: -3}], 2), ([{0: 1}, {0: -1, 1: 2}], 2)]:
        assert _assert_same_signed_form(rows, cols) is None
    # An unbalanced triangle is 2 until a one-entry row grounds its group;
    # then row 2, swapped to position 3, closes with a residual 2 on column
    # 2, which the grounding row takes with coefficient -2.
    odd = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: -1, 2: -1}]
    assert _assert_same_signed_form(odd, 3) is None
    assert _assert_same_signed_form(odd + [{2: -1}], 3).u_rows[3] == \
        {2: 1, 0: 1, 1: -1, 3: -2}
    _assert_same_signed_form([], 0)
    _assert_same_signed_form([{}, {}], 0)


def test_mul_vec_matches_dense_product():
    rng = random.Random("mul-vec")
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        M = IntMatrix(rows, cols, [[rng.choice([0, 0, 1, -1, 3])
                                    for _ in range(cols)]
                                   for _ in range(rows)])
        ints = [rng.choice([0, 0, 2, -1]) for _ in range(cols)]
        fracs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(cols)]
        for v in (ints, fracs, [0] * cols, [Fraction(0)] * cols):
            dense = [sum((a * x for a, x in zip(row, v)), 0)
                     for row in M.data]
            assert M.mul_vec(v) == dense
    with pytest.raises(ShapeMismatchError):
        IntMatrix.identity(2).mul_vec([1])


def test_solve_with_snf_agrees_with_bounded_brute_force():
    # The reference mod-n decomposition solves through this oracle.
    rng = random.Random("solve-snf")
    for _ in range(1000):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = _random_matrix(rng, rows, cols, bound=3)
        x_true = [rng.randint(-2, 2) for _ in range(cols)]
        solvable = rng.random() < 0.5
        if solvable:
            b = A.mul_vec(x_true)
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        x = solve_with_snf(smith_normal_form(A), b)
        if x is not None:
            assert A.mul_vec(x) == b
        else:
            # The box is a one-sided oracle: solutions over Z can be large.
            assert not solvable
            assert not any(A.mul_vec(y) == b for y in
                           itertools.product(range(-6, 7), repeat=cols))
