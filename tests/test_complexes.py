"""Complex documents, boundary operators, chains, cochains and mass."""

import json
import random
from fractions import Fraction

import pytest

from conftest import random_complex, torus_grid
from oracles import boundary_matrix, reference_faces, reference_load

from homnorm.complexes import (Chain, Cochain, ComplexFormatError,
                               WeightedComplex, complex_from_json,
                               complex_to_json, dump_complex,
                               lift_chain, load_complex, mass, reduce_chain)
from homnorm.fixtures import (SUITE, klein8, mobius_band, rp2_6, torus7,
                              triangle_circle)
from homnorm.rings import INT, RAT, canonicalize, mod_ring

TRIANGLE_DOC = json.dumps({
    "name": "triangle-circle",
    "dimension": 1,
    "simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [0, 2], [1, 2]]},
})


def test_load_triangle_circle_defaults_unit_weights():
    K = load_complex(TRIANGLE_DOC)
    assert K.dim == 1
    assert K.n_simplices(0) == 3 and K.n_simplices(1) == 3
    assert all(w == 1 for w in K.weights[1])


def test_load_rejects_missing_face():
    doc = json.dumps({
        "name": "broken", "dimension": 2,
        "simplices": {"0": [[0], [1], [2]],
                      "1": [[0, 1], [0, 2]],
                      "2": [[0, 1, 2]]},
    })
    with pytest.raises(ComplexFormatError, match=r"\[1, 2\]"):
        load_complex(doc)


def test_load_rejects_nonpositive_weight():
    doc = json.dumps({
        "name": "flat", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
        "weights": {"1": ["0/1"]},
    })
    with pytest.raises(ComplexFormatError, match="nonpositive weight"):
        load_complex(doc)


def test_load_rejects_duplicates_and_unsorted():
    dup = json.dumps({
        "name": "dup", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[0, 1], [0, 1]]},
    })
    with pytest.raises(ComplexFormatError, match="duplicate"):
        load_complex(dup)
    unsorted_doc = json.dumps({
        "name": "unsorted", "dimension": 1,
        "simplices": {"0": [[0], [1]], "1": [[1, 0]]},
    })
    with pytest.raises(ComplexFormatError, match="strictly increasing"):
        load_complex(unsorted_doc)


def test_load_rejects_garbage():
    with pytest.raises(ComplexFormatError, match="parse error"):
        load_complex("{not json")
    with pytest.raises(ComplexFormatError, match="parse error"):
        load_complex("[" * 5000)  # deeper than the decoder's recursion limit
    with pytest.raises(ComplexFormatError):
        load_complex(json.dumps({"name": "x", "dimension": 1,
                                 "simplices": {"0": [[0]]}}))
    # a string in place of a vertex list, and a dimension that is not an
    # integer: rejected rather than read as vertices or truncated
    with pytest.raises(ComplexFormatError, match="vertex list"):
        load_complex(json.dumps({"name": "s", "dimension": 1,
                                 "simplices": {"0": "012", "1": [[0, 1]]}}))
    with pytest.raises(ComplexFormatError, match="vertex list"):
        load_complex(json.dumps({"name": "s", "dimension": 1,
                                 "simplices": {"0": ["0", "1"],
                                               "1": [[0, 1]]}}))
    for dim in (1.9, True, "1"):
        with pytest.raises(ComplexFormatError, match="dimension"):
            load_complex(json.dumps({"name": "d", "dimension": dim,
                                     "simplices": {"0": [[0], [1]],
                                                   "1": [[0, 1]]}}))
    # weights for a degree the complex does not have, and a name that is
    # not a string: rejected rather than ignored or converted
    with pytest.raises(ComplexFormatError, match="weights listed outside"):
        load_complex(json.dumps({"name": "w", "dimension": 1,
                                 "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                                 "weights": {"5": ["1"]}}))
    with pytest.raises(ComplexFormatError, match="'name' must be a string"):
        load_complex(json.dumps({"name": [1, 2], "dimension": 1,
                                 "simplices": {"0": [[0], [1]],
                                               "1": [[0, 1]]}}))


@pytest.mark.parametrize("weights", [{"1": [5]}, {"1": [0.5]}, {"1": [None]},
                                     {"1": "7"}, {"1": 5}])
def test_load_rejects_weights_that_are_not_rational_strings(weights):
    doc = json.dumps({"name": "w", "dimension": 1,
                      "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                      "weights": weights})
    with pytest.raises(ComplexFormatError, match="p/q"):
        load_complex(doc)


def _load_outcome(obj):
    try:
        K = complex_from_json(obj)
    except ComplexFormatError as exc:
        return "error", str(exc)
    return K.simplices, K.weights, tuple(map(K.faces, range(K.dim + 1)))


def _reference_outcome(obj):
    try:
        simplices, weights = reference_load(obj)
    except ComplexFormatError as exc:
        return "error", str(exc)
    return simplices, weights, tuple(reference_faces(simplices, d)
                                     for d in range(len(simplices)))


def _mutate(rng: random.Random, doc: dict, kind: str) -> dict:
    """A copy of ``doc`` with one seeded change of the given kind."""
    doc = json.loads(json.dumps(doc))
    simp, weights = doc["simplices"], doc.get("weights", {})
    dim = doc["dimension"]
    k = rng.randrange(dim if kind == "drop-face" else dim + 1)
    level, wlevel = simp[str(k)], weights.get(str(k))
    i = rng.randrange(len(level))
    if kind == "drop-face":
        del level[i]
        if wlevel is not None:
            del wlevel[i]
    elif kind == "duplicate":
        j = rng.randrange(len(level) + 1)
        level.insert(j, list(level[i]))
        if wlevel is not None:
            wlevel.insert(j, wlevel[i])
    elif kind == "shuffle-level":
        order = rng.sample(range(len(level)), len(level))
        simp[str(k)] = [level[j] for j in order]
        if wlevel is not None:
            weights[str(k)] = [wlevel[j] for j in order]
    elif kind == "reorder-vertices":
        k = rng.randrange(1, dim + 1)
        level = simp[str(k)]
        i = rng.randrange(len(level))
        level[i] = level[i][::-1]
    elif kind == "negative-vertex":
        s = level[i]
        j = rng.randrange(len(s))
        s[j] = -1 - s[j]
    elif kind == "vertex-count":
        s = level[i]
        if len(s) > 1 and rng.random() < 0.5:
            del s[rng.randrange(len(s))]
        else:
            s.append(max(s) + 1 + rng.randrange(3))
    else:  # a weight literal, one of the given kind's
        literals = {"bad-weight": ["0/1", "0", "-1/2", "-3", "1/0", "x",
                                   "1.5", "", "2/-3", "--1"],
                    "good-weight": [" 2/3 ", "4/6", "7", "10/5"]}[kind]
        wlevel = weights.setdefault(str(k), ["1/1"] * len(level))
        wlevel[i] = rng.choice(literals)
        doc["weights"] = weights
    return doc


LOAD_MUTATIONS = {"drop-face": False, "duplicate": False,
                  "reorder-vertices": False, "negative-vertex": False,
                  "vertex-count": False, "bad-weight": False,
                  "shuffle-level": True, "good-weight": True}


def test_load_matches_the_reference_reader():
    """Fixture documents, relabelled T3/T4 grid documents (one with its
    weights left to the default) and seeded mutations of them load to the
    reference reader's simplices, weights and faces, or fail with its
    message: dropped faces, duplicate simplices, shuffled levels, reversed
    vertex tuples, negative vertices, wrong vertex counts, and zero,
    negative, malformed or equivalent weight literals."""
    rng = random.Random("load-differential")
    docs = [complex_to_json(make()) for make in SUITE.values()]
    docs += [complex_to_json(torus_grid(k, seed=seed, weights=weights))
             for k, seed, weights in ((3, 5, (1, 1, 1)),
                                      (3, 6, (1, 2, Fraction(3, 2))),
                                      (4, 7, (1, 1, 1)),
                                      (4, 8, (Fraction(1, 3), 2, 5)))]
    del docs[-1]["weights"]
    for doc in docs:
        assert _load_outcome(doc) == _reference_outcome(doc)
        assert _load_outcome(doc)[0] != "error"
        for kind, valid in LOAD_MUTATIONS.items():
            for _ in range(3):
                mutated = _mutate(rng, doc, kind)
                got = _load_outcome(mutated)
                assert got == _reference_outcome(mutated), (doc["name"], kind)
                assert (got[0] != "error") == valid, (doc["name"], kind, got)


def test_document_round_trip(torus, mobius):
    for K in (torus, mobius):
        K2 = load_complex(dump_complex(K))
        assert complex_to_json(K2) == complex_to_json(K)


def test_boundary_triangle_circle(tc):
    assert tc.n_simplices(0) == 3 and len(tc.faces(1)) == 3
    for faces in tc.faces(1):
        assert len({i for i, _ in faces}) == 2
        assert sorted(sign for _, sign in faces) == [-1, 1]


def test_boundary_single_triangle():
    K = WeightedComplex("disk", [[(0,), (1,), (2,)],
                                 [(0, 1), (0, 2), (1, 2)],
                                 [(0, 1, 2)]])
    assert dict(K.faces(2)[0]) == {0: 1, 1: -1, 2: 1}


def test_boundary_squares_to_zero():
    """Walking faces of faces, every d-simplex reaches each (d-2)-face with
    signs summing to zero, on every fixture and a grid in every degree."""
    for K in [make() for make in SUITE.values()] + [torus_grid(3, seed=2)]:
        for d in range(2, K.dim + 1):
            lower = K.faces(d - 1)
            for faces in K.faces(d):
                total: dict[int, int] = {}
                for i, sign in faces:
                    for k, sign2 in lower[i]:
                        total[k] = total.get(k, 0) + sign * sign2
                assert not any(total.values())


def test_faces_follow_the_definition(tc, torus, rp2, mobius):
    """``faces(d)`` lists, for each d-simplex, the (d-1)-simplex left by
    omitting vertex i with sign (-1)^i, in the order of i; vertices have
    none; each degree is built once and degrees out of range are refused."""
    for K in (tc, torus, rp2, mobius, torus_grid(3, seed=2)):
        assert K.faces(0) == ((),) * K.n_simplices(0)
        for d in range(1, K.dim + 1):
            assert K.faces(d) is K.faces(d)
            assert K.faces(d) == tuple(
                tuple((K.index_of(d - 1, s[:i] + s[i + 1:]), (-1) ** i)
                      for i in range(d + 1))
                for s in K.simplices[d])
        for d in (-1, K.dim + 1):
            with pytest.raises(ValueError):
                K.faces(d)


def test_mass_examples():
    K = WeightedComplex("two-edges",
                        [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)]],
                        [[Fraction(1)] * 4, [Fraction(3, 2), Fraction(2)]])
    T = Chain.make(K, 1, INT, {0: 2, 1: -3})
    assert mass(K, T) == 9
    T4 = reduce_chain(T, mod_ring(4))
    assert mass(K, T4) == 5
    assert mass(K, Chain.zero(K, 1, INT)) == 0


def test_reduce_chain_examples(tc):
    T = Chain.make(tc, 1, INT, {0: 2, 1: -3})
    R = reduce_chain(T, mod_ring(4))
    assert dict(R.coeffs) == {0: 2, 1: 1}
    assert reduce_chain(Chain.zero(tc, 1, INT), mod_ring(4)).is_zero()
    dropped = reduce_chain(Chain.make(tc, 1, INT, {0: 5}), mod_ring(5))
    assert dropped.is_zero()


def test_lift_chain_round_trip(tc):
    T = Chain.make(tc, 1, mod_ring(5), {0: 3, 2: 1})
    lifted = lift_chain(T)
    assert dict(lifted.coeffs) == {0: -2, 2: 1}
    assert reduce_chain(lifted, mod_ring(5)) == T
    assert mass(tc, lifted) == mass(tc, T)


def test_mass_norm_axioms_random_chains(torus, mobius):
    rng = random.Random("mass-axioms")
    for K in (torus, mobius):
        n1 = K.n_simplices(1)
        for ring in (INT, RAT, mod_ring(6)):
            for _ in range(300):
                def rand_chain():
                    coeffs = {}
                    for i in rng.sample(range(n1), rng.randint(0, 4)):
                        if ring.is_rat:
                            coeffs[i] = Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 4))
                        elif ring.is_mod:
                            coeffs[i] = rng.randrange(6)
                        else:
                            coeffs[i] = rng.randint(-5, 5)
                    return Chain.make(K, 1, ring, coeffs)
                T, S = rand_chain(), rand_chain()
                assert mass(K, -T) == mass(K, T)
                assert mass(K, T + S) <= mass(K, T) + mass(K, S)
                assert (mass(K, T) == 0) == T.is_zero()


def test_mass_never_increases_under_reduction(torus):
    rng = random.Random("mass-reduce")
    n1 = torus.n_simplices(1)
    for _ in range(200):
        T = Chain.make(torus, 1, INT,
                       {i: rng.randint(-6, 6) for i in rng.sample(range(n1), 5)})
        for target in (RAT, mod_ring(2), mod_ring(5), mod_ring(9)):
            assert mass(torus, reduce_chain(T, target)) <= mass(torus, T)


def _canonicalize_fold(ring, items):
    """Chain coefficients by canonicalizing every value and every sum."""
    acc = {}
    for idx, value in items:
        v = canonicalize(ring, value)
        if v:
            acc[idx] = canonicalize(ring, acc.get(idx, canonicalize(ring, 0)) + v)
            if not acc[idx]:
                del acc[idx]
    return tuple(sorted(acc.items()))


def test_chain_make_matches_a_canonicalize_fold(torus):
    rng = random.Random("chain-make")
    n1 = torus.n_simplices(1)
    for ring in (INT, RAT, mod_ring(2), mod_ring(5), mod_ring(12)):
        for _ in range(150):
            items = []
            for _ in range(rng.randint(0, 10)):
                idx = rng.randrange(n1)
                kind = rng.randrange(4)
                if kind == 0:
                    value = rng.choice([0, 1, -1, 5, -12, 24, 10 ** 20 + 3])
                elif kind == 1:
                    value = Fraction(rng.randint(-30, 30),
                                     rng.randint(1, 4) if ring.is_rat else 1)
                elif kind == 2:
                    value = rng.choice([True, False])
                else:  # a pair that cancels, with a term between them
                    value = rng.randint(-9, 9)
                    items += [(idx, value), (rng.randrange(n1), 2)]
                    value = -value
                items.append((idx, value))
            expected = _canonicalize_fold(ring, items)
            got = Chain.make(torus, 1, ring, items).coeffs
            assert got == expected
            assert [type(v) for _, v in got] == [type(v) for _, v in expected]
    for ring, message in ((INT, "is not an integer"),
                          (mod_ring(4), "is not a residue")):
        with pytest.raises(ValueError, match=message):
            Chain.make(torus, 1, ring, [(0, 1), (1, Fraction(1, 2))])
    with pytest.raises(ValueError, match="no degree-1 simplex"):
        Chain.make(torus, 1, INT, {n1: 1})


def test_chain_serialization_round_trip(tc):
    for ring, coeffs in ((INT, {0: -2, 2: 5}), (RAT, {1: Fraction(1, 3)}),
                         (mod_ring(7), {0: 6})):
        T = Chain.make(tc, 1, ring, coeffs)
        assert Chain.from_json(tc, T.to_json()) == T


def test_cochain_closed_and_pairing(mobius):
    phi = Cochain.make(mobius, 1,
                       [Fraction(i + 1, 3) for i in range(mobius.n_simplices(1))])
    z = Chain.make(mobius, 1, INT, {0: 1, 3: -2})
    assert phi.evaluate(z) == Fraction(1, 3) - 2 * Fraction(4, 3)
    assert Cochain.zero(mobius, 1).is_closed()


def test_fractions_pass_through_unwrapped(tc):
    """Cochain values and complex weights that are already Fractions are
    kept as the same objects; ints and "p/q" strings become Fractions of
    the same value."""
    given = [Fraction(2, 3), 5, "7/4"]
    expect = [Fraction(2, 3), Fraction(5), Fraction(7, 4)]
    phi = Cochain.make(tc, 1, given)
    K = WeightedComplex("w", tc.simplices, [[1, 1, 1], given])
    for got in (phi.values, K.weights[1]):
        assert got == tuple(expect)
        assert all(type(v) is Fraction for v in got)
        assert got[0] is given[0]


def _dense_boundary(T: Chain) -> list:
    A = boundary_matrix(T.complex, T.degree)
    v = T.vector()
    out = [sum((A.data[i][j] * v[j] for j in range(A.cols)), 0)
           for i in range(A.rows)]
    return [x % T.ring.modulus for x in out] if T.ring.is_mod else out


def _dense_is_closed(phi: Cochain) -> bool:
    B = boundary_matrix(phi.complex, phi.degree + 1)
    return all(sum((B.data[i][j] * phi.values[i] for i in range(B.rows)),
                   Fraction(0)) == 0 for j in range(B.cols))


def test_face_walks_match_dense_boundary_matrices():
    """``boundary_vector`` and ``is_closed`` visit only faces; both must
    equal the dense boundary-matrix product in every degree, ends included."""
    rng = random.Random("face-walks")
    complexes = [triangle_circle(), torus7(), rp2_6(), klein8(), mobius_band(),
                 torus_grid(4, seed=3)] + [random_complex(rng) for _ in range(3)]
    closed_seen = {True: 0, False: 0}
    for K in complexes:
        for d in range(K.dim + 1):
            n = K.n_simplices(d)
            for ring in (INT, RAT, mod_ring(2), mod_ring(3), mod_ring(4)):
                for _ in range(3):
                    support = rng.sample(range(n), rng.randint(0, n))
                    coeffs = {i: (Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  if ring.is_rat else rng.randint(-5, 5))
                              for i in support}
                    T = Chain.make(K, d, ring, coeffs)
                    dense = _dense_boundary(T)
                    assert T.boundary_vector() == dense, (K.name, d, ring)
                    assert T.is_cycle() == (not any(dense))
            cochains = [Cochain.make(K, d, [Fraction(rng.randint(-3, 3),
                                                     rng.randint(1, 3))
                                            for _ in range(n)])
                        for _ in range(3)]
            if d > 0:
                # coboundaries of random (d-1)-cochains are closed
                A = boundary_matrix(K, d)
                psi = [Fraction(rng.randint(-3, 3)) for _ in range(A.rows)]
                cochains.append(Cochain.make(K, d, [
                    sum((A.data[i][j] * psi[i] for i in range(A.rows)),
                        Fraction(0)) for j in range(A.cols)]))
            for phi in cochains:
                closed = phi.is_closed()
                assert closed == _dense_is_closed(phi), (K.name, d)
                closed_seen[closed] += 1
    assert closed_seen[True] and closed_seen[False]


def test_scaled_weights_sibling(mobius):
    K2 = mobius.with_scaled_weights(1, [0, 1], Fraction(1, 2))
    assert K2.weights[1][0] == mobius.weights[1][0] / 2
    assert K2.weights[1][2] == mobius.weights[1][2]
    assert K2.simplices == mobius.simplices
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [99], Fraction(1, 2))
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [0], Fraction(0))
