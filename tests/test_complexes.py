"""Complex documents, boundary operators, chains, cochains and mass."""

import json
import random
from fractions import Fraction

import pytest

from homnorm.complexes import (Chain, Cochain, ComplexFormatError,
                               WeightedComplex, complex_to_json, dump_complex,
                               lift_chain, load_complex, mass, reduce_chain)
from homnorm.rings import INT, RAT, mod_ring

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


@pytest.mark.parametrize("weights", [{"1": [5]}, {"1": [0.5]}, {"1": [None]},
                                     {"1": "7"}, {"1": 5}])
def test_load_rejects_weights_that_are_not_rational_strings(weights):
    doc = json.dumps({"name": "w", "dimension": 1,
                      "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                      "weights": weights})
    with pytest.raises(ComplexFormatError, match="p/q"):
        load_complex(doc)


def test_document_round_trip(torus, mobius):
    for K in (torus, mobius):
        K2 = load_complex(dump_complex(K))
        assert complex_to_json(K2) == complex_to_json(K)


def test_boundary_triangle_circle(tc):
    m = tc.boundary_matrix(1)
    assert (m.rows, m.cols) == (3, 3)
    for j in range(3):
        col = m.column(j)
        assert sorted(col) == [-1, 0, 1]


def test_boundary_single_triangle():
    K = WeightedComplex("disk", [[(0,), (1,), (2,)],
                                 [(0, 1), (0, 2), (1, 2)],
                                 [(0, 1, 2)]])
    col = K.boundary_matrix(2).column(0)
    assert col == [1, -1, 1]


def test_boundary_squares_to_zero(torus, rp2, klein, mobius):
    for K in (torus, rp2, klein, mobius):
        prod = K.boundary_matrix(1).matmul(K.boundary_matrix(2))
        assert prod.is_zero()


def test_boundary_degree_out_of_range(tc):
    with pytest.raises(ValueError):
        tc.boundary_matrix(2)
    with pytest.raises(ValueError):
        tc.boundary_matrix(0)


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


def test_scaled_weights_sibling(mobius):
    K2 = mobius.with_scaled_weights(1, [0, 1], Fraction(1, 2))
    assert K2.weights[1][0] == mobius.weights[1][0] / 2
    assert K2.weights[1][2] == mobius.weights[1][2]
    assert K2.simplices == mobius.simplices
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [99], Fraction(1, 2))
    with pytest.raises(ValueError):
        mobius.with_scaled_weights(1, [0], Fraction(0))
