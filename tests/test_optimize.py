"""Minimizer engines against spec examples, brute-force oracles and norms axioms."""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from conftest import (graph_complex, horizontal_loop, random_class,
                      random_complex, small_corpus, torus_grid)
from oracles import (IntMatrix, boundary_matrix, brute_force_min_int,
                     brute_force_min_mod, brute_force_min_real,
                     reference_comass, reference_echelon_columns,
                     reference_is_closed, reference_search_lattice,
                     reference_split_lp, smith_normal_form)

from homnorm import optimize
from homnorm.complexes import (Chain, Cochain, WeightedComplex, dump_complex,
                               mass, reduce_chain)
from homnorm.fixtures import SUITE, mobius_band, torus7
from homnorm.homology import (HomologyDecomposition, InfeasibleClassError,
                              class_of_cycle, homology_decomposition,
                              reduce_class)
from homnorm.lp import solve_cycle_lp
from homnorm.optimize import (_echelon_columns, _search_lattice, comass,
                              lift_minimizer, min_int, min_mod, min_real,
                              verify_certificate)
from homnorm.rings import INT, RAT, canonical_lift, mod_ring


def _gen(dec):
    return dec.class_coords(INT, (1,) + (0,) * (dec.betti - 1),
                            (0,) * len(dec.torsion))


def test_min_real_triangle_circle(tc):
    dec = homology_decomposition(tc, 1)
    c = reduce_class(_gen(dec), RAT)
    rep = min_real(tc, 1, c)
    assert rep.value == 3
    assert len(rep.minimizers) == 1
    assert mass(tc, rep.minimizers[0]) == 3
    assert verify_certificate(tc, 1, c, rep.certificate, rep.value)
    zero = min_real(tc, 1, c.scale(0))
    assert zero.value == 0 and zero.minimizers[0].is_zero()
    assert zero.minimizer_count_exact


def test_min_real_mobius_half_weight_boundary():
    K = mobius_band(Fraction(1, 10))  # boundary total weight 1/2
    dec = homology_decomposition(K, 1)
    c = reduce_class(_gen(dec), RAT)
    rep = min_real(K, 1, c)
    assert rep.value == Fraction(1, 4)
    assert verify_certificate(K, 1, c, rep.certificate, rep.value)


def test_min_int_examples(tc):
    dec = homology_decomposition(tc, 1)
    g = _gen(dec)
    rep = min_int(tc, 1, g)
    assert rep.value == 3 and len(rep.minimizers) == 1
    assert rep.minimizer_count_exact
    rep2 = min_int(tc, 1, g.scale(2))
    assert rep2.value == 6
    zero = min_int(tc, 1, g.scale(0))
    assert zero.value == 0 and zero.minimizers[0].is_zero()


def test_min_int_mobius_gap(mobius):
    dec = homology_decomposition(mobius, 1)
    g = _gen(dec)
    vi = min_int(mobius, 1, g).value
    vr = min_real(mobius, 1, reduce_class(g, RAT)).value
    assert vi > 2 * vr


def test_min_mod_examples(tc):
    dec = homology_decomposition(tc, 1)
    g = _gen(dec)
    rep = min_mod(tc, 1, reduce_class(g, mod_ring(3)))
    assert rep.value == 3
    zero = min_mod(tc, 1, reduce_class(g, mod_ring(4)).scale(0))
    assert zero.value == 0


def test_min_mod_mobius_cheap_inverse_trick():
    K = mobius_band(Fraction(1, 10))
    dec = homology_decomposition(K, 1)
    rep = min_mod(K, 1, reduce_class(_gen(dec), mod_ring(3)))
    assert rep.value <= Fraction(1, 2)
    # the minimizer is 2^{-1} = -1 times the cheap boundary cycle
    assert rep.value == Fraction(1, 2)


def test_every_minimizer_is_cycle_in_class_with_value_mass(mobius):
    dec = homology_decomposition(mobius, 1)
    g = _gen(dec)
    for ring, rep in (
            (INT, min_int(mobius, 1, g)),
            (mod_ring(4), min_mod(mobius, 1, reduce_class(g, mod_ring(4))))):
        assert rep.minimizers == tuple(sorted(rep.minimizers,
                                              key=lambda ch: ch.coeffs))
        for T in rep.minimizers:
            assert T.is_cycle()
            assert mass(mobius, T) == rep.value
            assert class_of_cycle(mobius, 1, T) == rep.coords


def test_minimizer_cap_flags_inexact(mobius):
    dec = homology_decomposition(mobius, 1)
    g = _gen(dec)
    full = min_int(mobius, 1, g)
    assert full.minimizer_count_exact and len(full.minimizers) == 5
    capped = min_int(mobius, 1, g, cap=2)
    assert not capped.minimizer_count_exact
    assert len(capped.minimizers) == 2
    assert capped.value == full.value


def test_infeasible_class_errors(tc, torus):
    dec_t = homology_decomposition(torus, 1)
    c = dec_t.class_coords(INT, (1, 0))
    with pytest.raises(InfeasibleClassError):
        min_int(tc, 1, c)  # class from another complex
    with pytest.raises(InfeasibleClassError):
        min_int(torus, 1, reduce_class(c, RAT))  # wrong ring for engine


def test_comass_examples():
    from homnorm.complexes import WeightedComplex
    K = WeightedComplex("two", [[(0,), (1,), (2,)], [(0, 1), (1, 2)]],
                        [[Fraction(1)] * 3, [Fraction(1), Fraction(2)]])
    assert comass(K, Cochain.make(K, 1, [Fraction(1), Fraction(2)])) == 1
    assert comass(K, Cochain.zero(K, 1)) == 0
    assert comass(K, Cochain.make(K, 1, [Fraction(1), Fraction(3)])) == Fraction(3, 2)


def test_integer_certificate_checks_match_the_fraction_definitions():
    """``Cochain.is_closed`` and ``comass`` compute at one integer scale.
    They equal the Fraction definitions on zero cochains, random cochains,
    coboundaries and coboundaries with one value moved, with numerators and
    denominators up to 10**12, in every degree up to the top one, on the
    fixtures, relabelled grids (one with weights of denominator 10**12)
    and random complexes."""
    rng = random.Random("integer-certificates")

    def value():
        q = rng.choice((1, rng.randint(1, 10**3), rng.randint(1, 10**12)))
        return Fraction(rng.randint(-10**12, 10**12), q)

    complexes = [make() for make in SUITE.values()]
    complexes += [torus_grid(3, seed=21, weights=(1, 2, Fraction(3, 2))),
                  torus_grid(3, seed=22, weights=(Fraction(10**12 - 1, 7),
                                                  Fraction(3, 10**12), 1)),
                  torus_grid(4, seed=23)]
    complexes += [random_complex(rng) for _ in range(4)]
    closed_seen = {True: 0, False: 0}
    for K in complexes:
        for d in range(K.dim + 1):
            n = K.n_simplices(d)
            cochains = [[Fraction(0)] * n, [value() for _ in range(n)]]
            if d > 0:
                psi = [value() for _ in range(K.n_simplices(d - 1))]
                cob = [sum((psi[i] * sign for i, sign in faces), Fraction(0))
                       for faces in K.faces(d)]
                moved = list(cob)
                moved[rng.randrange(n)] += Fraction(1, rng.randint(1, 10**12))
                cochains += [cob, moved]
            for values in cochains:
                phi = Cochain.make(K, d, values)
                closed = phi.is_closed()
                assert closed == reference_is_closed(phi), (K.name, d)
                assert comass(K, phi) == reference_comass(K, phi), (K.name, d)
                closed_seen[closed] += 1
    assert closed_seen[True] and closed_seen[False]


def test_verify_certificate_rejects_bad(tc):
    dec = homology_decomposition(tc, 1)
    c = reduce_class(_gen(dec), RAT)
    rep = min_real(tc, 1, c)
    assert verify_certificate(tc, 1, c, rep.certificate, rep.value)
    doubled = Cochain.make(tc, 1, [2 * v for v in rep.certificate.values])
    assert not verify_certificate(tc, 1, c, doubled, 2 * rep.value)
    zero = c.scale(0)
    assert verify_certificate(tc, 1, zero, Cochain.zero(tc, 1), Fraction(0))
    assert not verify_certificate(tc, 1, c, rep.certificate,
                                  rep.value + 1)


def test_lift_minimizer_examples(tc, rp2):
    circle5 = Chain.make(tc, 1, mod_ring(5),
                         {0: 1, 2: 1, 1: 4})  # generator pattern mod 5
    rep = lift_minimizer(circle5)
    assert rep.is_cycle and rep.mass_preserved
    assert rep.lifted_class is not None
    assert rep.lifted_class.free_part in ((1,), (-1,))

    fund = Chain.make(rp2, 2, mod_ring(2),
                      {i: 1 for i in range(rp2.n_simplices(2))})
    rep2 = lift_minimizer(fund)
    assert not rep2.is_cycle and rep2.lifted_class is None
    assert rep2.mass_preserved

    zrep = lift_minimizer(Chain.zero(tc, 1, mod_ring(7)))
    assert zrep.is_cycle and zrep.lifted.is_zero()


def test_lift_round_trip_random(torus):
    rng = random.Random("lift-roundtrip")
    dec = homology_decomposition(torus, 1)
    for n in (2, 3, 5, 8):
        ring = mod_ring(n)
        for _ in range(10):
            c = dec.class_coords(INT,
                                 tuple(rng.randint(-2, 2) for _ in range(2)))
            rep = min_mod(torus, 1, reduce_class(c, ring), cap=50)
            for T in rep.minimizers[:3]:
                lifted = lift_minimizer(T)
                assert reduce_chain(lifted.lifted, ring) == T
                assert mass(torus, lifted.lifted) == mass(torus, T)


# -- oracle equivalence -----------------------------------------------------


def test_oracle_equivalence_small_corpus(corpus):
    for K, d, coord_list in corpus:
        dec = homology_decomposition(K, d)
        for free, torsion in coord_list:
            c = dec.class_coords(INT, free, torsion)
            rep = min_int(K, d, c)
            value, chains = brute_force_min_int(K, d, c)
            assert rep.value == value, (K.name, free)
            assert set(rep.minimizers) == chains, (K.name, free)
            assert rep.minimizer_count_exact

            creal = reduce_class(c, RAT)
            lp = min_real(K, d, creal)
            assert lp.value == brute_force_min_real(K, d, creal), (K.name, free)
            assert verify_certificate(K, d, creal, lp.certificate, lp.value)

            for n in (2, 3, 4, 6):
                cm = reduce_class(c, mod_ring(n))
                repm = min_mod(K, d, cm)
                vm, chm = brute_force_min_mod(K, d, cm)
                assert repm.value == vm, (K.name, free, n)
                assert set(repm.minimizers) == chm, (K.name, free, n)


# -- randomized inequality / axiom properties -------------------------------


def test_norm_inequalities_randomized():
    rng = random.Random("inequalities")
    for _ in range(20):
        K = random_complex(rng)
        dec = homology_decomposition(K, 1)
        c = random_class(rng, dec)
        vi = min_int(K, 1, c, cap=200).value
        vr = min_real(K, 1, reduce_class(c, RAT)).value
        assert vr <= vi
        for n in (2, 3, 5):
            vm = min_mod(K, 1, reduce_class(c, mod_ring(n)), cap=200).value
            assert vm <= vi
        k = rng.randint(2, 6)
        vk = min_int(K, 1, c.scale(k), cap=200).value
        assert vk <= k * vi


def _class_sum(a, b):
    """The class a + b, coordinate by coordinate."""
    def add(p, q):
        return [x + y for x, y in zip(p, q)]
    return a.decomposition.class_coords(
        a.ring, add(a.free_part, b.free_part),
        add(a.torsion_part, b.torsion_part),
        add(a.cotorsion_part, b.cotorsion_part))


def test_class_norm_triangle_inequality_randomized():
    rng = random.Random("triangle")
    for _ in range(8):
        K = random_complex(rng)
        dec = homology_decomposition(K, 1)
        c1 = random_class(rng, dec)
        c2 = random_class(rng, dec)
        for ring in (INT, RAT, mod_ring(4)):
            a, b = reduce_class(c1, ring), reduce_class(c2, ring)
            s = _class_sum(a, b)
            solve = (min_int if ring.is_int else
                     min_real if ring.is_rat else min_mod)
            va = solve(K, 1, a, 100).value
            vb = solve(K, 1, b, 100).value
            vs = solve(K, 1, s, 100).value
            assert vs <= va + vb


def test_real_homogeneity_randomized():
    rng = random.Random("homogeneity")
    for _ in range(10):
        K = random_complex(rng)
        dec = homology_decomposition(K, 1)
        c = reduce_class(random_class(rng, dec), RAT)
        base = min_real(K, 1, c).value
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        scaled = min_real(K, 1, c.scale(q)).value
        assert scaled == abs(q) * base


def test_lemma_sandwich_mod_scaling(tc, torus, rp2, klein, mobius):
    # |l|^-1 * |w| <= |k w| <= |k| * |w| for invertible canonical lifts k,
    # exhaustively over k.  n <= 12 on the small suite fixtures; the 21- and
    # 24-edge surfaces stop at n <= 5, where complete enumeration of the
    # scaled classes stays inside the desk-scale search budget.
    for K in (tc, torus, rp2, klein, mobius):
        n_top = 13 if K.n_simplices(1) <= 15 else 6
        dec = homology_decomposition(K, 1)
        if dec.betti:
            c0 = _gen(dec)
        else:
            c0 = dec.class_coords(INT, (), (1,))
        for n in range(2, n_top):
            ring = mod_ring(n)
            w = reduce_class(c0, ring)
            vw = min_mod(K, 1, w).value
            for k in range(-(n - 1) // 2, n // 2 + 1):
                if k == 0 or gcd(k, n) != 1:
                    continue
                l = canonical_lift(pow(k, -1, n), n)
                vkw = min_mod(K, 1, w.scale(k)).value
                assert vw <= abs(l) * vkw
                assert vkw <= abs(k) * vw
                assert Fraction(2, n) * vw <= vkw <= Fraction(n, 2) * vw


def test_strong_duality_every_run():
    rng = random.Random("duality")
    for _ in range(15):
        K = random_complex(rng)
        dec = homology_decomposition(K, 1)
        c = reduce_class(random_class(rng, dec), RAT)
        rep = min_real(K, 1, c)
        assert rep.certificate is not None
        assert verify_certificate(K, 1, c, rep.certificate, rep.value)


def test_min_real_rows_match_the_dense_boundary_rows():
    """``solve_cycle_lp`` on the sparse faces, the rows ``min_real`` builds
    in degree >= 2, agrees with the generic two-phase reference on the
    split LP of the dense boundary rows: the same value, vertex and duals,
    and the reference's pivots less its one phase-1 pivot per row, on the
    fixtures, relabelled T4 grids and random complexes, in every degree,
    the top one (no cofaces) included.  In degree >= 2 ``min_real``
    reports that solve; in degree 1 it reports the same value."""
    rng = random.Random("real-rows")
    complexes = [make() for make in SUITE.values()]
    complexes += [torus_grid(4, seed=seed) for seed in (1, 2)]
    complexes += [random_complex(rng) for _ in range(8)]
    solved = {"top": 0, "below": 0}
    for K in complexes:
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            if not dec.betti:
                continue
            for _ in range(2):
                free = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(dec.betti)]
                free[0] = free[0] or Fraction(1)
                c = dec.class_coords(RAT, tuple(free))
                z0 = dec.representative_vector(c)
                got = solve_cycle_lp(z0, K.weights[d],
                                     K.faces(d + 1) if d < K.dim else ())
                want = reference_split_lp(z0, K.weights[d],
                                          boundary_matrix(K, d + 1).data)
                n = K.n_simplices(d)
                assert got.value == want.value, (K.name, d)
                assert got.x == want.x and got.duals == want.duals
                assert got.pivots == want.pivots - n
                rep = min_real(K, d, c)
                assert rep.value == want.value
                if d >= 2:
                    assert rep.minimizers[0].vector() == \
                        [want.x[i] - want.x[n + i] for i in range(n)]
                    assert list(rep.certificate.values) == want.duals
                    assert rep.nodes_explored == got.pivots
                solved["top" if d == K.dim else "below"] += 1
    assert all(solved.values()), solved


def test_torsion_invisible_over_rationals(klein):
    dec = homology_decomposition(klein, 1)
    for a in (-2, 0, 1, 3):
        c = dec.class_coords(INT, (a,), (0,))
        ct = dec.class_coords(INT, (a,), (1,))
        assert reduce_class(c, RAT) == reduce_class(ct, RAT)
        va = min_real(klein, 1, reduce_class(c, RAT)).value
        vt = min_real(klein, 1, reduce_class(ct, RAT)).value
        assert va == vt


def test_oracle_equivalence_randomized_small():
    rng = random.Random("oracle-random")
    from conftest import graph_complex
    import itertools
    checked = 0
    while checked < 15:
        nv = rng.randint(4, 5)
        all_edges = list(itertools.combinations(range(nv), 2))
        edges = sorted(rng.sample(all_edges, rng.randint(nv, min(6, len(all_edges)))))
        edge_set = set(edges)
        tris = [t for t in itertools.combinations(range(nv), 3)
                if all(e in edge_set for e in itertools.combinations(t, 2))]
        tris = sorted(rng.sample(tris, min(len(tris), 1)))
        weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in edges]
        K = graph_complex(f"oracle-rand-{checked}", nv, edges, weights, tris)
        dec = homology_decomposition(K, 1)
        if dec.betti == 0:
            continue
        checked += 1
        c = random_class(rng, dec)
        rep = min_int(K, 1, c)
        value, chains = brute_force_min_int(K, 1, c)
        assert rep.value == value and set(rep.minimizers) == chains
        creal = reduce_class(c, RAT)
        assert min_real(K, 1, creal).value == brute_force_min_real(K, 1, creal)
        for n in (2, 3, 5):
            cm = reduce_class(c, mod_ring(n))
            repm = min_mod(K, 1, cm)
            vm, chm = brute_force_min_mod(K, 1, cm)
            assert repm.value == vm and set(repm.minimizers) == chm


# -- the search against the sorting, dense-column reference -----------------


def _dense(pivots, n_rows: int):
    return [(r, [col.get(i, 0) for i in range(n_rows)]) for r, col in pivots]


def _sparse(columns):
    return [[(i, x) for i, x in enumerate(col) if x] for col in columns]


def _both_searches(*args, phi=None, faces=None, modulus=None,
                   value_only=False, cocycles=None):
    """Run the search and its reference; they must agree on the optimum,
    the minimizer vectors in order and exactness.  Without a bound to prune
    on (a calibration, faces or cocycles) they also visit the same nodes;
    with one the search visits no more.  A value-only search must find the
    optimum, keep one of the reference's minimizers, report the count as
    not exact and visit no more nodes than the full search."""
    got = _search_lattice(*args, phi=phi, faces=faces, modulus=modulus,
                          value_only=value_only, cocycles=cocycles)
    wnum, z0, pivots, *rest = args
    want = reference_search_lattice(wnum, z0, _dense(pivots, len(wnum)),
                                    *rest)
    if value_only:
        full = _search_lattice(*args, phi=phi, faces=faces, modulus=modulus,
                               cocycles=cocycles)
        assert got[0] == want[0] and got[3] <= full[3]
        assert len(got[1]) == min(1, len(want[1]))
        assert set(got[1]) <= set(want[1]) or not want[2]
        assert not got[2] or not got[1]
    elif phi is None and faces is None and cocycles is None:
        assert got == want
    else:
        assert got[:3] == want[:3] and got[3] <= want[3]
    return got, want


def _random_search_instance(rng: random.Random, clip_zero: bool):
    n_rows = rng.randint(2, 7)
    columns = []
    for _ in range(rng.randint(1, n_rows + 1)):
        col = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n_rows)]
        columns.append([rng.choice((1, 2, 3)) * x for x in col])
    row_order = rng.sample(range(n_rows), n_rows)
    pivots = _echelon_columns(_sparse(columns), row_order)
    wnum = [rng.randint(1, 4) for _ in range(n_rows)]
    z0 = [rng.randint(-3, 3) for _ in range(n_rows)]
    m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
    lo = [-(m0 // w) for w in wnum]
    hi = [m0 // w for w in wnum]
    if rng.random() < 0.5:  # intersect a residue range, as min_mod does
        n = rng.randint(2, 5)
        lo = [max(l, -((n - 1) // 2)) for l in lo]
        hi = [min(h, n // 2) for h in hi]
    if clip_zero:
        for r in rng.sample(range(n_rows), rng.randint(1, n_rows)):
            lo[r] = hi[r] = 0
    return wnum, z0, pivots, row_order, lo, hi, m0


def test_search_matches_reference_on_random_lattices():
    rng = random.Random("search-differential")
    seen = {"g>1": 0, "clipped": 0, "found": 0, "capped": 0}
    for trial in range(300):
        clip = trial % 3 == 0
        wnum, z0, pivots, order, lo, hi, m0 = _random_search_instance(rng, clip)
        seen["g>1"] += any(col[r] > 1 for r, col in pivots)
        seen["clipped"] += clip
        (best, sols, exact, _), _ = _both_searches(
            wnum, z0, pivots, order, lo, hi, m0, 10_000)
        seen["found"] += bool(sols)
        for cap in (1, 2):
            got, _ = _both_searches(wnum, z0, pivots, order, lo, hi, m0, cap)
            seen["capped"] += not got[2]
        _both_searches(wnum, z0, pivots, order, lo, hi, m0, 10_000,
                       value_only=True)
    assert all(seen.values()), seen


def _random_calibration(rng: random.Random, wnum, pivots, m0):
    """A random calibration of a search instance: an integer phi orthogonal
    to every pivot column, with the weights and the mass cap rescaled so
    that |phi_s| <= w_s holds with equality on some row."""
    n_rows = len(wnum)
    if pivots:
        snf = smith_normal_form(IntMatrix.from_rows(
            [c for _, c in _dense(pivots, n_rows)]))
        kernel = [snf.V.column(j) for j in range(snf.rank, n_rows)]
    else:
        kernel = [[int(i == j) for i in range(n_rows)] for j in range(n_rows)]
    h = [0] * n_rows
    for vec in kernel:
        a = rng.randint(-2, 2)
        h = [x + a * y for x, y in zip(h, vec)]
    if not any(h):
        return wnum, h, m0
    lam = min(Fraction(w, abs(x)) for w, x in zip(wnum, h) if x)
    return ([w * lam.denominator for w in wnum],
            [lam.numerator * x for x in h], m0 * lam.denominator)


def test_calibrated_search_matches_reference_on_random_lattices():
    """With a calibration the search finds the reference's optimum, the
    same minimizers in the same order and the same exactness, in no more
    nodes; here the calibration is tight on some row, so it prunes."""
    rng = random.Random("search-calibrated")
    pruned = 0
    for trial in range(150):
        wnum, z0, pivots, order, lo, hi, m0 = _random_search_instance(
            rng, trial % 3 == 0)
        wnum, phi, m0 = _random_calibration(rng, wnum, pivots, m0)
        args = (wnum, z0, pivots, order, lo, hi, m0)
        nodes = _both_searches(*args, 10_000, phi=phi)[0][3]
        pruned += nodes < _search_lattice(*args, 10_000)[3]
        for cap in (1, 2):
            _both_searches(*args, cap, phi=phi)
        _both_searches(*args, 10_000, phi=phi, value_only=True)
    assert pruned


def test_search_without_pivots_matches_reference():
    wnum, z0 = [2, 1, 3], [1, -2, 0]
    for lo, hi in (([-3, -6, -2], [3, 6, 2]), ([0, 0, 0], [0, 0, 0])):
        for cap_mass in (4, 3):
            _both_searches(wnum, z0, [], [2, 0, 1], lo, hi, cap_mass, 5)


def test_search_rejects_boxes_without_zero():
    with pytest.raises(ValueError):
        _search_lattice([1], [1], [], [0], [1], [2], 1, 5)


def _loop_class(K, k: int, seed):
    """Integral class of the horizontal loop of ``torus_grid(k, seed)``."""
    return class_of_cycle(K, 1, Chain.make(K, 1, INT, {
        int(i): int(c) for i, c in (item.split("=") for item in
                                     horizontal_loop(K, k, seed).split(","))}))


def _checked_search(monkeypatch):
    """Swap the engines' search for one that runs the reference beside it.

    Returns the list, filled as the engines search, of (calibrated, has
    faces, nodes, reference nodes, has cocycles) per search."""
    calls = []

    def search(*args, phi=None, faces=None, modulus=None, value_only=False,
               cocycles=None):
        got, want = _both_searches(*args, phi=phi, faces=faces,
                                   modulus=modulus, value_only=value_only,
                                   cocycles=cocycles)
        calls.append((phi is not None, faces is not None, got[3], want[3],
                      cocycles is not None))
        return got

    monkeypatch.setattr(optimize, "_search_lattice", search)
    return calls


@pytest.mark.parametrize("k,seed,weights", [
    (3, 1, (1, 1, 1)), (3, 2, (1, 1, 1)), (4, 5, (1, 1, 1)),
    (3, 4, (1, 2, Fraction(3, 2))), (4, 6, (Fraction(1, 3), 1, 1))],
    ids=["3-1", "3-2", "4-5", "3-4-weighted", "4-6-weighted"])
def test_search_matches_reference_on_grid_echelons(monkeypatch, k, seed,
                                                   weights):
    """Every search ``min_int`` and ``min_mod`` make on relabelled grids,
    over Z, Z/2, Z/3 and Z/4, agrees with the reference; over Z the search
    prunes on the real calibration, over Z/n on the level cocycles of the
    loop's dual cocycle instead, and both prune on the face residuals,
    somewhere visiting fewer nodes."""
    calls = _checked_search(monkeypatch)
    K = torus_grid(k, seed=seed, weights=weights)
    loop = _loop_class(K, k, seed)
    assert min_int(K, 1, loop).value == k * weights[0]
    for n in (2, 3, 4):
        assert min_mod(K, 1, reduce_class(loop, mod_ring(n))).value == \
            k * weights[0]
    assert [c[0] for c in calls] == [True, False, False, False]
    assert [c[4] for c in calls] == [False, True, True, True]
    assert all(c[1] for c in calls)
    assert any(got < want for _, _, got, want, _ in calls[1:])


_WEIGHTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
            Fraction(7))


def _random_complex_with_moves(rng: random.Random, d: int) -> WeightedComplex:
    """Random complex with b_d >= 1 and many (d+1)-simplices, whose
    d-simplices weigh from 1/3 to 7.

    Degree 1: a random graph on 6 or 7 vertices with about 2/3 of the
    edges and half of the triangles they span.  Degree 2: the triangles of
    3 or 4 random 4-sets of 6 or 7 vertices plus a few more, with 1 or 2
    of the 4-sets filled by tetrahedra.
    """
    while True:
        nv = rng.randint(6, 7)
        if d == 1:
            edges = [e for e in combinations(range(nv), 2) if rng.random() < 0.65]
            edge_set = set(edges)
            spanned = [t for t in combinations(range(nv), 3)
                       if set(combinations(t, 2)) <= edge_set]
            levels = [edges, sorted(rng.sample(spanned, len(spanned) // 2))]
        else:
            quads = rng.sample(list(combinations(range(nv), 4)),
                               rng.randint(3, 4))
            tris = {f for q in quads for f in combinations(q, 3)}
            tris |= set(rng.sample(list(combinations(range(nv), 3)), 2))
            tris = sorted(tris)
            edges = sorted({e for t in tris for e in combinations(t, 2)})
            levels = [edges, tris, sorted(rng.sample(quads, rng.randint(1, 2)))]
        levels = [[(v,) for v in range(nv)]] + levels
        weights = [[Fraction(1)] * len(level) for level in levels]
        weights[d] = [rng.choice(_WEIGHTS) for _ in levels[d]]
        K = WeightedComplex(f"random{d}-{rng.randint(0, 10**6)}", levels,
                            weights)
        if homology_decomposition(K, d).betti >= 1:
            return K


@pytest.mark.parametrize("d", [1, 2])
def test_search_matches_reference_on_random_complexes(monkeypatch, d):
    """On random complexes in degree 1 and degree 2, with weights from 1/3
    to 7, every search ``min_int`` and ``min_mod`` make over Z and Z/2..Z/6
    agrees with the reference, and the face residuals prune.  Level
    cocycles join some of the mod-n searches in degree 1 only."""
    calls = _checked_search(monkeypatch)
    rng = random.Random(f"residual-bound-{d}")
    for _ in range(16):
        K = _random_complex_with_moves(rng, d)
        c = random_class(rng, homology_decomposition(K, d))
        reports = [min_int(K, d, c, cap=200)]
        for n in range(2, 7):
            reports.append(min_mod(K, d, reduce_class(c, mod_ring(n)),
                                   cap=200))
        for rep in reports:
            for T in rep.minimizers:
                assert T.is_cycle() and mass(K, T) == rep.value
    assert calls and all(c[1] for c in calls)
    assert any(got < want for _, _, got, want, _ in calls)
    assert any(c[4] for c in calls) is (d == 1)


def test_search_with_simplices_heavier_than_the_budget(monkeypatch):
    """A filled triangle of weight-50 edges hangs off a unit triangle loop:
    its edges cost more than the residual bound's "no row left" weight, and
    vertices 3 and 4 touch no other edge.  The search still finds the loop
    alone, over Z and Z/2..Z/4, as the reference does."""
    calls = _checked_search(monkeypatch)
    K = WeightedComplex(
        "loop-and-heavy-disk", [[(v,) for v in range(5)],
                                [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                                [(2, 3, 4)]],
        [[Fraction(1)] * 5, [Fraction(1)] * 3 + [Fraction(50)] * 3,
         [Fraction(1)]])
    loop = class_of_cycle(K, 1, Chain.make(K, 1, INT, {0: 1, 1: -1, 2: 1}))
    reports = [min_int(K, 1, loop)] + [
        min_mod(K, 1, reduce_class(loop, mod_ring(n))) for n in (2, 3, 4)]
    for rep in reports:
        assert rep.value == 3 and len(rep.minimizers) == 1
    assert len(calls) == 4 and all(c[1] for c in calls)


def test_min_int_checks_its_calibration(monkeypatch, torus):
    """A certificate that is not closed, or has comass above 1, is refused
    before it can prune."""
    c = _gen(homology_decomposition(torus, 1))
    real = optimize.min_real
    tamperings = (lambda vs: [2 * v for v in vs],
                  lambda vs: [v / 2 + Fraction(int(i == 0), 100)
                              for i, v in enumerate(vs)])
    for tamper in tamperings:
        def fake(K, d, cr, cap=optimize.DEFAULT_MINIMIZER_CAP):
            rep = real(K, d, cr, cap)
            rep.certificate = Cochain.make(K, d, tamper(rep.certificate.values))
            return rep
        monkeypatch.setattr(optimize, "min_real", fake)
        with pytest.raises(AssertionError):
            min_int(torus, 1, c)


# -- invariants beyond the reach of the oracles -----------------------------


@pytest.mark.parametrize("k", [5, 6, 7])
def test_min_int_horizontal_loop_on_large_grids(k):
    """On a relabelled unit k x k grid the horizontal loop's class has
    value k and exactly k minimizers, the k grid rows."""
    K = torus_grid(k, seed=k)
    rep = min_int(K, 1, _loop_class(K, k, k))
    assert rep.value == k and len(rep.minimizers) == k
    assert rep.minimizer_count_exact


def test_min_int_invariants_on_t5_diagonal_class():
    """Every minimizer of T5 ``f:1,1`` is a cycle in the class with mass
    equal to the value, and the real norm does not exceed it."""
    K = torus_grid(5)
    c = homology_decomposition(K, 1).class_coords(INT, (1, 1))
    rep = min_int(K, 1, c)
    assert rep.minimizer_count_exact and len(rep.minimizers) == 630
    for T in rep.minimizers:
        assert T.is_cycle() and mass(K, T) == rep.value
        assert class_of_cycle(K, 1, T) == c
    assert min_real(K, 1, reduce_class(c, RAT)).value <= rep.value



@pytest.mark.parametrize("n", [2, 3])
def test_min_mod_horizontal_loop_on_relabelled_t5(n):
    """Over Z/2 and Z/3 the horizontal loop of a relabelled unit 5 x 5 grid
    has value 5 and exactly 5 minimizers, the grid rows: each a mod-n cycle
    in the class with mass equal to the value."""
    K = torus_grid(5, seed=5)
    c = reduce_class(_loop_class(K, 5, 5), mod_ring(n))
    rep = min_mod(K, 1, c)
    assert rep.value == 5 and len(rep.minimizers) == 5
    assert rep.minimizer_count_exact
    for T in rep.minimizers:
        assert T.ring == mod_ring(n) and T.is_cycle()
        assert mass(K, T) == rep.value
        assert class_of_cycle(K, 1, T) == c


def test_min_mod_over_a_large_modulus(torus):
    """Nothing in the search grows with the modulus: over Z/10^12 the torus
    loop ``f:1,0`` has the integral value 3, and its minimizers are the 7
    integral ones reduced mod 10^12."""
    n = 10**12
    c = _gen(homology_decomposition(torus, 1))
    want = min_int(torus, 1, c)
    rep = min_mod(torus, 1, reduce_class(c, mod_ring(n)))
    assert rep.value == want.value == 3 and rep.minimizer_count_exact
    assert len(rep.minimizers) == 7
    assert set(rep.minimizers) == {reduce_chain(T, mod_ring(n))
                                   for T in want.minimizers}


def _echelon_cases():
    for name, make in SUITE.items():
        K = make()
        for d in range(K.dim):
            yield name, K, d
    for k, seed in ((3, 1), (3, 2), (4, 5), (4, 6)):
        yield f"T{k}-{seed}", torus_grid(k, seed=seed), 1


def test_lazy_echelon_matches_dense_build():
    """The sparse echelon, which adds n*e_r only when it reaches row r,
    returns the pivots of the dense build with every n*e_r listed up
    front, over Z and Z/2..Z/6, on the fixtures in every degree with
    boundary moves and on relabelled T3 and T4 grids, in the engines' row
    order and in a random one."""
    rng = random.Random("lazy-echelon")
    for name, K, d in _echelon_cases():
        weights = K.weights[d]
        N = len(weights)
        B = boundary_matrix(K, d + 1)
        for order in (sorted(range(N), key=lambda r: (-weights[r], r)),
                      rng.sample(range(N), N)):
            for n in (None, 2, 3, 4, 5, 6):
                dense = [B.column(j) for j in range(B.cols)]
                if n is not None:
                    dense += [[n * (i == r) for i in range(N)]
                              for r in range(N)]
                got = _echelon_columns(K.faces(d + 1), order, n)
                assert _dense(got, N) == \
                    reference_echelon_columns(dense, order), (name, d, n)


def _relabelled_grids(sizes):
    """Seeded relabelled unit and anisotropic k x k grids, each with the
    integral class of its horizontal loop, given as a chain payload."""
    for k in sizes:
        for seed, weights in ((10 * k + 1, (1, 1, 1)),
                              (10 * k + 2, (1, 2, Fraction(3, 2)))):
            K = torus_grid(k, seed=seed, weights=weights)
            yield K, _loop_class(K, k, seed)


def _assert_minimizers_in_class(K, rep, c):
    for T in rep.minimizers:
        assert T.ring == c.ring and T.is_cycle()
        assert mass(K, T) == rep.value
        assert class_of_cycle(K, 1, T) == c


@pytest.mark.parametrize("k", [3, 4])
def test_engine_invariants_on_relabelled_grids(k):
    """Sandwich, scaling, minimizer and certificate invariants where no
    brute-force oracle reaches: value_real <= value_int, value_mod of the
    reduction <= value_int, value_real(m c) = |m| value_real(c) and
    value_int(m c) <= |m| value_int(c)."""
    for K, c in _relabelled_grids([k]):
        rep_int = min_int(K, 1, c)
        _assert_minimizers_in_class(K, rep_int, c)
        cq = reduce_class(c, RAT)
        rep_real = min_real(K, 1, cq)
        _assert_minimizers_in_class(K, rep_real, cq)
        assert verify_certificate(K, 1, cq, rep_real.certificate,
                                  rep_real.value)
        assert rep_real.value <= rep_int.value
        for n in (2, 3, 4):
            cn = reduce_class(c, mod_ring(n))
            rep_mod = min_mod(K, 1, cn)
            _assert_minimizers_in_class(K, rep_mod, cn)
            assert rep_mod.value <= rep_int.value
        for m in (-2, 2, 3):
            assert min_real(K, 1, cq.scale(m)).value == abs(m) * rep_real.value
            rep_m = min_int(K, 1, c.scale(m))
            _assert_minimizers_in_class(K, rep_m, c.scale(m))
            assert rep_m.value <= abs(m) * rep_int.value


def test_real_invariants_on_relabelled_t5():
    """Over Q on relabelled T5 grids: the minimizer is a cycle in the class
    with mass equal to the value, the certificate verifies, and the value
    scales by |q| under q c."""
    for K, c in _relabelled_grids([5]):
        cq = reduce_class(c, RAT)
        rep = min_real(K, 1, cq)
        _assert_minimizers_in_class(K, rep, cq)
        assert verify_certificate(K, 1, cq, rep.certificate, rep.value)
        for q in (Fraction(-3), Fraction(1, 2), Fraction(-5, 3)):
            scaled = min_real(K, 1, cq.scale(q))
            assert scaled.value == abs(q) * rep.value
            _assert_minimizers_in_class(K, scaled, cq.scale(q))
            assert verify_certificate(K, 1, cq.scale(q), scaled.certificate,
                                      scaled.value)


# -- value-only calls and the searches they skip ----------------------------


def _fixture_classes():
    """(complex, degree, integral class) for each fixture degree with
    nontrivial homology: every basis class and twice the first one."""
    for make in SUITE.values():
        K = make()
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            units = [(tuple(int(i == j) for i in range(dec.betti)),
                      (0,) * len(dec.torsion)) for j in range(dec.betti)]
            units += [((0,) * dec.betti,
                       tuple(int(i == j) for i in range(len(dec.torsion))))
                      for j in range(len(dec.torsion))]
            classes = [dec.class_coords(INT, *u) for u in units]
            for c in classes + [c.scale(2) for c in classes[:1]]:
                yield K, d, c


def _assert_value_only_agrees(K, d, c):
    """Over Z and Z/2..Z/5, a value-only call finds the full call's value
    and one of its minimizers, says the count is not exact and visits no
    more nodes."""
    calls = [(min_int, c)] + [(min_mod, reduce_class(c, mod_ring(n)))
                              for n in range(2, 6)]
    for engine, cr in calls:
        full = engine(K, d, cr)
        fast = engine(K, d, cr, optimize.DEFAULT_MINIMIZER_CAP, True)
        assert full.minimizer_count_exact
        assert fast.value == full.value, (K.name, d, cr)
        assert len(fast.minimizers) == 1
        assert fast.minimizers[0] in full.minimizers
        assert not fast.minimizer_count_exact
        assert fast.nodes_explored <= full.nodes_explored


def test_value_only_matches_full_on_fixtures_and_grids():
    """On the fixtures, including the zero class 2t of a Z/2 torsion class,
    and on relabelled unit and weighted T3 and T4 grids."""
    for K, d, c in _fixture_classes():
        _assert_value_only_agrees(K, d, c)
    for K, c in _relabelled_grids([3, 4]):
        _assert_value_only_agrees(K, 1, c)


def test_value_only_search_matches_reference_on_random_complexes(monkeypatch):
    """Every value-only search on random complexes agrees with the
    reference's value and minimizers; the one beside it, checked the same
    way, is the full search."""
    calls = _checked_search(monkeypatch)
    rng = random.Random("value-only")
    for _ in range(12):
        K = random_complex(rng)
        c = random_class(rng, homology_decomposition(K, 1))
        _assert_value_only_agrees(K, 1, c)
    assert calls


def test_value_only_min_int_ends_at_an_integral_lp_vertex(monkeypatch):
    """On the anisotropic T3 grid relabelled by seed 12, k*(1,1) has
    hundreds of integral minimizers at k = 2, yet its LP vertex is an
    integral cycle in the class: a value-only call reports it with no
    search."""
    K = torus_grid(3, seed=12, weights=(1, 2, Fraction(3, 2)))
    c = homology_decomposition(K, 1).class_coords(INT, (1, 1))

    def no_search(*args, **kwargs):
        raise AssertionError("the lattice search ran")

    monkeypatch.setattr(optimize, "_search_lattice", no_search)
    for k in (1, 2, 3):
        rep = min_int(K, 1, c.scale(k), optimize.DEFAULT_MINIMIZER_CAP, True)
        assert rep.value == k * Fraction(21, 2) and rep.nodes_explored == 0
        _assert_minimizers_in_class(K, rep, c.scale(k))
        assert not rep.minimizer_count_exact


def _top_degree_cases():
    for K in (torus_grid(4), torus_grid(6, seed=6)):
        yield K, 2
    for make in SUITE.values():
        K = make()
        yield K, K.dim


@pytest.mark.parametrize("value_only", [False, True])
def test_top_degree_classes_never_search(monkeypatch, value_only):
    """In the top degree there are no boundary moves, so the coset is the
    class representative alone.  Over Z and Z/2..Z/4, cotorsion classes
    included, the report is that representative, with 0 nodes, and the
    lattice search never runs."""
    def no_search(*args, **kwargs):
        raise AssertionError("the lattice search ran")

    monkeypatch.setattr(optimize, "_search_lattice", no_search)
    seen = 0
    for K, d in _top_degree_cases():
        dec = homology_decomposition(K, d)
        classes = [dec.class_coords(INT, (1,) * dec.betti,
                                    (1,) * len(dec.torsion))]
        for n in (2, 3, 4):
            ring = mod_ring(n)
            classes.append(reduce_class(classes[0], ring))
            m = len(dec.mod(n).cotorsion)
            classes += [dec.class_coords(ring, (0,) * dec.betti,
                                         (0,) * len(dec.torsion),
                                         tuple(int(i == j) for i in range(m)))
                        for j in range(m)]
        for c in classes:
            if c.is_zero():
                continue
            engine = min_int if c.ring.is_int else min_mod
            rep = engine(K, d, c, optimize.DEFAULT_MINIMIZER_CAP, value_only)
            z = Chain.from_vector(K, d, c.ring, dec.representative_vector(c))
            assert rep.value == mass(K, z)
            assert rep.minimizers == (z,) and rep.nodes_explored == 0
            assert rep.minimizer_count_exact is not value_only
            assert rep.certificate is None
            seen += 1
    assert seen >= 20


# -- the mod-n calibration: level cocycles of the least-comass dual --------


def _degree_one_cases():
    """(complex, decomposition) in degree 1 with b_1 >= 1: the fixtures,
    relabelled unit and anisotropic T3/T4 grids, and random complexes."""
    for make in SUITE.values():
        K = make()
        if K.dim >= 1 and homology_decomposition(K, 1).betti:
            yield K, homology_decomposition(K, 1)
    for K, _ in _relabelled_grids([3, 4]):
        yield K, homology_decomposition(K, 1)
    rng = random.Random("level-cocycles")
    for _ in range(12):
        K = random_complex(rng)
        yield K, homology_decomposition(K, 1)


def _pair(h, z) -> int:
    return sum(h.get(s, 0) * v for s, v in z.coeffs)


def test_least_comass_form_matches_the_lp():
    """T* = min w(C)/eta_i(C) equals the LP minimum of the mass over the
    real cycles b_i + boundaries + sum_{j != i} s_j b_j; the form
    phi = (D phi)/D is closed with comass <= 1 and phi(b_j) = T* delta_ij."""
    for K, dec in _degree_one_cases():
        cofaces = list(K.faces(2)) if K.dim >= 2 else []
        for i in range(dec.betti):
            T, D, dphi, _ = optimize._least_comass(K, dec.dual_cocycle(i),
                                                   dec.free_basis[i])
            others = [b.coeffs for j, b in enumerate(dec.free_basis) if j != i]
            lp = solve_cycle_lp([Fraction(v) for v in dec.free_basis[i].vector()],
                                K.weights[1], cofaces + others)
            assert T == lp.value, (K.name, i)
            phi = Cochain.make(K, 1, [Fraction(x, D) for x in dphi])
            assert phi.is_closed() and comass(K, phi) <= 1
            assert [phi.evaluate_vector(b.vector())
                    for b in dec.free_basis] == \
                [T * (j == i) for j in range(dec.betti)]


def _levels(incidences):
    """The level cocycles as {edge: coeff} maps, from the incidences."""
    levels: dict[int, dict[int, int]] = {}
    for e, row in enumerate(incidences):
        for lv, hv in row:
            levels.setdefault(lv, {})[e] = hv
    return [levels[lv] for lv in sorted(levels)]


def test_level_cocycles_are_closed_and_packed():
    """Every level is a closed integral cocycle, the levels add up to
    D*phi, so sum_m |h_m(e)| = |D phi_e| <= D w_e, and each takes
    D phi(z)/g on every cycle z, g the number of levels."""
    families = 0
    for K, dec in _degree_one_cases():
        cofaces = K.faces(2) if K.dim >= 2 else ()
        for i in range(dec.betti):
            family = optimize._level_cocycles(K, dec, i)
            if family is None:
                continue
            families += 1
            D, incidences = family
            _, D_phi, dphi, _ = optimize._least_comass(
                K, dec.dual_cocycle(i), dec.free_basis[i])
            assert D == D_phi
            levels = _levels(incidences)
            for h in levels:
                assert not any(sum(sign * h.get(e, 0) for e, sign in fs)
                               for fs in cofaces)
            for e, w in enumerate(K.weights[1]):
                assert sum(h.get(e, 0) for h in levels) == dphi[e]
                assert sum(abs(h.get(e, 0)) for h in levels) <= D * w
            for b in dec.free_basis:
                period = sum(dphi[s] * v for s, v in b.coeffs)
                assert all(_pair(h, b) * len(levels) == period
                           for h in levels)
    assert families >= 12


def _root_bound(K, dec, i, z0, n):
    """(1/D) sum_m dist(h_m(z0), nZ) for the levels of free index i."""
    D, incidences = optimize._level_cocycles(K, dec, i)
    z = Chain.make(K, 1, INT, dict(enumerate(z0)))
    return Fraction(sum(min(h % n, -h % n)
                        for h in (_pair(h, z) for h in _levels(incidences))),
                    D)


def test_level_bound_at_the_root_never_exceeds_the_value():
    """For n = 2..5 and every family, the bound at the root is at most the
    brute-force mod-n value on the small corpus and on small random
    graphs; on the unit k x k grid the k strip levels meet the value k."""
    rng = random.Random("level-root-bound")
    cases = [(K, [c for c, _ in coords]) for K, d, coords in small_corpus()
             if d == 1]
    while len(cases) < 14:
        nv = rng.randint(4, 5)
        edges = sorted(rng.sample(list(combinations(range(nv), 2)),
                                  rng.randint(nv, min(6, nv * (nv - 1) // 2))))
        weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3))
                   for _ in edges]
        K = graph_complex(f"root-bound-{len(cases)}", nv, edges, weights)
        dec = homology_decomposition(K, 1)
        if dec.betti:
            cases.append((K, [random_class(rng, dec).free_part]))
    bounded = 0
    for K, frees in cases:
        dec = homology_decomposition(K, 1)
        for free in frees:
            c = dec.class_coords(INT, free, ())
            for n in range(2, 6):
                cn = reduce_class(c, mod_ring(n))
                z0 = [canonical_lift(int(v) % n, n)
                      for v in dec.representative_vector(cn)]
                value, _ = brute_force_min_mod(K, 1, cn)
                for i in range(dec.betti):
                    if optimize._level_cocycles(K, dec, i) is not None:
                        bound = _root_bound(K, dec, i, z0, n)
                        assert bound <= value, (K.name, free, n, i)
                        bounded += bound > 0
    assert bounded
    for k in (3, 4, 5):
        K = torus_grid(k)
        dec = homology_decomposition(K, 1)
        loop = _loop_class(K, k, None)
        i = next(i for i, a in enumerate(loop.free_part) if a)
        for n in range(2, 6):
            z0 = [canonical_lift(int(v) % n, n) for v in
                  dec.representative_vector(reduce_class(loop, mod_ring(n)))]
            assert _root_bound(K, dec, i, z0, n) == k


def test_min_mod_checks_its_least_comass_form(monkeypatch):
    """A dual cocycle that is not closed gives a form that is not closed,
    and it is refused before it can prune.  (A fresh complex: the families
    are cached on it.)"""
    torus = torus7()
    dual = HomologyDecomposition.dual_cocycle

    def tampered(self, i):
        eta = dict(dual(self, i))
        eta[0] = eta.get(0, 0) + 1
        return eta

    monkeypatch.setattr(HomologyDecomposition, "dual_cocycle", tampered)
    c = _gen(homology_decomposition(torus, 1))
    with pytest.raises(AssertionError):
        min_mod(torus, 1, reduce_class(c, mod_ring(3)))


def test_search_refuses_cocycles_without_a_pivot_at_every_row():
    cocycles = ([[(0, 1)], [(0, 1)]], [1], 1)
    args = ([1, 1], [1, 0], [(0, {0: 1, 1: -1})], [0, 1], [-1, -1], [1, 1],
            2, 5)
    with pytest.raises(ValueError):
        _search_lattice(*args, modulus=3, cocycles=cocycles)
    with pytest.raises(ValueError):
        _search_lattice(*args[:2], [(0, {0: 3}), (1, {1: 3})], *args[3:],
                        cocycles=cocycles)


def _without_levels(monkeypatch):
    """Make ``min_mod`` search with no level cocycles, as before them."""
    monkeypatch.setattr(optimize, "_level_cocycles", lambda K, dec, i: None)


def test_level_cap_builds_no_family_for_a_tiny_weight(monkeypatch, torus):
    """With one edge of the 7-vertex torus at 1/3 the loop f:1,0 has a
    family of 21 levels.  At 10^-12 its least-comass form has a period gcd
    near 10^24, past the 21 edges, so there is no family and the search is
    the one without levels, node for node."""
    c = _gen(homology_decomposition(torus, 1))
    reports = []
    for f, levels in ((Fraction(1, 3), 21), (Fraction(1, 10**12), None)):
        K = torus.with_scaled_weights(1, [0], f)
        dec = homology_decomposition(K, 1)
        family = optimize._level_cocycles(K, dec, 0)
        assert (family and len(_levels(family[1]))) == levels
        reports.append(min_mod(K, 1, reduce_class(
            dec.class_coords(INT, c.free_part, ()), mod_ring(3))))
    assert reports[1].value == 2 + Fraction(1, 10**12)
    _without_levels(monkeypatch)
    K = torus.with_scaled_weights(1, [0], Fraction(1, 10**12))
    dec = homology_decomposition(K, 1)
    plain = min_mod(K, 1, reduce_class(dec.class_coords(INT, c.free_part, ()),
                                       mod_ring(3)))
    assert (plain.value, plain.nodes_explored) == \
        (reports[1].value, reports[1].nodes_explored)


def test_levels_cut_the_t6_ladder_case_tenfold(monkeypatch):
    """The loop of ``torus_grid(6, seed=1)`` over Z/3: the search without
    levels takes 1,654,855 nodes; with them it takes at least 10x fewer
    and reports the same value and minimizers, the six grid rows."""
    K = torus_grid(6, seed=1)
    c = reduce_class(_loop_class(K, 6, 1), mod_ring(3))
    rep = min_mod(K, 1, c)
    assert rep.value == 6 and len(rep.minimizers) == 6
    _without_levels(monkeypatch)
    plain = min_mod(K, 1, c)
    assert plain.nodes_explored == 1_654_855
    assert rep.nodes_explored * 10 <= plain.nodes_explored
    assert (rep.value, rep.minimizers, rep.minimizer_count_exact) == \
        (plain.value, plain.minimizers, plain.minimizer_count_exact)


def _annulus(k: int) -> WeightedComplex:
    """A unit-weight triangulated annulus of k square cells, each cut by
    one diagonal: inner circle 0..k-1, outer circle k..2k-1, 4k edges and
    2k triangles."""
    edges, triangles = [], []
    for i in range(k):
        a, b, A, B = i, (i + 1) % k, k + i, k + (i + 1) % k
        edges += [(a, b), (A, B), (a, A), (a, B)]
        triangles += [(a, b, B), (a, A, B)]
    return graph_complex(f"annulus-{k}", 2 * k, edges, triangles=triangles)


def test_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    """Over Z/2 every one of the 1,040 edges of a 260-cell annulus is a
    pivot, so the search nests past Python's default recursion limit.  The
    library call and the CLI both return the core loop's value, 260, with
    its two minimizers (the inner and the outer circle), and the recursion
    limit is the same afterwards."""
    from homnorm.cli import main
    K = _annulus(260)
    assert (K.n_simplices(1), K.n_simplices(2)) == (1040, 520)
    inner = [(0, k) if k == 259 else (k, k + 1) for k in range(260)]
    chain = Chain.make(K, 1, mod_ring(2),
                       [(K.index_of(1, e), 1) for e in inner])
    limit = sys.getrecursionlimit()
    rep = min_mod(K, 1, class_of_cycle(K, 1, chain))
    assert sys.getrecursionlimit() == limit
    assert rep.value == 260 and len(rep.minimizers) == 2
    assert rep.minimizer_count_exact
    path = tmp_path / "annulus.json"
    path.write_text(dump_complex(K))
    payload = ",".join(f"{i}=1" for i, _ in chain.coeffs)
    assert main(["norm", str(path), "--dim", "1", "--ring", "Z/2",
                 "--chain", payload]) == 0
    assert sys.getrecursionlimit() == limit
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["value"] == "260/1" and len(report["minimizers"]) == 2


# -- the degree-1 real norm by cutting planes over H^1 ----------------------


def _tableau_value(K, d, c):
    """The real norm from the tableau LP over the boundary rows."""
    z0 = homology_decomposition(K, d).representative_vector(c)
    return solve_cycle_lp(z0, K.weights[d],
                          K.faces(d + 1) if d < K.dim else ()).value


def _assert_cutting_planes_agree(K, c):
    """``min_real`` in degree 1 against the tableau: the same value, a
    certificate that verifies and a minimizer in the class of mass equal
    to the value.  Returns the value."""
    rep = min_real(K, 1, c)
    assert rep.value == _tableau_value(K, 1, c), (K.name, c.free_part)
    assert verify_certificate(K, 1, c, rep.certificate, rep.value)
    (T,) = rep.minimizers
    assert T.is_cycle() and class_of_cycle(K, 1, T) == c
    assert mass(K, T) == rep.value
    return rep.value


def _golden_degree_one_classes():
    """(complex, rational class) of every degree-1 class payload in the
    golden files: the real commands' classes and chains over Q, and the
    integral commands' classes and Z chains reduced to Q."""
    from homnorm.cli import _parse_chain, _parse_class
    from test_golden import CLASSES, FIXTURES, INTEGRAL, NORM_Q_CHAINS
    payloads = [(name, flag, payload, RAT)
                for name, d, flag, payload in CLASSES + NORM_Q_CHAINS
                if d == 1]
    for line in INTEGRAL:
        argv = line.split()
        opts = dict(zip(argv[2::2], argv[3::2]))
        if opts["--dim"] != "1":
            continue
        if "--class" in opts:
            payloads.append((argv[1], "--class", opts["--class"], INT))
        elif "--chain" in opts and opts.get("--ring") == "Z":
            payloads.append((argv[1], "--chain", opts["--chain"], INT))
    for name, flag, payload, ring in payloads:
        K = FIXTURES[name]()
        dec = homology_decomposition(K, 1)
        if flag == "--class":
            c = _parse_class(payload, dec, ring)
        else:
            c = class_of_cycle(K, 1, _parse_chain(payload, K, 1, ring))
        yield K, c if ring.is_rat else reduce_class(c, RAT)


def test_degree_one_real_norm_matches_the_tableau_on_golden_classes():
    seen = 0
    for K, c in _golden_degree_one_classes():
        if not c.is_zero():
            _assert_cutting_planes_agree(K, c)
            seen += 1
    assert seen >= 40


def _rational_classes(rng, dec, count):
    """``count`` seeded nonzero rational classes of ``dec``."""
    out = []
    while len(out) < count:
        free = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(dec.betti))
        if any(free):
            out.append(dec.class_coords(RAT, free))
    return out


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_degree_one_real_norm_matches_the_tableau_on_relabelled_grids(k):
    """Unit and anisotropic k x k grids, relabelled: the basis classes,
    their sums and differences and seeded rational classes."""
    rng = random.Random(f"cutting-planes-{k}")
    for seed, weights in ((k, (1, 1, 1)), (k + 100, (1, 2, Fraction(3, 2)))):
        K = torus_grid(k, seed=seed, weights=weights)
        dec = homology_decomposition(K, 1)
        classes = [dec.class_coords(RAT, free)
                   for free in ((1, 0), (0, 1), (1, 1), (1, -1), (2, -1))]
        for c in classes + _rational_classes(rng, dec, 2):
            _assert_cutting_planes_agree(K, c)


def _disjoint_union(K, L):
    """The disjoint union of two complexes of dimension <= 2, L's vertices
    after K's."""
    n = K.n_simplices(0)

    def both(d):
        level = [M.simplices[d] if M.dim >= d else () for M in (K, L)]
        return [*level[0], *(tuple(v + n for v in s) for s in level[1])]

    return graph_complex(f"{K.name}+{L.name}", n + L.n_simplices(0), both(1),
                         list(K.weights[1]) + list(L.weights[1]), both(2))


def test_degree_one_real_norm_matches_the_tableau_on_random_complexes():
    """Seeded random complexes, and disjoint unions of two, with seeded
    rational classes."""
    rng = random.Random("cutting-planes-random")
    complexes = [random_complex(rng) for _ in range(20)]
    complexes += [_disjoint_union(random_complex(rng), random_complex(rng))
                  for _ in range(6)]
    for K in complexes:
        dec = homology_decomposition(K, 1)
        for c in _rational_classes(rng, dec, 3):
            _assert_cutting_planes_agree(K, c)
    assert any(K.n_simplices(0) > 8 for K in complexes)


def _genus_two():
    """Two copies of the 7-vertex torus, each less the triangle (0, 1, 3),
    glued along its rim: a genus-2 surface with b_1 = 4.  Every third edge
    weighs 3/2."""
    from homnorm.fixtures import TORUS7_FACES
    rest = [f for f in TORUS7_FACES if f != (0, 1, 3)]
    second = {0: 0, 1: 1, 3: 3, 2: 7, 4: 8, 5: 9, 6: 10}
    faces = rest + [tuple(sorted(second[v] for v in f)) for f in rest]
    edges = sorted({e for f in faces for e in combinations(sorted(f), 2)})
    weights = [Fraction(3, 2) if i % 3 == 0 else 1 for i in range(len(edges))]
    return graph_complex("genus-2", 11, edges, weights, faces)


def test_degree_one_real_norm_with_three_or_more_variables():
    """A bouquet of three triangle circles (b_1 = 3, no triangles) and a
    genus-2 surface (b_1 = 4), where the master LP has that many
    variables; the basis classes, their sum and seeded rational
    classes."""
    bouquet = graph_complex(
        "bouquet", 7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                       (0, 5), (0, 6), (5, 6)],
        [1, 2, Fraction(1, 2), 1, 1, 3, Fraction(2, 3), 1, 1])
    rng = random.Random("cutting-planes-wide")
    for K, betti in ((bouquet, 3), (_genus_two(), 4)):
        dec = homology_decomposition(K, 1)
        assert dec.betti == betti and not dec.torsion
        units = [tuple(int(i == j) for i in range(betti))
                 for j in range(betti)]
        classes = [dec.class_coords(RAT, u) for u in units]
        classes.append(dec.class_coords(RAT, (1,) * betti))
        for c in classes + _rational_classes(rng, dec, 6):
            _assert_cutting_planes_agree(K, c)


def test_degree_one_real_norm_counts_separation_rounds(monkeypatch, tc):
    """``nodes_explored`` of a degree-1 real report is the number of
    Bellman-Ford runs: one when the box of the basis cycles is already
    optimal, as on the triangle circle, and more on a relabelled grid."""
    runs = []
    negative_cycle = optimize._negative_cycle

    def counted(*args):
        runs.append(args)
        return negative_cycle(*args)

    monkeypatch.setattr(optimize, "_negative_cycle", counted)
    grid = torus_grid(4, seed=3)
    counts = []
    for K, free in ((tc, (1,)), (grid, (1, 1))):
        runs.clear()
        rep = min_real(K, 1, homology_decomposition(K, 1).class_coords(
            RAT, free))
        assert rep.nodes_explored == len(runs)
        counts.append(len(runs))
    assert counts[0] == 1 and counts[1] >= 2


def test_degree_one_real_norm_never_calls_the_tableau(monkeypatch):
    def no_tableau(*args):
        raise AssertionError("the tableau LP ran")

    monkeypatch.setattr(optimize, "solve_cycle_lp", no_tableau)
    for K, d, c in _fixture_classes():
        if d == 1 and not c.is_zero():
            min_real(K, 1, reduce_class(c, RAT))
            min_int(K, 1, c)


def _bound_cases():
    """(complex, integral degree-1 class) pairs with boundary moves: the
    fixture classes, the loop of relabelled T3 and T4 grids and classes of
    random 2-complexes."""
    cases = [(K, c) for K, d, c in _fixture_classes()
             if d == 1 and K.dim >= 2 and not c.is_zero()]
    for k, seed in ((3, 1), (3, 2), (4, 1), (4, 2)):
        K = torus_grid(k, seed)
        loop = dict(map(int, item.split("="))
                    for item in horizontal_loop(K, k, seed).split(","))
        cases.append((K, class_of_cycle(K, 1, Chain.make(K, 1, INT, loop))))
    rng = random.Random("bound-invariants")
    while len(cases) < len(SUITE) + 20:
        K = random_complex(rng)
        if K.dim >= 2:
            cases.append((K, random_class(rng, homology_decomposition(K, 1))))
    return cases


def test_face_and_level_bounds_never_exceed_the_mass_of_a_minimizer():
    """At every prefix of the search's row order (decreasing weight, then
    index) and for every minimizer x of a full search over Z and Z/2..Z/5,
    the mass of the assigned rows plus the face bound, and plus the level
    bound, is at most mass(x).  The bounds are computed from their
    definitions: dist_t is the distance to nZ (|a_t| over Z) of the signed
    sum a_t of the assigned rows on face t, and the face bound is
    sum_t m_t dist_t / arity, m_t the least weight on t; dist_m is the
    distance to nZ of h_m(z0) - h_m(assigned rows) for each level cocycle
    h_m of a free index with a family (``_level_cocycles``, integral, with
    sum_m |h_m(e)| <= D w_e), and the level bound is sum_m dist_m / D."""
    prefixes = 0
    for K, c in _bound_cases():
        dec = homology_decomposition(K, 1)
        w, faces = K.weights[1], K.faces(1)
        arity = max(map(len, faces))
        least: dict[int, Fraction] = {}
        for fs, ws in zip(faces, w):
            for t, _ in fs:
                least[t] = min(ws, least.get(t, ws))
        order = sorted(range(len(w)), key=lambda r: (-w[r], r))
        families = list(filter(None, (optimize._level_cocycles(K, dec, i)
                                      for i in range(dec.betti))))
        for D, incidences in families:
            for ws, row in zip(w, incidences):
                assert sum(abs(hv) for _, hv in row) <= D * ws
        for n in (None, 2, 3, 4, 5):
            if n is None:
                rep, lift = min_int(K, 1, c), int
            else:
                cn = reduce_class(c, mod_ring(n))
                rep = min_mod(K, 1, cn)
                lift = lambda v, n=n: canonical_lift(int(v) % n, n)
            assert rep.minimizer_count_exact

            def dist(a, n=n):
                return abs(a) if n is None else min(a % n, -a % n)

            targets = []
            if n is not None:
                z0 = [lift(v) for v in dec.representative_vector(cn)]
                for D, incidences in families:
                    h = {}
                    for s, v in enumerate(z0):
                        for lv, hv in incidences[s]:
                            h[lv] = h.get(lv, 0) + hv * v
                    targets.append(h)
            for T in rep.minimizers:
                x = [lift(v) for v in T.vector()]
                total = sum(ws * abs(v) for ws, v in zip(w, x))
                assert total == rep.value
                for p in range(len(order) + 1):
                    assigned = order[:p]
                    done = sum(w[s] * abs(x[s]) for s in assigned)
                    a: dict[int, int] = {}
                    for s in assigned:
                        for t, sign in faces[s]:
                            a[t] = a.get(t, 0) + sign * x[s]
                    face = sum(least[t] * dist(v) for t, v in a.items())
                    assert done + face / arity <= total, (K.name, n, p)
                    for (D, incidences), h in zip(families, targets):
                        rest = dict(h)
                        for s in assigned:
                            for lv, hv in incidences[s]:
                                rest[lv] = rest.get(lv, 0) - hv * x[s]
                        level = Fraction(sum(map(dist, rest.values())), D)
                        assert done + level <= total, (K.name, n, p)
                    prefixes += 1
    assert prefixes >= 10000


def test_calibration_bound_holds_at_random_coset_points(monkeypatch):
    """The certificate ``min_int`` prunes on, at the search's integer
    scale, is the real report's certificate, and at random coset points
    x = z0 + boundary(y) every term w_s|x_s| - phi_s x_s is >= 0 and the
    terms add up to mass(x) - value_real, on the fixtures and random
    complexes."""
    seen = []
    search = optimize._search_lattice

    def spy(wnum, z0, *args, phi=None, **kwargs):
        seen.append((wnum, z0, phi))
        return search(wnum, z0, *args, phi=phi, **kwargs)

    monkeypatch.setattr(optimize, "_search_lattice", spy)
    rng = random.Random("calibration-bound")
    cases = [(K, c) for K, d, c in _fixture_classes()
             if d == 1 and K.dim >= 2 and not c.is_zero()]
    while len(cases) < len(SUITE) + 16:
        K = random_complex(rng)
        if K.dim >= 2:
            cases.append((K, random_class(rng, homology_decomposition(K, 1))))
    points = 0
    for K, c in cases:
        real = min_real(K, 1, reduce_class(c, RAT))
        seen.clear()
        min_int(K, 1, c)
        (wnum, z0, phi), = seen
        scale = Fraction(wnum[0]) / K.weights[1][0]
        assert list(wnum) == [scale * w for w in K.weights[1]]
        assert list(phi) == [scale * v for v in real.certificate.values]
        for _ in range(20):
            x = list(z0)
            for faces in K.faces(2):
                y = rng.randint(-2, 2)
                for i, sign in faces:
                    x[i] += sign * y
            terms = [w * abs(v) - f * v for w, f, v in zip(wnum, phi, x)]
            assert min(terms) >= 0
            mass_x = sum(w * abs(v) for w, v in zip(K.weights[1], x))
            assert sum(terms) == scale * (mass_x - real.value) >= 0
            points += 1
    assert points >= 400
