"""Modulus scans, thresholds, Federer ratios, weight sweeps, bijections."""

import csv
import dataclasses
import io
import json
import random
from fractions import Fraction
from typing import Optional

import pytest

from conftest import torus_grid
from oracles import lift_chain, reduce_chain

from homnorm import hasse, homology, optimize
from homnorm.complexes import Chain, dump_complex, load_complex
from homnorm.fixtures import (SUITE, mobius_band, mobius_boundary_indices,
                              torus7)
from homnorm.hasse import (EnumerationInexactError, GapRow, ScanRow,
                           bijection_check, empirical_threshold,
                           federer_rows_to_csv, federer_sequence,
                           gap_rows_to_csv, gap_sweep, lift_minimizer,
                           scan_moduli, scan_rows_to_csv)
from homnorm.homology import homology_decomposition, reduce_class
from homnorm.optimize import DEFAULT_MINIMIZER_CAP, min_int, min_mod, min_real
from homnorm.rings import INT, RAT, mod_ring, parse_rational
from homnorm.search import _row_order


def _gen(dec):
    return dec.class_coords(INT, (1,) + (0,) * (dec.betti - 1),
                            (0,) * len(dec.torsion))


def test_scan_torus_no_gap(torus):
    dec = homology_decomposition(torus, 1)
    rows = scan_moduli(torus, 1, _gen(dec), 2, 8)
    assert [r.n for r in rows] == list(range(2, 9))
    for r in rows:
        assert r.value_mod <= r.value_int
        assert r.equal and r.tau_divides
        assert r.bijection is True
    assert empirical_threshold(rows, dec.torsion_number) == 2


def test_scan_mobius_gap_at_three(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = scan_moduli(mobius, 1, _gen(dec), 2, 16)
    by_n = {r.n: r for r in rows}
    assert not by_n[3].equal
    assert by_n[3].value_mod == Fraction(5, 4) < by_n[3].value_int
    assert by_n[3].bijection is False
    for n in range(4, 17):
        assert by_n[n].equal and by_n[n].bijection is True
    assert empirical_threshold(rows, dec.torsion_number) == 4


def test_scan_mobius_boundary_half_total():
    K = mobius_band(Fraction(1, 10))  # boundary cycle total weight 1/2
    dec = homology_decomposition(K, 1)
    rows = scan_moduli(K, 1, _gen(dec), 2, 8)
    by_n = {r.n: r for r in rows}
    assert not by_n[3].equal
    assert by_n[3].value_mod <= Fraction(1, 2)


def test_threshold_absent_when_tail_fails(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = scan_moduli(mobius, 1, _gen(dec), 2, 3)  # last row is the gap row
    assert empirical_threshold(rows, dec.torsion_number) is None


def test_threshold_matches_its_definition_on_random_rows():
    """On seeded random rows, with repeated and unordered n, bijection
    None, and tau from 1 to 4, the threshold is the smallest scanned N
    with equal and bijection true at every scanned n >= N with tau | n,
    and None when there is none."""
    rng = random.Random("empirical-threshold")
    found = {True: 0, False: 0}
    for _ in range(400):
        tau = rng.randint(1, 4)
        rows = [ScanRow(n=rng.randint(2, 12), value_mod=Fraction(1),
                        value_int=Fraction(1), equal=rng.random() < 0.8,
                        tau_divides=True,
                        bijection=rng.choice((True, True, True, False, None)),
                        lift_all_cycles=None)
                for _ in range(rng.randint(0, 8))]
        want = next((N for N in sorted(row.n for row in rows)
                     if all(row.equal and row.bijection is True
                            for row in rows
                            if row.n >= N and row.n % tau == 0)), None)
        assert empirical_threshold(rows, tau) == want, (rows, tau)
        found[want is None] += 1
    assert all(found.values())


def test_federer_triangle_circle(tc):
    dec = homology_decomposition(tc, 1)
    rows = federer_sequence(tc, 1, _gen(dec), 5)
    for row in rows:
        assert row.ratio == 3 == row.value_real


def test_federer_mobius(mobius):
    dec = homology_decomposition(mobius, 1)
    c = _gen(dec)
    rows = federer_sequence(mobius, 1, c, 6)
    real = min_real(mobius, 1, reduce_class(c, RAT)).value
    assert real == Fraction(5, 8)
    values = {r.k: r.value_int for r in rows}
    for r in rows:
        assert r.value_real == real
        if r.k % 2 == 0:
            assert r.ratio == real
        else:
            assert r.ratio > real
    odd = [r.ratio for r in rows if r.k % 2 == 1]
    assert all(a >= b for a, b in zip(odd, odd[1:]))
    # subadditivity across all scanned splits
    for j in values:
        for k in values:
            if j + k in values:
                assert values[j + k] <= values[j] + values[k]


def test_federer_zero_class(tc):
    dec = homology_decomposition(tc, 1)
    rows = federer_sequence(tc, 1, _gen(dec).scale(0), 4)
    assert all(r.value_int == 0 and r.ratio == 0 for r in rows)


def test_gap_sweep_mobius(mobius):
    dec = homology_decomposition(mobius, 1)
    c = _gen(dec)
    factors = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    rows = gap_sweep(mobius, 1, c, mobius_boundary_indices(mobius),
                     factors, [3])
    ratios_real = [r.gap_ratio_real for r in rows]
    ratios_mod = [r.gap_ratio_mod[3] for r in rows]
    assert all(a < b for a, b in zip(ratios_real, ratios_real[1:]))
    assert all(a < b for a, b in zip(ratios_mod, ratios_mod[1:]))
    assert all(r.in_lavrentiev_real for r in rows)
    assert all(r.in_lavrentiev_mod[3] for r in rows)
    # shrinking weights never increases any norm value
    for a, b in zip(rows, rows[1:]):
        assert b.value_int <= a.value_int
        assert b.value_real <= a.value_real
        assert b.value_mod[3] <= a.value_mod[3]


def test_gap_sweep_with_tiny_factors(mobius):
    """Rim weights of 10^-8 and 10^-12 keep the values of the unit sweep's
    pattern: 1 + f/2 over Z and over Z/10^12, 5f/8 over Q and 5f/4 over
    Z/3.  Nothing in the search grows with the ratio of the weights."""
    dec = homology_decomposition(mobius, 1)
    factors = [Fraction(1, 10**8), Fraction(1, 10**12)]
    rows = gap_sweep(mobius, 1, _gen(dec), mobius_boundary_indices(mobius),
                     factors, [3, 10**12])
    for f, row in zip(factors, rows):
        assert row.value_int == 1 + f / 2 == row.value_mod[10**12]
        assert row.value_real == 5 * f / 8
        assert row.value_mod[3] == 5 * f / 4


def test_gap_sweep_unit_torus_no_gap(torus):
    dec = homology_decomposition(torus, 1)
    rows = gap_sweep(torus, 1, _gen(dec), [0, 1], [Fraction(1)], [3])
    row = rows[0]
    assert row.gap_ratio_real == 1 and row.gap_ratio_mod[3] == 1
    assert not row.in_lavrentiev_real and not row.in_lavrentiev_mod[3]


def test_gap_sweep_zero_class_convention(tc):
    dec = homology_decomposition(tc, 1)
    rows = gap_sweep(tc, 1, _gen(dec).scale(0), [0],
                     [Fraction(1), Fraction(1, 2)], [3, 5])
    for row in rows:
        assert row.gap_ratio_real == 1
        assert all(v == 1 for v in row.gap_ratio_mod.values())
        assert not row.in_lavrentiev_real


def test_gap_sweep_writes_no_ratio_over_a_zero_value(rp2, mobius):
    """A positive integral value over a zero real or mod-n value has no
    gap ratio: the row holds None, null in JSON and an empty CSV cell,
    beside a true Lavrentiev flag, and only 0/0 reads 1.  The torsion
    class of rp2-6 is zero over Q and over Z/3 but not over Z/2, and
    twice the Moebius core is zero over Z/2."""
    dec = homology_decomposition(rp2, 1)
    rows = gap_sweep(rp2, 1, dec.class_coords(INT, (), (1,)), [0, 1],
                     [Fraction(1), Fraction(1, 2)], [2, 3])
    for row in rows:
        assert row.value_real == row.value_mod[3] == 0 < row.value_int
        assert row.gap_ratio_real is None and row.in_lavrentiev_real
        assert row.gap_ratio_mod[3] is None and row.in_lavrentiev_mod[3]
        assert row.gap_ratio_mod[2] == 1 and not row.in_lavrentiev_mod[2]
    doc = rows[0].to_json()
    assert doc["gap_ratio_real"] is None
    assert doc["gap_ratio_mod"] == {"2": "1/1", "3": None}
    assert gap_rows_to_csv(rows[:1], [2, 3]).splitlines()[1] == \
        "1/1,3/1,0/1,3/1,0/1,,1/1,,true,false,true"

    core = _gen(homology_decomposition(mobius, 1)).scale(2)
    (row,) = gap_sweep(mobius, 1, core, [0], [Fraction(1)], [2])
    assert row.value_mod[2] == 0 < row.value_int
    assert row.gap_ratio_mod[2] is None and row.in_lavrentiev_mod[2]


def test_gap_sweep_validation(tc):
    dec = homology_decomposition(tc, 1)
    with pytest.raises(ValueError):
        gap_sweep(tc, 1, _gen(dec), [], [Fraction(1)], [3])
    with pytest.raises(ValueError):
        gap_sweep(tc, 1, _gen(dec), [0], [Fraction(-1)], [3])
    with pytest.raises(ValueError, match="shrink factors must be nonempty"):
        gap_sweep(tc, 1, _gen(dec), [0], [], [3])


def test_bijection_check_torus(torus):
    dec = homology_decomposition(torus, 1)
    report = bijection_check(torus, 1, _gen(dec), 5)
    assert report.verdict
    assert report.int_minimizer_count == report.mod_minimizer_count
    assert all(item.lift_is_cycle and item.lift_in_class
               for item in report.lifts)


def test_bijection_verdict_forces_lift_reduce_identity(torus, mobius):
    from homnorm.optimize import min_int
    from homnorm.rings import mod_ring
    for K, n in ((torus, 5), (mobius, 4), (mobius, 7)):
        dec = homology_decomposition(K, 1)
        c = _gen(dec)
        report = bijection_check(K, 1, c, n)
        assert report.verdict
        for T in min_int(K, 1, c).minimizers:
            assert lift_chain(reduce_chain(T, mod_ring(n))) == T


def test_bijection_check_mobius_gap(mobius):
    dec = homology_decomposition(mobius, 1)
    report = bijection_check(mobius, 1, _gen(dec), 3)
    assert not report.verdict
    assert report.int_minimizer_count == 5
    assert report.mod_minimizer_count == 1
    assert not report.surjective


def test_bijection_check_zero_class(tc):
    dec = homology_decomposition(tc, 1)
    report = bijection_check(tc, 1, _gen(dec).scale(0), 4)
    assert report.verdict
    assert report.int_minimizer_count == report.mod_minimizer_count == 1


def test_bijection_check_refuses_inexact(mobius):
    dec = homology_decomposition(mobius, 1)
    with pytest.raises(EnumerationInexactError):
        bijection_check(mobius, 1, _gen(dec), 5, cap=2)


def test_bijection_walks_each_lift_boundary_once(monkeypatch, klein):
    """Each lift of a mod-n minimizer is classified in one boundary walk:
    the 16 mod-3 minimizers of the Klein bottle's class f:1;t:0 cost 16
    cycle tests over the harness and the decomposition together, and the
    lifts' verdicts are unchanged."""
    walks = []
    for module in (hasse, homology):
        def counted(*args, _is_cycle=module._is_cycle):
            walks.append(args)
            return _is_cycle(*args)
        monkeypatch.setattr(module, "_is_cycle", counted)
    dec = homology_decomposition(klein, 1)
    c = dec.class_coords(INT, (1,), (0,))
    report = bijection_check(klein, 1, c, 3)
    assert report.mod_minimizer_count == len(report.lifts) == 16
    assert len(walks) == 16
    assert sum(item.lift_is_cycle for item in report.lifts) == 16
    assert sum(item.lift_in_class for item in report.lifts) == 8


def _record_positional_calls(monkeypatch) -> list:
    """Wrap the engine and decomposition names ``hasse`` imported in
    ``lambda *args``, as the benchmark's span recorder does, so that a
    keyword argument fails.  Returns the (name, args, result) of each call,
    filled as the harness runs."""
    calls = []

    def wrap(name, fn):
        def call(*args):
            out = fn(*args)
            calls.append((name, args, out))
            return out
        return call

    for name in ("min_int", "min_mod", "min_real", "homology_decomposition"):
        monkeypatch.setattr(hasse, name, wrap(name, getattr(hasse, name)))
    return calls


def test_harness_passes_engine_arguments_positionally(monkeypatch, torus,
                                                      klein, mobius):
    """scan, federer, sweep and bijection give the same results through
    positional-only wrappers, and the calls that read only values are the
    value-only ones: all of federer's and sweep's, scan's min_mod where the
    torsion number 2 of klein-8 does not divide n, and scan's min_int when
    no scanned n is even."""
    rim = mobius_boundary_indices(mobius)
    kc = _gen(homology_decomposition(klein, 1))
    mc = _gen(homology_decomposition(mobius, 1))
    runs = [
        lambda: scan_moduli(klein, 1, kc, 2, 5),
        lambda: scan_moduli(klein, 1, kc, 3, 3),
        lambda: federer_sequence(mobius, 1, mc, 4),
        lambda: gap_sweep(mobius, 1, mc, rim, [Fraction(1), Fraction(1, 2)],
                          [3, 4]),
        lambda: bijection_check(torus, 1, _gen(homology_decomposition(
            torus, 1)), 3).to_json(),
    ]
    want = [run() for run in runs]
    calls = _record_positional_calls(monkeypatch)
    assert [run() for run in runs] == want
    flags = [(name, args[4] if len(args) > 4 else False)
             for name, args, _ in calls if name in ("min_int", "min_mod")]
    assert flags == [
        ("min_int", False), ("min_mod", False), ("min_mod", True),
        ("min_mod", False), ("min_mod", True),
        ("min_int", True), ("min_mod", True),
        *[("min_int", True)] * 4,
        *[("min_int", True), ("min_mod", True), ("min_mod", True)] * 2,
        ("min_int", False), ("min_mod", False)]


def test_federer_on_weighted_grid_ends_at_lp_vertices(monkeypatch):
    """The anisotropic T3 grid relabelled by seed 12, class (1,1): the
    integral values of k*c for k = 1..3 are 21/2, 21 and 63/2, the real
    ones, and the calls for 2c and 3c, which have hundreds of integral
    minimizers, end at the integral LP vertex with no search node."""
    K = torus_grid(3, seed=12, weights=(1, 2, Fraction(3, 2)))
    c = homology_decomposition(K, 1).class_coords(INT, (1, 1))
    calls = _record_positional_calls(monkeypatch)
    rows = federer_sequence(K, 1, c, 3)
    assert [r.value_int for r in rows] == [Fraction(21, 2), 21,
                                           Fraction(63, 2)]
    assert all(r.value_real == Fraction(21, 2) for r in rows)
    nodes = [out.nodes_explored for name, _, out in calls
             if name == "min_int"]
    assert nodes[1:] == [0, 0]


def _federer_cases():
    """(complex, degree, integral class) on the fixtures, with b_d >= 1:
    the first basis class, with its torsion coordinates 1 where any, and a
    relabelled anisotropic T3 grid's class (1, 1)."""
    for make in SUITE.values():
        K = make()
        for d in range(1, K.dim + 1):
            dec = homology_decomposition(K, d)
            if dec.betti:
                yield K, d, dec.class_coords(
                    INT, (1,) + (0,) * (dec.betti - 1),
                    (1,) * len(dec.torsion))
    K = torus_grid(3, seed=12, weights=(1, 2, Fraction(3, 2)))
    yield K, 1, homology_decomposition(K, 1).class_coords(INT, (1, 1))


def test_scaled_real_report_is_the_report_of_the_scaled_class():
    """min_real of k*c is k times the report of c, k = 1..4: value and
    minimizer times k, the same certificate and counter, in degree 1 (cut
    by cutting planes) and degree 2 (the tableau)."""
    degrees = set()
    for K, d, c in _federer_cases():
        cq = reduce_class(c, RAT)
        real = min_real(K, d, cq)
        for k in range(1, 5):
            assert min_real(K, d, cq.scale(k)) == real.scale(k), (K.name, d)
        degrees.add(d)
    assert degrees == {1, 2}


def _counted_real(monkeypatch) -> list:
    """Count the ``min_real`` calls of the harness and the engines
    together; returns the list of their arguments."""
    real_calls = []

    def counted(fn):
        def call(*args):
            real_calls.append(args)
            return fn(*args)
        return call

    monkeypatch.setattr(optimize, "min_real", counted(optimize.min_real))
    monkeypatch.setattr(hasse, "min_real", counted(hasse.min_real))
    return real_calls


def test_federer_solves_one_real_lp_per_sequence(monkeypatch):
    """One ``min_real`` call per sequence, in the harness and the engines
    together, and the same rows and ``min_int`` node counts as solving the
    real LP of each k*c afresh."""
    cases = list(_federer_cases())
    want = []
    for K, d, c in cases:
        reports = [min_int(K, d, c.scale(k), DEFAULT_MINIMIZER_CAP, True)
                   for k in range(1, 5)]
        want.append(([r.value for r in reports],
                     [r.nodes_explored for r in reports]))
    real_calls = _counted_real(monkeypatch)
    engine_calls = _record_positional_calls(monkeypatch)
    for (K, d, c), (values, nodes) in zip(cases, want):
        real_calls.clear()
        engine_calls.clear()
        rows = federer_sequence(K, d, c, 4)
        assert len(real_calls) == 1, (K.name, d)
        assert [r.value_int for r in rows] == values
        assert [out.nodes_explored for name, _, out in engine_calls
                if name == "min_int"] == nodes


def _harness_classes():
    """(complex, degree, integral class): every basis class of every
    fixture degree with nonzero homology, and the classes (1, 0) and (1, 1)
    of relabelled T3 and T4 grids (on T4 seeds whose full mod-n
    enumerations take milliseconds)."""
    for make in SUITE.values():
        K = make()
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            r = dec.betti + len(dec.torsion)
            for j in range(r):
                unit = [int(i == j) for i in range(r)]
                yield K, d, dec.class_coords(INT, unit[:dec.betti],
                                             unit[dec.betti:])
    for k, seed in ((3, 1), (3, 2), (4, 3)):
        K = torus_grid(k, seed=seed)
        dec = homology_decomposition(K, 1)
        for free in ((1, 0), (1, 1)):
            yield K, 1, dec.class_coords(INT, free)


def _memoized_engines(monkeypatch) -> None:
    """Let the engine names ``hasse`` imported answer a repeated call from
    a table, keyed by complex, degree, class, cap and value-only flag, so
    that a test pays for each search once."""
    def memo(fn):
        table = {}

        def call(*args):
            key = (*args[:4], len(args) > 4 and args[4])
            if key not in table:
                table[key] = fn(*args)
            return table[key]
        return call

    for name in ("min_int", "min_mod"):
        monkeypatch.setattr(hasse, name, memo(getattr(hasse, name)))


def test_harness_checks_match_the_chain_definitions(monkeypatch):
    """scan's bijection and lift columns and bijection_check's report, for
    n = 2..8, against the chain definitions on the same minimizer sets:
    the set of ``reduce_chain`` images of the integral minimizers,
    ``lift_chain(T).is_cycle()`` and ``lift_minimizer(T).lifted_class == c``
    of each mod-n minimizer.  The cases include a reduction that is not
    injective and a lift that is not a cycle (mobius-gap at n = 3)."""
    _memoized_engines(monkeypatch)
    saw_not_injective = saw_non_cycle = False
    for K, d, c in _harness_classes():
        tau = homology_decomposition(K, d).torsion_number
        rows = scan_moduli(K, d, c, 2, 8)
        ints = hasse.min_int(K, d, c, DEFAULT_MINIMIZER_CAP)
        for row, n in zip(rows, range(2, 9), strict=True):
            ring = mod_ring(n)
            report = bijection_check(K, d, c, n)
            mods = hasse.min_mod(K, d, reduce_class(c, ring),
                                 DEFAULT_MINIMIZER_CAP)
            reduced = [reduce_chain(T, ring) for T in ints.minimizers]
            injective = len(set(reduced)) == len(reduced)
            surjective = set(reduced) == set(mods.minimizers)
            lifts = [(lift_chain(T).is_cycle(),
                      lift_minimizer(T).lifted_class == c)
                     for T in mods.minimizers]
            if n % tau == 0:
                assert row.bijection == (injective and surjective)
                assert row.lift_all_cycles == all(a for a, _ in lifts)
            else:
                assert row.bijection is row.lift_all_cycles is None
            assert (report.injective, report.surjective) == (injective,
                                                             surjective)
            assert [item.minimizer for item in report.lifts] == list(
                mods.minimizers)
            assert [(item.lift_is_cycle, item.lift_in_class)
                    for item in report.lifts] == lifts
            saw_not_injective |= not injective
            saw_non_cycle |= not all(a for a, _ in lifts)
    assert saw_not_injective and saw_non_cycle


def _sweep_cases():
    """(complex, degree, integral class, shrink set, factors, moduli)."""
    mobius = mobius_band()
    yield (mobius, 1, _gen(homology_decomposition(mobius, 1)),
           mobius_boundary_indices(mobius),
           [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
           [2, 3, 4])
    for K, d, c in _federer_cases():
        yield (K, d, c, list(range(0, K.n_simplices(d), 2)),
               [Fraction(1, 3), Fraction(2)], [2, 3])


def test_sweep_solves_one_real_lp_per_factor(monkeypatch):
    """One ``min_real`` call per factor, in the harness and the engines
    together, and the same values and ``min_int`` node counts as solving
    each factor's classes afresh, the real LP inside ``min_int`` too."""
    cases = list(_sweep_cases())
    want = []
    for K, d, c, shrink, factors, moduli in cases:
        out = []
        for f in factors:
            K2 = K.with_scaled_weights(d, shrink, f)
            c2 = homology_decomposition(K2, d).class_coords(
                INT, c.free_part, c.torsion_part)
            vi = min_int(K2, d, c2, DEFAULT_MINIMIZER_CAP, True)
            vr = min_real(K2, d, reduce_class(c2, RAT)).value
            vm = {n: min_mod(K2, d, reduce_class(c2, mod_ring(n)),
                             DEFAULT_MINIMIZER_CAP, True).value
                  for n in moduli}
            out.append((vi.value, vr, vm, vi.nodes_explored))
        want.append(out)
    real_calls = _counted_real(monkeypatch)
    engine_calls = _record_positional_calls(monkeypatch)
    for (K, d, c, shrink, factors, moduli), rows_want in zip(cases, want):
        real_calls.clear()
        engine_calls.clear()
        rows = gap_sweep(K, d, c, shrink, factors, moduli)
        assert len(real_calls) == len(factors), (K.name, d)
        nodes = [out.nodes_explored for name, _, out in engine_calls
                 if name == "min_int"]
        assert [(r.value_int, r.value_real, r.value_mod, m)
                for r, m in zip(rows, nodes, strict=True)] == rows_want


def test_sweep_rows_equal_sweeps_of_freshly_loaded_complexes():
    """Each row of a sweep, whose siblings share the tables of the swept
    complex, equals the factor-1 row of a sweep over a freshly loaded copy
    of that factor's reweighted complex."""
    for K, d, c, shrink, factors, moduli in _sweep_cases():
        rows = gap_sweep(K, d, c, shrink, factors, moduli)
        for f, row in zip(factors, rows, strict=True):
            K3 = load_complex(dump_complex(
                K.with_scaled_weights(d, shrink, f)))
            c3 = homology_decomposition(K3, d).class_coords(
                INT, c.free_part, c.torsion_part)
            (fresh,) = gap_sweep(K3, d, c3, shrink, [Fraction(1)], moduli)
            assert dataclasses.replace(fresh, shrink_factor=f) == row


def _decode(field):
    """A CSV field as a value: "" is None, "true"/"false" are booleans,
    the rest are "p/q" rationals or integers."""
    special = {"": None, "true": True, "false": False}
    if field in special:
        return special[field]
    return parse_rational(field) if "/" in field else int(field)


def _columns(row):
    """A row's values by CSV column: a field keyed by modulus gives one
    ``<field>_<n>`` column per modulus, ascending."""
    out = {}
    for name, v in dataclasses.asdict(row).items():
        if isinstance(v, dict):
            out.update((f"{name}_{n}", x) for n, x in sorted(v.items()))
        else:
            out[name] = v
    return out


def _assert_csv_round_trip(text, rows):
    header, *records = csv.reader(io.StringIO(text))
    assert header == list(_columns(rows[0]))
    assert [{col: _decode(f) for col, f in zip(header, rec, strict=True)}
            for rec in records] == [_columns(r) for r in rows]


def test_scan_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = scan_moduli(mobius, 1, _gen(dec), 2, 6)
    _assert_csv_round_trip(scan_rows_to_csv(rows), rows)


def test_federer_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = federer_sequence(mobius, 1, _gen(dec), 4)
    _assert_csv_round_trip(federer_rows_to_csv(rows), rows)


def test_gap_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = gap_sweep(mobius, 1, _gen(dec), mobius_boundary_indices(mobius),
                     [Fraction(1), Fraction(1, 2)], [3, 5])
    _assert_csv_round_trip(gap_rows_to_csv(rows, [3, 5]), rows)


def _coords(K, d, free, torsion=()):
    dec = homology_decomposition(K, d)
    return dec.class_coords(INT, free, torsion)


# case -> (fixture, degree, free part, torsion part, run emitting the CSV)
HARNESS_RUNS = {
    "scan-circle-zero": ("tc", 1, (0,), (), lambda K, d, c: scan_rows_to_csv(
        scan_moduli(K, d, c, 2, 5))),
    "scan-torus-diagonal": ("torus", 1, (1, 1), (), lambda K, d, c:
                            scan_rows_to_csv(scan_moduli(K, d, c, 2, 4))),
    "scan-torus-top": ("torus", 2, (1,), (), lambda K, d, c: scan_rows_to_csv(
        scan_moduli(K, d, c, 2, 4))),
    "scan-rp2-torsion": ("rp2", 1, (), (1,), lambda K, d, c: scan_rows_to_csv(
        scan_moduli(K, d, c, 2, 6))),
    "scan-klein-mixed": ("klein", 1, (1,), (1,), lambda K, d, c:
                         scan_rows_to_csv(scan_moduli(K, d, c, 2, 4))),
    "scan-mobius-double": ("mobius", 1, (2,), (), lambda K, d, c:
                           scan_rows_to_csv(scan_moduli(K, d, c, 2, 6))),
    "federer-circle": ("tc", 1, (1,), (), lambda K, d, c: federer_rows_to_csv(
        federer_sequence(K, d, c, 4))),
    "federer-torus-diagonal": ("torus", 1, (1, -1), (), lambda K, d, c:
                               federer_rows_to_csv(federer_sequence(K, d, c, 3))),
    "federer-klein-mixed": ("klein", 1, (1,), (1,), lambda K, d, c:
                            federer_rows_to_csv(federer_sequence(K, d, c, 4))),
    "federer-rp2-torsion": ("rp2", 1, (), (1,), lambda K, d, c:
                            federer_rows_to_csv(federer_sequence(K, d, c, 4))),
    "federer-mobius": ("mobius", 1, (1,), (), lambda K, d, c:
                       federer_rows_to_csv(federer_sequence(K, d, c, 5))),
    "gap-mobius-boundary": ("mobius", 1, (1,), (), lambda K, d, c:
                            gap_rows_to_csv(gap_sweep(
                                K, d, c, mobius_boundary_indices(K),
                                [Fraction(1), Fraction(1, 3)], [5, 2, 3, 2]),
                                [5, 2, 3, 2])),
    "gap-mobius-interior": ("mobius", 1, (1,), (), lambda K, d, c:
                            gap_rows_to_csv(gap_sweep(
                                K, d, c, [0], [Fraction(1, 2), Fraction(2)],
                                [3]), [3])),
    "gap-torus": ("torus", 1, (1, 0), (), lambda K, d, c: gap_rows_to_csv(
        gap_sweep(K, d, c, [0, 1], [Fraction(1, 2), Fraction(3)], [2, 3]),
        [2, 3])),
    "gap-circle-zero": ("tc", 1, (0,), (), lambda K, d, c: gap_rows_to_csv(
        gap_sweep(K, d, c, [0], [Fraction(1, 2)], [4]), [4])),
    "gap-klein-torsion": ("klein", 1, (0,), (1,), lambda K, d, c:
                          gap_rows_to_csv(gap_sweep(
                              K, d, c, [2, 3], [Fraction(1, 4)], [2, 4]),
                              [2, 4])),
    "gap-rp2-torsion": ("rp2", 1, (), (1,), lambda K, d, c: gap_rows_to_csv(
        gap_sweep(K, d, c, [0, 1], [Fraction(1), Fraction(1, 2)], [2, 3]),
        [2, 3])),
}

# CSV column (without its "_<n>" modulus suffix) -> field syntax
_SYNTAX = {
    "n": "int", "k": "int",
    "value_mod": "rational", "value_int": "rational", "value_real": "rational",
    "ratio": "rational", "shrink_factor": "rational",
    "gap_ratio_real": "optional rational",
    "gap_ratio_mod": "optional rational",
    "equal": "bool", "tau_divides": "bool", "in_lavrentiev_real": "bool",
    "in_lavrentiev_mod": "bool",
    "bijection": "optional bool", "lift_all_cycles": "optional bool",
}
_KEYED = ("value_mod", "gap_ratio_mod", "in_lavrentiev_mod")


def _strict_field(column, text):
    """The value of one emitted field, or an assertion error when its text
    is not the canonical form of its column's type."""
    base = column
    for prefix in _KEYED:
        if column.startswith(prefix + "_") and column[len(prefix) + 1:].isdigit():
            base = prefix
    syntax = _SYNTAX[base]
    if syntax == "int":
        assert text == str(int(text)), (column, text)
        return int(text)
    if syntax == "optional rational" and text == "":
        return None
    if syntax.endswith("rational"):
        num, sep, den = text.partition("/")
        v = parse_rational(text)
        assert sep and (str(v.numerator), str(v.denominator)) == (num, den), \
            (column, text)
        return v
    allowed = {"true": True, "false": False}
    if syntax == "optional bool":
        allowed[""] = None
    assert text in allowed, (column, text)
    return allowed[text]


def _check_scan_record(r, n_prev):
    assert n_prev is None or r["n"] == n_prev + 1
    assert r["value_mod"] <= r["value_int"]
    assert r["equal"] == (r["value_mod"] == r["value_int"])
    if not r["tau_divides"]:
        assert r["bijection"] is None and r["lift_all_cycles"] is None
    assert (r["bijection"] is None) == (r["lift_all_cycles"] is None)


def _check_federer_record(r, k_prev):
    assert r["k"] == (1 if k_prev is None else k_prev + 1)
    assert r["ratio"] * r["k"] == r["value_int"]
    assert r["value_real"] <= r["ratio"]


def _check_gap_record(r, moduli):
    """Each gap ratio is value_int over its value, at least 1; 1 for 0/0
    and empty over a zero value below a positive value_int."""
    vi = r["value_int"]
    assert r["shrink_factor"] > 0
    for v, ratio, flag in [
            (r["value_real"], r["gap_ratio_real"], r["in_lavrentiev_real"])] + [
            (r[f"value_mod_{n}"], r[f"gap_ratio_mod_{n}"],
             r[f"in_lavrentiev_mod_{n}"]) for n in moduli]:
        assert v <= vi and flag == (vi > v)
        if v:
            assert ratio == vi / v >= 1
        else:
            assert ratio == (None if vi else 1)


@pytest.mark.parametrize("case", HARNESS_RUNS)
def test_emitted_csv_records_hold_the_row_invariants(request, case):
    """Every record the harness emits is well formed and carries its row's
    invariants: value_mod <= value_int with a consistent 'equal' flag,
    ratio * k = value_int >= k * value_real, and gap ratios >= 1 that
    match their values and Lavrentiev flags."""
    name, d, free, torsion, run = HARNESS_RUNS[case]
    K = request.getfixturevalue(name)
    text = run(K, d, _coords(K, d, free, torsion))
    assert text.endswith("\n") and "\r" not in text
    header, *records = csv.reader(io.StringIO(text))
    assert records and len(set(header)) == len(header)
    rows = [{col: _strict_field(col, f)
             for col, f in zip(header, rec, strict=True)} for rec in records]
    prev = None
    for r in rows:
        if "n" in r:
            _check_scan_record(r, prev)
            prev = r["n"]
        elif "k" in r:
            _check_federer_record(r, prev)
            prev = r["k"]
        else:
            moduli = sorted(int(col.rsplit("_", 1)[1]) for col in header
                            if col.startswith("value_mod_"))
            assert header == (["shrink_factor", "value_int", "value_real"]
                              + [f"value_mod_{n}" for n in moduli]
                              + ["gap_ratio_real"]
                              + [f"gap_ratio_mod_{n}" for n in moduli]
                              + ["in_lavrentiev_real"]
                              + [f"in_lavrentiev_mod_{n}" for n in moduli])
            assert moduli == sorted(set(moduli))
            _check_gap_record(r, moduli)


SCAN_CSV = "n,value_mod,value_int,equal,tau_divides,bijection,lift_all_cycles\n"
FEDERER_CSV = "k,value_int,ratio,value_real\n"
GAP_CSV = ("shrink_factor,value_int,value_real,value_mod_3,gap_ratio_real,"
           "gap_ratio_mod_3,in_lavrentiev_real,in_lavrentiev_mod_3\n")


def test_csv_emission_header_only_and_absent_optionals():
    assert scan_rows_to_csv([]) == SCAN_CSV
    assert federer_rows_to_csv([]) == FEDERER_CSV
    assert gap_rows_to_csv([], [3, 3]) == GAP_CSV
    assert scan_rows_to_csv([
        ScanRow(3, Fraction(1), Fraction(1), True, False, None, None)]) == \
        SCAN_CSV + "3,1/1,1/1,true,false,,\n"


def test_row_json_keys_follow_fields_and_ascending_moduli():
    row = GapRow(Fraction(1, 2), Fraction(3), Fraction(2),
                 {5: Fraction(3), 3: Fraction(2)}, Fraction(3, 2),
                 {5: Fraction(1), 3: Fraction(3, 2)}, True, {5: False, 3: True})
    doc = row.to_json()
    assert list(doc) == ["shrink_factor", "value_int", "value_real",
                         "value_mod", "gap_ratio_real", "gap_ratio_mod",
                         "in_lavrentiev_real", "in_lavrentiev_mod"]
    assert doc["shrink_factor"] == "1/2" and doc["value_int"] == "3/1"
    assert list(doc["value_mod"].items()) == [("3", "2/1"), ("5", "3/1")]
    assert list(doc["in_lavrentiev_mod"].items()) == [("3", True), ("5", False)]
    assert ScanRow(7, Fraction(1), Fraction(1), True, True, None,
                   False).to_json() == {
        "n": 7, "value_mod": "1/1", "value_int": "1/1", "equal": True,
        "tau_divides": True, "bijection": None, "lift_all_cycles": False}


@dataclasses.dataclass
class _OptionalRow(hasse._Row):
    n: int
    bound: Optional[Fraction]
    holds: dict[int, Optional[bool]]
    gap: dict[int, Optional[Fraction]]


def test_optional_fields_write_the_same_values_to_json_and_csv():
    """An ``Optional[X]`` field is written as an X, or null when absent,
    and each CSV cell is the JSON value of its field, with null empty and
    booleans spelled out."""
    rows = [_OptionalRow(2, Fraction(3), {3: None, 2: True},
                         {2: Fraction(1, 2), 3: None}),
            _OptionalRow(3, None, {2: False, 3: None},
                         {2: None, 3: Fraction(-4, 6)})]
    docs = [row.to_json() for row in rows]
    assert docs == [
        {"n": 2, "bound": "3/1", "holds": {"2": True, "3": None},
         "gap": {"2": "1/2", "3": None}},
        {"n": 3, "bound": None, "holds": {"2": False, "3": None},
         "gap": {"2": None, "3": "-2/3"}}]
    assert json.loads(json.dumps(docs)) == docs

    def cell(v):
        return "" if v is None else {True: "true", False: "false"}.get(v, str(v))

    header, *records = csv.reader(io.StringIO(
        hasse._rows_to_csv(_OptionalRow, rows, [3, 2])))
    assert header == ["n", "bound", "holds_2", "holds_3", "gap_2", "gap_3"]
    assert records == [
        [cell(doc["n"]), cell(doc["bound"]),
         *(cell(doc[name][str(n)]) for name in ("holds", "gap")
           for n in (2, 3))]
        for doc in docs]
    assert records[0] == ["2", "3/1", "true", "", "1/2", ""]


class _CountingMemo(dict):
    """A complex's memo that lists the key of each table it is given."""

    def __init__(self):
        super().__init__()
        self.builds = []

    def __setitem__(self, key, value):
        self.builds.append(key)
        super().__setitem__(key, value)


def test_searches_reuse_the_row_order_and_level_families(monkeypatch):
    """A modulus scan and a Federer sequence build the row order once per
    (complex, degree, seed faces) and the level family once per free
    index, and keep no echelon; a reweighted sibling builds its own."""
    calls = []

    def counted(K, d, z0):
        calls.append(K)
        return _row_order(K, d, z0)

    # _coset_minimize reads the row order from optimize's globals.
    monkeypatch.setattr(optimize, "_row_order", counted)
    tables = [("weights", 1), ("order", 1), ("levels", 0)]
    K = torus7()
    K._memo = memo = _CountingMemo()
    scan_moduli(K, 1, _gen(homology_decomposition(K, 1)), 2, 8)
    assert len(calls) == 8 and memo.builds == tables

    M = mobius_band()
    M._memo = mobius_memo = _CountingMemo()
    federer_sequence(M, 1, _gen(homology_decomposition(M, 1)), 4)
    assert len(calls) == 10 and mobius_memo.builds == tables[:2]

    K2 = K.with_scaled_weights(1, [0], Fraction(1, 2))
    assert not K2._memo
    K2._memo = sibling_memo = _CountingMemo()
    scan_moduli(K2, 1, _gen(homology_decomposition(K2, 1)), 2, 8)
    assert sibling_memo.builds == tables and memo.builds == tables


def test_harness_refuses_bad_arguments(tc, torus):
    c = _gen(homology_decomposition(tc, 1))
    with pytest.raises(ValueError, match=r"^modulus scan starts at n >= 2$"):
        scan_moduli(tc, 1, c, 1, 4)
    with pytest.raises(ValueError, match=r"^k_max must be >= 1$"):
        federer_sequence(tc, 1, c, 0)
    # The torus's class (1, 1) has 7 integral minimizers and 63 mod 3.
    dec = homology_decomposition(torus, 1)
    both = dec.class_coords(INT, (1, 1))
    with pytest.raises(EnumerationInexactError,
                       match=r"^mod-n minimizer enumeration hit the cap; "
                             r"raise it to decide$"):
        bijection_check(torus, 1, both, 3, cap=7)


def test_lift_minimizer_refuses_what_is_not_a_mod_n_cycle(tc):
    with pytest.raises(ValueError,
                       match=r"^lift_minimizer expects a mod-n chain$"):
        lift_minimizer(Chain.make(tc, 1, INT, {0: 1}))
    with pytest.raises(ValueError,
                       match=r"^lift_minimizer expects a mod-n cycle$"):
        lift_minimizer(Chain.make(tc, 1, mod_ring(3), {0: 1}))
