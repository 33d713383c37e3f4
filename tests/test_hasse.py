"""Modulus scans, thresholds, Federer ratios, weight sweeps, bijections."""

from fractions import Fraction

import pytest

from conftest import torus_grid

from homnorm import hasse
from homnorm.fixtures import mobius_band, mobius_boundary_indices
from homnorm.hasse import (EnumerationInexactError, FedererRow, GapRow,
                           ScanRow, bijection_check, empirical_threshold, federer_rows_from_csv,
                           federer_rows_to_csv, federer_sequence,
                           gap_rows_from_csv, gap_rows_to_csv, gap_sweep,
                           scan_moduli, scan_rows_from_csv, scan_rows_to_csv)
from homnorm.homology import homology_decomposition, reduce_class
from homnorm.optimize import min_real
from homnorm.rings import INT, RAT


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
    rows = federer_sequence(tc, 1, dec.zero_class(INT), 4)
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
    rows = gap_sweep(tc, 1, dec.zero_class(INT), [0],
                     [Fraction(1), Fraction(1, 2)], [3, 5])
    for row in rows:
        assert row.gap_ratio_real == 1
        assert all(v == 1 for v in row.gap_ratio_mod.values())
        assert not row.in_lavrentiev_real


def test_gap_sweep_validation(tc):
    dec = homology_decomposition(tc, 1)
    with pytest.raises(ValueError):
        gap_sweep(tc, 1, _gen(dec), [], [Fraction(1)], [3])
    with pytest.raises(ValueError):
        gap_sweep(tc, 1, _gen(dec), [0], [Fraction(-1)], [3])


def test_bijection_check_torus(torus):
    dec = homology_decomposition(torus, 1)
    report = bijection_check(torus, 1, _gen(dec), 5)
    assert report.verdict
    assert report.int_minimizer_count == report.mod_minimizer_count
    assert all(item.lift_is_cycle and item.lift_in_class
               for item in report.lifts)


def test_bijection_verdict_forces_lift_reduce_identity(torus, mobius):
    from homnorm.complexes import lift_chain, reduce_chain
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
    report = bijection_check(tc, 1, dec.zero_class(INT), 4)
    assert report.verdict
    assert report.int_minimizer_count == report.mod_minimizer_count == 1


def test_bijection_check_refuses_inexact(mobius):
    dec = homology_decomposition(mobius, 1)
    with pytest.raises(EnumerationInexactError):
        bijection_check(mobius, 1, _gen(dec), 5, cap=2)


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


def test_scan_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = scan_moduli(mobius, 1, _gen(dec), 2, 6)
    text = scan_rows_to_csv(rows)
    assert scan_rows_from_csv(text) == rows


def test_federer_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = federer_sequence(mobius, 1, _gen(dec), 4)
    text = federer_rows_to_csv(rows)
    assert federer_rows_from_csv(text) == rows


def test_gap_csv_round_trip(mobius):
    dec = homology_decomposition(mobius, 1)
    rows = gap_sweep(mobius, 1, _gen(dec), mobius_boundary_indices(mobius),
                     [Fraction(1), Fraction(1, 2)], [3, 5])
    text = gap_rows_to_csv(rows, [3, 5])
    assert gap_rows_from_csv(text, [3, 5]) == rows


SCAN_CSV = "n,value_mod,value_int,equal,tau_divides,bijection,lift_all_cycles\n"
FEDERER_CSV = "k,value_int,ratio,value_real\n"
GAP_CSV = ("shrink_factor,value_int,value_real,value_mod_3,gap_ratio_real,"
           "gap_ratio_mod_3,in_lavrentiev_real,in_lavrentiev_mod_3\n")


def _gap_from_csv(text):
    return gap_rows_from_csv(text, [3])


MALFORMED = {
    # a record shorter or longer than the header, and no header at all
    "scan-short": (scan_rows_from_csv, SCAN_CSV + "3,1/1,1/1,true,true\n"),
    "scan-long": (scan_rows_from_csv, SCAN_CSV + "3,1/1,1/1,true,true,,,x\n"),
    "scan-empty": (scan_rows_from_csv, ""),
    "federer-short": (federer_rows_from_csv, FEDERER_CSV + "1,3/1,3/1\n"),
    "federer-long": (federer_rows_from_csv,
                     FEDERER_CSV + "1,3/1,3/1,3/1,3/1\n"),
    "federer-empty": (federer_rows_from_csv, ""),
    "gap-short": (_gap_from_csv,
                  GAP_CSV + "1/1,3/2,5/8,5/4,12/5,6/5,true\n"),
    "gap-long": (_gap_from_csv,
                 GAP_CSV + "1/1,3/2,5/8,5/4,12/5,6/5,true,true,true\n"),
    "gap-empty": (_gap_from_csv, ""),
    # a header that does not match the row type or the moduli
    "scan-header": (scan_rows_from_csv, FEDERER_CSV),
    "federer-header": (federer_rows_from_csv, "k,value_real,ratio,value_int\n"),
    "gap-header": (lambda text: gap_rows_from_csv(text, [3, 5]), GAP_CSV),
    # bad fields: a boolean, a required boolean left empty, a rational, an int
    "scan-bool": (scan_rows_from_csv, SCAN_CSV + "3,1/1,1/1,yes,true,,\n"),
    "scan-no-bool": (scan_rows_from_csv, SCAN_CSV + "3,1/1,1/1,,true,,\n"),
    "gap-no-bool": (_gap_from_csv,
                    GAP_CSV + "1/1,3/2,5/8,5/4,12/5,6/5,,true\n"),
    "federer-rational": (federer_rows_from_csv,
                         FEDERER_CSV + "1,3/0,3/1,3/1\n"),
    "federer-int": (federer_rows_from_csv, FEDERER_CSV + "one,3/1,3/1,3/1\n"),
    # broken row invariants
    "scan-mod-above-int": (scan_rows_from_csv,
                           SCAN_CSV + "3,2/1,1/1,false,true,,\n"),
    "scan-equal-flag": (scan_rows_from_csv,
                        SCAN_CSV + "3,1/1,2/1,true,true,,\n"),
    "federer-ratio": (federer_rows_from_csv, FEDERER_CSV + "2,6/1,2/1,3/1\n"),
    "gap-real-ratio": (_gap_from_csv,
                       GAP_CSV + "1/1,3/2,5/8,5/4,1/2,6/5,true,true\n"),
    "gap-mod-ratio": (_gap_from_csv,
                      GAP_CSV + "1/1,3/2,5/8,5/4,12/5,5/6,true,true\n"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_csv_readers_reject_malformed_input(case):
    reader, text = MALFORMED[case]
    with pytest.raises(ValueError):
        reader(text)


def test_csv_readers_accept_header_only_blank_lines_and_absent_optionals():
    assert scan_rows_from_csv(SCAN_CSV) == []
    assert scan_rows_from_csv(SCAN_CSV + "3,1/1,1/1,true,false,,\n") == [
        ScanRow(3, Fraction(1), Fraction(1), True, False, None, None)]
    assert federer_rows_from_csv(FEDERER_CSV + "\n1,3/1,3/1,3/1\n\n") == [
        FedererRow(1, Fraction(3), Fraction(3), Fraction(3))]
    assert gap_rows_to_csv([], [3, 3]) == GAP_CSV
    assert _gap_from_csv(GAP_CSV) == []


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
