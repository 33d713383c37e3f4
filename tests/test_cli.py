"""CLI behavior: dispatch, payloads, exit codes, determinism, CSV output."""

import json
import os
import resource
import subprocess
import sys

import pytest

import homnorm
from homnorm.cli import main
from homnorm.complexes import dump_complex
from homnorm.fixtures import (klein8, mobius_band, mobius_boundary_indices,
                              rp2_6, torus7, triangle_circle)
from homnorm.hasse import (federer_rows_from_csv, gap_rows_from_csv,
                           scan_rows_from_csv)
from homnorm.rings import parse_rational

from conftest import horizontal_loop, torus_grid

MOBIUS_RIM = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
GRID4R_LOOP = horizontal_loop(torus_grid(4, seed=5), 4, seed=5)
RP2_FUNDAMENTAL = ",".join(f"{i}=1" for i in range(10))


@pytest.fixture()
def paths(tmp_path):
    out = {}
    for name, builder in (("torus", torus7), ("rp2", rp2_6),
                          ("klein", klein8), ("mobius", mobius_band),
                          ("tc", triangle_circle),
                          ("grid4r", lambda: torus_grid(4, seed=5))):
        p = tmp_path / f"{name}.cplx"
        p.write_text(dump_complex(builder()), encoding="utf-8")
        out[name] = str(p)
    return out


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_torus(paths, capsys):
    code, out, err = run_cli(capsys, ["homology", paths["torus"], "--dim", "1"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["betti"] == 2
    assert doc["torsion_factors"] == []
    assert doc["torsion_number"] == 1


def test_norm_rp2_torsion_generator(paths, capsys):
    code, out, err = run_cli(capsys, [
        "norm", paths["rp2"], "--dim", "1", "--class", "t:1", "--ring", "Z"])
    assert code == 0
    doc = json.loads(out)
    value = parse_rational(doc["report"]["value"])
    assert value > 0
    assert doc["report"]["minimizer_count_exact"] is True


def test_norm_accepts_chain_payload(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "norm", paths["tc"], "--dim", "1",
        "--chain", "0=1,2=1,1=-1", "--ring", "Z"])
    assert code == 0
    doc = json.loads(out)
    assert parse_rational(doc["report"]["value"]) == 3


def test_scan_mobius_csv(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "scan", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--n", "2..16"])
    assert code == 0
    rows = scan_rows_from_csv(out)
    assert len(rows) == 15
    by_n = {r.n: r for r in rows}
    assert by_n[3].equal is False
    assert all(by_n[n].equal and by_n[n].bijection for n in range(4, 17))


def test_scan_report_has_threshold(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "scan", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--n", "2..8", "--format", "report"])
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical_threshold"] == 4
    assert "basis" in doc


def test_lift_rp2_fundamental(paths, capsys):
    chain = ",".join(f"{i}=1" for i in range(10))
    code, out, _ = run_cli(capsys, [
        "lift", paths["rp2"], "--dim", "2", "--chain", chain,
        "--ring", "Z/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["is_cycle"] is False
    assert doc["report"]["mass_preserved"] is True


def test_federer_csv(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "federer", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--k-max", "4"])
    assert code == 0
    rows = federer_rows_from_csv(out)
    assert [r.k for r in rows] == [1, 2, 3, 4]
    assert rows[1].ratio == rows[1].value_real


def test_sweep_csv(paths, capsys):
    shrink = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
    code, out, _ = run_cli(capsys, [
        "sweep", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--shrink", shrink, "--factors", "1/1,1/2", "--n", "3"])
    assert code == 0
    rows = gap_rows_from_csv(out, [3])
    assert len(rows) == 2
    assert rows[1].gap_ratio_real > rows[0].gap_ratio_real


def test_certify(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "certify", paths["tc"], "--dim", "1", "--class", "f:1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert parse_rational(doc["value"]) == 3


def test_bijection(paths, capsys):
    code, out, _ = run_cli(capsys, [
        "bijection", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--n", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] is False


def test_determinism_byte_identical(paths, capsys):
    argvs = [
        ["homology", paths["klein"], "--dim", "1"],
        ["norm", paths["rp2"], "--dim", "1", "--class", "t:1", "--ring", "Z"],
        ["scan", paths["mobius"], "--dim", "1", "--class", "f:1", "--n", "2..6"],
        ["federer", paths["tc"], "--dim", "1", "--class", "f:1",
         "--k-max", "3", "--format", "report"],
    ]
    for argv in argvs:
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2 and out1


def test_out_file(paths, capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "homology", paths["tc"], "--dim", "1", "--out", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["betti"] == 1


def test_usage_errors_exit_2(paths):
    with pytest.raises(SystemExit) as exc:
        main(["norm", paths["tc"], "--dim", "1", "--class", "f:1",
              "--chain", "0=1", "--ring", "Z"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["norm", paths["tc"], "--dim", "1", "--class", "f:1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", paths["tc"], "--dim", "1", "--n", "2..4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["norm", paths["tc"], "--dim", "1", "--class", "f:1",
              "--ring", "Z", "--bogus"])
    assert exc.value.code == 2


def test_computation_errors_exit_1(paths, capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "homology", str(tmp_path / "missing.cplx"), "--dim", "1"])
    assert code == 1 and "missing.cplx" in err

    broken = tmp_path / "broken.cplx"
    broken.write_text("{', not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["homology", str(broken), "--dim", "1"])
    assert code == 1 and "error:" in err

    # nesting past the JSON decoder's recursion limit, a numeric weight, a
    # string in place of a vertex list and a non-integral or boolean dimension
    for text in ("[" * 5000,
                 json.dumps({"name": "w", "dimension": 1,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                             "weights": {"1": [5]}}),
                 json.dumps({"name": "s", "dimension": 1,
                             "simplices": {"0": "012", "1": [[0, 1]]}}),
                 json.dumps({"name": "d", "dimension": 1.9,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]}}),
                 json.dumps({"name": "d", "dimension": True,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]}})):
        broken.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, ["homology", str(broken), "--dim", "1"])
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1

    # a chain that is not a cycle
    code, _, err = run_cli(capsys, [
        "norm", paths["tc"], "--dim", "1", "--chain", "0=1", "--ring", "Z"])
    assert code == 1 and "boundary" in err

    # wrong class arity
    code, _, err = run_cli(capsys, [
        "norm", paths["torus"], "--dim", "1", "--class", "f:1",
        "--ring", "Z"])
    assert code == 1

    # a non-integral free coordinate over Z or Z/n is not truncated
    for ring, klass in (("Z", "f:1/2"), ("Z/3", "f:3/2")):
        code, out, err = run_cli(capsys, [
            "norm", paths["mobius"], "--dim", "1", "--class", klass,
            "--ring", ring])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # non-contiguous scan range
    code, _, err = run_cli(capsys, [
        "scan", paths["tc"], "--dim", "1", "--class", "f:1", "--n", "2,5"])
    assert code == 1

    # an --out path that cannot be written
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code, out, err = run_cli(capsys, [
        "homology", paths["tc"], "--dim", "1", "--out", str(target)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command,extra,message", [
    ("scan", [], "out of memory"),
    ("bijection", [], "bijection expects a single modulus"),
    ("sweep", ["--shrink", MOBIUS_RIM, "--factors", "1/1"], "out of memory"),
])
def test_huge_modulus_range_is_one_line_error(paths, command, extra, message):
    # Materialising 2..10^11 cannot fit in the 1 GiB address space the
    # child runs under; the failure must be a diagnostic, not a traceback.
    # Past 2^63 moduli no list can hold them, and a range that long has no
    # len(): every command counts the moduli from the range bounds.
    for spec in ("2..100000000000", f"2..{10 ** 27}"):
        proc = subprocess.run(
            [sys.executable, "-m", "homnorm.cli", command, paths["mobius"],
             "--dim", "1", "--class", "f:1", "--n", spec] + extra,
            capture_output=True, text=True, preexec_fn=_limit_address_space,
            timeout=120)
        assert proc.returncode == 1 and proc.stdout == "", spec
        assert proc.stderr == f"error: {message}\n", spec


def test_every_public_name_resolves():
    namespace = {}
    exec("from homnorm import *", namespace)
    assert all(name in namespace for name in homnorm.__all__)
    assert len(set(homnorm.__all__)) == len(homnorm.__all__)


def test_console_entry_point(paths):
    proc = subprocess.run(
        [sys.executable, "-m", "homnorm.cli", "homology", paths["rp2"],
         "--dim", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["torsion_factors"] == [[2, 1]]


@pytest.mark.parametrize("argv", [
    ["homology", "klein", "--dim", "1"],
    ["homology", "torus", "--dim", "2"],
    ["norm", "rp2", "--dim", "2", "--class", "c:1", "--ring", "Z/2"],
    ["norm", "rp2", "--dim", "2", "--class", "c:1", "--ring", "Z/4"],
    ["norm", "torus", "--dim", "1", "--class", "f:1,1", "--ring", "Z/2"],
    ["norm", "klein", "--dim", "1", "--class", "f:1;t:0", "--ring", "Z/3"],
    ["norm", "grid4r", "--dim", "1", "--chain", GRID4R_LOOP, "--ring", "Z"],
    ["scan", "rp2", "--dim", "1", "--class", "t:1", "--n", "2..6"],
    ["scan", "grid4r", "--dim", "1", "--class", "f:1,0", "--n", "2..4"],
    ["federer", "mobius", "--dim", "1", "--class", "f:1", "--k-max", "3"],
    ["bijection", "torus", "--dim", "1", "--class", "f:1,0", "--n", "3"],
    ["certify", "torus", "--dim", "1", "--class", "f:1,1"],
    ["lift", "rp2", "--dim", "2", "--chain", RP2_FUNDAMENTAL, "--ring", "Z/2"],
    ["sweep", "mobius", "--dim", "1", "--class", "f:1", "--shrink", MOBIUS_RIM,
     "--factors", "1/1,1/2", "--n", "5,3"],
    ["sweep", "mobius", "--dim", "1", "--class", "f:1", "--shrink", MOBIUS_RIM,
     "--factors", "1/1,1/2", "--n", "5,3", "--format", "report"],
], ids=lambda argv: " ".join(argv))
def test_output_does_not_depend_on_hash_seed(paths, argv):
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "homnorm.cli", argv[0], paths[argv[1]]]
            + argv[2:],
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
