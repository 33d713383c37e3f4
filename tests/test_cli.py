"""CLI behavior: dispatch, payloads, exit codes, determinism, CSV output."""

import csv
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest

import homnorm
from homnorm.cli import main
from homnorm.complexes import dump_complex
from homnorm.fixtures import (klein8, mobius_band, mobius_boundary_indices,
                              rp2_6, torus7, triangle_circle)
from homnorm.rings import parse_rational

from conftest import horizontal_loop, torus_grid

MOBIUS_RIM = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
GRID4R_LOOP = horizontal_loop(torus_grid(4, seed=5), 4, seed=5)
RP2_FUNDAMENTAL = ",".join(f"{i}=1" for i in range(10))


def csv_records(text):
    """The records of CSV output as {column: field} maps."""
    header, *records = csv.reader(io.StringIO(text))
    return [dict(zip(header, rec, strict=True)) for rec in records]


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
    rows = csv_records(out)
    assert len(rows) == 15
    by_n = {int(r["n"]): r for r in rows}
    assert by_n[3]["equal"] == "false"
    assert all(by_n[n]["equal"] == by_n[n]["bijection"] == "true"
               for n in range(4, 17))


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
    rows = csv_records(out)
    assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
    assert parse_rational(rows[1]["ratio"]) == \
        parse_rational(rows[1]["value_real"])


def test_sweep_csv(paths, capsys):
    shrink = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
    code, out, _ = run_cli(capsys, [
        "sweep", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--shrink", shrink, "--factors", "1/1,1/2", "--n", "3"])
    assert code == 0
    rows = csv_records(out)
    assert len(rows) == 2 and "gap_ratio_mod_3" in rows[0]
    assert parse_rational(rows[1]["gap_ratio_real"]) > \
        parse_rational(rows[0]["gap_ratio_real"])


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
    with pytest.raises(SystemExit) as exc:
        main(["lift", paths["tc"], "--dim", "1", "--ring", "Z/2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify", paths["tc"], "--dim", "1", "--class", "f:1",
              "--chain", "0=1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", paths["tc"], "--dim", "1", "--n", "2"])
    assert exc.value.code == 2
    # integer options take ASCII digits only
    for argv in (["homology", paths["tc"], "--dim", "1_0"],
                 ["federer", paths["tc"], "--dim", "1", "--class", "f:1",
                  "--k-max", "\u0662"],
                 ["scan", paths["tc"], "--dim", "1", "--class", "f:1",
                  "--n", "2", "--cap", "1_0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [
    ["homology"],
    ["lift", "--chain", "0=1,1=1,2=1", "--ring", "Z/2"],
    ["certify", "--class", "f:1"],
    ["federer", "--class", "f:1", "--k-max", "2"],
    ["sweep", "--class", "f:1", "--n", "2", "--shrink", "0",
     "--factors", "1/2"]], ids=lambda argv: argv[0])
def test_cap_is_a_usage_error_where_it_cannot_bind(paths, argv):
    """Only ``norm``, ``scan`` and ``bijection`` enumerate minimizer sets;
    the other commands refuse ``--cap``, and take the line without it."""
    command, *rest = argv
    line = [command, paths["tc"], "--dim", "1", *rest]
    assert main(line + ["--out", os.devnull]) == 0
    with pytest.raises(SystemExit) as exc:
        main(line + ["--cap", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["norm", "--class", "f:1", "--ring", "Z"],
    ["scan", "--class", "f:1", "--n", "2..3"],
    ["bijection", "--class", "f:1", "--n", "3"]], ids=lambda argv: argv[0])
def test_cap_binds_where_minimizer_sets_are_enumerated(paths, argv):
    """``norm``, ``scan`` and ``bijection`` take a positive ``--cap``."""
    command, *rest = argv
    line = [command, paths["tc"], "--dim", "1", *rest, "--out", os.devnull]
    assert main(line + ["--cap", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(line + ["--cap", "0"])
    assert exc.value.code == 2


# The options each command takes beside the complex, --dim and --out:
# "class" for the --class/--chain pair, of which exactly one is required.
COMMAND_OPTIONS = {
    "homology": {},
    "norm": {"--class": "class", "--chain": "class", "--ring": "required",
             "--cap": "optional"},
    "scan": {"--class": "class", "--chain": "class", "--n": "required",
             "--cap": "optional", "--format": "optional"},
    "lift": {"--chain": "required", "--ring": "required"},
    "federer": {"--class": "class", "--chain": "class", "--k-max": "required",
                "--format": "optional"},
    "sweep": {"--class": "class", "--chain": "class", "--n": "required",
              "--factors": "required", "--shrink": "required",
              "--format": "optional"},
    "certify": {"--class": "class", "--chain": "class"},
    "bijection": {"--class": "class", "--chain": "class", "--n": "required",
                  "--cap": "optional"},
}
# A value of each option that every command taking it accepts on the
# triangle circle in degree 1.
OPTION_VALUES = {"--class": "f:1", "--chain": "0=1,2=1,1=-1", "--ring": "Z/2",
                 "--n": "3", "--k-max": "2", "--factors": "1/2",
                 "--shrink": "0", "--cap": "5", "--format": "report"}


@pytest.mark.parametrize("option", OPTION_VALUES)
@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_option_matrix(paths, capsys, command, option):
    """Each command takes exactly the options of its row: a required one
    cannot be left out, an optional one can be added, and any other is a
    usage error (exit 2)."""
    kinds = COMMAND_OPTIONS[command]

    def line(*, without=(), add=()):
        argv = [command, paths["tc"], "--dim", "1", "--out", os.devnull]
        for name, kind in kinds.items():
            if kind == "required" and name not in without:
                argv += [name, OPTION_VALUES[name]]
        if "class" in kinds.values() and "--class" not in without:
            argv += ["--class", OPTION_VALUES["--class"]]
        for name in add:
            argv += [name, OPTION_VALUES[name]]
        return argv

    def usage_error(argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv

    assert main(line()) == 0
    kind = kinds.get(option)
    if kind is None:
        usage_error(line(add=[option]), "unrecognized arguments")
    elif kind == "required":
        usage_error(line(without=[option]), "required")
    elif kind == "optional":
        assert main(line(add=[option])) == 0
    elif option == "--class":
        usage_error(line(without=["--class"]), "--class --chain is required")
    else:
        assert main(line(without=["--class"], add=[option])) == 0
        usage_error(line(add=[option]), "not allowed with argument")


def test_computation_errors_exit_1(paths, capsys, tmp_path):
    code, _, err = run_cli(capsys, [
        "homology", str(tmp_path / "missing.cplx"), "--dim", "1"])
    assert code == 1 and "missing.cplx" in err

    broken = tmp_path / "broken.cplx"
    broken.write_text("{', not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["homology", str(broken), "--dim", "1"])
    assert code == 1 and "error:" in err

    # nesting past the JSON decoder's recursion limit, a numeric weight, a
    # string in place of a vertex list, a non-integral or boolean dimension,
    # weights for a degree past the dimension and a name that is no string
    for text in ("[" * 5000,
                 json.dumps({"name": "w", "dimension": 1,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                             "weights": {"1": [5]}}),
                 json.dumps({"name": "s", "dimension": 1,
                             "simplices": {"0": "012", "1": [[0, 1]]}}),
                 json.dumps({"name": "d", "dimension": 1.9,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]}}),
                 json.dumps({"name": "d", "dimension": True,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]}}),
                 json.dumps({"name": "w", "dimension": 1,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                             "weights": {"5": ["1"]}}),
                 json.dumps({"name": [1, 2], "dimension": 1,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]}}),
                 json.dumps({"name": "w", "dimension": 1,
                             "simplices": {"0": [[0], [1]], "1": [[0, 1]]},
                             "weights": {"1": ["\u0663"]}})):
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

    # integers with non-ASCII digits or underscores, which int() would
    # read: in class coordinates, ring tags, moduli, chains and shrink sets
    rp2_fundamental = ",".join(f"0_{item}" for item in
                               RP2_FUNDAMENTAL.split(","))
    for argv in (
            ["norm", paths["mobius"], "--dim", "1", "--class", "f:\u0663",
             "--ring", "Z"],
            ["norm", paths["klein"], "--dim", "1", "--class", "f:1;t:\u0661",
             "--ring", "Z"],
            ["norm", paths["rp2"], "--dim", "2", "--class", "c:1_1",
             "--ring", "Z/2"],
            ["norm", paths["mobius"], "--dim", "1", "--class", "f:1",
             "--ring", "Z/\u0663"],
            ["scan", paths["mobius"], "--dim", "1", "--class", "f:1",
             "--n", "1_0..1_1"],
            ["scan", paths["mobius"], "--dim", "1", "--class", "f:1",
             "--n", "\u0663"],
            ["norm", paths["rp2"], "--dim", "2", "--chain", rp2_fundamental,
             "--ring", "Z/2"],
            ["sweep", paths["mobius"], "--dim", "1", "--class", "f:1",
             "--n", "3", "--shrink", "0_1", "--factors", "1/2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: bad ") and err.count("\n") == 1, argv

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


@pytest.mark.parametrize("klass,ring", [
    ("f:1,,0", "Z"), ("f:1,0,", "Z"), ("f:,1,0", "Z/3"), ("f:1, ,0", "Q"),
    ("f:1,0;t:,", "Z"), ("f:1,0;c:0,", "Z/2")])
def test_empty_class_coordinate_is_an_error(paths, capsys, klass, ring):
    """An empty item inside an ``f:``, ``t:`` or ``c:`` list is one error
    line with exit 1, not a dropped coordinate: ``f:1,,0`` on the torus is
    no class (1, 0)."""
    code, out, err = run_cli(capsys, [
        "norm", paths["torus"], "--dim", "1", "--class", klass, "--ring", ring])
    assert code == 1 and out == ""
    assert err.startswith("error: empty coordinate") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "report"])
@pytest.mark.parametrize("shrink,factors,message", [
    (MOBIUS_RIM, ",", "shrink factors must be nonempty"),
    (",", "1/1", "shrink set must be nonempty")], ids=["factors", "shrink"])
def test_sweep_refuses_an_empty_list(paths, capsys, shrink, factors, message,
                                     fmt):
    """``sweep`` with no shrink factors, or no simplices to shrink, has no
    row to report: one error line with exit 1 in either format, not a
    header-only CSV or ``"rows": []``."""
    code, out, err = run_cli(capsys, [
        "sweep", paths["mobius"], "--dim", "1", "--class", "f:1",
        "--shrink", shrink, "--factors", factors, "--n", "3",
        "--format", fmt])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_empty_items_stay_allowed_outside_class_lists(paths, capsys):
    """A tag with no coordinates still means zeros (RP^2 has no free part),
    and empty items in ``--chain`` and ``--n``, each of which carries its
    own index or value, are still skipped."""
    code, out, _ = run_cli(capsys, [
        "norm", paths["rp2"], "--dim", "1", "--class", "f:;t:1", "--ring", "Z"])
    assert code == 0 and json.loads(out)["report"]["value"] != "0/1"
    reports = []
    for chain, moduli in ((GRID4R_LOOP, "2,3"), (f",{GRID4R_LOOP},", "2,,3,")):
        code, out, _ = run_cli(capsys, [
            "scan", paths["grid4r"], "--dim", "1", "--chain", chain,
            "--n", moduli])
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


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


FUZZ_COMMANDS = {
    "norm-Z": ["norm", "--ring", "Z"],
    "norm-Q": ["norm", "--ring", "Q"],
    "norm-Z/4": ["norm", "--ring", "Z/4"],
    "certify": ["certify"],
    "scan": ["scan", "--n", "2..4"],
    "federer": ["federer", "--k-max", "2"],
    "bijection": ["bijection", "--n", "4"],
}
FUZZ_VALUES = ["0", "1", "-1", "2", "3", "-7", "1/2", "-3/4", "4/2", "1/0",
               "12345678901234567890", "", " 1", "x", "1.5", "1e2", "0x1",
               "+1", "--1", "\u0663", "15", "-15"]
FUZZ_JUNK = [":", ";", ",", "=", "f", "t", "c", "f:", "=1", ";;", ",,", " "]


def _fuzz_payload(rng, kind):
    """A class (``f:..;t:..;c:..``) or chain (``idx=coeff,..``) payload,
    well formed in shape with fuzzed values, and now and then cut or
    spliced with junk."""
    if kind == "class":
        tags = rng.sample("ftc", rng.randint(0, 3))
        text = ";".join(f"{t}:" + ",".join(rng.choice(FUZZ_VALUES) for _
                                            in range(rng.randint(0, 3)))
                        for t in tags)
    else:
        text = ",".join(f"{rng.choice(FUZZ_VALUES)}={rng.choice(FUZZ_VALUES)}"
                        for _ in range(rng.randint(0, 4)))
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        cut = rng.choice((0, 0, 1))
        text = text[:at] + rng.choice(FUZZ_JUNK) + text[at + cut:]
    return text


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
def test_fuzzed_payloads_exit_cleanly(paths, capsys, command):
    """Seeded fuzz of the --class and --chain payloads on the triangle
    circle and RP^2: every call exits 0 with a report, or exits 1 with one
    ``error:`` line; no exception escapes ``main``."""
    rng = random.Random(f"payload-fuzz-{command}")
    for _ in range(60):
        name, dim = rng.choice((("tc", 1), ("rp2", 1), ("rp2", 2)))
        kind = rng.choice(("class", "chain"))
        payload = _fuzz_payload(rng, kind)
        argv = [FUZZ_COMMANDS[command][0], paths[name], "--dim", str(dim),
                f"--{kind}={payload}", *FUZZ_COMMANDS[command][1:]]
        code, out, err = run_cli(capsys, argv)
        if code == 0:
            assert out and err == "", argv
        else:
            assert code == 1 and out == "", argv
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), argv


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


def test_package_runs_as_the_command(paths):
    argv = ["homology", paths["rp2"], "--dim", "1"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], capture_output=True)
        for name in ("homnorm", "homnorm.cli"))
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout and package.stdout


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


@pytest.mark.parametrize("argv,message", [
    (["scan", "--class", "f:1", "--n", "5..3"],
     "error: empty modulus range: '5..3'"),
    (["scan", "--class", "f:1", "--n", ","], "error: no moduli given"),
    (["lift", "--chain", "0=1", "--ring", "Z"],
     "error: lift expects --ring Z/n"),
], ids=["empty-range", "no-moduli", "lift-ring"])
def test_argument_values_are_one_line_errors(paths, capsys, argv, message):
    command, *rest = argv
    code, out, err = run_cli(capsys, [command, paths["tc"], "--dim", "1",
                                      *rest])
    assert code == 1 and out == "" and err == message + "\n"


def test_negative_dimension_is_a_usage_error(paths, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", paths["tc"], "--dim", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: --dim must be nonnegative\n")
