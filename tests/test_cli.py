import pytest

from hdmkit import cli, constructions, gf, ncube
from hdmkit.cli import main
from hdmkit.constructions import almost_cube, paley2, paley3
from hdmkit.gf import Field
from hdmkit.ncube import SignCube, parse, serialize

PALEY2_Q3 = "HDM 2 4\n-+++\n+++-\n+-++\n++-+\n"


def write_cube(path, cube):
    path.write_bytes(serialize(cube).encode("ascii"))
    return str(path)


# -- construct -------------------------------------------------------------------

def test_construct_paley3_v14(tmp_path, capsys):
    out = tmp_path / "m.hdm"
    assert main(["construct", "--kind", "paley3", "--v", "14", "--out", str(out)]) == 0
    cube = parse(out.read_bytes().decode())
    assert cube.n == 3 and cube.v == 14
    assert "paley3 n=3 v=14" in capsys.readouterr().err


def test_construct_order_not_covered(tmp_path, capsys):
    assert main(["construct", "--kind", "paley3", "--v", "22",
                 "--out", str(tmp_path / "m.hdm")]) == 2
    assert "order not covered: q=21 is not an odd prime power" in capsys.readouterr().err


def test_construct_paley2_worked_example(tmp_path):
    out = tmp_path / "p.hdm"
    assert main(["construct", "--kind", "paley2", "--q", "3", "--out", str(out)]) == 0
    assert out.read_bytes().decode() == PALEY2_Q3


def test_construct_to_stdout(capsys):
    assert main(["construct", "--kind", "paley2", "--q", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == PALEY2_Q3
    assert "paley2 n=2 v=4" in captured.err


def test_construct_needs_exactly_one_order_flag(capsys):
    assert main(["construct", "--kind", "paley3"]) == 2
    assert main(["construct", "--kind", "paley3", "--q", "7", "--v", "8"]) == 2


def test_construct_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.hdm", tmp_path / "b.hdm"
    for out in (a, b):
        assert main(["construct", "--kind", "paley3", "--q", "9",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_product_and_lift(tmp_path, capsys):
    base = tmp_path / "h.hdm"
    assert main(["construct", "--kind", "paley2", "--q", "7", "--out", str(base)]) == 0
    prod = tmp_path / "p3.hdm"
    assert main(["construct", "--kind", "product", "--input", str(base),
                 "--dim", "3", "--out", str(prod)]) == 0
    assert main(["verify", str(prod), "--proper"]) == 0
    lifted = tmp_path / "l.hdm"
    assert main(["construct", "--kind", "lift", "--input", str(prod),
                 "--out", str(lifted)]) == 0
    assert main(["verify", str(lifted)]) == 0
    assert parse(lifted.read_bytes().decode()).n == 4


def test_construct_product_rejects_non_hadamard(tmp_path, capsys):
    bad = write_cube(tmp_path / "ones.hdm", SignCube(2, 4, [1] * 16))
    assert main(["construct", "--kind", "product", "--input", bad,
                 "--dim", "3", "--out", str(tmp_path / "x.hdm")]) == 3
    assert "hypothesis violation" in capsys.readouterr().err


def test_construct_product_flag_validation(tmp_path, capsys):
    assert main(["construct", "--kind", "product", "--dim", "3"]) == 2
    base = write_cube(tmp_path / "h.hdm", paley2(Field(7)))
    assert main(["construct", "--kind", "product", "--input", base]) == 2


@pytest.mark.parametrize("args", [
    ["--kind", "product", "--input", "h.hdm", "--dim", "60"],
    ["--kind", "product", "--input", "h.hdm", "--dim", "70"],
    ["--kind", "almost-cube", "--q", "3", "--dim", "40"],
])
def test_construct_refuses_oversized_cube(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    write_cube(tmp_path / "h.hdm", paley2(Field(7)))
    assert main(["construct", *args, "--out", "x.hdm"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds" in err
    assert not (tmp_path / "x.hdm").exists()


def test_construct_and_chi_table_refuse_orders_over_the_caps(monkeypatch, capsys):
    monkeypatch.setattr(gf, "MAX_ORDER", 7)
    assert main(["chi-table", "--q", "9"]) == 2
    assert main(["construct", "--kind", "paley2", "--q", "9"]) == 2
    monkeypatch.setattr(constructions, "MAX_ENTRIES", 8**3 - 1)
    assert main(["construct", "--kind", "paley3", "--q", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "q=9 exceeds the field order cap 7",
        "q=9 exceeds the field order cap 7",
        "a cube of order 8 and dimension 3 exceeds 511 entries or 32 axes",
    ]


@pytest.mark.parametrize("kind, extra, option", [
    ("paley2", ["--q", "7", "--dim", "3"], "--dim"),
    ("paley3", ["--q", "7", "--dim", "5"], "--dim"),
    ("lift", ["--input", "h.hdm", "--dim", "3"], "--dim"),
    ("paley2", ["--q", "7", "--input", "h.hdm"], "--input"),
    ("paley3", ["--v", "8", "--input", "missing.hdm"], "--input"),
    ("almost-cube", ["--q", "5", "--input", "h.hdm"], "--input"),
    ("product", ["--input", "h.hdm", "--dim", "3", "--q", "7"], "--q"),
    ("lift", ["--input", "h.hdm", "--v", "8"], "--v"),
])
def test_construct_refuses_options_its_kind_does_not_read(tmp_path, monkeypatch, capsys,
                                                          kind, extra, option):
    monkeypatch.chdir(tmp_path)
    write_cube(tmp_path / "h.hdm", paley2(Field(7)))
    assert main(["construct", "--kind", kind, *extra, "--out", "x.hdm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--kind {kind} does not read {option}\n"
    assert not (tmp_path / "x.hdm").exists()


def test_construct_unreadable_input(tmp_path):
    assert main(["construct", "--kind", "lift",
                 "--input", str(tmp_path / "missing.hdm")]) == 2


def test_construct_almost_cube_default_dim(tmp_path):
    out = tmp_path / "a.hdm"
    assert main(["construct", "--kind", "almost-cube", "--q", "5",
                 "--out", str(out)]) == 0
    assert parse(out.read_bytes().decode()) == almost_cube(Field(5), 3)


# -- verify ----------------------------------------------------------------------

def test_verify_paley3_gf9(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(9)))
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == "hadamard: PASS\n"


def test_verify_almost_cube_failure_detail(tmp_path, capsys):
    path = write_cube(tmp_path / "a.hdm", almost_cube(Field(5), 3))
    assert main(["verify", path]) == 1
    assert capsys.readouterr().out == "hadamard: FAIL axis=1 a=1 b=2 dev=6\n"


def test_verify_proper_flag(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(7)))
    assert main(["verify", path, "--proper"]) == 0
    assert capsys.readouterr().out == "hadamard: PASS\nproper: PASS\n"


def test_verify_all_flags(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(9)))
    assert main(["verify", path, "--proper", "--cyclic", "--psl", "--q", "9"]) == 1
    # q = 9 is 1 mod 4: propriety fails, the symmetry checks pass
    assert capsys.readouterr().out.splitlines() == [
        "hadamard: PASS",
        "proper: FAIL axis=1 a=2 b=3 dev=2",
        "cyclic: PASS",
        "psl: PASS",
    ]


def test_verify_makes_each_relabelling_compare_once(tmp_path, monkeypatch, capsys):
    """is_hadamard tests the affine group B, the maps x -> a*x + b with a
    a non-zero square, on a file's cube of order q + 1 once its head
    layers pass, and is_hadamard, is_proper and check_cyclic all ask
    whether the cube is fixed by the rotation of its coordinates; each
    relabelling is compared once.  Over GF(19) B fixes the cube:
    is_hadamard compares the shift x -> x + 1 whole, and the scaling
    x -> g^2 x and the rotation on indices 0 and 1 of axis 0.  Over
    GF(27) the digit translations x -> x + 9, x + 3 and x + 1 come first,
    the first whole and the others on the indices [0, 10) and [0, 4) of
    axis 0.  --psl adds only the inversion: the translation x -> x + 1 and
    the scaling have the verifier's bytes, and both verdicts are kept."""
    calls, relabels = [], ncube._relabels_to

    def recorded(src, dst, perm=None, **kw):
        # the coordinate permutation, read off the strides of dst, a view of src
        axes = tuple(src.strides.index(s) for s in dst.strides)
        calls.append((None if axes == tuple(range(src.ndim)) else axes, perm is None,
                      kw.get("rows")))
        return relabels(src, dst, perm, **kw)
    monkeypatch.setattr(ncube, "_relabels_to", recorded)
    shift, psl = (None, False, None), (None, False, None)
    tail = [(None, False, 2), ((1, 2, 0), True, 2)]
    out = "hadamard: PASS\nproper: PASS\ncyclic: PASS\n"
    for q, verifier in ((19, [shift, *tail]),
                        (27, [shift, (None, False, 10), (None, False, 4), *tail])):
        path = write_cube(tmp_path / f"m{q}.hdm", paley3(Field(q)))
        assert main(["verify", path, "--proper", "--cyclic"]) == 0
        assert calls == verifier
        del calls[:]
        assert main(["verify", path, "--proper", "--cyclic", "--psl", "--q", str(q)]) == 0
        # a new file is a new cube
        assert calls == verifier + [psl]
        del calls[:]
        assert capsys.readouterr().out == out + out + "psl: PASS\n"


def test_verify_symmetry_failure_lines(tmp_path, capsys):
    """The lift of paley2(GF(7)) is Hadamard but neither proper nor
    invariant: every symmetry check prints a bare FAIL."""
    base, lifted = str(tmp_path / "h.hdm"), str(tmp_path / "l.hdm")
    assert main(["construct", "--kind", "paley2", "--q", "7", "--out", base]) == 0
    assert main(["construct", "--kind", "lift", "--input", base, "--out", lifted]) == 0
    capsys.readouterr()
    assert main(["verify", lifted, "--proper", "--cyclic", "--psl", "--q", "7"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "hadamard: PASS",
        "proper: FAIL axis=2 a=1 b=2 dev=4",
        "cyclic: FAIL",
        "psl: FAIL",
    ]


def test_verify_psl_requires_q(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(7)))
    assert main(["verify", path, "--psl"]) == 2
    assert "--psl requires --q" in capsys.readouterr().err


def test_verify_checks_arguments_before_reading_the_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "missing.hdm", "--psl"]) == 2
    assert capsys.readouterr().err == "--psl requires --q to bind the field\n"
    assert main(["verify", "missing.hdm", "--psl", "--q", "4"]) == 2
    assert capsys.readouterr().err == \
        "order not covered: q=4 is not an odd prime power\n"


def test_verify_refuses_q_without_psl(tmp_path, monkeypatch, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(7)))
    for q in ("4", "7", "13"):
        assert main(["verify", path, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify does not read --q without --psl\n"
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "missing.hdm", "--q", "7"]) == 2  # before the file is read
    assert capsys.readouterr().err == "verify does not read --q without --psl\n"


def test_verify_psl_order_mismatch(tmp_path):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(7)))
    assert main(["verify", path, "--psl", "--q", "5"]) == 2


@pytest.mark.parametrize("cube, flags, err", [
    (lambda: paley3(Field(7)), ["--psl", "--q", "11"], "cube order 8 != q+1 = 12\n"),
    (lambda: constructions.yang_product(paley2(Field(7)), 4), ["--psl", "--q", "7"],
     "need n = 3, got n=4\n"),
    (lambda: constructions.yang_product(paley2(Field(7)), 4), [], "need n = 3, got n=4\n"),
])
def test_verify_refuses_a_shape_it_cannot_check_before_verifying(cube, flags, err, tmp_path,
                                                                 monkeypatch, capsys):
    """A file --cyclic or --psl cannot check, not 3-D or, for --psl, not
    of order q + 1, exits 2 with the symmetry module's message and no
    stdout, and no verifier or symmetry check runs first."""
    path = write_cube(tmp_path / "m.hdm", cube())
    called = []
    for module, name in ((cli, "is_hadamard"), (cli, "is_proper"), (cli, "check_cyclic"),
                         (cli, "check_psl_invariance"), (ncube, "_scan"),
                         (ncube, "_relabels_to")):
        monkeypatch.setattr(module, name, lambda *a, _name=name, **kw: called.append(_name))
    capsys.readouterr()
    assert main(["verify", path, "--proper", "--cyclic", *flags]) == 2
    assert capsys.readouterr() == ("", err)
    assert called == []


def test_verify_cyclic_needs_3d(tmp_path):
    path = write_cube(tmp_path / "m.hdm", paley2(Field(7)))
    assert main(["verify", path, "--cyclic"]) == 2


def test_verify_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.hdm"
    bad.write_bytes(b"HDM 2 2\n++\n+?\n")
    assert main(["verify", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("raw, where", [
    (b"HDM 2 2\n+\xff\n+-\n", "line 2, column 2"),
    ("HDM \u00b2 2\n++\n+-\n".encode("utf-8"), "line 1, column 5"),
])
def test_verify_non_ascii_byte_reports_line_and_column(tmp_path, capsys, raw, where):
    bad = tmp_path / "bad.hdm"
    bad.write_bytes(raw)
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"parse error: {where}:" in err


@pytest.mark.parametrize("command", ["verify", "info"])
@pytest.mark.parametrize("header, where", [
    ("HDM 1000000 3", "line 2"),
    ("HDM 2 " + "9" * 5000, "line 1"),
], ids=["giant-row-count", "giant-v"])
def test_hostile_header_exits_2(tmp_path, capsys, command, header, where):
    bad = tmp_path / "bad.hdm"
    bad.write_bytes(header.encode("ascii") + b"\n")
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"parse error: {where}:")


def test_layer_refuses_a_file_over_the_axis_cap(tmp_path, capsys):
    one = tmp_path / "one.hdm"
    one.write_bytes(b"HDM 100 1\n+\n")
    assert main(["layer", str(one), "--fix", "1=0"]) == 2
    assert capsys.readouterr().err == "parse error: line 1: dimension n=100 exceeds 32 axes\n"


# -- info / layer / chi-table -------------------------------------------------------

def test_info(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(13)))
    assert main(["info", path]) == 0
    assert capsys.readouterr().out == "n=3 v=14 entries=2744\n"


def test_layer_fix_last_coordinate_recovers_paley2(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(7)))
    out = tmp_path / "sl.hdm"
    assert main(["layer", path, "--fix", "3=0", "--out", str(out)]) == 0
    assert out.read_bytes().decode() == serialize(paley2(Field(7)))


def test_layer_multiple_fixes(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(3)))
    assert main(["layer", path, "--fix", "1=2", "--fix", "3=1"]) == 0
    sl = parse(capsys.readouterr().out)
    cube = paley3(Field(3))
    assert sl.n == 1
    for i in range(4):
        assert sl.get((i,)) == cube.get((2, i, 1))


def test_layer_flag_validation(tmp_path, capsys):
    path = write_cube(tmp_path / "m.hdm", paley3(Field(3)))
    assert main(["layer", path, "--fix", "4=0"]) == 2
    assert main(["layer", path, "--fix", "0=1"]) == 2
    assert main(["layer", path, "--fix", "x=1"]) == 2
    assert main(["layer", path, "--fix", "\u00b2=1"]) == 2
    assert main(["layer", path, "--fix", "1=\u00b2"]) == 2
    assert main(["layer", path, "--fix", "1=9"]) == 2
    assert main(["layer", path, "--fix", "1=0", "--fix", "1=1"]) == 2
    assert main(["layer", path, "--fix", "1=0", "--fix", "2=0", "--fix", "3=0"]) == 2


@pytest.mark.parametrize("spec", ["1=" + "9" * 5000, "9" * 5000 + "=0"],
                         ids=["value", "coordinate"])
def test_layer_fix_with_more_digits_than_int_converts_exits_2(tmp_path, capsys, spec):
    """A --fix number longer than int() converts (4300 digits by default) is
    a usage error, not a ValueError traceback."""
    path = write_cube(tmp_path / "m.hdm", paley3(Field(3)))
    assert main(["layer", path, "--fix", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad --fix ") and err.endswith("expected <coordinate>=<value>\n")


def test_chi_table_q7(capsys):
    assert main(["chi-table", "--q", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1 1 +1", "2 2 +1", "3 3 -1", "4 4 +1", "5 5 -1", "6 6 -1"]


def test_chi_table_prime_power(capsys):
    assert main(["chi-table", "--q", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "1 1,0 +1"
    assert sum(1 for line in lines if line.endswith("+1")) == 4


def test_chi_table_rejects_bad_q(capsys):
    assert main(["chi-table", "--q", "21"]) == 2
    assert "order not covered" in capsys.readouterr().err


# -- round trips ---------------------------------------------------------------------

ODD_PRIME_POWERS_LE_101 = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def test_construct_verify_round_trip_every_order(tmp_path):
    out = str(tmp_path / "m.hdm")
    for q in ODD_PRIME_POWERS_LE_101:
        assert main(["construct", "--kind", "paley3", "--q", str(q),
                     "--out", out]) == 0
        assert main(["verify", out]) == 0, f"q={q}"


def test_construct_verify_round_trip_products_and_lifts(tmp_path):
    base = str(tmp_path / "h.hdm")
    prod = str(tmp_path / "p.hdm")
    lifted = str(tmp_path / "l.hdm")
    for q in (3, 7, 11):  # orders 4, 8, 12
        assert main(["construct", "--kind", "paley2", "--q", str(q),
                     "--out", base]) == 0
        for dim in (3, 4):
            assert main(["construct", "--kind", "product", "--input", base,
                         "--dim", str(dim), "--out", prod]) == 0
            assert main(["verify", prod, "--proper"]) == 0, f"q={q} dim={dim}"
            assert main(["construct", "--kind", "lift", "--input", prod,
                         "--out", lifted]) == 0
            assert main(["verify", lifted]) == 0, f"lift q={q} dim={dim}"


def test_usage_error_exit_code(capsys):
    assert main(["construct"]) == 2          # missing --kind
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["verify", "x.hdm", "--threads", "4"]) == 2  # option removed
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
