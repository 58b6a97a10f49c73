import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import re
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphgeo import cli, counts, finder, solids, unfold
from sphgeo.cli import main, parse_alpha
from sphgeo.finder import enumerate_classes
from sphgeo.solids import SolidKind, build_solid

from util import reference_render_svg

PI = math.pi

# `sweep` near the flat limit, as written by the arc-by-arc closure solver
SWEEP_FLAT_ARGS = ["sweep", "--solid", "tetra", "--alpha", "0.334pi",
                   "--alpha-stop", "0.340pi", "--alpha-step", "0.0005pi"]
SWEEP_FLAT_CSV = Path(__file__).parent / "data" / "sweep_flat.csv"
# `solve --solid tetra` per angle and type: exit code and SHA-256 of stdout,
# as written when each type's sequence was traced across a coloured lattice
SOLVE_TETRA_GOLDEN = Path(__file__).parent / "data" / "solve_tetra.txt"
# `enumerate --depth 12` per solid and angle: exit code and SHA-256 of
# stdout, as written by the recursive search; the tetra documents carry the
# bounds block with psi1 and psi2
ENUMERATE_DOCS_GOLDEN = Path(__file__).parent / "data" / "enumerate_docs.txt"
# `export` of every class of an `enumerate` document (the documents above at
# depth 12, plus tetra 0.34pi at depth 28): exit code and SHA-256 of stdout,
# as written by the renderer that called slerp and the projection per point
EXPORT_SVGS_GOLDEN = Path(__file__).parent / "data" / "export_svgs.txt"


def test_parse_alpha():
    assert parse_alpha("0.45pi") == pytest.approx(0.45 * PI)
    assert parse_alpha("pi") == pytest.approx(PI)
    assert parse_alpha("1.2566") == pytest.approx(1.2566)
    with pytest.raises(ValueError):
        parse_alpha("two-pi")


def test_solve_found(tmp_path):
    out = tmp_path / "res.json"
    rc = main(["solve", "--solid", "tetra", "--alpha", "0.6pi",
               "--type", "0,1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["solid"] == "tetra"
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["kind_tag"] == "0,1"
    assert doc["bounds"]["N"] == 1


def test_solve_excluded(tmp_path):
    rc = main(["solve", "--solid", "tetra", "--alpha", "0.6pi",
               "--type", "1,2", "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_solve_octa_rejected():
    # alpha outside (pi/3, pi/2) reports a config error
    rc = main(["solve", "--solid", "octa", "--alpha", "0.55pi", "--type", "0,1"])
    assert rc == 2


def test_solve_requires_type(tmp_path):
    rc = main(["solve", "--solid", "tetra", "--alpha", "0.6pi",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_enumerate_octa(tmp_path):
    out = tmp_path / "octa.json"
    rc = main(["enumerate", "--solid", "octa", "--alpha", "0.4pi",
               "--depth", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 2
    assert sorted(len(c["canonical_sequence"]) for c in doc["classes"]) == [6, 8]
    assert doc["bounds"] is None


def test_enumerate_cube(tmp_path):
    out = tmp_path / "cube.json"
    rc = main(["enumerate", "--solid", "cube", "--alpha", "0.6pi",
               "--depth", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 3
    assert sorted(c["orbit_size"] for c in doc["classes"]) == [3, 4, 12]


def test_tolerances_propagate(tmp_path):
    # the 8-crossing octa class crosses four edges near t = 0.09; a coarse
    # vertex tolerance must filter it out while keeping the midpoint class
    out = tmp_path / "coarse.json"
    rc = main(["enumerate", "--solid", "octa", "--alpha", "0.45pi",
               "--tol-vertex", "0.2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 1
    assert len(doc["classes"][0]["canonical_sequence"]) == 6


def test_tolerances_reach_bounds(tmp_path):
    # the bounds block resolves its types with the command's tolerances, so
    # the types it finds are the classes enumerate finds
    out = tmp_path / "coarse.json"
    assert main(["enumerate", "--solid", "tetra", "--alpha", "0.36pi", "--depth", "16",
                 "--tol-vertex", "0.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    tags = {c["kind_tag"] for c in doc["classes"]}
    found = {v["type"] for v in doc["bounds"]["verdicts"] if v["found"]}
    assert tags == found == {"0,1", "1,1", "1,2"}
    assert doc["bounds"]["N"] == 3


def test_tolerances_reach_sweep(tmp_path):
    argv = ["sweep", "--solid", "tetra", "--alpha", "0.4pi", "--alpha-stop", "0.42pi",
            "--alpha-step", "0.01pi"]
    coarse = ["--tol-vertex", "0.2", "--tol-closure", "0.5"]
    assert main(argv + ["--out", str(tmp_path / "fine.csv")]) == 0
    assert main(argv + coarse + ["--out", str(tmp_path / "coarse.csv")]) == 0
    fine = (tmp_path / "fine.csv").read_text().splitlines()[1:]
    rows = (tmp_path / "coarse.csv").read_text().splitlines()[1:]
    assert len(rows) == len(fine) == 3
    for row, fine_row in zip(rows, fine):
        fields = row.split(",")
        rep = counts.count_tetra(float(fields[0]), tol_closure=0.5, tol_vertex=0.2)
        assert int(fields[1]) == rep.n < int(fine_row.split(",")[1])


def test_enumerate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["enumerate", "--solid", "octa", "--alpha", "0.45pi", "--depth", "12"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip(tmp_path):
    out = tmp_path / "r.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert cli.dump_json(json.loads(cli.dump_json(doc))) == cli.dump_json(doc)


def test_sweep_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--solid", "tetra", "--alpha", "0.55pi",
               "--alpha-stop", "0.65pi", "--alpha-step", "0.01pi",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha_radians,N,c1,c2,types_found,types_excluded"
    assert len(lines) == 12
    for k, row in enumerate(lines[1:]):
        fields = row.split(",")
        assert fields[1] == "1"
        assert fields[4] == "0:1"
        alpha = float(fields[0])
        # grid points are alpha + k*step, not a running sum of steps
        assert alpha == parse_alpha("0.55pi") + k * parse_alpha("0.01pi")
        assert float(fields[2]) < 1 < float(fields[3])
        assert 0.55 * PI - 1e-9 < alpha < 0.65 * PI + 1e-9


def _golden_rows(path):
    lines = path.read_text().splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


def _run_digest(argv):
    """main(argv)'s exit code and the SHA-256 of what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return str(rc), hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("alpha,ptype,code,digest", _golden_rows(SOLVE_TETRA_GOLDEN))
def test_solve_matches_golden_file(alpha, ptype, code, digest):
    argv = ["solve", "--solid", "tetra", "--alpha", alpha, "--type", ptype]
    assert _run_digest(argv) == (code, digest)


@pytest.mark.parametrize("solid,alpha,code,digest", _golden_rows(ENUMERATE_DOCS_GOLDEN))
def test_enumerate_matches_golden_file(solid, alpha, code, digest):
    argv = ["enumerate", "--solid", solid, "--alpha", alpha, "--depth", "12"]
    assert _run_digest(argv) == (code, digest)


def _export_golden_docs():
    """One param per document: its solid, angle and depth, and the
    (class, exit, digest) rows of its classes in order."""
    docs = {}
    for line in EXPORT_SVGS_GOLDEN.read_text().splitlines():
        if not line.startswith("#"):
            solid, alpha, depth, *row = line.split()
            docs.setdefault((solid, alpha, depth), []).append(tuple(row))
    return [pytest.param(*key, rows, id="-".join(key)) for key, rows in docs.items()]


@pytest.mark.parametrize("solid,alpha,depth,rows", _export_golden_docs())
def test_export_matches_golden_file(tmp_path, solid, alpha, depth, rows):
    doc = tmp_path / "doc.json"
    assert main(["enumerate", "--solid", solid, "--alpha", alpha, "--depth", depth,
                 "--out", str(doc)]) == 0
    n = len(json.loads(doc.read_text())["classes"])
    got = [(str(i), *_run_digest(["export", "--in", str(doc), "--class-index", str(i)]))
           for i in range(n)]
    assert got == rows


def test_sweep_deterministic_bytes(tmp_path):
    argv = ["sweep", "--solid", "tetra", "--alpha", "0.40pi",
            "--alpha-stop", "0.44pi", "--alpha-step", "0.02pi"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_matches_golden_file(tmp_path):
    out = tmp_path / "flat.csv"
    assert main(SWEEP_FLAT_ARGS + ["--out", str(out)]) == 0
    golden = SWEEP_FLAT_CSV.read_bytes()
    assert golden.count(b"\n") == 1 + 13
    assert out.read_bytes() == golden


def test_sweep_empty_range():
    rc = main(["sweep", "--solid", "tetra", "--alpha", "0.66pi",
               "--alpha-stop", "0.60pi", "--alpha-step", "0.01pi"])
    assert rc == 2


def test_sweep_outside_interval():
    rc = main(["sweep", "--solid", "tetra", "--alpha", "0.60pi",
               "--alpha-stop", "0.70pi", "--alpha-step", "0.01pi"])
    assert rc == 2


@pytest.mark.parametrize("stop,step,message", [
    ("0.65pi", "1e-300", "sweep grid has more than 10000 points\n"),
    ("0.65pi", "1e-320", "sweep grid has more than 10000 points\n"),
    ("inf", "0.01pi", "sweep stop inf outside "),
    ("nan", "0.01pi", "sweep stop nan outside "),
], ids=["tiny-step", "subnormal-step", "inf-stop", "nan-stop"])
def test_sweep_grid_bounded(capsys, stop, step, message):
    # rejected before any grid point is built or solved
    rc = main(["sweep", "--solid", "tetra", "--alpha", "0.55pi",
               "--alpha-stop", stop, "--alpha-step", step])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_sweep_grid_at_cap(tmp_path, monkeypatch):
    # exactly SWEEP_MAX_POINTS points is accepted, one more is not
    monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 4)
    argv = ["sweep", "--solid", "tetra", "--alpha", "0.55pi",
            "--alpha-step", "0.01pi", "--out", str(tmp_path / "s.csv")]
    assert main(argv + ["--alpha-stop", "0.59pi"]) == 2
    assert main(argv + ["--alpha-stop", "0.58pi"]) == 0
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--depth", "2"],
     "error: max_crossings must be at least 3\n"),
    (["enumerate", "--solid", "octa", "--alpha", "0.55pi"],
     "error: alpha=1.7278759594743864 outside the admissible interval "),
    (["solve", "--solid", "tetra", "--alpha", "0.7pi", "--type", "0,1"],
     "error: alpha=2.199114857512855 outside the admissible interval "),
    (["sweep", "--solid", "tetra", "--alpha", "0.3pi",
      "--alpha-stop", "0.4pi", "--alpha-step", "0.05pi"],
     "error: alpha=0.9424777960769379 outside the admissible interval "),
    # 1e-9 above pi/3 the count refuses its candidate types before listing them
    (["solve", "--solid", "tetra", "--alpha", "1.0471975521965977", "--type", "0,1"],
     "error: s < "),
    (["enumerate", "--solid", "tetra", "--alpha", "1.0471975521965977", "--depth", "3"],
     "error: s < "),
    # 1e-12 above pi/3 an edge is 2.6e-6 long, and the solid refuses itself
    (["solve", "--solid", "tetra", "--alpha", "1.0471975511975979", "--type", "0,1"],
     "error: alpha=1.047197551197598 is too close to the flat limit "),
    (["enumerate", "--solid", "tetra", "--alpha", "1.0471975511975979", "--depth", "3"],
     "error: alpha=1.047197551197598 is too close to the flat limit "),
    # argparse's own errors lose the usage block before them
    (["enumerate", "--solid", "tetra", "--alpha", "0.4pi", "--depth", "1e3"],
     "sphgeo enumerate: error: argument --depth: invalid int value: '1e3'\n"),
    (["enumerate", "--solid", "dodeca", "--alpha", "0.4pi"],
     "sphgeo enumerate: error: argument --solid: invalid choice: 'dodeca' "),
], ids=["enumerate-depth-2", "enumerate-alpha", "solve-alpha", "sweep-start-alpha",
        "solve-near-flat", "enumerate-near-flat", "solve-flat-limit", "enumerate-flat-limit",
        "enumerate-depth-float", "enumerate-solid-unknown"])
def test_domain_error_one_line(capsys, argv, message):
    # the parser, the solid and the search check their own inputs; main
    # prints one line
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", list(SolidKind))
def test_enumerate_flat_limit_one_line(capsys, kind):
    lo, _ = solids.ADMISSIBLE[kind]
    for alpha in (lo + math.ulp(lo), lo + 1e-14):
        assert main(["enumerate", "--solid", kind.value, "--alpha", repr(alpha)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: alpha={alpha!r} is too close to the flat limit ")
        assert err.count("\n") == 1


def test_enumerate_depth_bounded(capsys):
    rc = main(["enumerate", "--solid", "cube", "--alpha", "0.52pi",
               "--depth", "2000"])
    assert rc == 2
    assert capsys.readouterr().err == "error: max_crossings must be at most 200\n"


def test_export_svg(tmp_path):
    res = tmp_path / "octa.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--out", str(res)])
    doc = json.loads(res.read_text())
    # pick the 6-crossing class: its development has 6 face copies
    idx = next(
        i for i, c in enumerate(doc["classes"])
        if len(c["canonical_sequence"]) == 6
    )
    svg = tmp_path / "octa.svg"
    rc = main(["export", "--in", str(res), "--class-index", str(idx),
               "--out", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert 'version="1.1"' in text
    root = ElementTree.fromstring(text)
    assert root.tag.endswith("svg")
    faces = re.search(r'<g id="faces".*?</g>', text, re.S).group(0)
    assert faces.count("<path") == 6
    geo = re.search(r'<g id="geodesic".*?</g>', text, re.S).group(0)
    assert geo.count("<path") == 1


def test_export_refuses_tampered_residual(tmp_path):
    res = tmp_path / "octa.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--out", str(res)])
    doc = json.loads(res.read_text())
    doc["classes"][0]["closure_residual"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["export", "--in", str(bad), "--out", str(tmp_path / "bad.svg")])
    assert rc == 4


def _drop_residual(doc):
    del doc["classes"][0]["closure_residual"]
    return doc


def _false_residual(doc):
    doc["classes"][0]["closure_residual"] = False
    return doc


def _bad_edge_id(doc):
    doc["classes"][0]["canonical_sequence"][1] = 999
    return doc


def _bool_sequence_id(doc):
    # true indexes and compares as edge 1
    word = doc["classes"][0]["canonical_sequence"]
    word[word.index(1)] = True
    return doc


def _float_sequence_id(doc):
    word = doc["classes"][0]["canonical_sequence"]
    word[1] = float(word[1])
    return doc


def _bool_crossing_edge(doc):
    crossing = doc["classes"][0]["crossings"][0]
    assert crossing["edge"] == 0
    crossing["edge"] = False
    return doc


def _float_crossing_edge(doc):
    crossing = doc["classes"][0]["crossings"][3]
    crossing["edge"] = float(crossing["edge"])
    return doc


def _tampered_t(doc):
    doc["classes"][0]["crossings"][2]["t"] += 1e-6
    return doc


def _bool_number(crossing, key, value):
    # with --tol-closure 0.6 a bool read as 1 or 0 is near enough to the
    # crossing's t = 0.5 or incidence angle pi/2 to pass for it
    def mutate(doc):
        doc["classes"][0]["crossings"][crossing][key] = value
        return doc
    return mutate


_BOOL_NUMBERS = (_bool_number(0, "t", True), _bool_number(2, "t", False),
                 _bool_number(1, "incidence_angle", True))


def _tampered_tag(doc):
    doc["classes"][0]["kind_tag"] = "type9"
    return doc


def _tampered_length(doc):
    doc["classes"][0]["total_length"] = -5.0
    return doc


@pytest.mark.parametrize("mutate", [
    lambda doc: [doc],
    _drop_residual,
    lambda doc: dict(doc, classes=5),
    lambda doc: {k: v for k, v in doc.items() if k != "classes"},
    lambda doc: dict(doc, classes=None),
    lambda doc: dict(doc, classes={}),
    lambda doc: dict(doc, classes=0),
    lambda doc: dict(doc, classes=False),
    lambda doc: dict(doc, classes=""),
    lambda doc: dict(doc, alpha=None),
    lambda doc: dict(doc, alpha=10**400),
    # float() parses both strings to the document's own alpha
    lambda doc: dict(doc, alpha=repr(doc["alpha"])),
    lambda doc: dict(doc, alpha=f" {doc['alpha']!r} "),
    _false_residual,
    _bad_edge_id,
    _bool_sequence_id,
    _float_sequence_id,
    _bool_crossing_edge,
    _float_crossing_edge,
    _tampered_t,
    _tampered_tag,
    _tampered_length,
    *_BOOL_NUMBERS,
], ids=["top-level-list", "no-closure-residual", "classes-not-list",
        "classes-missing", "classes-null", "classes-empty-object", "classes-zero",
        "classes-false", "classes-empty-string",
        "alpha-null", "alpha-overflows-float", "alpha-string",
        "alpha-string-padded", "closure-residual-false", "edge-out-of-range",
        "sequence-bool", "sequence-float", "crossing-edge-bool",
        "crossing-edge-float", "tampered-t",
        "tampered-tag", "tampered-length", "crossing-t-true", "crossing-t-false",
        "crossing-incidence-true"])
def test_export_malformed_document(tmp_path, capsys, mutate):
    res = tmp_path / "octa.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--out", str(res)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(res.read_text()))))
    capsys.readouterr()
    loose = ["--tol-closure", "0.6"] if mutate in _BOOL_NUMBERS else []
    rc = main(["export", "--in", str(bad), "--out", str(tmp_path / "bad.svg"), *loose])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid result document") and err.count("\n") == 1


def test_export_unknown_solid_names_solid_kind(tmp_path, capsys):
    res = tmp_path / "octa.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--out", str(res)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(res.read_text()), solid="dodeca")))
    capsys.readouterr()
    assert main(["export", "--in", str(bad)]) == 4
    assert capsys.readouterr().err == (
        "invalid result document: 'dodeca' is not a valid SolidKind\n")


def test_default_tolerances_are_one_constant():
    # every default tol_closure and tol_vertex, in the library and on the
    # command line, is the one finder constant, not a copy of its value
    for fn in (finder.solve_sequence, finder.enumerate_classes, finder.solve_class,
               finder.solve_tetra_type, counts.count_tetra, cli.render_svg):
        params = inspect.signature(fn).parameters
        for name in ("tol_closure", "tol_vertex"):
            assert params[name].default is finder.SOLVE_TOL, (fn.__name__, name)
    ap = cli._make_parser()
    for argv in (["solve", "--solid", "tetra", "--alpha", "0.6pi"],
                 ["enumerate", "--solid", "octa", "--alpha", "0.4pi"],
                 ["sweep", "--solid", "tetra", "--alpha", "0.6pi",
                  "--alpha-stop", "0.61pi", "--alpha-step", "0.01pi"],
                 ["export", "--in", "doc.json"]):
        args = ap.parse_args(argv)
        assert args.tol_closure is finder.SOLVE_TOL, argv[0]
        assert args.tol_vertex is finder.SOLVE_TOL, argv[0]


def test_export_honours_tol_vertex(tmp_path, capsys):
    # the 8-crossing octa class crosses four edges near t = 0.09; the
    # re-solve before drawing must apply --tol-vertex as enumerate does
    res = tmp_path / "octa.json"
    main(["enumerate", "--solid", "octa", "--alpha", "0.45pi", "--out", str(res)])
    doc = json.loads(res.read_text())
    idx = next(
        i for i, c in enumerate(doc["classes"])
        if len(c["canonical_sequence"]) == 8
    )
    argv = ["export", "--in", str(res), "--class-index", str(idx),
            "--out", str(tmp_path / "octa.svg")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tol-vertex", "0.2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid result document") and err.count("\n") == 1


@pytest.mark.parametrize("kind,alphas", [
    (SolidKind.TETRAHEDRON, (0.36 * PI, 0.45 * PI, 0.6 * PI)),
    (SolidKind.OCTAHEDRON, (0.36 * PI, 0.42 * PI, 0.48 * PI)),
    (SolidKind.CUBE, (0.52 * PI, 0.58 * PI, 0.64 * PI)),
])
def test_render_svg_matches_reference(kind, alphas):
    # the fused drawing loop writes the same bytes as the reference renderer,
    # which calls slerp and the projection helpers point by point
    runs = [(alpha, 12) for alpha in alphas]
    if kind is SolidKind.TETRAHEDRON:
        runs.append((0.34 * PI, 28))  # developments of up to 28 face copies
    tags = set()
    longest = 0
    for alpha, depth in runs:
        spec = build_solid(kind, alpha)
        classes = enumerate_classes(spec, depth)
        assert classes
        for cls in classes:
            doc = cli.class_to_doc(cls)
            assert cli.render_svg(spec, doc) == reference_render_svg(spec, doc)
            tags.add(cls.tag)
            longest = max(longest, len(doc["crossings"]))
    if kind is SolidKind.TETRAHEDRON:
        assert "vertex-loop" in tags
        assert longest == 28


def test_parser_reused_after_error(tmp_path):
    # main builds its parser once per process; a call that the parser
    # rejects must leave it fit for the calls after it
    outputs = []
    for run, bad in (("a", ["enumerate", "--solid", "octa"]),
                     ("b", ["export", "--in", "x.json", "--class-index", "one"])):
        assert main(bad) == 2
        doc, svg = tmp_path / f"{run}.json", tmp_path / f"{run}.svg"
        assert main(["enumerate", "--solid", "octa", "--alpha", "0.4pi",
                     "--out", str(doc)]) == 0
        assert main(["export", "--in", str(doc), "--class-index", "1",
                     "--out", str(svg)]) == 0
        outputs.append((doc.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]
    assert cli._make_parser() is cli._make_parser()


def test_export_reuses_enumerated_spec(tmp_path):
    # enumerate then export of the same solid and angle builds one spec, and
    # the memo keeps only the latest one
    solids.build_solid.cache_clear()
    doc = tmp_path / "octa.json"
    assert main(["enumerate", "--solid", "octa", "--alpha", "0.4pi",
                 "--out", str(doc)]) == 0
    for i in (0, 1):
        assert main(["export", "--in", str(doc), "--class-index", str(i),
                     "--out", str(tmp_path / f"{i}.svg")]) == 0
    assert solids.build_solid.cache_info().misses == 1
    assert main(["enumerate", "--solid", "cube", "--alpha", "0.6pi",
                 "--out", str(tmp_path / "cube.json")]) == 0
    assert solids.build_solid.cache_info().misses == 2
    assert solids.build_solid.cache_info().currsize == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--solid", "tetra", "--alpha", "0.45pi", "--depth", "8"],
    ["solve", "--solid", "tetra", "--alpha", "0.45pi", "--type", "1,1"],
], ids=["enumerate", "solve"])
def test_tetra_bounds_reuse_spec(capsys, argv):
    # the bounds block resolves its types on the spec the command built
    solids.build_solid.cache_clear()
    assert main(argv) == 0
    assert solids.build_solid.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--solid", "octa", "--alpha", "0.4pi", "--format", "json"],
    ["sweep", "--solid", "tetra", "--alpha", "0.55pi", "--alpha-stop", "0.56pi",
     "--alpha-step", "0.01pi", "--format", "csv"],
    ["export", "--in", "unread.json", "--format", "svg"],
    ["export", "--in", "unread.json", "--depth", "12"],
    ["solve", "--solid", "tetra", "--alpha", "0.6pi", "--type", "0,1", "--depth", "12"],
    ["sweep", "--solid", "tetra", "--alpha", "0.55pi", "--alpha-stop", "0.56pi",
     "--alpha-step", "0.01pi", "--depth", "12"],
], ids=["enumerate-format", "sweep-format", "export-format", "export-depth",
        "solve-depth", "sweep-depth"])
def test_removed_flags_rejected(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b'{"schema_version": "1", "alpha": ' + b"7" * 5000 + b"}",
    b'{"schema_version": "1", "solid": "\xff\xfe"}',
], ids=["integer-past-digit-limit", "not-utf-8"])
def test_export_undecodable_document(tmp_path, capsys, data):
    # a document json.load cannot decode is unreadable, like malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["export", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read result document") and err.count("\n") == 1


def test_export_deeply_nested_document(tmp_path, capsys):
    # nesting past the decoder's recursion limit is an unreadable document
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["export", "--in", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read result document") and err.count("\n") == 1


def test_each_entry_point_checks_a_word_once(monkeypatch):
    # solve_class checks the word it is given and then its canonical image,
    # and render_svg checks the document's sequence, each once
    spec = build_solid(SolidKind.TETRAHEDRON, 0.34 * PI)
    classes = [c for c in enumerate_classes(spec, 20) if len(c.path.seq) == 20]
    assert classes
    calls = []
    check = unfold._check_edge_ids

    def counted(spec, edges):
        calls.append(edges)
        check(spec, edges)

    monkeypatch.setattr(unfold, "_check_edge_ids", counted)
    for cls in classes:
        doc = cli.class_to_doc(cls)
        calls.clear()
        finder.solve_class(spec, cls.path.seq.edges)
        assert len(calls) == 2
        calls.clear()
        cli.render_svg(spec, doc)
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["solve", "enumerate", "sweep", "export"])
@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_unwritable_out(tmp_path, capsys, monkeypatch, command, target):
    # an --out that cannot be opened is a configuration error, named in one
    # line, like an unreadable --in, and found before any work is done
    out = {"missing-directory": tmp_path / "missing" / "x.out", "directory": tmp_path,
           "empty": ""}[target]
    doc = tmp_path / "octa.json"
    doc.write_text(_enumerated("octa", "0.4pi"))

    def no_work(*args, **kwargs):
        raise AssertionError("work done before --out was checked")

    for module, name in ((finder, "solve_tetra_type"), (finder, "enumerate_classes"),
                         (counts, "count_tetra"), (cli, "render_svg")):
        monkeypatch.setattr(module, name, no_work)
    argv = {
        "solve": ["solve", "--solid", "tetra", "--alpha", "0.6pi", "--type", "0,1"],
        "enumerate": ["enumerate", "--solid", "octa", "--alpha", "0.4pi",
                      "--depth", "8"],
        "sweep": ["sweep", "--solid", "tetra", "--alpha", "0.4pi",
                  "--alpha-stop", "0.41pi", "--alpha-step", "0.01pi"],
        "export": ["export", "--in", str(doc)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write output {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--solid", "tetra", "--alpha", "0.6pi", "--type", "1,1"],
    ["solve", "--solid", "tetra", "--alpha", "0.4pi", "--type", "1,9"],
    ["export", "--in", "<bad>"],
], ids=["not-realizable", "excluded", "invalid-document"])
def test_failed_command_leaves_out_alone(tmp_path, capsys, argv):
    # a command that fails after the --out check (exit 3 or 4) neither
    # creates the file nor truncates one that is there
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "0"}))
    argv = [str(bad) if a == "<bad>" else a for a in argv]
    fresh, kept = tmp_path / "fresh.out", tmp_path / "kept.out"
    kept.write_text("previous\n")
    for out in (fresh, kept):
        assert main(argv + ["--out", str(out)]) in (3, 4)
    assert not fresh.exists()
    assert kept.read_text() == "previous\n"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--solid", "octa", "--alpha", "1.2653637076958888", "--depth", "12"],
    ["solve", "--solid", "tetra", "--alpha", "1.7671458676442584", "--type", "0,1"],
], ids=["enumerate", "solve"])
def test_tight_closure_tolerance_exits_2(capsys, argv):
    # the search solves a word at 1e-15 on its own floats, but its canonical
    # image does not re-solve: a tolerance too tight, named in one line
    assert main(argv + ["--tol-closure", "1e-15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol_closure" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@functools.lru_cache(maxsize=None)
def _enumerated(solid, alpha):
    """The document `enumerate --depth 8` writes for one solid and angle."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["enumerate", "--solid", solid, "--alpha", alpha,
                     "--depth", "8"]) == 0
    return buf.getvalue()


_NEST = "@nest@"  # placeholder value, replaced by deep nesting in the text


@st.composite
def _mutated_document(draw):
    """A real enumerate document with one fault in what `export` reads of it
    (the top-level fields and class 0), as JSON text."""
    solid, alpha = draw(st.sampled_from(
        [("tetra", "0.45pi"), ("octa", "0.4pi"), ("cube", "0.6pi")]))
    text = _enumerated(solid, alpha)
    doc = json.loads(text)
    cls = doc["classes"][0]
    seq, crossings = cls["canonical_sequence"], cls["crossings"]
    k = draw(st.integers(0, len(seq) - 1))
    fields = [(doc, "schema_version"), (doc, "solid"), (doc, "alpha"),
              (doc, "classes"), (doc["classes"], 0), (cls, "closure_residual"),
              (cls, "canonical_sequence"), (cls, "crossings"),
              (cls, "kind_tag"), (cls, "total_length"),
              (seq, k), (crossings, k)]
    fields += [(crossings[k], f) for f in ("edge", "t", "incidence_angle")]
    numbers = [(doc, "alpha"), (cls, "closure_residual"), (cls, "total_length"),
               (seq, k), (crossings[k], "edge"), (crossings[k], "t"),
               (crossings[k], "incidence_angle")]
    edge_ids = [(seq, k), (crossings[k], "edge")]
    kind = draw(st.sampled_from(
        ["delete", "swap", "non-finite", "huge-int", "edge-id", "truncate", "nest",
         "cut"]))
    if kind == "delete":  # of a field; a deleted class would bring in the next
        owner, key = draw(st.sampled_from([f for f in fields if isinstance(f[1], str)]))
        del owner[key]
    elif kind == "swap":
        owner, key = draw(st.sampled_from(fields))
        owner[key] = draw(st.sampled_from([None, "x", [], {}, [None], {"x": 1}]))
    elif kind == "non-finite":
        owner, key = draw(st.sampled_from(numbers))
        owner[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "huge-int":  # too large to convert to a float
        owner, key = draw(st.sampled_from(numbers))
        owner[key] = 10**400
    elif kind == "edge-id":
        owner, key = draw(st.sampled_from(edge_ids))
        # no solid has more than 12 edges (ids 0..11)
        owner[key] = draw(st.one_of(st.integers(-10**6, -1), st.integers(12, 10**6)))
    elif kind == "truncate":
        del crossings[k:]
    elif kind == "nest":
        owner, key = draw(st.sampled_from(fields))
        owner[key] = _NEST
    text = json.dumps(doc)
    if kind == "nest":
        depth = draw(st.integers(1, 5000))
        text = text.replace(f'"{_NEST}"', "[" * depth + "]" * depth)
    elif kind == "cut":
        text = text[:draw(st.integers(0, len(text) - 2))]
    return text


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_mutated_document())
def test_export_fuzzed_document(tmp_path_factory, text):
    # a faulty document exits 2 (unreadable) or 4 (invalid) with one line
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["export", "--in", str(path), "--out", os.devnull])
    assert rc in (2, 4), err.getvalue()
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def test_export_empty_document(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(
        {"schema_version": "1", "solid": "octa", "alpha": 1.2,
         "classes": [], "bounds": None}
    ))
    rc = main(["export", "--in", str(empty), "--out", str(tmp_path / "e.svg")])
    assert rc == 2


def test_enumerate_tetra_deep(tmp_path):
    # at 0.35pi several types coexist; depth 24 reaches the first five
    out = tmp_path / "tetra.json"
    rc = main(["enumerate", "--solid", "tetra", "--alpha", "0.35pi",
               "--depth", "24", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) >= 2
    tags = {c["kind_tag"] for c in doc["classes"]}
    assert {"0,1", "1,1"} <= tags
    assert doc["bounds"]["N"] >= 2


def test_bad_args():
    assert main(["enumerate", "--solid", "dodeca", "--alpha", "0.4pi"]) == 2
    assert main(["enumerate", "--solid", "octa", "--alpha", "nonsense"]) == 2
    assert main(["enumerate", "--solid", "octa", "--alpha", "0.4pi",
                 "--depth", "2"]) == 2
    assert main(["enumerate", "--solid", "octa", "--alpha", "0.4pi",
                 "--tol-closure", "-1"]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-closure", "--tol-vertex"])
@pytest.mark.parametrize("command", [
    ["enumerate", "--solid", "octa", "--alpha", "0.4pi"],
    ["export", "--in", "unread.json"],
], ids=["enumerate", "export"])
def test_non_finite_tolerance_rejected(capsys, command, flag, value):
    assert main(command + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerances must be positive and finite, got ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0.5", "0.6"])
@pytest.mark.parametrize("command", [
    ["solve", "--solid", "tetra", "--alpha", "0.4pi", "--type", "0,1"],
    ["enumerate", "--solid", "octa", "--alpha", "0.4pi"],
    ["sweep", "--solid", "tetra", "--alpha", "0.4pi", "--alpha-stop", "0.42pi",
     "--alpha-step", "0.01pi"],
    ["export", "--in", "unread.json"],
], ids=["solve", "enumerate", "sweep", "export"])
def test_vertex_tolerance_past_half_rejected(capsys, command, value):
    # no t satisfies tol_vertex < t < 1 - tol_vertex, so every candidate
    # would fail: a configuration error, not an empty result
    assert main(command + ["--tol-vertex", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: tol_vertex={float(value)!r} must be below 0.5")
    assert captured.err.count("\n") == 1
