"""Input language round-trips and command-line behaviour."""

import gc
import json
import weakref
from fractions import Fraction

import pytest

from conftest import MODELS, load_model
from test_golden import GOLDEN

from secat import cli
from secat.cli import main
from secat.core import Presentation
from secat.lang import (
    ParseError, default_cap, make_presentation, parse_document, parse_element,
    parse_expression, print_morphism, print_presentation, realize_document,
)
from secat.semifree import SemiFreeModule


# ---------------------------------------------------------------------------
# language


ALL_FILES = sorted(p.name for p in MODELS.glob("*.cdga"))


def test_the_corpus_is_present():
    assert len(ALL_FILES) >= 10


@pytest.mark.parametrize("filename", ALL_FILES)
def test_printed_presentations_parse_back(filename):
    pres, _ = load_model(filename)
    for name, P in pres.items():
        text = print_presentation(P, name)
        doc = parse_document(text)
        Q = make_presentation(doc.cdgas[name])
        assert Q.cap == P.cap
        assert Q.simply_connected == P.simply_connected
        assert [(g.name, g.degree) for g in Q.generators] == \
               [(g.name, g.degree) for g in P.generators]
        probe = min(P.cap, 9)
        assert [P.dim(d) for d in range(probe + 1)] == \
               [Q.dim(d) for d in range(probe + 1)]
        for g in P.generators:
            assert str(P.gen(g.name).d()) == str(Q.gen(g.name).d())


def test_printed_morphisms_parse_back(morphisms, models):
    q = morphisms["q"]
    text = print_morphism(q, "q", "A", "B")
    assert "x -> x;" in text
    header = print_presentation(models["A"], "A") + "\n" + \
        print_presentation(models["B"], "B") + "\n" + text
    pres, mors = realize_document(parse_document(header))
    assert str(mors["q"].apply(pres["A"].gen("x"))) == "x"
    assert not mors["q"].apply(pres["A"].gen("a")).terms


def test_element_expressions_roundtrip(models):
    Q = models["Q"]
    for text in ("a^2 + b^2", "1/2*a*b - 3*x", "-(a - b)^2", "2/3"):
        el = parse_element(text, Q)
        assert parse_element(str(el), Q).terms == el.terms
    assert parse_element("a^2 - a*a", Q).terms == {}
    assert str(parse_element("(a + b)^2", Q)) == "2*a*b + a^2 + b^2"


def test_rational_literals_and_precedence(models):
    C = models["C"]
    assert parse_element("1/2*a*b", C).degree() == 6
    # ^ binds before *, and * before + and -
    Q = models["Q"]
    assert parse_element("2*a^2", Q).terms == \
        parse_element("a^2 + a^2", Q).terms
    assert parse_element("-a^2 + a^2", Q).terms == {}


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_document("cdga A {\n  gen a : 3;\n  ge x : 5;\n}")
    assert exc.value.line == 3 and "unknown item" in str(exc.value)
    assert "line 3" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("cdga A { gen a : 3; } cdga A { gen b : 3; }")
    assert "duplicate cdga" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("cdga A { gen a : 3; d a = a; d a = a; }")
    assert "duplicate differential" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("module A { }")
    assert "expected 'cdga' or 'morphism'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("cdga A { gen a : 3; rel a @ a; }")
    assert "unexpected character" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("cdga A { gen a : 3; rel a^1/2; }")
    assert "exponent must be an integer" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_document("cdga A {\n  gen a : 2;\n  gen x : 3;\n  d x = 1/0*a^2;\n}")
    assert "zero denominator" in str(exc.value)
    assert exc.value.line == 4 and exc.value.col == 9


def test_unknown_flag_is_rejected():
    doc = parse_document("cdga A { cap 6; flag mystery; gen a : 2; }")
    with pytest.raises(ParseError) as exc:
        make_presentation(doc.cdgas["A"])
    assert "unknown flags" in str(exc.value)


def test_cap_precedence():
    assert default_cap([("a", 3), ("x", 5)]) == 12
    assert default_cap([("a", 3), ("b", 3), ("c", 3)]) == 10
    doc = parse_document("cdga A { gen a : 3; gen x : 5; }")
    assert make_presentation(doc.cdgas["A"]).cap == 12
    doc = parse_document("cdga A { cap 9; gen a : 3; gen x : 5; }")
    assert make_presentation(doc.cdgas["A"]).cap == 9
    assert make_presentation(doc.cdgas["A"], 7).cap == 7


def test_morphism_images_evaluate_in_the_target():
    text = """
    cdga S { cap 8; gen u : 3; }
    cdga D { cap 8; gen u1 : 3; gen u2 : 3; }
    morphism j : S -> D { u -> u1 - 2/3*u2; }
    """
    pres, mors = realize_document(parse_document(text))
    img = mors["j"].apply(pres["S"].gen("u"))
    assert str(img) == "u1 - 2/3*u2"


# ---------------------------------------------------------------------------
# command line


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(name):
    return str(MODELS / name)


def test_cli_homology(capsys):
    code, out, err = run(capsys, "homology", path("sphere3.cdga"),
                         "--range", "0..8")
    assert code == 0 and err == ""
    assert "H^0: dim 1" in out and "H^3: dim 1   [u]" in out
    assert "total dim 2" in out


def test_cli_homology_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "homology", path("proj2.cdga"), "--json")
    code2, out2, _ = run(capsys, "homology", path("proj2.cdga"), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["betti"]["2"] == 1 and payload["betti"]["4"] == 1
    assert payload["betti"]["5"] == 0
    assert payload["representatives"]["4"] == ["a^2"]


def test_cli_minimal_model(capsys):
    code, out, _ = run(capsys, "minimal-model", path("sphere4.cdga"))
    assert code == 0
    assert "gen v4_0 : 4;" in out and "gen w7_0 : 7;" in out
    assert "d w7_0 = v4_0^2;" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_cli_minimal_model_renders_the_model_once(capsys, monkeypatch, flags):
    """The text lines and the JSON report share one rendering of the model."""
    rendered = []

    def counted(P, label):
        rendered.append(label)
        return print_presentation(P, label)

    monkeypatch.setattr(cli, "print_presentation", counted)
    code, out, _ = run(capsys, "minimal-model", path("sphere4.cdga"), *flags)
    assert code == 0 and "d w7_0 = v4_0^2;" in out
    assert rendered == ["S4_model"]


def test_cli_cat_report(capsys):
    code, out, _ = run(capsys, "cat", path("coformal.cdga"))
    assert code == 0
    assert "toomer = 3" in out
    assert "mcat = 3" in out
    assert "cat = 3" in out


def test_cli_cat_json_shape():
    """Values in the pinned `cat T --json` output; test_golden checks that
    the command line still prints exactly that output."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    payload = json.loads(golden["truncated_mix.cdga:T:cat"]["stdout"])
    by_name = {b["name"]: b for b in payload["bounds"]}
    assert by_name["toomer"]["lower"] == by_name["toomer"]["upper"] == 2
    assert by_name["mcat"]["lower"] == 3
    assert by_name["cat"]["upper"] == 3
    assert by_name["cat"]["lower_absolute"] and by_name["cat"]["upper_absolute"]


def test_cli_cat_no_m_skips_the_retraction(capsys):
    code, out, _ = run(capsys, "cat", path("truncated_mix.cdga"),
                       "--no-m", "--json")
    assert code == 0
    names = [b["name"] for b in json.loads(out)["bounds"]]
    assert names == ["toomer", "cat"]


def test_cli_tc(capsys):
    code, out, _ = run(capsys, "tc", path("sphere3.cdga"))
    assert code == 0 and "tc = 1" in out
    code, out, _ = run(capsys, "tc", path("sphere3.cdga"), "--n", "3")
    assert code == 0 and "tc3 = 2" in out and "htc3 = 2" in out


def test_cli_secat_on_a_file_morphism(capsys):
    code, out, _ = run(capsys, "secat", path("hopf_pair.cdga"))
    assert code == 0
    assert "morphism q" in out
    assert "h-invariant" in out
    assert "note: model-relative" in out


def test_cli_emitted_certificates_verify(capsys, tmp_path):
    certdir = tmp_path / "certs"
    code, out, _ = run(capsys, "cat", path("coformal.cdga"),
                       "--emit-certs", str(certdir))
    assert code == 0
    written = sorted(certdir.glob("*.json"))
    assert written, "no certificates were written"
    kinds = set()
    for f in written:
        kinds.add(json.loads(f.read_text())["kind"])
        vcode, vout, _ = run(capsys, "verify-cert", str(f),
                             "--against", path("coformal.cdga"))
        assert vcode == 0, vout
        assert vout.startswith("ACCEPTED")
    assert "odd-generated" in kinds and "module-retraction" in kinds


def test_cli_verify_cert_accepts_the_stored_certificate(capsys):
    code, out, _ = run(capsys, "verify-cert", path("stanley_retraction.cert"),
                       "--against", path("sum_of_squares.cdga"))
    assert code == 0
    assert out.startswith("ACCEPTED")
    assert "retracts onto its base" in out


def test_cli_verify_cert_rejects_a_corrupted_one(capsys, tmp_path):
    cert = json.loads((MODELS / "stanley_retraction.cert").read_text())
    cert["data"]["values"]["b^2"] = "a^2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify-cert", str(bad),
                       "--against", path("sum_of_squares.cdga"))
    assert code == 3
    assert out.startswith("REJECTED")
    assert "retraction equations fail" in out


def test_cli_exit_code_for_missing_file(capsys):
    code, out, err = run(capsys, "homology", "no_such_file.cdga")
    assert code == 2 and "error:" in err


def test_cli_exit_code_for_parse_errors(capsys, tmp_path):
    f = tmp_path / "broken.cdga"
    f.write_text("cdga X {\n  gen a ; 3;\n}\n")
    code, _, err = run(capsys, "homology", str(f))
    assert code == 2 and "line 2" in err


def test_cli_exit_code_for_bad_range(capsys):
    code, _, err = run(capsys, "homology", path("sphere3.cdga"),
                       "--range", "everything")
    assert code == 2 and "--range" in err


def test_cli_exit_code_when_the_cap_is_too_small(capsys):
    code, _, err = run(capsys, "homology", path("truncated_mix.cdga"),
                       "--range", "0..20")
    assert code == 3 and "error:" in err


def test_cli_unknown_name_fails_cleanly(capsys):
    code, _, err = run(capsys, "homology", path("sphere3.cdga"),
                       "--name", "Z")
    assert code == 2 and "does not define cdga 'Z'" in err


def test_cli_name_selects_the_cdga(capsys):
    code, out, _ = run(capsys, "homology", path("hopf_pair.cdga"),
                       "--name", "B", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cdga"] == "B"
    assert payload["betti"]["7"] == 1


def test_cli_map_selection(capsys, tmp_path):
    f = tmp_path / "twomaps.cdga"
    f.write_text("""
    cdga S { cap 8; gen u : 3; }
    morphism f : S -> S { u -> u; }
    morphism g : S -> S { u -> u; }
    """)
    code, _, err = run(capsys, "secat", str(f))
    assert code == 2 and "pick one with --map" in err
    code, out, _ = run(capsys, "secat", str(f), "--map", "g")
    assert code == 0 and "sectional = 0" in out


def test_cli_timings_go_to_stderr_only(capsys):
    code, out, err = run(capsys, "homology", path("sphere3.cdga"), "--timings")
    assert code == 0
    assert "timing:" in err and "timing" not in out
    code, out, err = run(capsys, "homology", path("sphere3.cdga"))
    assert err == ""


def test_cli_default_cap_note(capsys, tmp_path):
    f = tmp_path / "nocap.cdga"
    f.write_text("cdga S { gen u : 3; }\n")
    code, out, _ = run(capsys, "homology", str(f))
    assert code == 0
    assert "cap 8" in out and "default rule" in out
    code, out, _ = run(capsys, "homology", str(f), "--cap", "6")
    assert "cap 6" in out and "from --cap" in out


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


QUERIES = [("cat", path("truncated_mix.cdga")),
           ("tc", path("truncated_mix.cdga"), "--n", "2"),
           ("minimal-model", path("truncated_mix.cdga"))]


def test_cli_queries_leave_no_cyclic_garbage(capsys):
    run(capsys, *QUERIES[0])  # warm-up: first-call work is not per query
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in QUERIES:
            assert run(capsys, *argv)[0] == 0
        gc.collect()
        leaked = {f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage
                  if type(o).__module__.split(".")[0] in ("secat", "argparse")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leaked


def test_cli_queries_free_their_constructions_by_reference_counting(capsys,
                                                                      monkeypatch):
    """Every presentation and module a query builds is gone when it returns,
    without the cycle collector: the memos that the complexes of one
    construction share die with that construction."""
    alive = weakref.WeakSet()
    for cls in (Presentation, SemiFreeModule):
        def tracked(self, *args, _init=cls.__init__, **kw):
            _init(self, *args, **kw)
            alive.add(self)
        monkeypatch.setattr(cls, "__init__", tracked)
    gc.disable()
    try:
        for argv in QUERIES:
            assert run(capsys, *argv)[0] == 0
            assert not list(alive), argv
    finally:
        gc.enable()


def test_number_literals_parse_to_the_coefficient_normal_form(models):
    assert parse_expression("4/2*a") == ("mul", ("num", 2), ("gen", "a"))
    assert type(parse_expression("4/2")[1]) is int
    assert type(parse_expression("3")[1]) is int
    assert parse_expression("1/2") == ("num", Fraction(1, 2))
    assert parse_expression("6/4")[1] == Fraction(3, 2)
    el = parse_element("4/2*a", models["T"])
    assert el.terms == {(("a", 1),): 2}
    assert [type(c) for c in el.terms.values()] == [int]
    half = parse_element("1/2*a - 3/3*a", models["T"])
    assert half.terms == {(("a", 1),): Fraction(-1, 2)}
