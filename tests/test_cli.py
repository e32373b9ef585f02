import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ikc.cli import _build_parser, main
from ikc.semantics import EXAMPLE_TYPES

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- positive


def test_check_term(capsys):
    code, out, _ = run(capsys, "check-term", "(lam x [] x[])")
    assert code == 0
    assert "(lam x [] x[])" in out


def test_check_term_prints_the_degree_and_the_free_variables(capsys):
    got = run(capsys, "check-term", "(app f[] x[1])")
    assert got == (0, "(app f[] x[1])\tok\tdegree []; free [f[], x[1]]\n", "")


def test_reduce_lists_steps(capsys):
    code, out, _ = run(capsys, "reduce", "(app (lam x [] x[]) y[])")
    assert code == 0
    assert "y[]" in out


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "(app (lam x [] x[]) (lam y [] y[]))")
    assert code == 0
    assert "(lam y [] y[])" in out


def test_nf_reaching_the_normal_form_on_its_last_fuel_unit(capsys):
    got = run(capsys, "nf", "--fuel", "1", "(app (lam x [] x[]) y[])")
    assert got == (0, "y[]\tnormal\t1 steps\n", "")


def test_equiv_falls_back_to_the_normal_forms(capsys):
    # the two walks spend fuel 2 without meeting; both normal forms are x[]
    term = "(app (lam x [] x[]) (app (lam x [1] x[]) y[1]))"
    assert run(capsys, "equiv", "--fuel", "2", term, "x[]") == (0, "Equivalent\n", "")


@pytest.mark.parametrize(
    "term, other, verdict",
    [
        # both normalise within fuel 1, to terms that are not alpha-equal
        ("(lam v0 [] (app (lam v1 [] v0[]) v0[]))", "(lam z [] (lam w [] z[]))", "Distinct"),
        # the left term needs two steps to its normal form
        ("(app (lam v0 [] (app v0[] v0[])) (lam v0 [] v0[]))", "(lam z [] z[])", "Unknown"),
    ],
)
def test_equiv_normal_form_fallback_at_fuel_one(capsys, term, other, verdict):
    assert run(capsys, "equiv", "--fuel", "1", term, other) == (1, verdict + "\n", "")


def test_equiv_eta_pair(capsys):
    code, out, _ = run(
        capsys,
        "equiv",
        "(lam y [] y[])",
        "(lam y [] (lam x [] (app y[] x[])))",
        "--rel",
        "eta",
    )
    assert code == 0
    assert "Equivalent" in out


def test_equiv_distinct_is_nonzero(capsys):
    code, out, _ = run(
        capsys, "equiv", "(lam y [] y[])", "(lam y [] (app y[] y[]))"
    )
    assert code == 1
    assert "Distinct" in out


def test_equiv_of_alpha_variants_starts_no_walk(capsys, monkeypatch):
    from ikc import reduction

    def no_walk(*args):
        raise AssertionError("an alpha-equal pair needs no reachable walk")

    monkeypatch.setattr(reduction, "reachable", no_walk)
    got = run(capsys, "equiv", "(lam x [] x[])", "(lam y [] y[])")
    assert got == (0, "Equivalent\n", "")


def test_subtype_projection(capsys):
    code, out, _ = run(capsys, "subtype", "(^ a b)", "a")
    assert code == 0
    assert out.strip().endswith("true")


def test_subtype_negative_is_nonzero(capsys):
    code, out, _ = run(capsys, "subtype", "a", "(^ a b)")
    assert code == 1
    assert out.strip().endswith("false")


def test_check_deriv_prints_judgment(capsys):
    code, out, _ = run(capsys, "check-deriv", str(CORPUS / "example3.drv"))
    assert code == 0
    assert out.startswith("(judg (lam x [3 2]")


def test_confluence(capsys):
    code, out, _ = run(capsys, "confluence", "(app (lam x [] x[]) y[])")
    assert code == 0


def test_typecheck_found_writes_certificate(capsys, tmp_path):
    out_file = tmp_path / "id.drv"
    code, out, _ = run(
        capsys,
        "typecheck",
        "(lam x [] x[])",
        "--type",
        "(-> a a)",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert "(judg (lam x [] x[]) () (-> a a))" in out
    code2, out2, _ = run(capsys, "check-deriv", str(out_file))
    assert code2 == 0


def test_sr_transports(capsys):
    code, out, _ = run(
        capsys,
        "sr",
        str(CORPUS / "app-redex.drv"),
        "--rel",
        "beta",
        "--fuel",
        "10000",
        "--",
        "y[]",
    )
    assert (code, out) == (0, "(judg y[] ((y [] a)) a)\n")


@pytest.mark.parametrize(
    "verb, deriv, term, certificate",
    [
        (
            "expand",
            "id0.drv",
            "(app (lam z [] z[]) (lam y [] y[]))",
            "(arrE (arrI z [] (-> a a) (ax z (-> a a))) (arrI y [] a (ax y a)))",
        ),
        (
            "sr",
            "id0-redex.drv",
            "(lam y [] y[])",
            "(sub (interI (arrI y [] (-> a a) (ax y (-> a a))) (arrI y [] a (ax y a)))"
            " () (-> a a))",
        ),
    ],
)
def test_transports_write_a_certificate_that_checks(
    capsys, tmp_path, verb, deriv, term, certificate
):
    out_file = tmp_path / "out.drv"
    judgment = f"(judg {term} () (-> a a))\n"
    argv = (verb, str(CORPUS / deriv), "--out", str(out_file), "--", term)
    assert run(capsys, *argv) == (0, judgment, "")
    assert out_file.read_text() == certificate + "\n"
    assert run(capsys, "check-deriv", str(out_file)) == (0, judgment, "")


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["sr", str(CORPUS / "app-redex.drv"), "--", "(lam z [] z[])"],
            "failed\t(lam z [] z[]) is not a betaeta-reduct of (app (lam x [] x[]) y[])\n",
        ),
        (
            ["expand", "(arrE (ax f a) (ax y a))", "--", "y[]"],
            "failed\tarrE: left type a is not an arrow\n",
        ),
        (
            ["sr", str(CORPUS / "id0.drv"), "--", "(lam z [] z[])"],
            "failed\t(lam z [] z[]) is an alpha-variant of (lam y [] y[]),"
            " not a betaeta-reduct of (lam y [] y[])\n",
        ),
        (
            ["expand", str(CORPUS / "id0.drv"), "--", "(lam z [] z[])"],
            "failed\t(lam z [] z[]) beta-reduces to (lam z [] z[]),"
            " an alpha-variant of (lam y [] y[]), not to (lam y [] y[])\n",
        ),
        (
            ["expand", str(CORPUS / "id0.drv"), "--", "(app (lam f [] f[]) (lam z [] z[]))"],
            "failed\t(app (lam f [] f[]) (lam z [] z[])) beta-reduces to (lam z [] z[]),"
            " an alpha-variant of (lam y [] y[]), not to (lam y [] y[])\n",
        ),
        (
            ["expand", str(CORPUS / "id0.drv"), "--", "(lam y [] (app y[] y[]))"],
            "failed\t(lam y [] (app y[] y[])) does not beta-reduce to (lam y [] y[])\n",
        ),
    ],
)
def test_failed_transports_print_one_line_and_exit_one(capsys, tmp_path, argv, out):
    out_file = tmp_path / "never.drv"
    assert run(capsys, *argv[:-2], "--out", str(out_file), *argv[-2:]) == (1, out, "")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "deriv, term, code, out",
    [
        (
            "(arrE (arrI x [] a (ax' x a)) (arrE (arrI y [] a (ax' y a)) (ax' z a)))",
            "z[]",
            0,
            "(judg z[] ((z [] a)) a)\n",
        ),
        (
            "(arrE (arrI x [] a (ax' x a)) (arrE (arrI y [] a (ax' y a)) (ax' z a)))",
            "(app (lam x [] x[]) z[])",
            1,
            "failed\t(app (lam x [] x[]) z[]) is an alpha-variant of"
            " (app (lam y [] y[]) z[]), not a h-reduct of"
            " (app (lam x [] x[]) (app (lam y [] y[]) z[]))\n",
        ),
        (
            "(arrE (ax' z (-> a a)) (arrE (arrI y [] a (ax' y a)) (ax' w a)))",
            "(app z[] w[])",
            1,
            "failed\t(app z[] w[]) is not a h-reduct of (app z[] (app (lam y [] y[]) w[]))\n",
        ),
    ],
    ids=["head-steps", "off-head-step", "no-head-redex"],
)
def test_sr_head_transport_ignores_a_redex_off_the_head(capsys, deriv, term, code, out):
    assert run(capsys, "sr", deriv, "--rel", "h", "--", term) == (code, out, "")


def test_sr_renames_under_an_omega_rule_like_the_reduct(capsys):
    deriv = (
        "(arrE (arrI x [] (-> a b) (arrE (arrIW y [] (arrIW _r0 [] (ax x (-> a b))))"
        " (w (lam y [] x[])))) (ax y (-> a b)))"
    )
    reduct = "(app (lam _r1 [] (lam _r0 [] y[])) (lam _r1 [] y[]))"
    code, out, err = run(capsys, "sr", deriv, "--rel", "beta", "--", reduct)
    assert code == 0
    assert out == f"(judg {reduct} ((y [] (-> a b))) (-> (w []) (-> a b)))\n"
    assert err == ""


def test_oracle_member(capsys):
    code, out, _ = run(capsys, "oracle", "id0", "(lam y [] y[])")
    assert code == 0
    assert "member" in out


_ID_REDEX = "(app (lam x [] x[]) (lam y [] y[]))"
_OMEGA = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"


@pytest.mark.parametrize(
    "term, fuel, code, verdict, detail",
    [
        # one fuel unit is one leftmost step, and a term with no redex left
        # after its fuel is its normal form
        ("(lam y [] y[])", 0, 0, "member", "normal form (lam y [] y[])"),
        (_ID_REDEX, 0, 1, "undecided", "undecided within fuel"),
        (_ID_REDEX, 1, 0, "member", "normal form (lam y [] y[])"),
        (_OMEGA, 0, 1, "undecided", "undecided within fuel"),
        (_OMEGA, 1, 1, "non-member", "no beta normal form on the leftmost path"),
    ],
)
def test_oracle_fuel_counts_leftmost_steps(capsys, term, fuel, code, verdict, detail):
    got = run(capsys, "oracle", "id0", term, "--fuel", str(fuel))
    assert got == (code, f"{term}\t{verdict}\t{detail}\n", "")


def test_oracle_non_member(capsys):
    code, out, _ = run(capsys, "oracle", "id0", "(lam y [] (app y[] y[]))")
    assert code == 1
    assert "non-member" in out


def test_soundness_of_a_corpus_certificate(capsys):
    code, out, _ = run(capsys, "soundness", str(CORPUS / "id0-redex.drv"), "id0")
    assert (code, out) == (0, "soundness\tpass\tid0\n")


@pytest.mark.parametrize(
    "deriv, tag, reason",
    [
        ("(ax x a)", "id0", "soundness check needs an empty environment"),
        ("(arrI x [] a (ax x a))", "nat0", "derivation does not conclude at the tagged type"),
    ],
    ids=["open", "other-type"],
)
def test_soundness_outside_its_contract_is_an_input_error(capsys, deriv, tag, reason):
    code, out, err = run(capsys, "soundness", deriv, tag)
    assert (code, out, err) == (2, "", f"input error: {reason}\n")


def test_completeness_sample(capsys):
    code, out, _ = run(capsys, "completeness", "id0", "--size", "5")
    assert (code, out) == (0, "id0\tpass\tmembers 4, found 4, unknown 0, refuted 0\n")


@pytest.mark.parametrize("tag", sorted(EXAMPLE_TYPES))
def test_saturation_passes_on_every_tag(capsys, tag):
    # the members are the oracle's members of the ambient pool itself, so a
    # member larger than --size is not counted as an escape
    code, out, _ = run(capsys, "saturation", tag, "--size", "4")
    assert code == 0
    assert out.startswith(f"{tag}\tpass\t"), out


def test_props_suite(capsys):
    code, out, _ = run(capsys, "props", "subtype-order", "--size", "2")
    assert code == 0
    assert "subtype-order\tpass" in out


# ---------------------------------------------------------------- negative


def test_refuted_typecheck_exits_one(capsys):
    code, out, _ = run(
        capsys,
        "typecheck",
        str(CORPUS / "eta-counter.trm"),
        "--env",
        "()",
        "--type",
        "(-> a a)",
    )
    assert code == 1
    assert out.startswith("RefutedByGeneration\t")


@pytest.mark.parametrize(
    "term, reason",
    [
        (
            "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))",
            "no beta normal form: the leftmost path revisits",
        ),
        (
            "(app (lam x [] (app (app x[] x[]) x[]))"
            " (lam x [] (app (app x[] x[]) x[])))",
            "fuel exhausted",
        ),
    ],
    ids=["cycle", "fuel"],
)
def test_unknown_typecheck_prints_its_reason(capsys, term, reason):
    start = time.process_time()
    code, out, _ = run(capsys, "typecheck", term, "--type", "(-> a a)")
    assert time.process_time() - start < 1.0
    assert code == 1
    assert out.startswith(f"Unknown\t{reason}") and out.count("\n") == 1, out


def test_garbage_term_exits_two(capsys):
    code, _, err = run(capsys, "check-term", "(lam x]")
    assert code == 2
    assert err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check-deriv", "corpus/no-such-file.drv")
    assert code == 2


def test_non_utf8_file_is_one_input_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.trm"
    bad.write_bytes(b"\xff\xfe(lam x [] x[])")
    code, out, err = run(capsys, "check-term", str(bad))
    assert (code, out) == (2, "")
    assert err == f"input error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_unknown_tag_exits_two(capsys):
    code, _, err = run(capsys, "oracle", "id9", "(lam y [] y[])")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "id9", "(lam y [] y[])"],
        ["soundness", "(arrI x [] a (ax x a))", "id9"],
        ["completeness", "id9", "--size", "3"],
        ["saturation", "id9", "--size", "1"],
    ],
    ids=["oracle", "soundness", "completeness", "saturation"],
)
def test_unknown_tag_is_one_input_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "input error: unknown interpretation tag: id9; "
        "expected one of d, id0, id1, nat0, nat1, natp0\n"
    )


def test_unknown_suite_exits_two(capsys):
    code, _, err = run(capsys, "props", "no-such-suite")
    assert code == 2


def test_unknown_suite_exits_before_any_suite_runs(capsys, monkeypatch):
    from ikc import props

    def never(size, seed):
        raise AssertionError("a suite ran before every name was checked")

    monkeypatch.setitem(props.SUITES, "step-invariants", never)
    code, out, err = run(capsys, "props", "step-invariants", "nope", "--size", "6")
    assert (code, out) == (2, "")
    assert err.startswith("input error: unknown suite nope; expected one of ")


@pytest.mark.parametrize(
    "argv",
    [[], ["check-term", "->"], ["subtype", "a"], ["nf", "--fuel", "x", "y[]"]],
    ids=["no-verb", "dash-literal", "missing-operand", "bad-fuel-flag"],
)
def test_usage_errors_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, opt, value",
    [
        (["oracle", "id0", "(lam x [] x[])", "--fuel=-1"], "--fuel", "-1"),
        (["nf", "--fuel", "-5", "y[]"], "--fuel", "-5"),
        (["confluence", "y[]", "--size=-1"], "--size", "-1"),
        (["completeness", "id0", "--size", "-2"], "--size", "-2"),
    ],
    ids=["oracle-fuel", "nf-fuel", "confluence-size", "completeness-size"],
)
def test_negative_fuel_or_size_is_a_usage_error(capsys, argv, opt, value):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"input error: ikc {argv[0]}: argument {opt}: "
        f"must be a natural number, got {value!r}\n"
    )


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ikc")


# the help texts, at 80 columns, pin each verb's arguments: names, order,
# choices and which are required
_HELP = {
    "": """\
usage: ikc [-h]
           {check-term,reduce,nf,equiv,confluence,subtype,check-deriv,sr,expand,typecheck,oracle,soundness,completeness,saturation,props}
           ...

kernel for a degree-indexed lambda-calculus with intersection types and
expansion heads

positional arguments:
  {check-term,reduce,nf,equiv,confluence,subtype,check-deriv,sr,expand,typecheck,oracle,soundness,completeness,saturation,props}

options:
  -h, --help            show this help message and exit
""",
    "check-term": """\
usage: ikc check-term [-h] term

positional arguments:
  term

options:
  -h, --help  show this help message and exit
""",
    "reduce": """\
usage: ikc reduce [-h] [--rel {beta,eta,betaeta,h}] [--fuel FUEL] term

positional arguments:
  term

options:
  -h, --help            show this help message and exit
  --rel {beta,eta,betaeta,h}
  --fuel FUEL
""",
    "nf": """\
usage: ikc nf [-h] [--rel {beta,eta,betaeta,h}] [--fuel FUEL] term

positional arguments:
  term

options:
  -h, --help            show this help message and exit
  --rel {beta,eta,betaeta,h}
  --fuel FUEL
""",
    "equiv": """\
usage: ikc equiv [-h] [--rel {beta,eta,betaeta,h}] [--fuel FUEL] term other

positional arguments:
  term
  other

options:
  -h, --help            show this help message and exit
  --rel {beta,eta,betaeta,h}
  --fuel FUEL
""",
    "confluence": """\
usage: ikc confluence [-h] [--rel {beta,eta,betaeta,h}] [--size SIZE] term

positional arguments:
  term

options:
  -h, --help            show this help message and exit
  --rel {beta,eta,betaeta,h}
  --size SIZE
""",
    "subtype": """\
usage: ikc subtype [-h] left right

positional arguments:
  left
  right

options:
  -h, --help  show this help message and exit
""",
    "check-deriv": """\
usage: ikc check-deriv [-h] deriv

positional arguments:
  deriv

options:
  -h, --help  show this help message and exit
""",
    "sr": """\
usage: ikc sr [-h] [--rel {beta,eta,betaeta,h}] [--fuel FUEL] [--out OUT]
              deriv term

positional arguments:
  deriv
  term

options:
  -h, --help            show this help message and exit
  --rel {beta,eta,betaeta,h}
  --fuel FUEL
  --out OUT
""",
    "expand": """\
usage: ikc expand [-h] [--fuel FUEL] [--out OUT] deriv term

positional arguments:
  deriv
  term

options:
  -h, --help   show this help message and exit
  --fuel FUEL
  --out OUT
""",
    "typecheck": """\
usage: ikc typecheck [-h] [--env ENV] --type TYPE [--fuel FUEL] [--out OUT]
                     term

positional arguments:
  term

options:
  -h, --help   show this help message and exit
  --env ENV
  --type TYPE
  --fuel FUEL
  --out OUT
""",
    "oracle": """\
usage: ikc oracle [-h] [--fuel FUEL] tag term

positional arguments:
  tag
  term

options:
  -h, --help   show this help message and exit
  --fuel FUEL
""",
    "soundness": """\
usage: ikc soundness [-h] [--fuel FUEL] deriv tag

positional arguments:
  deriv
  tag

options:
  -h, --help   show this help message and exit
  --fuel FUEL
""",
    "completeness": """\
usage: ikc completeness [-h] [--size SIZE] [--fuel FUEL] tag

positional arguments:
  tag

options:
  -h, --help   show this help message and exit
  --size SIZE
  --fuel FUEL
""",
    "saturation": """\
usage: ikc saturation [-h] [--size SIZE] [--rel {beta,eta,betaeta,h}]
                      [--fuel FUEL]
                      tag

positional arguments:
  tag

options:
  -h, --help            show this help message and exit
  --size SIZE
  --rel {beta,eta,betaeta,h}
  --fuel FUEL
""",
    "props": """\
usage: ikc props [-h] [--size SIZE] [--seed SEED] [suite ...]

positional arguments:
  suite

options:
  -h, --help   show this help message and exit
  --size SIZE
  --seed SEED
""",
}


def test_help_texts_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for verb, text in _HELP.items():
        with pytest.raises(SystemExit) as e:
            main([verb, "--help"] if verb else ["--help"])
        assert e.value.code == 0
        assert capsys.readouterr().out == text, verb


def test_fuel_defaults_follow_ikc_fuel(monkeypatch):
    # reduce caps IKC_FUEL at 100, the search verbs raise it to 100000 and
    # the oracle verbs ignore it
    monkeypatch.setenv("IKC_FUEL", "500")
    for argv, fuel in [
        ("reduce t", 100),
        ("nf t", 500),
        ("equiv t u", 500),
        ("sr d t", 500),
        ("expand d t", 500),
        ("typecheck t --type a", 100000),
        ("completeness g", 100000),
        ("oracle g t", 2000),
        ("soundness d g", 2000),
        ("saturation g", 2000),
    ]:
        assert _build_parser().parse_args(argv.split()).fuel == fuel, argv


def test_check_deriv_rule_violation_is_invalid(capsys):
    code, out, _ = run(capsys, "check-deriv", "(arrE (ax f a) (ax y a))")
    assert code == 1
    assert out == "invalid\tarrE: left type a is not an arrow\n"


def test_check_deriv_syntax_error_exits_two(capsys):
    code, out, err = run(capsys, "check-deriv", "(arrE (ax f a) (ax y a)")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: unclosed '('")


def test_check_deriv_ill_formed_subject_exits_two(capsys):
    code, out, err = run(capsys, "check-deriv", "(arrE (ax f a) (w (app x[1] y[])))")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: application degree [1]")


@pytest.mark.parametrize(
    "deriv, code, out, err",
    [
        (
            "(arrE (arrIW y [1] (ax x a)) (w x[1]))",
            1,
            "invalid\tarrE: premise environments disagree on a shared name\n",
            "",
        ),
        ("(foo)", 2, "", "input error: unknown derivation head 'foo'\n"),
        ("(ax x (^ a b))", 2, "", "input error: expected a single component at degree []\n"),
    ],
)
def test_check_deriv_rule_fault_exits_one_and_syntax_fault_two(capsys, deriv, code, out, err):
    assert run(capsys, "check-deriv", deriv) == (code, out, err)


def test_ill_formed_term_is_a_negative_answer(capsys):
    # parses fine, fails the degree side condition: a no, not an error
    code, out, _ = run(capsys, "check-term", "(app x[1] y[])")
    assert code == 1
    assert out.startswith("ill-formed\t")


@pytest.mark.parametrize(
    "argv, offset",
    [
        (["check-term", "x[²]"], 2),
        (["subtype", "(e ² a)", "a"], 3),
        (["check-deriv", "(ax x (e ² a))"], 9),
    ],
)
def test_digit_int_cannot_read_is_an_input_error(capsys, argv, offset):
    # '²' is a digit to str.isdigit but not to int(): one line, exit 2
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"input error: unexpected character '²' at offset {offset}\n"
    assert "Traceback" not in err


# ---------------------------------------------------------------- fuzz


_ATOMS = [
    "(", ")", "[", "]", "(", ")", "[]", "[1]", "[0 1]", "0", "1", "12",
    "lam", "app", "judg", "->", "^", "e", "w", "x", "y", "f", "a", "b",
    "x[]", "y[1]", "ax", "ax'", "arrI", "arrIW", "arrE", "interI",
    "interI'", "exp", "sub", ",", "²", "¹", "٣", "é", "λ", "\u00a0", "#",
]
_WHOLE = [
    "a",
    "(-> a a)",
    "(lam x [] x[])",
    "(app (lam x [] x[]) y[])",
    "(lam f [1] (lam y [1] (app f[1] y[1])))",
    "(-> (^ a (e 1 (w [2]))) (-> a b))",
    "(arrE (arrI x [] a (ax x a)) (ax y a))",
    "(sub (ax' x (e 1 a)) ((x [1] (e 1 a))) (e 1 (w [])))",
    "y[]",
    "(arrI x [] a (ax x a))",
]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_ATOMS), max_size=16).map(" ".join),
    st.builds(lambda t, k: t[:k], st.sampled_from(_WHOLE), st.integers(0, 60)),
    st.sampled_from(_WHOLE),
)
_DEEP = "(app f[] " * 10_000 + "x[]" + ")" * 10_000


def _argv(verb, text, other):
    # "--" keeps a text that starts with '-' from reading as an option
    return {
        "check-term": ["check-term", "--", text],
        "nf": ["nf", "--fuel=50", "--", text],
        "subtype": ["subtype", "--", text, other],
        "check-deriv": ["check-deriv", "--", text],
        "typecheck": ["typecheck", "--fuel=200", f"--type={other}", "--", text],
        "oracle": ["oracle", "--fuel=200", "--", "id0", text],
        "soundness": ["soundness", "--fuel=200", "--", text, "id0"],
        "sr": ["sr", "--fuel=50", "--", text, other],
        "expand": ["expand", "--fuel=50", "--", text, other],
    }[verb]


# 1,500 examples over nine verbs keep about the 167 per verb that 1,000 gave
# the first six
@settings(max_examples=1500, derandomize=True, deadline=None)
@given(
    st.sampled_from(
        [
            "check-term", "nf", "subtype", "check-deriv", "typecheck", "oracle",
            "soundness", "sr", "expand",
        ]
    ),
    _TEXTS,
    _TEXTS,
)
@example("check-term", "x[²]", "a")
@example("nf", _DEEP, "a")
def test_fuzzed_input_keeps_the_exit_code_contract(verb, text, other):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(verb, text, other))
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------- environment


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("IKC_FUEL", "1")
    code, out, _ = run(
        capsys,
        "nf",
        "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))",
    )
    assert code == 1
    assert "fuel" in out.lower() or "no normal form" in out.lower()


@pytest.mark.parametrize("fuel", ["abc", "-1", ""])
def test_bad_fuel_env_is_an_input_error(capsys, monkeypatch, fuel):
    monkeypatch.setenv("IKC_FUEL", fuel)
    code, out, err = run(capsys, "nf", "(app (lam x [] x[]) y[])")
    assert code == 2
    assert out == ""
    assert err == f"input error: IKC_FUEL must be a natural number, got {fuel!r}\n"


# ---------------------------------------------------------------- deep input


@pytest.mark.parametrize("verb", ["nf", "check-term"])
def test_deeply_nested_input_is_an_input_error(verb):
    # (app f[] (app f[] ... x[])) 1,500 deep, built without recursion; run in
    # a fresh interpreter so nothing but the CLI's own output can appear
    depth = 1500
    term = "(app f[] " * depth + "x[]" + ")" * depth
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ikc.cli", verb, term],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: input nested too deeply\n"
    assert "Traceback" not in proc.stderr


def test_a_deep_abstraction_chain_is_an_input_error(capsys):
    # 5,000 nested binders: the term builder still recurses on them
    term = "(lam x [] " * 5000 + "x[]" + ")" * 5000
    got = run(capsys, "check-term", term)
    assert got == (2, "", "input error: input nested too deeply\n")


def test_a_deep_reduct_of_a_small_input_prints(capsys):
    # O3's leftmost path builds a left spine one level deeper per step; the
    # fuel-exhausted reduct, 1,101 deep, prints in full
    o3 = "(lam x [] (app (app x[] x[]) x[]))"
    code, out, err = run(capsys, "nf", "--fuel", "1100", f"(app {o3} {o3})")
    assert (code, err) == (1, "")
    assert out == "(app " * 1101 + o3 + f" {o3})" * 1101 + "\tfuel exhausted\t1100 steps\n"


def test_memory_exhaustion_is_an_input_error(capsys, monkeypatch):
    # equiv's reachable sets grow with the square of the fuel on a term
    # whose reducts grow; running out of memory ends with one line, exit 2
    from ikc import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "equiv", exhausted)
    code, out, err = run(capsys, "equiv", "(lam x [] x[])", "b[]")
    assert code == 2
    assert out == ""
    assert err == "input error: out of memory\n"
