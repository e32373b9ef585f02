import dataclasses
import importlib.util
import pathlib

from ikc.derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Ax,
    ExpRule,
    InterI,
    MacroAx,
    MacroInterI,
    OmegaRule,
    SubRule,
    check_derivation,
    parse_derivation,
    print_derivation,
)
from ikc.envs import Judgment, env_empty, print_judgment
from ikc.syntax import parse_term
from ikc.types import parse_type

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

RULE_CLASSES = (
    Ax,
    OmegaRule,
    ArrI,
    ArrIW,
    ArrE,
    InterI,
    ExpRule,
    SubRule,
    MacroInterI,
    MacroAx,
)


def rules_used(d, acc=None):
    if acc is None:
        acc = set()
    acc.add(type(d).__name__)
    for f in dataclasses.fields(d):
        v = getattr(d, f.name)
        if isinstance(v, RULE_CLASSES):
            rules_used(v, acc)
    return acc


def test_corpus_size(corpus_files):
    assert len(corpus_files) >= 25


def test_every_certificate_checks(corpus):
    for name, d, j in corpus:
        assert isinstance(j, Judgment), name


def test_certificates_round_trip(corpus_files):
    for path in corpus_files:
        text = path.read_text()
        d = parse_derivation(text)
        assert print_derivation(d) == text.strip(), path.name


def test_all_rules_covered(corpus):
    used = set()
    for _, d, _ in corpus:
        used |= rules_used(d)
    needed = {c.__name__ for c in RULE_CLASSES}
    assert needed <= used, needed - used


def test_example_files_match_stored_certificate(corpus):
    m = parse_term((CORPUS / "example3.trm").read_text())
    u = parse_type((CORPUS / "example3.typ").read_text())
    stored = dict((name, j) for name, _, j in corpus)
    j = stored["example3"]
    assert j == Judgment(m, env_empty(), u)


def test_judgments_are_stable_under_reprinting(corpus):
    for name, d, j in corpus:
        assert print_judgment(check_derivation(d)) == print_judgment(j), name


def test_reducible_subject_coverage(corpus):
    from ikc.reduction import Relation, step_positions

    reducible = sum(
        1
        for _, _, j in corpus
        if step_positions(j.subject, Relation.BETAETA)
    )
    assert reducible >= 5


def test_make_corpus_reproduces_the_corpus():
    path = CORPUS.parent / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    built = {name: d for name, d, *_ in tool.build()}
    assert sorted(built) == sorted(p.stem for p in CORPUS.glob("*.drv"))
    for name, d in built.items():
        assert print_derivation(d) + "\n" == (CORPUS / f"{name}.drv").read_text(), name
