from pathlib import Path
from typing import get_args

import pytest

from ikc import derivations
from ikc.derivations import check_derivation, parse_derivation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_files():
    files = sorted(CORPUS.glob("*.drv"))
    assert len(files) >= 25
    return files


@pytest.fixture(scope="session")
def corpus(corpus_files):
    """(name, derivation, checked judgment) for every stored certificate."""
    out = []
    for p in corpus_files:
        d = parse_derivation(p.read_text())
        out.append((p.stem, d, check_derivation(d)))
    return out


@pytest.fixture
def rule_checks(monkeypatch):
    """A list that gains one entry per rule check: each rule constructor,
    macros included, checks its one rule when it is called."""
    checks = []
    for cls in get_args(derivations.Derivation):

        def counting(self, *args, _init=cls.__init__):
            checks.append(type(self).__name__)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return checks


@pytest.fixture(scope="session")
def small_terms():
    from ikc.gen import enumerate_terms

    return enumerate_terms(5)


@pytest.fixture(scope="session")
def enum6():
    from ikc.gen import enumerate_terms

    return enumerate_terms(6)


@pytest.fixture(scope="session")
def criterion3_terms():
    """The 1,000 random terms of size 8-12 that acceptance criterion 3 checks."""
    from test_acceptance import _random_larger_terms

    return _random_larger_terms()
