import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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
