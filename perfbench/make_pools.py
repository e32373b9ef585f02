"""Build the committed input pools of the benchmark.

    python3 perfbench/make_pools.py

writes perfbench/data/typecheck_pool.tsv and perfbench/data/certs.jsonl.
The benchmark reads only these files (and the enumerators), so a later
change to the kernel cannot change what the benchmark asks it.

typecheck_pool.tsv, one line per (tag, closed term of size <= 9):
    tag  member|nonmember  light|heavy  term
Every label is the oracle's verdict and is cross-checked here against an
independent normalise-and-match route.  All members are listed, plus a
seeded sample of non-members of the right degree.  "heavy" marks a query
whose search needs more than LIGHT_GOALS goals at this commit; the
benchmark draws only light queries (see README.md).

certs.jsonl, one JSON object per certificate: the 30 corpus certificates
and a seeded sample of certificates that search built for light members,
each with its judgment and the transports the certify workload runs, all
validated here.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ikc.derivations import check_derivation, parse_derivation, print_derivation  # noqa: E402
from ikc.envs import Judgment, env_empty, env_enlarge, env_restrict, print_judgment  # noqa: E402
from ikc.gen import enumerate_closed  # noqa: E402
from ikc.reduction import NormalForm, Relation, normalize, step_positions  # noqa: E402
from ikc.search import Found, Unknown, bounded_typecheck  # noqa: E402
from ikc.semantics import EXAMPLE_TYPES, oracle_membership  # noqa: E402
from ikc.syntax import (  # noqa: E402
    Abs,
    App,
    Var,
    all_names,
    alpha_canon,
    free_vars,
    print_term,
)
from ikc.transform import subject_expand_beta, subject_reduce  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
POOL_SEED = 20091
NONMEMBERS = 3000
SEARCH_CERTS = 300
REDUCTS_PER_CERT = 3
REDUCT_DEPTH = 3
LIGHT_GOALS = 300

# Independent membership route (as in acceptance criterion 8): beta
# normal form, alpha-canonical, matched against the known inhabitant
# normal forms of each example type.
ID_NF = "(lam _a0 [] _a0[])"


def _iter_nf(n, idx):
    mark = "[" + " ".join(str(i) for i in idx) + "]"
    body = f"_a1{mark}"
    for _ in range(n):
        body = f"(app _a0{mark} {body})"
    return f"(lam _a0 {mark} (lam _a1 {mark} {body}))"


LIFTED_ID_NF = "(lam _a0 [1] _a0[1])"
EXPECTED_NFS = {
    "id0": {ID_NF},
    "id1": {LIFTED_ID_NF},
    "d": {"(lam _a0 [] (app _a0[] _a0[]))"},
    "nat0": {ID_NF} | {_iter_nf(n, ()) for n in range(1, 9)},
    "nat1": {LIFTED_ID_NF} | {_iter_nf(n, (1,)) for n in range(1, 9)},
    "natp0": {ID_NF, "(lam _a0 [] (lam _a1 [1] (app _a0[] _a1[1])))"},
}


def _label(tag, m, nf_string):
    v = oracle_membership(tag, m)
    want = nf_string in EXPECTED_NFS[tag]
    if v.undecided or v.member != want:
        raise SystemExit(f"oracle and normal-form route disagree: {tag} {print_term(m)}")
    return want


def typecheck_pool(closed9):
    rows = []
    nonmembers = []
    for tag, typ in EXAMPLE_TYPES.items():
        for m in closed9:
            if m.degree != typ.degree:
                continue
            out = normalize(m, Relation.BETA, 2000)
            nf = print_term(alpha_canon(out.term)) if isinstance(out, NormalForm) else None
            if _label(tag, m, nf):
                rows.append((tag, "member", m))
            else:
                nonmembers.append((tag, "nonmember", m))
    rows += random.Random(POOL_SEED).sample(nonmembers, NONMEMBERS)
    rows.sort(key=lambda r: (r[0], r[1], print_term(r[2])))
    lines, found = [], []
    for tag, label, m in rows:
        out = bounded_typecheck(m, env_empty(), EXAMPLE_TYPES[tag], fuel=LIGHT_GOALS)
        heavy = isinstance(out, Unknown) and out.reason == "fuel exhausted"
        lines.append(f"{tag}\t{label}\t{'heavy' if heavy else 'light'}\t{print_term(m)}\n")
        if label == "member" and isinstance(out, Found):
            found.append((tag, m, out.derivation))
    (DATA / "typecheck_pool.tsv").write_text("".join(lines))
    return found


def _fresh(avoid, k=2):
    out, i = [], 0
    while len(out) < k:
        if f"f{i}" not in avoid:
            out.append(f"f{i}")
        i += 1
    return out


def _transports(d, j, rng):
    """Reducts a few betaeta steps away, and criterion 7's three sources."""
    reducts, front, seen = [], [j.subject], {j.subject}
    for _ in range(REDUCT_DEPTH):
        nxt = []
        for t in front:
            for _, _, r in step_positions(t, Relation.BETAETA):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    reducts.append(r)
        front = nxt
    reducts.sort(key=print_term)
    picked = rng.sample(reducts, min(REDUCTS_PER_CERT, len(reducts)))
    reduce_rows = []
    for n in picked:
        want = Judgment(n, env_restrict(j.env, free_vars(n)), j.typ)
        if check_derivation(subject_reduce(d, n, Relation.BETAETA)) != want:
            raise SystemExit(f"subject_reduce fails on {print_term(n)}")
        reduce_rows.append([print_term(n), print_judgment(want)])

    m, deg = j.subject, j.subject.degree
    f, w = _fresh(all_names(m) | {k.name for k in j.env.domain()})
    sources = [
        App(Abs(f, deg, Var(f, deg)), m),
        App(Abs(f, deg, m), Abs(w, deg, Var(w, deg))),
        App(Abs(f, deg, m), Var(w, deg)),
    ]
    expand_rows = []
    for src in sources:
        want = Judgment(src, env_enlarge(j.env, free_vars(src)), j.typ)
        out = subject_expand_beta(d, src)
        if check_derivation(out) != want:
            raise SystemExit(f"subject_expand_beta fails on {print_term(src)}")
        if check_derivation(subject_reduce(out, m, Relation.BETA)) != j:
            raise SystemExit(f"reduction back fails on {print_term(src)}")
        expand_rows.append([print_term(src), print_judgment(want)])
    return reduce_rows, expand_rows


def cert_pool(found):
    rng = random.Random(POOL_SEED + 1)
    entries = []
    for p in sorted((ROOT / "corpus").glob("*.drv")):
        entries.append((f"corpus/{p.stem}", p.read_text().rstrip("\n")))
    for tag, m, d in rng.sample(found, SEARCH_CERTS):
        entries.append((f"search/{tag}/{print_term(m)}", print_derivation(d)))
    lines = []
    for name, text in entries:
        d = parse_derivation(text)
        j = check_derivation(d)
        if print_derivation(d) != text:
            raise SystemExit(f"{name} does not print back byte-identically")
        reduce_rows, expand_rows = _transports(d, j, rng)
        row = {
            "name": name,
            "judgment": print_judgment(j),
            "certificate": text,
            "reduce": reduce_rows,
            "expand": expand_rows,
        }
        lines.append(json.dumps(row) + "\n")
    (DATA / "certs.jsonl").write_text("".join(lines))


def main():
    DATA.mkdir(exist_ok=True)
    closed9 = sorted(enumerate_closed(9), key=print_term)
    found = typecheck_pool(closed9)
    cert_pool(found)


if __name__ == "__main__":
    main()
