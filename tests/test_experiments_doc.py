"""EXPERIMENTS.md's §4.2, §4.3 and Fig. 7-11 tables agree with the
full-size run pinned in tests/golden/paper_tables.txt, at the
precision the doc prints (its 2.2 is the golden's 2.22)."""

from __future__ import annotations

import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "paper_tables.txt"
DOC = ROOT / "EXPERIMENTS.md"

#: the doc's spelling of a missing value; the golden prints "-"
MISSING = {"—", "-"}


def golden_tables() -> dict[str, list[dict[str, str]]]:
    """Title -> rows (column -> cell text) of each golden table."""
    tables = {}
    for block in GOLDEN.read_text().strip().split("\n\n"):
        title, header, _rule, *rows = block.splitlines()
        cols = [c.strip() for c in header.split("|")]
        tables[title.strip("= ")] = [
            dict(zip(cols, (c.strip() for c in row.split("|"))))
            for row in rows
            if not row.startswith("(")
        ]
    return tables


def doc_tables() -> dict[str, list[list[str]]]:
    """Section heading -> body rows (cells) of its first table."""
    tables = {}
    for section in DOC.read_text().split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        lines = [ln for ln in body.splitlines() if ln.startswith("|")]
        if lines:
            tables[heading] = [
                [c.strip() for c in ln.strip("|").split("|")] for ln in lines[2:]
            ]
    return tables


def table(tables: dict, prefix: str):
    (key,) = [k for k in tables if k.startswith(prefix)]
    return tables[key]


def number(text: str) -> Decimal:
    return Decimal(text.replace(",", ""))


def agrees(doc: str, golden: list[str] | str) -> bool:
    """Each number in the doc cell equals the matching golden value
    rounded half-up to the digits the doc prints; a missing doc value
    matches only missing golden values."""
    golden = [golden] if isinstance(golden, str) else golden
    if doc in MISSING:
        return all(g in MISSING for g in golden)
    shown = re.findall(r"\d[\d.]*(?:e-?\d+)?", doc.replace(",", ""))
    if len(shown) != len(golden):
        return False
    for text, value in zip(shown, golden):
        if value in MISSING:
            return False
        places = len(text.partition(".")[2]) if "e" not in text else None
        want = number(value)
        if places is not None:
            want = want.quantize(Decimal(1).scaleb(-places), ROUND_HALF_UP)
        if want != Decimal(text):
            return False
    return True


def ratio(a: str, b: str) -> str:
    return str(number(a) / number(b))


def cells_barrier(doc, gold):
    sm, mp = gold
    (_, p_sm, m_sm), (_, p_mp, m_mp), (_, p_adv, m_adv) = doc
    yield p_sm, [sm["paper_cycles"], ratio(sm["paper_cycles"], "33")]
    yield m_sm, [sm["cycles"], sm["usec"]]
    yield p_mp, [mp["paper_cycles"], ratio(mp["paper_cycles"], "33")]
    yield m_mp, [mp["cycles"], mp["usec"]]
    yield p_adv.strip("*×"), ratio(sm["paper_cycles"], mp["paper_cycles"])
    yield m_adv.strip("*×"), ratio(sm["cycles"], mp["cycles"])


def cells_rti(doc, gold):
    by_impl = {row["implementation"]: row for row in gold}
    for impl, p_er, m_er, p_ee, m_ee in doc:
        row = by_impl[impl]
        yield p_er, row["paper_Tinvoker"]
        yield m_er, row["Tinvoker"]
        yield p_ee, row["paper_Tinvokee"]
        yield m_ee, row["Tinvokee"]


def cells_fig7(doc, gold):
    by_key = {(number(r["block_bytes"]), r["implementation"]): r for r in gold}
    impls = ("no-prefetching", "prefetching", "message-passing")
    for block, np_, pf, mp, paper, measured in doc:
        size, unit = block.split()
        rows = [by_key[(number(size) * (1024 if unit == "KB" else 1), i)] for i in impls]
        for cell, row in zip((np_, pf, mp), rows):
            yield cell, row["cycles"]
        yield paper, [r["paper_MB_per_s"] for r in rows]
        yield measured, [r["MB_per_s"] for r in rows]


def cells_fig8(doc, gold):
    by_key = {(number(r["block_bytes"]), r["implementation"]): r for r in gold}
    for block, sm, mp, mp_over_sm, _paper in doc:
        size, unit = block.split()
        nbytes = number(size) * (1024 if unit == "KB" else 1)
        yield sm, by_key[(nbytes, "shared-memory")]["cycles"]
        yield mp, by_key[(nbytes, "message-passing")]["cycles"]
        yield mp_over_sm, by_key[(nbytes, "message-passing")]["mp_over_sm"]


def cells_fig9(doc, gold):
    by_delay = {number(r["delay_l"]): r for r in gold}
    cols = ("seq_msec", "speedup_hybrid", "speedup_sm", "hybrid_over_sm",
            "paper_hybrid", "paper_sm")
    for delay, *cells in doc:
        row = by_delay[number(delay)]
        yield from zip(cells, (row[c] for c in cols))


def cells_fig10(doc, gold):
    by_tol = {float(r["tol"]): r for r in gold}
    cols = ("seq_msec", "speedup_hybrid", "speedup_sm", "hybrid_over_sm")
    for tol, *cells in doc:
        row = by_tol[float(tol)]
        yield from zip(cells, (row[c] for c in cols))


def cells_fig11(doc, gold):
    by_grid = {r["grid"]: r for r in gold}
    cols = ("cycles_per_iter_sm", "cycles_per_iter_mp", "mp_over_sm")
    for grid, *cells, _paper in doc:
        row = by_grid[grid.replace("×", "x")]
        yield from zip(cells, (row[c] for c in cols))


SECTIONS = [
    ("§4.2", "§4.2", cells_barrier),
    ("§4.3", "§4.3", cells_rti),
    ("Fig. 7", "Fig. 7", cells_fig7),
    ("Fig. 8", "Fig. 8", cells_fig8),
    ("Fig. 9", "Fig. 9", cells_fig9),
    ("Fig. 10", "Fig. 10", cells_fig10),
    ("Fig. 11", "Fig. 11", cells_fig11),
]


@pytest.mark.parametrize("doc_prefix,golden_prefix,cells", SECTIONS,
                         ids=[s[0] for s in SECTIONS])
def test_doc_table_matches_golden(doc_prefix, golden_prefix, cells):
    doc = table(doc_tables(), doc_prefix)
    gold = table(golden_tables(), golden_prefix)
    pairs = list(cells(doc, gold))
    assert pairs
    wrong = [(d, g) for d, g in pairs if not agrees(d, g)]
    assert not wrong, f"{doc_prefix}: EXPERIMENTS.md cells off the golden: {wrong}"


def test_agreement_is_at_printed_precision():
    assert agrees("2.2", "2.22")
    assert agrees("7.0", "7")
    assert agrees("1197 (36 µs)", ["1,197", "36.3"])
    assert not agrees("2.3", "2.22")
    assert not agrees("470", "469")
    assert not agrees("—", "17.3")
