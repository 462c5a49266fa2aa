"""scripts/reproduce.py: corpus conversion, the metrics row it reads and the
manifest block it adds; the full-size run itself is not executed here."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kgatnet.evaluation import METRICS, TRAITS, write_metric_report
from kgatnet.pipeline import load_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CORPUS = ROOT / "src" / "kgatnet" / "data" / "fixture" / "corpus.csv"

_spec = importlib.util.spec_from_file_location("reproduce", ROOT / "scripts" / "reproduce.py")
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)

# the Essays Dataset's trait columns, written out here rather than read
# from the script under test
ESSAYS_TRAITS = {"cEXT": "E", "cNEU": "N", "cAGR": "A", "cCON": "C", "cOPN": "O"}


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def essays_layout(rows):
    """The fixture's rows (doc_id,text,O,C,E,A,N with 0/1) in the Essays
    layout (#AUTHID,TEXT,cEXT,cNEU,cAGR,cCON,cOPN with y/n)."""
    header, *body = rows
    col = {name: i for i, name in enumerate(header)}
    out = [["#AUTHID", "TEXT", *ESSAYS_TRAITS]]
    for row in body:
        out.append([row[0], row[1],
                     *("y" if row[col[t]] == "1" else "n" for t in ESSAYS_TRAITS.values())])
    return out


def test_fixture_in_essays_layout_converts_back(tmp_path, capsys):
    ours = read_rows(FIXTURE_CORPUS)
    header, *body = ours
    # every trait column differs from every other, so a swapped mapping shows
    columns = [tuple(r[i] for r in body) for i in range(2, 7)]
    assert len(set(columns)) == 5
    src = tmp_path / "essays.csv"
    write_rows(src, essays_layout(ours))
    dest = tmp_path / "corpus.csv"
    assert reproduce.convert_corpus(src, dest) == dest
    assert read_rows(dest) == ours
    assert f"converted {len(body)} essays" in capsys.readouterr().out
    assert not list(tmp_path.glob("*.tmp*"))


def test_corpus_in_our_layout_is_used_as_is(tmp_path):
    dest = tmp_path / "corpus.csv"
    assert reproduce.convert_corpus(FIXTURE_CORPUS, dest) == FIXTURE_CORPUS
    assert not dest.exists()


@pytest.mark.parametrize("layout", ["ours", "essays"])
def test_corpus_with_a_byte_order_mark_loads(tmp_path, layout):
    # spreadsheet exports start with one; the conversion reads past it and
    # passes our layout through unchanged, so the pipeline must too
    ours = read_rows(FIXTURE_CORPUS)
    src = tmp_path / "in.csv"
    write_rows(src, ours if layout == "ours" else essays_layout(ours))
    src.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    corpus = reproduce.convert_corpus(src, tmp_path / "corpus.csv")
    assert corpus == (src if layout == "ours" else tmp_path / "corpus.csv")
    docs = load_corpus(corpus)
    assert [[d.id, d.text, *map(str, d.labels)] for d in docs] == ours[1:]


@pytest.mark.parametrize("bad_row,message", [
    (["d2", "text", "y", "n", "maybe", "y", "n"], "line 3: expected y/n in cAGR, got 'maybe'"),
    (["d2", "text", "y", "n", "y", "n"], "line 3: expected 7 fields, got 6"),
    (["d2", "text", "y", "n", "y", "n", "y", "n"], "line 3: expected 7 fields, got 8"),
])
def test_bad_row_exits_naming_its_line_and_writes_nothing(tmp_path, bad_row, message):
    src = tmp_path / "essays.csv"
    write_rows(src, [["#AUTHID", "TEXT", *ESSAYS_TRAITS],
                     ["d1", "text", "y", "n", "y", "n", "y"], bad_row,
                     ["d3", "text", "n", "n", "n", "n", "n"]])
    dest = tmp_path / "corpus.csv"
    with pytest.raises(SystemExit) as exc:
        reproduce.convert_corpus(src, dest)
    assert str(exc.value) == f"{src}, {message}"
    assert not dest.exists()


def test_unknown_header_exits(tmp_path):
    src = tmp_path / "essays.csv"
    write_rows(src, [["#AUTHID", "TEXT", "cEXT", "cNEU", "cAGR", "cCON", "cOPEN"],
                     ["d1", "text", "y", "n", "y", "n", "y"]])
    with pytest.raises(SystemExit) as exc:
        reproduce.convert_corpus(src, tmp_path / "corpus.csv")
    assert "unrecognized corpus header" in str(exc.value)
    assert not (tmp_path / "corpus.csv").exists()


def test_accuracy_row_reads_the_metric_report(tmp_path):
    per_trait = {t: {name: 0.5 for name in METRICS} for t in TRAITS}
    accuracy = {"O": 0.61, "C": 0.62, "E": 0.63, "A": 0.64, "N": 0.65}
    for t, value in accuracy.items():
        per_trait[t]["accuracy"] = value
    (tmp_path / "reports").mkdir()
    write_metric_report(per_trait, tmp_path / "reports" / "metrics.csv")
    row = reproduce.accuracy_row(tmp_path)
    assert row == pytest.approx({**accuracy, "avg": 0.63}, abs=1e-6)
    assert list(row) == ["O", "C", "E", "A", "N", "avg"]


def test_annotate_manifest_adds_reproduction_block(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"stages": {}}), encoding="utf-8")
    accs = {"O": 0.7, "C": 0.7, "E": 0.7, "A": 0.7, "N": 0.7, "avg": 0.7}
    reproduce.annotate_manifest(tmp_path, "plain", accs)
    data = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert data["stages"] == {}
    block = data["reproduction"]
    assert block["mode"] == "plain"
    assert block["measured_accuracy"] == accs
    assert block["deviation"] == round(0.7 - 0.7026, 4)
    assert block["within_tolerance"] is True


def test_interrupted_annotation_leaves_the_manifest_whole(tmp_path, monkeypatch):
    manifest = tmp_path / "manifest.json"
    old = json.dumps({"stages": {"train": {"seconds": 1.5}}}, indent=2)
    manifest.write_text(old, encoding="utf-8")

    def half_then_fail(write):
        def patched(self, data, *args, **kwargs):
            write(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("interrupted")
        return patched

    monkeypatch.setattr(Path, "write_text", half_then_fail(Path.write_text))
    monkeypatch.setattr(Path, "write_bytes", half_then_fail(Path.write_bytes))
    with pytest.raises(OSError, match="interrupted"):
        reproduce.annotate_manifest(tmp_path, "plain", {"avg": 0.7})
    monkeypatch.undo()
    assert json.loads(manifest.read_text(encoding="utf-8")) == json.loads(old)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_jobs_below_one_stops_before_anything_is_written(tmp_path, monkeypatch, capsys):
    src = tmp_path / "essays.csv"
    write_rows(src, essays_layout(read_rows(FIXTURE_CORPUS)))
    work = tmp_path / "work"
    monkeypatch.setattr(sys, "argv", [
        "reproduce.py", "--essays", str(src), "--dump", str(FIXTURE_CORPUS.parent / "dump.nt"),
        "--workdir", str(work), "--jobs", "0"])
    with pytest.raises(SystemExit) as exc:
        reproduce.main()
    assert exc.value.code == 2
    assert "usage: reproduce.py" in capsys.readouterr().err
    assert not work.exists()
