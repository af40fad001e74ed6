import io
import random

import pytest

from vadminer.lexicon import (
    DIMENSIONS,
    Lexicon,
    LexiconEntry,
    LexiconError,
    canonical_dimension,
    load_lexicon,
    write_lexicon,
)

from conftest import TABLE1_CSV


def test_four_row_file_baselines(table1_lexicon):
    assert table1_lexicon.size == 4
    assert table1_lexicon.baseline("valence") == pytest.approx((2.50 + 8.21 + 2.40 + 8.00) / 4, abs=1e-12)
    assert table1_lexicon.baseline("arousal") == pytest.approx((5.93 + 5.55 + 2.81 + 5.36) / 4, abs=1e-12)
    assert table1_lexicon.baseline("dominance") == pytest.approx((5.14 + 7.00 + 3.84 + 5.92) / 4, abs=1e-12)


def test_single_row_file():
    lexicon = load_lexicon(io.StringIO("word,valence,arousal,dominance\ncalm,5.0,5.0,5.0\n"))
    assert lexicon.size == 1
    for dim in DIMENSIONS:
        assert lexicon.baseline(dim) == 5.0


def test_lookup_case_insensitive(table1_lexicon):
    assert table1_lexicon.lookup("joy").valence == 8.21
    assert table1_lexicon.lookup("JOY") is table1_lexicon.lookup("joy")
    assert table1_lexicon.lookup("qwzx") is None


def test_header_column_order_free():
    lexicon = load_lexicon(io.StringIO("arousal,word,dominance,valence\n5.93,anger,5.14,2.50\n"))
    entry = lexicon.lookup("anger")
    assert (entry.valence, entry.arousal, entry.dominance) == (2.50, 5.93, 5.14)


def test_words_lowercased_on_load():
    lexicon = load_lexicon(io.StringIO("word,valence,arousal,dominance\nJoy,8.21,5.55,7.00\n"))
    assert lexicon.lookup("joy") is not None


@pytest.mark.parametrize("row,fragment", [
    ("anger,2.50,5.93", "expected 4 columns, got 3"),
    ("anger,oops,5.93,5.14", "non-numeric valence"),
    ("anger,0.99,5.93,5.14", "outside"),
    ("anger,9.01,5.93,5.14", "outside"),
])
def test_malformed_rows_report_line(row, fragment):
    stream = io.StringIO(f"word,valence,arousal,dominance\n{row}\n")
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon(stream)
    stream = io.StringIO(f"word,valence,arousal,dominance\n{row}\n")
    with pytest.raises(LexiconError, match=fragment):
        load_lexicon(stream)


def test_non_utf8_rows_report_line(tmp_path):
    path = tmp_path / "lex.csv"
    path.write_bytes(b"word,valence,arousal,dominance\njoy,8,5,7\ncaf\xe9,5,5,5\n")
    with pytest.raises(LexiconError, match="line 3: not valid UTF-8"):
        load_lexicon(path)
    path.write_bytes(b"word,valence\xff,arousal,dominance\njoy,8,5,7\n")
    with pytest.raises(LexiconError, match="line 1: not valid UTF-8"):
        load_lexicon(path)
    path.write_bytes("word,valence,arousal,dominance\ncafé,5,5,5\n".encode())
    assert load_lexicon(path).lookup("CAFÉ").valence == 5.0


def test_duplicate_word_rejected():
    stream = io.StringIO("word,valence,arousal,dominance\njoy,8.21,5.55,7.00\nJOY,8.0,5.0,7.0\n")
    with pytest.raises(LexiconError, match="duplicate word 'joy', line 3"):
        load_lexicon(stream)


def test_empty_lexicon_rejected():
    with pytest.raises(LexiconError, match="empty"):
        load_lexicon(io.StringIO("word,valence,arousal,dominance\n"))
    with pytest.raises(LexiconError, match="header"):
        load_lexicon(io.StringIO(""))


def test_missing_header_column():
    with pytest.raises(LexiconError, match="missing"):
        load_lexicon(io.StringIO("word,valence,arousal\njoy,8.21,5.55\n"))


@pytest.mark.parametrize("header", ["word,valence,arousal,dominance,valence",
                                    "word, Valence ,arousal,dominance,valence"],
                         ids=["same spelling", "spaces and case"])
def test_header_naming_a_column_twice_rejected(header):
    with pytest.raises(LexiconError) as raised:
        load_lexicon(io.StringIO(f"{header}\njoy,8,5,7,1\n"))
    assert str(raised.value) == "line 1: lexicon header names the valence column more than once"
    # an extra column of another name may repeat
    lexicon = load_lexicon(io.StringIO("word,valence,arousal,dominance,note,Note\njoy,8,5,7,a,b\n"))
    assert lexicon.lookup("joy").valence == 8.0


def test_entry_invariants():
    with pytest.raises(LexiconError):
        LexiconEntry(word="", valence=5, arousal=5, dominance=5)
    with pytest.raises(LexiconError):
        LexiconEntry(word="two words", valence=5, arousal=5, dominance=5)
    with pytest.raises(LexiconError):
        LexiconEntry(word="Upper", valence=5, arousal=5, dominance=5)


def test_baseline_between_min_and_max():
    rng = random.Random(4)
    for _ in range(25):
        entries = [
            LexiconEntry(word=f"w{i}", valence=round(rng.uniform(1, 9), 3),
                         arousal=round(rng.uniform(1, 9), 3),
                         dominance=round(rng.uniform(1, 9), 3))
            for i in range(rng.randint(1, 40))
        ]
        lexicon = Lexicon(entries)
        for dim in DIMENSIONS:
            values = [getattr(e, dim) for e in entries]
            assert min(values) <= lexicon.baseline(dim) <= max(values)


def test_round_trip_idempotent(table1_lexicon):
    buffer = io.StringIO()
    write_lexicon(table1_lexicon, buffer)
    reloaded = load_lexicon(io.StringIO(buffer.getvalue()))
    assert {e.word for e in reloaded} == {e.word for e in table1_lexicon}
    for entry in table1_lexicon:
        again = reloaded.lookup(entry.word)
        assert (again.valence, again.arousal, again.dominance) == (
            entry.valence, entry.arousal, entry.dominance)
    for dim in DIMENSIONS:
        assert reloaded.baseline(dim) == table1_lexicon.baseline(dim)

    second = io.StringIO()
    write_lexicon(reloaded, second)
    assert second.getvalue() == buffer.getvalue()


def test_load_from_path(tmp_path):
    path = tmp_path / "lex.csv"
    path.write_text(TABLE1_CSV, encoding="utf-8")
    assert load_lexicon(path).size == 4


def test_byte_order_mark_at_file_start_skipped(tmp_path):
    # spreadsheet programs write a UTF-8 BOM before the header
    path = tmp_path / "lex.csv"
    path.write_bytes(b"\xef\xbb\xbf" + TABLE1_CSV.encode())
    lexicon = load_lexicon(path)
    assert [entry.word for entry in lexicon] == ["anger", "joy", "sadness", "love"]
    assert lexicon.baseline("valence") == load_lexicon(io.StringIO(TABLE1_CSV)).baseline("valence")
    # only the first mark is the file's: a second one is part of the header cell
    path.write_bytes(b"\xef\xbb\xbf" * 2 + TABLE1_CSV.encode())
    with pytest.raises(LexiconError, match=r"missing \['word'\]"):
        load_lexicon(path)


def test_canonical_dimension():
    assert canonical_dimension("v") == "valence"
    assert canonical_dimension("A") == "arousal"
    assert canonical_dimension("dominance") == "dominance"
    with pytest.raises(ValueError):
        canonical_dimension("q")
