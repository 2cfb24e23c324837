"""The file loaders either load an input or refuse it with InputFormatError,
citing the path and line, whatever the bytes (a config may also be refused
with ConfigError)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.config import ExperimentConfig, load_config
from invlab.corpus import CorpusFormatError, load_jsonl_corpus
from invlab.embeddings import ConfigError, InputFormatError
from invlab.metrics import MAX_GRADE
from invlab.report import CSV_HEADER, ExperimentReport, read_report_csv
from invlab.retrieval import load_qrels_tsv
from invlab.translate import load_dictionary_tsv

VALID_ROW = ["recon_mono", "en", "10", "4", "none", "50.1", "0.5", "0.5", "25.0", "0.98", "",
             "1234", "56.789"]
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
# Field values near the valid ones, and the characters that break CSV or TSV.
FIELDS = st.sampled_from(
    ["q1", "d1", "red", "rouge", "3", "0", "-2", "65", str(MAX_GRADE), "1e3", " 7", "x", "",
     "nan", "inf", "1e999", "4.5", "٣", '"', "a,b", "a\tb", "\x00", "é"]
)
INVALID_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])


def encoded(draw, lines: list[str]) -> bytes:
    """The lines joined by any line ending, as UTF-8, with now and then a
    byte that is not UTF-8."""
    data = draw(NEWLINES).join(lines).encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(INVALID_UTF8) + data[at:]
    return data


@st.composite
def tsv_files(draw):
    """A few lines of one to four tab-separated near-valid fields."""
    rows = draw(st.lists(st.lists(FIELDS, min_size=1, max_size=4), max_size=6))
    return encoded(draw, ["\t".join(row) for row in rows])


@st.composite
def report_files(draw):
    """A valid report CSV with some fields replaced, dropped or added."""
    rows = [list(CSV_HEADER)] + [list(VALID_ROW) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or at == len(row):
            row.insert(at, draw(FIELDS))
        elif action == "drop":
            del row[at]
        else:
            row[at] = draw(FIELDS)
    return encoded(draw, [",".join(row) for row in rows])


# JSON texts of values near the valid ones, and of two the decoder refuses:
# nesting past its recursion limit and an integer of more than 4,300 digits.
JSON_VALUES = st.sampled_from(
    ['"a"', '"en"', '""', '"x y"', '"é"', "0", "1", "-1", "2.5", "1e999", "NaN", "true", "null",
     "[]", "[1, 4]", "[0.0, 0.001]", "{}", '{"en": "a"}', "[" * 5000 + "]" * 5000, "9" * 5000]
)
CONFIG_KEYS = st.sampled_from(
    ["seed", "test_size", "out_dir", "corpora", "dictionaries", "retrieval_tasks", "atack",
     "attack", "defense", "embedder"]
)
SECTION_KEYS = st.sampled_from(
    ["steps", "beams", "max_tokens", "query_budget", "n", "dim", "seed", "unit_norm",
     "lambdas", "masking", "language_agnostic", "mask_scale"]
)


def objects(keys, values):
    """JSON texts of objects of up to four members."""
    return st.dictionaries(keys, values, max_size=4).map(
        lambda members: "{" + ", ".join(f'"{k}": {v}' for k, v in members.items()) + "}"
    )


def cut(draw, text: str) -> str:
    """The text, now and then cut short."""
    if draw(st.booleans()) and draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def config_files(draw):
    """A config of near-valid values at known and unknown keys."""
    config = draw(objects(CONFIG_KEYS, JSON_VALUES | objects(SECTION_KEYS, JSON_VALUES)))
    return encoded(draw, [cut(draw, config)])


@st.composite
def corpus_files(draw):
    """A few records of near-valid fields, some lines blank or cut short."""
    fields = st.sampled_from(["id", "text", "lang", "extra"])
    strings = st.sampled_from(['"a"', '"b"', '"x y"', '"en"'])
    records = draw(st.lists(objects(fields, strings | JSON_VALUES), max_size=5))
    return encoded(draw, [cut(draw, record) for record in records] + [""])


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


def load_or_refuse(loader, path, data: bytes, refusals=()):
    """The loader's result, or None after checking that it refused with
    InputFormatError citing ``path`` and a line on one line of text, or with
    one of ``refusals``; any other exception fails the test."""
    path.write_bytes(data)
    try:
        return loader(path)
    except InputFormatError as exc:
        message = str(exc)
        assert re.match(re.escape(str(path)) + r":\d+: ", message), message
        assert "\n" not in message
        return None
    except refusals:
        return None


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=tsv_files() | st.binary(max_size=120))
    def test_qrels(self, inputs_dir, data):
        qrels = load_or_refuse(load_qrels_tsv, inputs_dir / "qrels.tsv", data)
        if qrels is not None:
            for key, grade in qrels.items():
                assert len(key) == 2 and all(isinstance(part, str) for part in key)
                assert type(grade) is int and 1 <= grade <= MAX_GRADE

    @settings(max_examples=200, deadline=None)
    @given(data=tsv_files() | st.binary(max_size=120))
    def test_dictionary(self, inputs_dir, data):
        table = load_or_refuse(load_dictionary_tsv, inputs_dir / "dict.tsv", data)
        if table is not None:
            assert all(isinstance(k, str) and isinstance(v, str) for k, v in table.items())

    @settings(max_examples=200, deadline=None)
    @given(data=report_files() | st.binary(max_size=120))
    def test_report_csv(self, inputs_dir, data):
        report = load_or_refuse(read_report_csv, inputs_dir / "report.csv", data)
        if report is not None:
            assert isinstance(report, ExperimentReport)

    @settings(max_examples=200, deadline=None)
    @given(data=config_files() | st.binary(max_size=120))
    def test_config(self, inputs_dir, data):
        config = load_or_refuse(load_config, inputs_dir / "config.json", data, ConfigError)
        if config is not None:
            assert isinstance(config, ExperimentConfig)

    @settings(max_examples=200, deadline=None)
    @given(data=corpus_files() | st.binary(max_size=120))
    def test_corpus(self, inputs_dir, data):
        corpus = load_or_refuse(load_jsonl_corpus, inputs_dir / "corpus.jsonl", data)
        if corpus is not None:
            for sample in corpus:
                assert all(isinstance(f, str) for f in (sample.id, sample.text, sample.lang))


class TestRefusals:
    @pytest.mark.parametrize("column", ["bleu", "steps", "queries", "ndcg"])
    def test_report_field_not_a_number(self, tmp_path, column):
        row = list(VALID_ROW)
        row[CSV_HEADER.index(column)] = "x"
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=r"r\.csv:2: .*'x'"):
            read_report_csv(path)

    def test_report_header_names_path(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=r"r\.csv:1: unexpected CSV header"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "loader, good",
        [
            (load_qrels_tsv, "q1\td1\t1"),
            (load_dictionary_tsv, "red\trouge"),
            (read_report_csv, ",".join(CSV_HEADER)),
        ],
        ids=["qrels", "dictionary", "report"],
    )
    def test_undecodable_bytes_cite_line(self, tmp_path, loader, good):
        path = tmp_path / "input"
        path.write_bytes(good.encode() + b"\n\n\xff\xfe\n")
        with pytest.raises(InputFormatError, match=re.escape(f"{path}:3: not UTF-8")):
            loader(path)

    @pytest.mark.parametrize("grade", [0, -3])
    def test_qrels_grade_below_one_cites_line(self, tmp_path, grade):
        path = tmp_path / "low.tsv"
        path.write_text(f"q1\td1\t1\nq1\td2\t{grade}\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"low.tsv:2: relevance grade {grade} below 1"):
            load_qrels_tsv(path)

    def test_corpus_format_error_is_an_input_format_error(self):
        assert issubclass(CorpusFormatError, InputFormatError)
        assert issubclass(InputFormatError, ValueError)
