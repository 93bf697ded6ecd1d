"""The shared input helpers: ``read_bytes`` opens every input path, raw,
and ``iter_records`` splits every qrels, run and report line.  A missing
path or a directory is tried on every reader in test_reader_contract.py."""

import gzip

import pytest

from stoplab.errors import ParseError, iter_records, read_bytes, read_text


class TestIterRecords:
    def test_whitespace_or_tabs(self):
        text = "a b\tc\n"
        assert list(iter_records(text, "f", 3)) == [(1, ["a", "b", "c"])]
        assert list(iter_records(text, "f", 2, "\t")) == [(1, ["a b", "c"])]

    def test_tabs_keep_empty_fields(self):
        assert list(iter_records("a\t\tb \n", "f", 3, "\t")) == [(1, ["a", "", "b "])]

    @pytest.mark.parametrize("sep", [None, "\t"])
    def test_blank_and_whitespace_only_lines_skipped(self, sep):
        text = "\n  \n\t\n\xa0\nx\n \n"
        assert list(iter_records(text, "f", 1, sep)) == [(5, ["x"])]

    def test_cr_and_crlf_number_lines(self):
        text = "a b\r\rc d\r\ne f\ng h"
        assert [n for n, _ in iter_records(text, "f", 2)] == [1, 3, 4, 5]
        assert list(iter_records("a\tb\r\n", "f", 2, "\t")) == [(1, ["a", "b"])]

    @pytest.mark.parametrize("sep", [None, "\t"])
    def test_width_message(self, sep):
        records = iter_records("a\tb\n\na\tb\tc\n", "in.txt", 2, sep)
        assert next(records) == (1, ["a", "b"])
        with pytest.raises(ParseError) as info:
            next(records)
        assert str(info.value) == "in.txt line 3: expected 2 fields, got 3"


class TestReadBytes:
    def test_gz_name_is_read_raw_and_gunzipped_as_text(self, tmp_path):
        path = tmp_path / "c.txt.gz"
        path.write_bytes(gzip.compress("قاف\n".encode("utf-8")))
        assert read_bytes(path, "corpus") == path.read_bytes()
        assert read_text(path, "corpus") == "قاف\n"
