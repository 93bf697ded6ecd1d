"""Tests of the benchmark itself: the generator reproduces the criterion-8
inputs byte for byte, and BENCHMARK.json names what run.py reports.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import run  # noqa: E402
from generate import generate  # noqa: E402
from replay import PER_LAYER  # noqa: E402
from test_acceptance import _write_desk_corpus  # noqa: E402


def test_desk_inputs_match_criterion_8(tmp_path):
    reference = tmp_path / "reference"
    ours = tmp_path / "ours"
    reference.mkdir()
    ours.mkdir()
    expected = _write_desk_corpus(reference, random.Random(1008))
    got = generate(ours, 1008, docs=5000, topics=20, verbose=False)
    for want, have in zip(expected, (got.corpus, got.topics, got.qrels)):
        assert Path(want).read_bytes() == Path(have).read_bytes(), want.name


def test_counts_match_the_written_corpus(tmp_path):
    inputs = generate(tmp_path, 7, docs=300, topics=5, verbose=True)
    text = Path(inputs.corpus).read_text(encoding="utf-8")
    written = [line.split() for line in text.splitlines()
               if line and not line.startswith("<")]
    assert written == [words for _, words in inputs.doc_words]
    counts = inputs.index_counts(set())
    assert counts["total_tokens"] == sum(len(w) for w in written)
    assert counts["stopwords_removed"] == 0
    assert len(inputs.topic_words) == 5


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
