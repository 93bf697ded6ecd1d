"""stoplab runs without scipy: scipy is a test-only dependency, the oracle
the significance tests are checked against."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

CORPUS = (
    "<DOC>\n<DOCNO> D1 </DOCNO>\n<TEXT>\na b\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D2 </DOCNO>\n<TEXT>\nb c\n</TEXT>\n</DOC>\n"
    "<DOC>\n<DOCNO> D3 </DOCNO>\n<TEXT>\nc c a\n</TEXT>\n</DOC>\n"
)
TOPICS = "".join(
    "<top>\n<num> Number: %d </num>\n<title> %s </title>\n</top>\n" % (qid, title)
    for qid, title in [(1, "a"), (2, "b c"), (3, "c")]
)
QRELS = "1 0 D1 1\n2 0 D2 1\n3 0 D3 1\n"

# a None entry in sys.modules makes every import of scipy raise ImportError
BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None
from stoplab.cli import main
commands = [["index", "--corpus", "c.sgml", "--out", "t.idx"]]
for model in ("TFIDF", "BM25", "KL"):
    commands += [
        ["search", "--index", "t.idx", "--topics", "t.txt", "--model", model,
         "--out", model + ".run"],
        ["eval", "--run", model + ".run", "--qrels", "q.txt", "--out", model + ".tsv"],
    ]
commands.append(["compare", "TFIDF.tsv", "BM25.tsv", "KL.tsv"])
for argv in commands:
    rc = main(argv)
    if rc != 0:
        sys.exit("%s exited %d" % (argv[0], rc))
"""


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_command_runs_with_scipy_blocked(tmp_path):
    (tmp_path / "c.sgml").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "t.txt").write_text(TOPICS, encoding="utf-8")
    (tmp_path / "q.txt").write_text(QRELS, encoding="utf-8")
    done = run_python(BLOCKED_RUN, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Friedman test over 3 techniques, 3 queries" in done.stdout


def test_importing_the_cli_loads_no_scipy_module(tmp_path):
    done = run_python(
        "import sys, stoplab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
