"""The golden corpus: CLI outputs and demo stdout, byte for byte.

``golden/make_corpus.py`` holds the case list: ``sort --output --trace
--check`` with both archs on the worked example 4, 6, 4 at m=3, 32 values at
m=11, 64 values in 0..3 at m=2 and 1024 distinct values at m=10; ``bench
--check`` CSVs and sidecars; ``compare``; ``cost``; the ``network --n``
dumps for N = 2, 16 and 64; the ``generate`` streams for 0 at m=1, 5 at m=3
and 40000 at m=16; and the stdout of demos 01, 02, 03 and 05 (demo
04 writes under ``demos/output/``; CI runs it).  The corpus is written here
from that list, in process, and compared file by file with
``golden/corpus/``; a file too big to read in a diff is compared by its
SHA-256 line in ``SHA256SUMS``.  An intended output change regenerates only
the files it names (see ``make_corpus.py``).
"""

from pathlib import Path

from golden import make_corpus

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus"


def test_corpus_is_unchanged(tmp_path):
    make_corpus.generate(tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in CORPUS.iterdir())
    for name in names:
        # decoded so that a failure shows a diff; every file is UTF-8 text
        assert (tmp_path / name).read_bytes().decode() == (CORPUS / name).read_bytes().decode(), name
