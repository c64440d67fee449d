"""The golden corpus: CLI outputs, exit codes and stderr, and demo stdout, byte for byte.

``golden/make_corpus.py`` holds the case list: ``sort --output --trace
--check`` with both archs on the worked example 4, 6, 4 at m=3, 32 values at
m=11, 64 values in 0..3 at m=2 and 1024 distinct values at m=10; ``bench
--check`` CSVs and sidecars; ``compare``; ``cost``; the ``network --n``
dumps for N = 2, 8, 16 and 64; the ``generate`` streams for 0 at m=1, 5 at m=3
and 40000 at m=16; the stdout of demos 01, 02, 03 and 05 (demo 04 writes
under ``demos/output/``; CI runs it); and every CLI behaviour that is one
invocation on a fixed input: the small successes, and each refusal's exit
status (``<case>.exit``) and stderr (``<case>.stderr``), with the listing
showing that it wrote no file.  The corpus is written once per test run, in
process, from that list, and compared file by file with ``golden/corpus/``;
a file too big to read in a diff is compared by its SHA-256 line in
``SHA256SUMS``.  An intended output change regenerates only the files it
names (see ``make_corpus.py``); ``SAME`` lists the files that must stay equal
when one of them is regenerated.

``check`` compares the files of some cases in that one written corpus, and
``pinned`` makes a test of it, so that ``test_cli.py`` keeps a test name for
each behaviour the corpus pins; neither runs a case again.
"""

import functools
import tempfile
from pathlib import Path

import pytest
from golden import make_corpus

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus"

# pairs of corpus files that hold one behaviour seen two ways: a leading BOM
# is dropped, blanks around an argument change nothing, the default grid is
# the explicit one, and cost refuses a batcher input count as sort does
SAME = [
    *[(f"{command}_bom.stdout", f"{command}_plain.stdout")
      for command in ("sort", "compare", "bench")],
    ("generate_blanks_5_m3.stdout", "generate_5_m3.stdout"),
    ("cost_default_grid.stdout", "cost.stdout"),
    ("cost_3_3.stderr", "sort_batcher_3.stderr"),
]


def read_corpus(directory: Path) -> dict[str, str]:
    """Each file of a written corpus by name; a digested file is its SHA256SUMS line."""
    # decoded so that a failure shows a diff; every file is UTF-8 text
    files = {path.name: path.read_bytes().decode() for path in directory.iterdir()
             if path.name != make_corpus.MANIFEST}
    for line in (directory / make_corpus.MANIFEST).read_text(encoding="utf-8").splitlines():
        files[line.split("  ", 1)[1]] = line
    return files


@functools.cache
def written() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        make_corpus.generate(tmp)
        return read_corpus(Path(tmp))


def test_corpus_is_unchanged():
    expected = read_corpus(CORPUS)
    assert sorted(written()) == sorted(expected)
    for name, text in written().items():
        assert text == expected[name], name


def test_related_files_are_equal():
    stored = read_corpus(CORPUS)
    for first, second in SAME:
        assert stored[first] == stored[second], (first, second)


def check(cases: str) -> None:
    """Each of the space-separated corpus ``cases`` left a file in the written
    corpus, and the same files as ``golden/corpus/``."""
    stored = read_corpus(CORPUS)
    for case in cases.split():
        files = sorted(name for name in written() if name.startswith(f"{case}."))
        assert files and files == sorted(
            name for name in stored if name.startswith(f"{case}.")), case
        for name in files:
            assert written()[name] == stored[name], name


def pinned(cases):
    """A test that runs ``check``: on ``cases`` if a string, or, if a dict
    from a test id to cases, as a parametrized test method."""
    if isinstance(cases, str):
        def test(*_):  # a method or a function
            check(cases)
        return test

    @pytest.mark.parametrize("names", list(cases.values()), ids=list(cases))
    def test(self, names):
        check(names)
    return test
