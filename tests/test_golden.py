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
when one of them is regenerated.  A case's files carry its behaviour's name,
so a failure names every behaviour that changed.

The corpus is the check of the ``bench`` CSVs and sidecars, the ``cost``
table and the trace CSVs; the library tests do not repeat it.
"""

from pathlib import Path

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
    # every file is UTF-8 text
    files = {path.name: path.read_bytes().decode() for path in directory.iterdir()
             if path.name != make_corpus.MANIFEST}
    for line in (directory / make_corpus.MANIFEST).read_text(encoding="utf-8").splitlines():
        files[line.split("  ", 1)[1]] = line
    return files


def test_corpus_is_unchanged(tmp_path):
    make_corpus.generate(tmp_path)
    stored, fresh = read_corpus(CORPUS), read_corpus(tmp_path)
    # every file that differs, in one failure
    differing = [f"{name}: " + ("not stored" if name not in stored else
                                "not written" if name not in fresh else "changed")
                 for name in sorted(stored.keys() | fresh.keys())
                 if stored.get(name) != fresh.get(name)]
    assert not differing, "\n".join(differing)


def test_related_files_are_equal():
    stored = read_corpus(CORPUS)
    for first, second in SAME:
        assert stored[first] == stored[second], (first, second)
