"""Every ``DESIGN.md §N`` and ``substitution N`` citation resolves.

The code points readers at DESIGN.md by section number and by
substitution number.  A citation is checked in every ``.py`` file under
``src``, ``benchmarks`` and ``examples`` that names DESIGN.md: each
``§N`` must be a ``## §N`` heading and each ``substitution N`` a
``### Substitution N`` heading of the file.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
CITATION = re.compile(r"§(\d+)|[Ss]ubstitution (\d+)")


def _headings():
    text = DESIGN.read_text(encoding="utf-8")
    sections = set(re.findall(r"^## §(\d+) ", text, re.MULTILINE))
    substitutions = set(re.findall(r"^### Substitution (\d+):", text, re.MULTILINE))
    return sections, substitutions


def _citing_files():
    return [
        path
        for tree in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / tree).rglob("*.py"))
        if "DESIGN.md" in path.read_text(encoding="utf-8")
    ]


def test_design_md_exists_and_is_cited():
    assert DESIGN.is_file()
    assert len(_citing_files()) >= 9


@pytest.mark.parametrize(
    "path", _citing_files(), ids=lambda p: str(p.relative_to(ROOT))
)
def test_citations_resolve_to_headings(path):
    sections, substitutions = _headings()
    for section, substitution in CITATION.findall(path.read_text(encoding="utf-8")):
        if section:
            assert section in sections, "{} cites §{}".format(path, section)
        else:
            assert substitution in substitutions, (
                "{} cites substitution {}".format(path, substitution)
            )
