"""Every line of the package and the tests fits in 120 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 120


def test_every_line_fits_in_120_columns():
    long_lines = [
        f"{path.relative_to(ROOT)}:{lineno}: {len(line)} columns"
        for folder in ("src/vetokensim", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
