"""Every Markdown file the code cites exists in the repository."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
CITED = re.compile(r"[\w./-]+\.md\b")


def test_every_cited_markdown_file_exists():
    missing = []
    for directory in ("src", "benchmarks"):
        for source in sorted((ROOT / directory).rglob("*.py")):
            for name in CITED.findall(source.read_text(encoding="utf-8")):
                if not any((base / name).is_file()
                           for base in (ROOT, source.parent)):
                    missing.append(f"{source.relative_to(ROOT)}: {name}")
    assert not missing, missing
