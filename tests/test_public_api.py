"""The README's Public API list names exactly what the package exports."""

import re
from pathlib import Path

import hdbwdm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_public_api_list_matches_all():
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", "\n".join(items))
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(hdbwdm.__all__)
    assert len(hdbwdm.__all__) == len(set(hdbwdm.__all__))
