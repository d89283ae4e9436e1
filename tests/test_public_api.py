"""The README's Public API list names exactly what the package exports,
and every module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hdbwdm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_public_api_list_matches_all():
    section = README.read_text(encoding="utf-8").split("## Public API", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", "\n".join(items))
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(hdbwdm.__all__)
    assert len(hdbwdm.__all__) == len(set(hdbwdm.__all__))


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(hdbwdm.__path__)))
def test_every_name_in_a_module_all_exists(module):
    # the package re-exports seven of these, so a stale entry there already
    # fails the import; hdbwdm.reports is not re-exported
    mod = importlib.import_module(f"hdbwdm.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"hdbwdm.{module}.__all__ names missing attributes: {missing}"
