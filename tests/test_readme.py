"""The README's configuration table against `config.DEFAULTS`."""

import pathlib
import re

from lumitomo.config import DEFAULTS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_defaults():
    """(key, default) for every key of the README's "Configuration keys"
    table, in table order; a row may name several keys, and "(derived)"
    stands for an empty default."""
    section = README.read_text(encoding="utf-8").split(
        "### Configuration keys (defaults)", 1)[1]
    pairs = []
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        default = "" if cells[1] == "(derived)" else cells[1].strip("`")
        pairs += [(key, default) for key in re.findall(r"`([^`]+)`", cells[0])]
    return pairs


def test_configuration_table_lists_every_key_with_its_default():
    pairs = readme_defaults()
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys))
    assert dict(pairs) == DEFAULTS
