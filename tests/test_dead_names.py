"""The dead-name checker reads a dotted name in README's package table as an
attribute chain: each part after the first must be a member of what
precedes it, not merely a name defined somewhere in ``src/provlab``."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "dead_names.py"


def _tool():
    spec = importlib.util.spec_from_file_location("dead_names", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_dotted_table_name_resolves_as_an_attribute_chain():
    tool = _tool()
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in (ROOT / "src" / "provlab").glob("*.py")
    }
    names = (
        # ``moved`` is a ByteRange method and no Asset member
        "Asset.moved", "ByteRange.moved", "Authority.generate_crl", "records.sign_record",
        "encode_value(serial)", "provlab.validator.LIVE_REVOCATION_MODES", "Asset.wire",
        # ``workspace`` imports ``Path`` but does not define it; ``wire`` is a field, whose
        # members the sources do not show
        "workspace.Path", "Asset.wire.hex", "provlab.nothing",
        # not Python at all: a file name the checker is told about
        "workspace.json",
    )
    table = "| module | contents |\n|---|---|\n| `provlab.trust` | " + ", ".join(
        f"`{name}`" for name in names
    ) + " |\n"
    found = list(tool.unknown_table_names(table, trees))
    assert found == ["Asset.moved", "workspace.Path", "Asset.wire.hex", "provlab.nothing"]
