import ast
from pathlib import Path

import portclone


def test_every_public_name_resolves():
    missing = [name for name in portclone.__all__ if not hasattr(portclone, name)]
    assert missing == []
    assert len(set(portclone.__all__)) == len(portclone.__all__)


def test_no_module_imports_another_modules_private_name():
    # a name another module needs is public; a leading underscore means
    # only its own module uses it
    private = []
    for path in sorted(Path(portclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("portclone")
            ):
                private += [(path.name, node.module, a.name) for a in node.names
                            if a.name.startswith("_")]
    assert private == []
