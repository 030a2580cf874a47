"""The Python snippets of README.md run as written.

The blocks run in order in one namespace, as in one session, so a later
block may use the names an earlier one defined.  They import from the
package namespace, so this also pins what ``helixtm`` exports.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_namespace_holds_the_session_names():
    import types

    import helixtm

    names = {name for name, value in vars(helixtm).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == {"HelixShape", "SpectrumConfig", "make_basis", "solve_states",
                     "toroidal_moment"}
    assert helixtm.__version__
