"""README's "Library sketch" block runs against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library sketch)", "exec"), namespace)
    assert namespace["refined"].n_knots == namespace["model"].n_knots
    assert len(namespace["pred"]) == 200
