"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("(6, 4, 0) ('e1', 'f1'")
    assert lines[4] == "{'half_ad_defect': 0.0, 'riemann_max': 0.0, 'flat': True}"
