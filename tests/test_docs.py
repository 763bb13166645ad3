import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["eigs"].N == 94
    assert ns["rec"].relative_error <= ns["bound"]
    assert "iterations" in capsys.readouterr().out
