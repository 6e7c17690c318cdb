"""README's library example runs as written, so the names it uses stay in the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(example, f"{README}:library-use", "exec"), {"__name__": "readme_example"})
    assert "LogNormalParams(" in capsys.readouterr().out
