import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    # the tour imports from the package root, so a removed export it still names fails here
    text = README.read_text()
    section = text[text.index("## Library quick tour") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick tour", "exec"), {"__name__": "readme_tour"})
    printed = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(printed[0]) <= 0.5
    assert printed[1].startswith("PhaseAnswer(")
