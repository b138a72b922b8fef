import json
import re
import shlex
from pathlib import Path

from rareweak import cli, harness

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


def readme_command_lines() -> list[str]:
    """Every `rareweak ...` line of README's sh blocks, with backslash continuations joined."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rareweak "):
                lines.append(line)
    return lines


def test_readme_commands_parse(monkeypatch):
    # every flag and subcommand that README shows is one the parser takes; the handlers do not run
    ran = []
    for name in ("cmd_simulate", "cmd_sweep", "cmd_boundary", "cmd_ifpca"):
        monkeypatch.setattr(cli, name, lambda ns, name=name: ran.append(name) or 0)
    lines = readme_command_lines()
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
    assert len(ran) == len(lines) >= 6
    assert set(ran) == {"cmd_simulate", "cmd_sweep", "cmd_boundary", "cmd_ifpca"}


def test_methods_table_matches_method_table():
    # README's "Methods and options" table lists exactly harness.METHODS, each with its group and option set
    text = README.read_text()
    section = text[text.index("## Methods and options") :]
    section = section[: section.index("\n## ")]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \|(.*)\|$", section, re.MULTILINE)
    table = {name: (group, set(re.findall(r"`(\w+)`", options))) for name, group, options in rows}
    assert len(rows) == len(table)
    assert table == {name: (method.group, set(method.options)) for name, method in harness.METHODS.items()}


def test_sweep_spec_example_loads():
    # README's example spec files (the null-cell one spells its strength Infinity) pass the
    # spec-file parser, which rejects unknown fields, and read as written
    text = README.read_text()
    for intro in ("A sweep spec is JSON like:", "This sweep has a null cell and an alternative one:"):
        example = json.loads(re.search(re.escape(intro) + r"\n\n```json\n(.*?)```", text, re.DOTALL).group(1))
        written = harness.SweepSpec.from_dict(example).to_dict()
        assert {key: written[key] for key in example} == example
