"""Every `$ surdsym ...` example in README's "Command line" section runs
and prints what the README shows."""

import shlex
from pathlib import Path

import pytest

from surdsym.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, shown output lines) per example.  The output is the lines up to
    the next blank line or prompt; a last line `...` means more lines follow."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            assert argv[0] == "surdsym", line
            examples.append((argv[1:], []))
        elif line:
            examples[-1][1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_examples_found():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"classify", "orbit", "table", "stats", "check"} <= commands


@pytest.mark.parametrize("argv, shown", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example(argv, shown, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    if shown and shown[-1] == "...":
        assert out[:len(shown) - 1] == shown[:-1]
        assert len(out) >= len(shown)
    else:
        assert out == shown
