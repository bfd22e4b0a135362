"""README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under README's ``## Library example``."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_what_its_comments_say():
    code = library_example()
    # Each print's comment opens with the line it prints, up to a comma.
    expected = [line.split("#", 1)[1].split(",", 1)[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == expected == ["0.5 0.0", "0.0", "True True"]
