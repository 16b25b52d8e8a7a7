"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert namespace["report"].is_valid
    assert namespace["result"].status == "error-false-positive"
