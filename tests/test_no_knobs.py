"""The package reads no environment variable.

Every behaviour is chosen by arguments, so a report depends on its config
alone and each code path that can run is the one the tests run.
"""

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wonderland"


def test_no_environment_reads():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [
        "%s:%d: %s" % (path.name, n, line.strip())
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"environ|getenv", line)
    ]
    assert hits == []
