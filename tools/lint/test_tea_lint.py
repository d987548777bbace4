#!/usr/bin/env python3
"""Fixture tests for tea_lint's hot-alloc rule (pure Python, no libclang).

The rule scans the function bodies annotated `// tea_lint: hot`. The
annotation is a comment line of its own; a prose comment that merely
mentions it must not open a scope, or every allocation in the function
below the prose would be flagged. The fixture holds one of each and
asserts the exact (line, rule) set the rule reports.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tea_lint import Linter, strip_comments_and_strings  # noqa: E402

FIXTURE = """\
#include <vector>

// Setup may allocate: only the stages (marked `// tea_lint: hot` for
// the hot-alloc rule) must not.
void
setup(std::vector<int> &v)
{
    v.push_back(1);
}

// tea_lint: hot
void
stage(std::vector<int> &w)
{
    w.push_back(2);
}

  //   tea_lint: hot
void
indented(std::vector<int> &x)
{
    x.emplace_back(3);
}
"""

# (line, rule): the push_back in stage() and the emplace_back in
# indented(); nothing in setup(), whose comment only mentions the
# annotation.
EXPECTED = {(15, "hot-alloc"), (22, "hot-alloc")}


def main() -> int:
    root = Path("/fixture")
    path = root / "src" / "core" / "hot_fixture.cc"
    linter = Linter(root)
    linter.check_hot_alloc(path, strip_comments_and_strings(FIXTURE),
                           FIXTURE.splitlines())
    got = set()
    for v in linter.violations:
        where, rule = v.split(": [", 1)
        got.add((int(where.rsplit(":", 1)[1]), rule.split("]", 1)[0]))
    if got != EXPECTED:
        print(f"test_tea_lint: FAIL: expected {sorted(EXPECTED)}, got "
              f"{sorted(got)}")
        for v in linter.violations:
            print(f"  {v}")
        return 1
    print(f"test_tea_lint: PASS ({len(EXPECTED)} expected violations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
