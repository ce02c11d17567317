"""Setup probe: what a command pays before its first trial or tick.

Run as a fresh process from the checkout root:
    python3 bench/probe.py <config>
It starts the interpreter, imports `fairorder.cli` like the CLI entry
point, and loads and lints the workload's config the way the command
does. A sweep config has no scenario to lint; loading it means building
every cell's scenario. The caller times the whole process.
"""

import json
import sys

sys.path.insert(0, "src")

from fairorder import cli  # noqa: E402


def main(config: str) -> int:
    with open(config) as f:
        doc = json.load(f)
    if "sweep" in doc:
        grid = doc["sweep"]
        cells = [cli.two_request_gap_scenario(gap=float(n), epsilon=float(e),
                                              lam=float(grid.get("lambda", 1.0)))
                 for e in grid["epsilons"] for n in grid["gaps"]]
        print(f"cells={len(cells)}")
    else:
        warnings = cli.lint_scenario(cli.load_scenario(config))
        print(f"warnings={len(warnings)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
