"""Print fresh golden fingerprints as JSON.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regenerate > tests/golden/fingerprints.json

Only regenerate when a behaviour change is intended, and explain every
fingerprint that moved in the change log.
"""

import json

from tests.golden.scenarios import SCENARIOS, run_scenario


def main() -> None:
    digests = {name: run_scenario(name).digest for name in SCENARIOS}
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
