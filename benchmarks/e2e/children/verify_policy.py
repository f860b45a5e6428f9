"""Child process of the ``verify-policy`` workload.

The CLI cannot express the fat-tree ``prefer_bottom`` policy of the
paper's Figure 11, so this script drives the public library API the way
``python -m repro.pipeline verify`` drives it for the default policy.

    python verify_policy.py --size 10 --output report.json
    python verify_policy.py --size 10 --setup-only     # stop after encoding
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, required=True, help="fat-tree k")
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="stop after import, generation and encoding (the setup_s run)",
    )
    args = parser.parse_args(argv)

    from repro import EncodedNetwork, fattree_network
    from repro.analysis import BatchVerifier

    network = fattree_network(args.size, policy="prefer_bottom")
    artifact = EncodedNetwork.build(network)
    if args.setup_only:
        print(f"encoded {network.name}: {len(artifact.classes)} classes")
        return 0
    report = BatchVerifier(artifact=artifact, executor="serial").run(
        raise_on_timeout=False
    )
    for line in report.summary_lines():
        print(line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
