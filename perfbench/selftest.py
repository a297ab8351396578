#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds each workload's checker one genuine result and one corrupted
copy: an LP value off by 1e-6, a decomposition whose block is not
maximal, and a verification report with one check flipped to failed.
Exits 0 only when every genuine result passes and every corruption is
counted as failed.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads as W
    from ordtensor import harness, schreier, tensor
    from ordtensor.ordinal import parse_ordinal

    cases = []

    # lp_mix: a projective norm whose value is off by 1e-6
    U = np.random.default_rng(7).uniform(-1, 1, (4, 5))
    value, cert = tensor.pi_norm(U)
    dec = tensor.pi_norm_decomposition(U)[0]
    cases.append(("pi value", W.check_pi(U, value, cert.matrix, None, dec),
                  W.check_pi(U, value + 1e-6, cert.matrix, None, dec)))

    # combinatorics: a decomposition whose block lost its last element
    comb = W.Combinatorics(0, HERE)
    xi, zeta = parse_ordinal("1"), parse_ordinal("1")
    stream = tuple(range(3, 3 + W.BLOCK_BUDGET))
    item = W.Item("decompose", (0, xi, zeta, stream, 1))
    args = comb.prepare(item, {})
    blocks = comb.call(item, args)
    cases.append(("maximal block", comb.check(item, args, blocks, None, {}),
                  comb.check(item, args, (blocks[0][:-1],), None, {})))

    # verify_all: a report with one check flipped to failed
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        rc = harness.main(["verify", "perm", "--xi", "1", "--zeta", "1", "--stream", "2", "--out", str(out)])
        report = json.loads(out.read_text())
    ids = frozenset(c["check_id"] for r in report["reports"] for c in r["checks"])
    flipped = copy.deepcopy(report)
    first = next(c for c in itertools.chain.from_iterable(r["checks"] for r in flipped["reports"])
                 if not c["skipped"])
    first["passed"] = False
    cases.append(("report check", W.check_verify_report(rc, report, ids),
                  W.check_verify_report(rc, flipped, ids)))

    ok = True
    for name, genuine, corrupted in cases:
        caught = genuine.failed == 0 and corrupted.failed > 0
        ok = ok and caught
        print(f"{name:14s} genuine failed={genuine.failed} corrupted failed={corrupted.failed} "
              f"{'caught' if caught else 'NOT CAUGHT'} {corrupted.notes[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
