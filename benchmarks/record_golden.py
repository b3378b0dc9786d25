"""Record golden.json: SHA-256 of every corpus instance's outputs.

    python3 benchmarks/record_golden.py

Runs each instance once and stores the hashes of its timing-free report and
of its realization JSON. An instance is recorded only when its certificate
holds and its coordinates are within the paper's bounds. Re-record only
when a change is meant to alter the outputs, and say why it does.
"""

from __future__ import annotations

import json
import sys

import corpus
import run


def main() -> int:
    gl = run.import_package()
    golden: dict[str, dict[str, str]] = {}
    for workload, specs in corpus.WORKLOADS.items():
        for inst in corpus.build(gl, specs):
            out = run.run_instance(gl, inst)
            if out.report_sha is not None:
                golden[inst.key] = {"report": out.report_sha, "realization": out.realization_sha}
            run.check(inst, out, golden)
            if out.problems:
                print(f"{workload} {inst.key}: {'; '.join(out.problems)}", file=sys.stderr)
                return 1
            print(f"{workload} {inst.key}: {out.realize_s:.2f} s", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
